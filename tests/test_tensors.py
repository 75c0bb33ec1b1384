"""Tensor engine: forward examples, finite-difference checks, adjoint identity."""

import numpy as np
import pytest

import fluvinv.tensors as tc
from fluvinv.tensors import GraphTape, ShapeError, TapeError, gradient_check


def conv3d_reference(x, w):
    """Direct-summation oracle for "same" zero-padded cross-correlation."""
    co, ci, kz, ky, kx = w.shape
    _, nz, ny, nx = x.shape
    pz, py, px = kz // 2, ky // 2, kx // 2
    out = np.zeros((co, nz, ny, nx), dtype=np.float64)
    for o in range(co):
        for c in range(ci):
            for z in range(nz):
                for y in range(ny):
                    for xx in range(nx):
                        acc = 0.0
                        for i in range(kz):
                            for j in range(ky):
                                for k in range(kx):
                                    zz, yy, xq = z + i - pz, y + j - py, xx + k - px
                                    if 0 <= zz < nz and 0 <= yy < ny and 0 <= xq < nx:
                                        acc += w[o, c, i, j, k] * x[c, zz, yy, xq]
                        out[o, z, y, xx] += acc
    return out


def test_dense_identity():
    tape = GraphTape(np.float64)
    v = np.array([1.5, -2.0, 3.0])
    x = tape.input(v)
    y = tc.dense(tape.constant(np.eye(3)), x, tape.constant(np.zeros(3)))
    np.testing.assert_array_equal(y.value, v)


def test_leaky_relu_values():
    tape = GraphTape(np.float64)
    y = tc.leaky_relu(tape.input([-1.0, 2.0]), slope=0.2)
    np.testing.assert_allclose(y.value, [-0.2, 2.0])


def test_conv3d_one_hot_copies_kernel():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(1, 1, 3, 3, 3))
    x = np.zeros((1, 5, 6, 7))
    x[0, 2, 3, 4] = 1.0
    tape = GraphTape(np.float64)
    y = tc.conv3d(tape.input(x), tape.constant(w))
    # kernel copied at the hot location (flipped: correlation of a one-hot)
    expected = conv3d_reference(x, w)
    np.testing.assert_allclose(y.value, expected, atol=1e-12)
    np.testing.assert_allclose(y.value[0, 1:4, 2:5, 3:6], w[0, 0, ::-1, ::-1, ::-1].T.T,
                               atol=1e-12)


def test_conv3d_matches_direct_summation():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 4, 5, 6))
    w = rng.normal(size=(3, 2, 3, 1, 3))
    tape = GraphTape(np.float64)
    y = tc.conv3d(tape.input(x), tape.constant(w))
    np.testing.assert_allclose(y.value, conv3d_reference(x, w), rtol=1e-12)


def test_backward_sum_is_ones():
    tape = GraphTape(np.float64)
    x = tape.input(np.arange(12.0).reshape(3, 4))
    grads = tape.backward(tc.sum_all(x))
    np.testing.assert_array_equal(grads.wrt(x), np.ones((3, 4)))


def test_backward_tanh_at_zero():
    tape = GraphTape(np.float64)
    x = tape.input(np.zeros(()))
    grads = tape.backward(tc.tanh(x))
    np.testing.assert_allclose(grads.wrt(x), 1.0)


def test_quadratic_gradient_check():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=10)
    err = gradient_check(lambda t, x: tc.sum_all(tc.square(x)), x0, step=1e-5)
    assert err < 1e-9


def test_constant_function_gradient_zero():
    err = gradient_check(lambda t, x: tc.sum_all(t.constant(np.ones(3))) + 0.0 * tc.sum_all(x),
                         np.ones(3))
    assert err == 0.0


def test_composite_grid_graph_matches_finite_differences():
    # random small composite graph on an 8x8x4 grid
    rng = np.random.default_rng(11)
    w = rng.normal(size=(2, 1, 3, 3, 3)) * 0.3
    head = rng.normal(size=(1, 2, 3, 3, 3)) * 0.3

    def fn(tape, x):
        h = tc.conv3d(x, tape.constant(w))
        h = tc.leaky_relu(h, 0.2)
        h = tc.conv3d(h, tape.constant(head))
        h = tc.tanh(h)
        return tc.mean_all(tc.square(h))

    x0 = rng.normal(size=(1, 4, 8, 8)) * 0.5
    assert gradient_check(fn, x0, step=1e-5) < 1e-6


PRIMITIVE_CASES = {
    "add": lambda t, x: tc.sum_all(tc.square(tc.add(x, t.constant(0.3)))),
    "sub": lambda t, x: tc.sum_all(tc.square(tc.sub(t.constant(1.1), x))),
    "mul": lambda t, x: tc.sum_all(tc.mul(x, tc.mul(x, t.constant(0.7)))),
    "div": lambda t, x: tc.sum_all(tc.div(t.constant(1.0), tc.add(tc.square(x), t.constant(1.0)))),
    "neg": lambda t, x: tc.sum_all(tc.square(tc.neg(x))),
    "exp": lambda t, x: tc.sum_all(tc.exp(tc.affine(x, 0.3, 0.0))),
    "log": lambda t, x: tc.sum_all(tc.log(tc.add(tc.square(x), t.constant(1.5)))),
    "sqrt": lambda t, x: tc.sum_all(tc.sqrt(tc.add(tc.square(x), t.constant(1.0)))),
    "power": lambda t, x: tc.sum_all(tc.power(tc.add(tc.square(x), t.constant(0.5)), 1.0 / 3.0)),
    "sin": lambda t, x: tc.sum_all(tc.sin(x)),
    "tanh": lambda t, x: tc.sum_all(tc.tanh(x)),
    "sigmoid": lambda t, x: tc.sum_all(tc.sigmoid(x)),
    "leaky_relu": lambda t, x: tc.sum_all(tc.leaky_relu(tc.add(x, t.constant(0.05)), 0.2)),
    "affine": lambda t, x: tc.sum_all(tc.affine(x, -1.7, 0.4)),
    "abs": lambda t, x: tc.sum_all(tc.absolute(tc.add(x, t.constant(0.05)))),
    "clamp": lambda t, x: tc.sum_all(tc.clamp(x, -0.8, 0.8)),
    "mean": lambda t, x: tc.mean_all(tc.square(x)),
    "upsample2": lambda t, x: tc.mean_all(
        tc.square(tc.upsample2(tc.reshape(x, (1, 2, 3, 4))))),
    "crop": lambda t, x: tc.sum_all(tc.square(tc.crop(
        tc.reshape(x, (2, 3, 4)), (slice(0, 1), slice(1, 3), slice(0, 4))))),
    "pad": lambda t, x: tc.sum_all(tc.square(tc.pad_zero(
        tc.reshape(x, (2, 3, 4)), ((0, 1), (1, 0), (2, 2))))),
    "concat": lambda t, x: tc.sum_all(tc.square(tc.concat([x, tc.square(x)], axis=0))),
    "take": lambda t, x: tc.sum_all(tc.square(tc.take(x, [0, 3, 3, 7]))),
    "dense": lambda t, x: tc.sum_all(tc.square(tc.dense(
        t.constant(np.linspace(-1, 1, 3 * 24).reshape(3, 24)), tc.reshape(x, (24,)),
        t.constant(np.array([0.1, -0.2, 0.3]))))),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradients_match_finite_differences(name, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=24) * 0.9
    # keep abs/leaky/clamp away from their kinks
    x0[np.abs(x0 + 0.05) < 1e-3] += 0.01
    x0[np.abs(np.abs(x0) - 0.8) < 1e-3] += 0.01
    err = gradient_check(PRIMITIVE_CASES[name], x0, step=1e-5)
    assert err < 1e-6, f"{name}: fd mismatch {err}"


@pytest.mark.parametrize("seed", range(20))
def test_conv3d_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    w = rng.normal(size=(2, 1, 3, 3, 3)) * 0.4
    b = rng.normal(size=2) * 0.1

    x_fixed = rng.normal(size=(1, 3, 4, 4))

    def wrt_input(t, x):
        return tc.mean_all(tc.square(tc.conv3d(
            tc.reshape(x, (1, 3, 4, 4)), t.constant(w), t.constant(b))))

    def wrt_kernel(t, k):
        return tc.mean_all(tc.square(tc.conv3d(
            t.constant(x_fixed), tc.reshape(k, (2, 1, 3, 3, 3)))))

    assert gradient_check(wrt_input, rng.normal(size=48)) < 1e-6
    assert gradient_check(wrt_kernel, rng.normal(size=54) * 0.4) < 1e-6


def test_forward_is_pure():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 4, 4, 4)).astype(np.float32)
    w = rng.normal(size=(3, 2, 3, 3, 3)).astype(np.float32)

    def run():
        tape = GraphTape(np.float32)
        return tc.conv3d(tape.input(x), tape.constant(w)).value

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_shape_mismatch_reports_op_and_shapes():
    tape = GraphTape()
    a = tape.input(np.ones((2, 3)))
    b = tape.input(np.ones((4, 5)))
    with pytest.raises(ShapeError, match=r"add.*\(2, 3\).*\(4, 5\)"):
        tc.add(a, b)


def test_double_backward_rejected():
    tape = GraphTape(np.float64)
    x = tape.input(np.ones(3))
    out = tc.sum_all(x)
    tape.backward(out)
    with pytest.raises(TapeError, match="double backward"):
        tape.backward(out)


def test_backward_before_forward_rejected():
    tape = GraphTape(np.float64)
    x = tape.input(np.ones(3))
    with pytest.raises(TapeError, match="backward before forward"):
        tape.backward(x)


def test_mixed_tapes_rejected():
    t1, t2 = GraphTape(), GraphTape()
    with pytest.raises(TapeError):
        tc.add(t1.input(np.ones(2)), t2.input(np.ones(2)))


def test_reductions_accumulate_in_float64():
    # 1 + 2^-20 added 2^20 times in f32 storage: naive f32 accumulation stalls
    n = 1 << 20
    x = np.full(n, np.float32(2.0 ** -20))
    tape = GraphTape(np.float32)
    s = tc.sum_all(tape.input(x))
    assert abs(float(s.value) - 1.0) < 1e-6


@pytest.mark.parametrize("axis, taps", [(0, 3), (1, 5), (2, 9)])
def test_conv3d_one_axis_kernel_adjoint_identity(axis, taps):
    # a constant single-channel kernel along one axis takes the banded path;
    # 9 taps on a 5-sample axis reach past both ends
    rng = np.random.default_rng(7)
    shape = [1, 1, 1, 1, 1]
    shape[2 + axis] = taps
    w = rng.normal(size=shape)
    xv = rng.normal(size=(1, 4, 6, 5))
    yv = rng.normal(size=xv.shape)
    tape = GraphTape(np.float64)
    x = tape.input(xv)
    before = len(tape._records)
    ax = tc.conv3d(x, tape.constant(w))
    assert len(tape._records) == before + 1
    assert tape._records[-1][1] == (x.idx,)  # no gradient for the kernel
    np.testing.assert_allclose(ax.value, conv3d_reference(xv, w), rtol=1e-12, atol=1e-14)
    # <A x, y> == <x, A^T y>, with A^T y taken by the backward pass
    aty = tape.backward(ax, seed=yv).wrt(x)
    lhs = float(np.sum(ax.value * yv))
    rhs = float(np.sum(xv * aty))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
