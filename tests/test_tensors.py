"""Tensor engine: forward examples, finite-difference checks, adjoint identity."""

import gc
import inspect
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import fluvinv.tensors as tc
from fluvinv.tensors import GraphTape, ShapeError, TapeError, TensorError
from fluvinv.generators import ProceduralGenerator, sample_prior
from fluvinv.grids import GridGeometry
from helpers import conv3d_reference, gradient_check, rejection_test


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fn, point, step, match", [
    (lambda t, x: tc.sum_all(x), [1.0], 0.0, "step"),
    (lambda t, x: tc.square(x), [1.0], 1e-5, "scalar"),
    (lambda t, x: tc.sum_all(tc.log(x)), [-1.0], 1e-5, "evaluation point"),
    # finite at the point, NaN one step below zero
    (lambda t, x: tc.sum_all(tc.sqrt(x)), [1.0, 0.0], 1e-5, "probe coordinate 1"),
], ids=["step", "scalar", "non-finite", "non-finite-probe"])
def test_gradient_check_rejects_bad_steps_and_functions(fn, point, step, match):
    with pytest.raises(ValueError, match=match):
        gradient_check(fn, point, step=step)


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


def _scaled_exp(a, b):
    """a * exp(b) and its vector-Jacobian product, for ``tc.custom``."""
    e = np.exp(b)
    return a * e, lambda g: (g * e, g * a * e)


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
    # a pointwise (elementwise) `tc.custom` whose vjp multiplies by the slope,
    # the form of the tabulated Vp record
    "pointwise": lambda t, x: tc.sum_all(tc.custom(
        lambda v: (v ** 3 / 3.0 + v, lambda g: (g * (v * v + 1.0),)), x)),
    "mean": lambda t, x: tc.mean_all(tc.square(x)),
    "upsample2": lambda t, x: tc.mean_all(
        tc.square(tc.upsample2(tc.reshape(x, (1, 2, 3, 4))))),
    # the input's gradient, then the kernel's: a (2, 4, 3, 1, 1) kernel
    "upconv3d": lambda t, x: tc.mean_all(tc.square(tc.upconv3d(
        tc.reshape(x, (2, 1, 3, 4)), t.constant(np.linspace(-1, 1, 54).reshape(3, 2, 1, 3, 3)),
        t.constant(np.array([0.1, -0.2, 0.3]))))),
    "upconv3d_kernel": lambda t, x: tc.mean_all(tc.square(tc.upconv3d(
        t.constant(np.linspace(-1, 1, 48).reshape(4, 2, 2, 3)), tc.reshape(x, (2, 4, 3, 1, 1))))),
    "crop": lambda t, x: tc.sum_all(tc.square(tc.crop(
        tc.reshape(x, (2, 3, 4)), (slice(0, 1), slice(1, 3), slice(0, 4))))),
    "concat": lambda t, x: tc.sum_all(tc.square(tc.concat([x, tc.square(x)], axis=0))),
    "stack": lambda t, x: tc.sum_all(tc.square(tc.stack([x, tc.affine(x, 2.0, 0.3)]))),
    "sum_axis": lambda t, x: tc.sum_all(tc.square(tc.sum_axis(tc.reshape(x, (4, 6)), 1))),
    "take": lambda t, x: tc.sum_all(tc.square(tc.take(x, [0, 3, 3, 7]))),
    # a (5, 3) matrix: the axis grows from 3 to 5
    "matmul_axis": lambda t, x: tc.sum_all(tc.square(tc.matmul_axis(
        tc.reshape(x, (2, 3, 4)), np.linspace(-1, 1, 15).reshape(5, 3), 1))),
    "dense": lambda t, x: tc.sum_all(tc.square(tc.dense(
        t.constant(np.linspace(-1, 1, 3 * 24).reshape(3, 24)), tc.reshape(x, (24,)),
        t.constant(np.array([0.1, -0.2, 0.3]))))),
    # two (2, 6) inputs; the square makes the upstream gradient non-uniform,
    # and the offset keeps its entries away from zero
    "custom": lambda t, x: tc.sum_all(tc.square(tc.add(tc.custom(
        _scaled_exp, tc.reshape(tc.crop(x, (slice(0, 12),)), (2, 6)),
        tc.reshape(tc.crop(x, (slice(12, 24),)), (2, 6))), t.constant(0.5)))),
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
    with pytest.raises(ShapeError, match=r"matmul_axis.*\(4, 5\).*axis 1.*\(2, 3\)"):
        tc.matmul_axis(a, np.ones((4, 5)), 1)


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


# ---------------------------------------------------------------------------
# property tests (hypothesis)

def masked_sigmoid(v):
    """Reference for ``tc._stable_sigmoid``: the boolean-mask form it replaced."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sigmoid_equals_masked_reference(dtype, data):
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 88.7, -88.7, 745.0, -745.0])
    elements = st.one_of(st.floats(width=np.dtype(dtype).itemsize * 8), special)
    v = data.draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, max_side=6),
                             elements=elements))
    got = tc._stable_sigmoid(v)
    assert got.dtype == dtype and got.shape == v.shape
    np.testing.assert_array_equal(got, masked_sigmoid(v))
    in_place = v.copy()
    assert tc._stable_sigmoid(in_place, out=in_place) is in_place
    np.testing.assert_array_equal(in_place, got)


BINARY_OPS = {
    "add": (tc.add, lambda a, b: (np.ones_like(a), np.ones_like(b))),
    "sub": (tc.sub, lambda a, b: (np.ones_like(a), -np.ones_like(b))),
    "mul": (tc.mul, lambda a, b: (b, a)),
    "div": (tc.div, lambda a, b: (1.0 / b, -a / (b * b))),
}


def _summed_to(full, shape):
    """Oracle for ``_unbroadcast``: every entry of the full-shape gradient
    added, one at a time, to the operand entry it was broadcast from."""
    out = np.zeros(shape)
    pad = full.ndim - len(shape)
    for idx in np.ndindex(full.shape):
        src = tuple(0 if s == 1 else i for i, s in zip(idx[pad:], shape))
        out[src] += full[idx]
    return out


def _batch_pair(b, sample):
    """A leading batch axis of b against one sample's shape, with every
    other axis of the sample cut to size 1."""
    return (b,) + sample, tuple(1 if i % 2 else s for i, s in enumerate(sample))


def _broadcast_pairs():
    general = hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=4,
                                                max_side=3).map(lambda b: b.input_shapes)
    batched = st.builds(_batch_pair, st.integers(1, 4),
                        hnp.array_shapes(min_dims=1, max_dims=3, max_side=3))
    return st.one_of(general, batched, batched.map(lambda p: (p[1], p[0])))


@pytest.mark.parametrize("name", sorted(BINARY_OPS))
@settings(max_examples=60, deadline=None)
@given(shapes=_broadcast_pairs(), seed=st.integers(0, 2 ** 16))
def test_broadcast_gradients_sum_over_broadcast_axes(name, shapes, seed):
    op, partials = BINARY_OPS[name]
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shapes[0])
    b = rng.uniform(0.5, 2.0, shapes[1]) * rng.choice([-1.0, 1.0], shapes[1])
    tape = GraphTape(np.float64)
    an, bn = tape.input(a), tape.input(b)
    out = op(an, bn)
    full_shape = np.broadcast_shapes(a.shape, b.shape)
    assert out.value.shape == full_shape
    g = rng.standard_normal(full_shape)
    grads = tape.backward(out, seed=g)
    da, db = partials(*np.broadcast_arrays(a, b))
    for node, partial in ((an, da), (bn, db)):
        got = grads.wrt(node)
        assert got.shape == node.value.shape
        np.testing.assert_allclose(got, _summed_to(g * partial, node.value.shape),
                                   rtol=1e-12, atol=1e-15)


def test_backward_keeps_only_leaf_gradients():
    tape = GraphTape(np.float64)
    x = tape.input(np.array([1.0, 2.0]))
    c = tape.constant(np.array([3.0, 4.0]))
    h = x * c
    grads = tape.backward(tc.sum_all(tc.square(h)))
    np.testing.assert_array_equal(grads.wrt(x), 2.0 * np.array([3.0, 8.0]) * np.array([3.0, 4.0]))
    np.testing.assert_array_equal(grads.wrt(c), np.zeros(2))
    with pytest.raises(TapeError, match="op output"):
        grads.wrt(h)


@pytest.mark.parametrize("parts", [
    lambda g: (g,),                                   # one gradient for two inputs
    lambda g: (g, g, g),                              # three
    lambda g: (g, np.ones(3)),                        # (3,) for a (2, 3) input
    lambda g: (g, np.ones((2, 1))),                   # narrower than the input
    lambda g: (g, np.ones((4, 2, 3))),                # one the input broadcasts to
], ids=["too_few", "too_many", "wrong_shape", "narrower", "broadcast"])
def test_custom_rejects_wrong_gradient_count_or_shape(parts):
    tape = GraphTape(np.float64)
    a, b = tape.input(np.ones((2, 3))), tape.input(np.ones((2, 3)))
    out = tc.custom(lambda x, y: (x * y, parts), a, b)
    with pytest.raises(ShapeError, match="custom"):
        tape.backward(tc.sum_all(out))


def test_custom_honours_requires_grad_and_tape_dtype():
    tape = GraphTape(np.float32)
    calls = []

    def fn(a, b):
        calls.append((a.dtype, b.dtype))
        return (a + b).astype(np.float64), lambda g: (g, 2.0 * g)

    a, c = tape.input(np.ones(3)), tape.constant(np.full(3, 2.0))
    out = tc.custom(fn, a, c)
    assert out.value.dtype == np.float32 and out.requires_grad
    assert calls == [(np.float32, np.float32)]
    before = len(tape._records)
    const = tc.custom(fn, tape.constant(np.ones(3)), tape.constant(np.ones(3)))
    assert not const.requires_grad and len(tape._records) == before
    grads = tape.backward(tc.sum_all(out))
    np.testing.assert_array_equal(grads.wrt(a), np.ones(3))
    np.testing.assert_array_equal(grads.wrt(c), np.zeros(3))


def _record_builders():
    """Every op of ``tc.__all__`` that records a backward, each as
    leaf -> output node, where ``leaf(value)`` makes every node the op reads
    (``tape.input`` or ``tape.constant``)."""
    def x(leaf):
        return leaf(np.linspace(-1.0, 1.0, 24).reshape(1, 2, 3, 4))

    def pos(leaf):
        return leaf(np.linspace(0.5, 2.0, 24).reshape(1, 2, 3, 4))

    def kernel(leaf):
        return leaf(np.ones((2, 1, 3, 3, 3)))

    return {
        "add": lambda leaf: tc.add(x(leaf), pos(leaf)),
        "sub": lambda leaf: tc.sub(x(leaf), pos(leaf)),
        "mul": lambda leaf: tc.mul(x(leaf), pos(leaf)),
        "div": lambda leaf: tc.div(x(leaf), pos(leaf)),
        "neg": lambda leaf: tc.neg(x(leaf)),
        "absolute": lambda leaf: tc.absolute(x(leaf)),
        "exp": lambda leaf: tc.exp(x(leaf)),
        "log": lambda leaf: tc.log(pos(leaf)),
        "sqrt": lambda leaf: tc.sqrt(pos(leaf)),
        "square": lambda leaf: tc.square(x(leaf)),
        "power": lambda leaf: tc.power(pos(leaf), 1.5),
        "sin": lambda leaf: tc.sin(x(leaf)),
        "tanh": lambda leaf: tc.tanh(x(leaf)),
        "sigmoid": lambda leaf: tc.sigmoid(x(leaf)),
        "leaky_relu": lambda leaf: tc.leaky_relu(x(leaf)),
        "clamp": lambda leaf: tc.clamp(x(leaf), -0.5, 0.5),
        "affine": lambda leaf: tc.affine(x(leaf), 2.0, 0.1),
        "custom": lambda leaf: tc.custom(_scaled_exp, x(leaf), leaf(np.ones((1, 2, 3, 4)))),
        "dense": lambda leaf: tc.dense(leaf(np.ones((3, 24))), leaf(np.linspace(-1.0, 1.0, 24)),
                                       leaf(np.zeros(3))),
        "matmul_axis": lambda leaf: tc.matmul_axis(x(leaf), np.ones((5, 3)), 2),
        "conv3d": lambda leaf: tc.conv3d(x(leaf), kernel(leaf), leaf(np.zeros(2))),
        "conv3d_at": lambda leaf: tc.conv3d_at(
            leaf(np.linspace(-1.0, 1.0, 24).reshape(1, 24)), kernel(leaf), leaf(np.zeros(2)),
            tc.cell_plan((2, 3, 4), (3, 3, 3), [0, 13, 23])),
        "upconv3d": lambda leaf: tc.upconv3d(x(leaf), kernel(leaf), leaf(np.zeros(2))),
        "upsample2": lambda leaf: tc.upsample2(x(leaf)),
        "crop": lambda leaf: tc.crop(x(leaf), (slice(0, 1), slice(0, 2), slice(1, 3),
                                               slice(0, 4))),
        "concat": lambda leaf: tc.concat([x(leaf), pos(leaf)], axis=1),
        "stack": lambda leaf: tc.stack([x(leaf), pos(leaf)]),
        "reshape": lambda leaf: tc.reshape(x(leaf), (24,)),
        "take": lambda leaf: tc.take(x(leaf), [0, 5, 5]),
        "sum_all": lambda leaf: tc.sum_all(x(leaf)),
        "sum_axis": lambda leaf: tc.sum_axis(x(leaf), 2),
        "mean_all": lambda leaf: tc.mean_all(x(leaf)),
        "mean_rows": lambda leaf: tc.mean_rows(x(leaf)),
    }


def test_record_builders_cover_every_recording_op():
    # a new op of tc.__all__ must join _record_builders; cell_plan makes no node
    ops = {name for name in tc.__all__ if inspect.isfunction(getattr(tc, name))}
    assert set(_record_builders()) == ops - {"cell_plan"}


@pytest.mark.parametrize("name", sorted(_record_builders()))
def test_tape_of_records_is_freed_by_reference_counting(name):
    # a record captures flags and arrays, never its input nodes, so a tape
    # is no reference cycle and dies with its last node
    gc.disable()
    try:
        tape = GraphTape(np.float64)
        out = _record_builders()[name](tape.input)
        assert out.requires_grad and len(tape._records) == 1
        ref = weakref.ref(tape)
        del tape, out
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(_record_builders()))
def test_op_over_constants_adds_no_record(name):
    tape = GraphTape(np.float64)
    out = _record_builders()[name](tape.constant)
    assert not out.requires_grad and not tape._records


def test_procedural_build_adds_at_most_five_records():
    gen = ProceduralGenerator(GridGeometry(nx=8, ny=8, nz=4), latent_dim=8)
    tape = GraphTape(np.float64)
    z = tape.input(sample_prior(2, 8, rng_seed=1))
    labels = tape.input(np.full((2, 5), 0.4))
    maps = tape.input(gen.weights()["maps"])
    for cells in (None, np.array([3, 50, 200])):
        before = len(tape._records)
        gen.build(tape, z, labels, {"maps": maps}, cells)
        assert len(tape._records) - before <= 5


def _nodes(*shapes):
    tape = GraphTape(np.float64)
    return [tape.input(np.ones(shape)) for shape in shapes]


def _squared():
    tape = GraphTape(np.float64)
    x = tape.input(np.ones(3))
    return tape, x * x


def _wrt_a_node_of_another_tape():
    tape, y = _squared()
    tape.backward(y).wrt(_nodes(3)[0])


def _backward_of_a_node_of_another_tape():
    tape, _ = _squared()
    tape.backward(_nodes(3)[0])


def _node_on_a_consumed_tape():
    tape, y = _squared()
    tape.backward(y)
    tape.input(1.0)


def _backward_with_seed(shape):
    tape, y = _squared()
    tape.backward(y, np.ones(shape))


# callable, arguments, error, message fragment
REJECTIONS = {
    "wrt another tape": (_wrt_a_node_of_another_tape, (), TapeError,
                         "gradient requested for a node from another tape"),
    "backward of another tape": (_backward_of_a_node_of_another_tape, (), TapeError,
                                 "output node belongs to another tape"),
    "int32 tape": (GraphTape, (np.int32,), TensorError, "unsupported storage dtype int32"),
    "consumed tape": (_node_on_a_consumed_tape, (), TapeError, "tape already consumed"),
    "seed shape": (_backward_with_seed, ((4,),), ShapeError,
                   "seed gradient shape (4,) != output shape (3,)"),
    "no node operand": (tc.add, (1.0, 2.0), TensorError, "at least one operand must be a Node"),
    "crop rank": (tc.crop, (_nodes((2, 3))[0], (slice(None),)), ShapeError,
                  "crop: 1 slices for a rank-2 tensor"),
    "crop step": (tc.crop, (_nodes((4,))[0], (slice(0, 4, 2),)), TensorError,
                  "only unit-step slices"),
    "concat shapes": (tc.concat, (_nodes((2, 3), (2, 4)),), ShapeError,
                      "concat: incompatible shapes [(2, 3), (2, 4)] along axis 0"),
    "stack shapes": (tc.stack, (_nodes((2,), (3,)),), ShapeError,
                     "stack: unequal shapes [(2,), (3,)]"),
    "reshape size": (tc.reshape, (_nodes((2, 3))[0], (4,)), ShapeError,
                     "reshape: cannot reshape (2, 3) to (4,)"),
    "take out of range": (tc.take, (_nodes((2, 3))[0], [6]), TensorError,
                          "take: index out of range"),
    "dense bias": (tc.dense, tuple(_nodes((2, 3), (3,), (3,))), ShapeError,
                   "dense: bias (3,) incompatible with weight (2, 3)"),
    "upsample2 rank": (tc.upsample2, (_nodes((2, 3))[0],), ShapeError,
                       "upsample2: expected rank-4 input, got (2, 3)"),
}

test_tensor_ops_reject_bad_input = rejection_test(REJECTIONS)
