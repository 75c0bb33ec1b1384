"""conv3d's general path (column-buffer matmuls) against the paths it
replaced, and upconv3d against the composition it replaces.

``conv3d_windows_reference`` is the general path as it was first: an einsum
over a sliding-window view of the padded input, forward and backward.
``helpers.conv3d_per_tap`` is the loop it ran next: one (O, C) @ (C, L)
matmul per tap over shifted views of the padded input. The column-buffer
correlation (one (O, kx*C) @ (kx*C, L) matmul per kernel row) must
reproduce both, values and all three gradients, to round-off, and agree
with direct summation and its own adjoint on random small shapes. Its
per-row accumulation in a contiguous buffer must equal the wide-buffer form
(``helpers.correlate_wide_buffer``) bit for bit.

``upconv3d(x, w, bias)`` runs ``conv3d(upsample2(x), w, bias)`` on the
coarse grid; the composition is its oracle, in value and all three
gradients, at float64 round-off, and ``helpers.upconv3d_per_offset``, its
loop of one matmul per coarse offset before the column buffer, must agree
with it as closely.

A record that needs the kernel gradient keeps the once-padded input for
its backward, never the column buffer, which is kx times larger.

``conv3d_at`` evaluates the same correlation only at given output cells. It
must equal ``take`` of ``conv3d`` there: bit for bit wherever BLAS rounds
each column of a product as it does in a wider one, to round-off elsewhere,
and its kernel and bias gradients bit for bit always. It must also satisfy
its own adjoint identity.

A constant single-channel kernel along one axis (a separable PSF factor)
runs by windows of its band, as one record. It must agree with the dense
banded matrix product that it replaced, ``tc._along_axis`` of
``tc._banded``, in value and input gradient.

The per-tap loop, the per-offset loop, ``take`` of ``conv3d`` and the
banded matrix are the references of entries of ``helpers.FAST_PATHS``,
which also gives their rules; the tests here feed those entries the
generator's shapes and the edge cases.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import fluvinv.tensors as tc
from fluvinv.tensors import GraphTape
from helpers import (BAND_LENGTHS, EXACT, FAST_PATHS, ROUND_OFF, _band_case, assert_matches,
                     check_fast_path, conv3d_reference, correlate_wide_buffer, run_taped)


def conv3d_windows_reference(x, w, bias, g):
    """(value, gx, gw, gbias) of conv3d(x, w, bias) with output gradient g,
    by einsum over sliding windows of the zero-padded input, in float64."""
    kshape = w.shape[2:]
    pads = ((0, 0),) + tuple((k // 2, k // 2) for k in kshape)
    win = sliding_window_view(np.pad(x, pads), kshape, axis=(1, 2, 3))
    value = np.einsum("czyxijk,ocijk->ozyx", win, w, dtype=np.float64, optimize=True)
    value = value + bias[:, None, None, None]
    # the input gradient correlates g with the flipped, channel-swapped kernel
    wt = w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
    gwin = sliding_window_view(np.pad(g, pads), kshape, axis=(1, 2, 3))
    gx = np.einsum("ozyxijk,coijk->czyx", gwin, wt, dtype=np.float64, optimize=True)
    gw = np.einsum("czyxijk,ozyx->ocijk", win, g, dtype=np.float64, optimize=True)
    return value, gx, gw, g.sum(axis=(1, 2, 3), dtype=np.float64)


def taped(x, w, bias, g, dtype):
    """The same four arrays from ``tc.conv3d`` on a tape of ``dtype``."""
    tape = GraphTape(dtype)
    nodes = [tape.input(v) for v in (x, w, bias)]
    out = tc.conv3d(*nodes)
    grads = tape.backward(out, seed=g)
    return (out.value,) + tuple(grads.wrt(n) for n in nodes)


# (input shape, kernel shape): the seven convolutions of the default
# NeuralGenerator at 32x32x8, then the edge cases of the padding layout
SHAPES = {
    "block0.conv1": ((16, 4, 16, 16), (8, 16, 3, 3, 3)),
    "block0.conv2": ((8, 4, 16, 16), (8, 8, 3, 3, 3)),
    "block0.skip": ((16, 4, 16, 16), (8, 16, 1, 1, 1)),
    "block1.conv1": ((8, 8, 32, 32), (4, 8, 3, 3, 3)),
    "block1.conv2": ((4, 8, 32, 32), (4, 4, 3, 3, 3)),
    "block1.skip": ((8, 8, 32, 32), (4, 8, 1, 1, 1)),
    "head": ((4, 8, 32, 32), (2, 4, 3, 3, 3)),
    "1x1x1": ((3, 2, 4, 5), (2, 3, 1, 1, 1)),
    "3x1x5": ((2, 4, 3, 6), (3, 2, 3, 1, 5)),
    "5x3x1": ((3, 6, 4, 2), (2, 3, 5, 3, 1)),
    # kz = 5 on Z = 2 and kx = 7 on X = 3: taps that only ever meet padding
    "longer-than-axis": ((2, 2, 4, 3), (2, 2, 5, 3, 7)),
}


def random_case(xshape, wshape, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=xshape)
    w = rng.normal(size=wshape)
    bias = rng.normal(size=wshape[0])
    g = rng.normal(size=(wshape[0],) + xshape[1:])
    return x, w, bias, g


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shifted_views_match_windows_reference_float64(name):
    x, w, bias, g = random_case(*SHAPES[name], seed=0)
    want = conv3d_windows_reference(x, w, bias, g)
    got = taped(x, w, bias, g, np.float64)
    for label, a, r in zip(("value", "gx", "gw", "gbias"), got, want):
        assert_matches(a, r, ROUND_OFF[np.float64], label)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shifted_views_match_windows_reference_float32(name):
    x, w, bias, g = (v.astype(np.float32) for v in random_case(*SHAPES[name], seed=1))
    want = conv3d_windows_reference(x, w, bias, g)
    got = taped(x, w, bias, g, np.float32)
    for label, a, r in zip(("value", "gx", "gw", "gbias"), got, want):
        assert_matches(a, r.astype(np.float32), ROUND_OFF[np.float32], label)


# the ids name each storage dtype with the bound of its rule at the largest entry
DTYPE_BOUNDS = dict(argvalues=[np.float64, np.float32], ids=["float64-1e-12", "float32-1e-05"])


@pytest.mark.parametrize("dtype", **DTYPE_BOUNDS)
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_column_buffer_matches_per_tap_loop(name, dtype):
    x, w, bias, _ = random_case(*SHAPES[name], seed=4)
    check_fast_path(FAST_PATHS["conv3d"], dtype, ({"x": x, "w": w, "bias": bias}, {}), seed=4)


def test_general_path_value_is_contiguous_and_repeatable():
    x, w, bias, g = random_case(*SHAPES["head"], seed=2)
    first, second = taped(x, w, bias, g, np.float64), taped(x, w, bias, g, np.float64)
    tape = GraphTape(np.float64)
    plain = tc.conv3d(tape.input(x), tape.constant(w))
    assert plain.value.flags.c_contiguous
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


@st.composite
def conv_cases(draw):
    c, o = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    extents = tuple(draw(st.integers(1, 6)) for _ in range(3))
    kshape = tuple(draw(st.sampled_from([1, 3, 5])) for _ in range(3))
    return (c,) + extents, (o, c) + kshape, draw(st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None)
@given(case=conv_cases())
def test_general_path_matches_direct_summation_and_its_adjoint(case):
    xshape, wshape, seed = case
    rng = np.random.default_rng(seed)
    xv, wv = rng.normal(size=xshape), rng.normal(size=wshape)
    yv = rng.normal(size=(wshape[0],) + xshape[1:])
    tape = GraphTape(np.float64)
    x, w = tape.input(xv), tape.input(wv)  # a kernel with a gradient: never banded
    out = tc.conv3d(x, w)
    np.testing.assert_allclose(out.value, conv3d_reference(xv, wv), rtol=1e-12, atol=1e-12)
    grads = tape.backward(out, seed=yv)
    # conv3d is bilinear: <conv(x, w), y> = <x, gx(y)> = <w, gw(y)>
    lhs = float(np.sum(out.value * yv))
    scale = float(np.sum(np.abs(conv3d_reference(np.abs(xv), np.abs(wv)) * yv))) + 1.0
    assert abs(lhs - float(np.sum(xv * grads.wrt(x)))) <= 1e-12 * scale
    assert abs(lhs - float(np.sum(wv * grads.wrt(w)))) <= 1e-12 * scale


@pytest.mark.parametrize("kshape", [(3, 3, 3), (1, 1, 1), (3, 1, 5), (5, 3, 1)])
@pytest.mark.parametrize("shape", [(4, 8, 8), (3, 5, 7), (1, 1, 6)])
def test_contiguous_accumulation_equals_wide_buffer(kshape, shape):
    rng = np.random.default_rng(sum(kshape) * 31 + sum(shape))
    x = rng.standard_normal((3,) + shape)
    w = rng.standard_normal((4, 3) + kshape)
    cols = tc._columns(tc._padded(x, kshape), kshape[2])
    assert cols.shape[0] == kshape[2] * 3
    got = tc._correlate(cols, w, shape)
    want = correlate_wide_buffer(cols, w, shape)
    assert got.shape == want.shape == (4,) + shape
    np.testing.assert_array_equal(got, want)


def taped_upconv(x, w, bias, g, dtype, fn, frozen=()):
    """(value, gx, gw, gbias) of ``fn(x, w, bias)`` on a tape of ``dtype``
    with output gradient g; bias may be None (no gbias), and the operands
    named in ``frozen`` ("x", "w") enter as tape constants."""
    tape = GraphTape(dtype)
    nodes = [(tape.constant if name in frozen else tape.input)(v)
             for name, v in (("x", x), ("w", w), ("bias", bias)) if v is not None]
    out = fn(*nodes)
    grads = tape.backward(out, seed=g)
    return (out.value,) + tuple(grads.wrt(n) for n in nodes)


def upconv(*nodes):
    return tc.upconv3d(*nodes)


def upsampled_conv(x, *rest):
    return tc.conv3d(tc.upsample2(x), *rest)


@st.composite
def upconv_cases(draw):
    c, o = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    extents = tuple(draw(st.integers(1, 4)) for _ in range(3))  # axes one cell wide too
    kshape = tuple(draw(st.sampled_from([1, 3, 5])) for _ in range(3))
    return dict(xshape=(c,) + extents, wshape=(o, c) + kshape,
                bias=draw(st.booleans()),
                frozen=draw(st.sampled_from([(), ("x",), ("w",)])),
                uniform=draw(st.sampled_from([None, "x", "w"])),
                seed=draw(st.integers(0, 2 ** 16)))


def upconv_arrays(xshape, wshape, bias, uniform, seed):
    # float32-representable values, so one set serves both tape dtypes; the
    # operand named by ``uniform`` holds one value everywhere
    rng = np.random.default_rng(seed)
    x = np.full(xshape, 0.7) if uniform == "x" else rng.normal(size=xshape)
    w = np.full(wshape, -0.3) if uniform == "w" else rng.normal(size=wshape)
    b = rng.normal(size=wshape[0]) if bias else None
    g = rng.normal(size=(wshape[0],) + tuple(2 * e for e in xshape[1:]))
    return tuple(None if v is None else v.astype(np.float32).astype(np.float64)
                 for v in (x, w, b, g))


@settings(max_examples=80, deadline=None)
@given(case=upconv_cases())
def test_upconv3d_matches_upsampled_conv3d(case):
    x, w, b, g = upconv_arrays(case["xshape"], case["wshape"], case["bias"],
                               case["uniform"], case["seed"])
    want = taped_upconv(x, w, b, g, np.float64, upsampled_conv, case["frozen"])
    got = taped_upconv(x, w, b, g, np.float64, upconv, case["frozen"])
    for a, r in zip(got, want):
        assert_matches(a, r, ROUND_OFF[np.float64])
    # a float32 tape rounds each float64 result once
    low = taped_upconv(x, w, b, g, np.float32, upconv, case["frozen"])
    for a, r in zip(low, got):
        assert_matches(a, r.astype(np.float32), EXACT)


# (input shape, kernel shape): the two upconv3d calls of the default
# NeuralGenerator at 32x32x8, then a mixed and a wide kernel
UPCONV_SHAPES = {
    "block0.conv1": ((16, 2, 8, 8), (8, 16, 3, 3, 3)),
    "block1.conv1": ((8, 4, 16, 16), (4, 8, 3, 3, 3)),
    "3x1x5": ((2, 3, 2, 4), (3, 2, 3, 1, 5)),
    "5x3x1": ((3, 2, 3, 2), (2, 3, 5, 3, 1)),
    "5x5x5": ((2, 2, 3, 3), (2, 2, 5, 5, 5)),
    "1x1x1": ((3, 2, 2, 3), (2, 3, 1, 1, 1)),
    # kx = 7 reads five coarse x-offsets of an axis one cell wide
    "longer-than-axis": ((2, 2, 3, 1), (2, 2, 3, 5, 7)),
}


@pytest.mark.parametrize("name", sorted(UPCONV_SHAPES))
def test_upconv3d_matches_upsampled_conv3d_at_generator_shapes(name):
    xshape, wshape = UPCONV_SHAPES[name]
    x, w, b, g = upconv_arrays(xshape, wshape, True, None, seed=3)
    want = taped_upconv(x, w, b, g, np.float64, upsampled_conv)
    got = taped_upconv(x, w, b, g, np.float64, upconv)
    for a, r in zip(got, want):
        assert_matches(a, r, ROUND_OFF[np.float64])


@pytest.mark.parametrize("dtype", **DTYPE_BOUNDS)
@pytest.mark.parametrize("name", sorted(UPCONV_SHAPES))
def test_upconv3d_column_buffer_matches_per_offset_loop(name, dtype):
    x, w, b, _ = upconv_arrays(*UPCONV_SHAPES[name], True, None, seed=5)
    check_fast_path(FAST_PATHS["upconv3d"], dtype, ({"x": x, "w": w, "bias": b}, {}), seed=5)


@pytest.mark.parametrize("op", ["conv3d", "upconv3d"])
def test_kernel_gradient_record_keeps_only_the_padded_input(op):
    # the backward rebuilds the column buffer (3x the padded input here)
    # from the once-padded input, the only array a record keeps besides its
    # output value
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 4, 12, 12))
    padded = 8 * 6 * 14 * 14 * 8  # bytes of the padded input
    tape = GraphTape(np.float64)
    xn = tape.constant(x)
    weights = [tape.input(rng.normal(size=(1, 8, 3, 3, 3))) for _ in range(4)]
    fn = getattr(tc, op)
    fn(xn, weights[0])  # upconv3d caches its phase plan on first use
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outs = [fn(xn, w) for w in weights]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_record = (retained - sum(o.value.nbytes for o in outs)) / len(outs)
    assert per_record < padded + 16 * 1024, (per_record, padded)


def test_upconv3d_phase_kernels_cut_multiply_adds():
    # per axis each output phase of a 3-tap kernel reads 2 coarse offsets,
    # so the 8 phases of a 3x3x3 kernel hold 64 coarse taps, not 8 * 27
    kshape, offsets, p = tc._phase_plan((3, 3, 3))
    assert kshape == (3, 3, 3) and p.shape == (64, 27)
    # every (phase, tap) pair lands on exactly one coarse offset
    np.testing.assert_array_equal(p.sum(axis=0), np.full(27, 8.0))
    assert sum(hi - lo for _, lo, hi in offsets) == 64
    # regrouped per coarse (z, y) offset pair and x-phase: 18 (n*O, 2C)
    # phase kernels over two adjacent x-offsets hold the same 64 taps
    kshape, span, groups, q = tc._phase_groups((3, 3, 3))
    assert kshape == (3, 3, 3) and span == 2 and len(groups) == 18
    assert sum(hi - lo for *_, lo, hi in groups) * span == 64
    assert sorted(map(tuple, q)) == sorted(map(tuple, p))


@pytest.mark.parametrize("xshape, wshape, bshape, match", [
    ((2, 3, 3), (2, 2, 3, 3, 3), None, "rank-4 input"),
    ((2, 3, 3, 3), (2, 2, 3, 3), None, "rank-5 kernel"),
    ((2, 3, 3, 3), (2, 3, 3, 3, 3), None, "kernel channels"),
    ((2, 3, 3, 3), (2, 2, 3, 2, 3), None, "odd"),
    ((2, 3, 3, 3), (2, 2, 3, 3, 3), (3,), "bias"),
])
def test_upconv3d_rejects_bad_shapes(xshape, wshape, bshape, match):
    tape = GraphTape(np.float64)
    bias = None if bshape is None else tape.input(np.zeros(bshape))
    with pytest.raises(tc.ShapeError, match=match):
        tc.upconv3d(tape.input(np.zeros(xshape)), tape.input(np.zeros(wshape)), bias)


@st.composite
def cell_conv_cases(draw):
    c, o = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(3))
    kshape = tuple(draw(st.sampled_from([1, 3, 5])) for _ in range(3))
    n = int(np.prod(shape))
    cells = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return (c,) + shape, (o, c) + kshape, np.array(cells), draw(st.booleans()), draw(
        st.integers(0, 2 ** 16))


def columns_round_alike(rows, width, grid_cells):
    """Whether BLAS rounds each column of a (rows, width) @ (width, N)
    product as it does in a wider one, as measured on OpenBLAS's kernels:
    not for one row or a one-cell grid (the matrix-vector path, whose
    rounding depends on N), nor above width 15 (the last N mod 8 columns
    of a product round differently from the rest)."""
    return rows >= 2 and grid_cells >= 2 and width <= 15


def assert_at_cells_equal(x, w, bias, cells, seed):
    # values and the input gradient bit for bit where BLAS rounds each
    # column alike (their contractions are kx*C and kx*O wide), else to the
    # table's round-off; the kernel and bias gradients always bit for bit,
    # as conv3d_at runs conv3d's own code for them
    (o, c, *_, kx), grid = w.shape, x[0].size
    exact = {"value0": columns_round_alike(o, kx * c, grid),
             "grad[x]": columns_round_alike(c, kx * o, grid)}
    path = FAST_PATHS["conv3d_at"]
    inputs = {"x": x.reshape(c, grid), "w": w, **({} if bias is None else {"bias": bias})}
    args = {"plan": tc.cell_plan(x.shape[1:], w.shape[2:], cells)}
    for dtype in (np.float32, np.float64):
        got, want = (run_taped(fn, dtype, inputs, args, seed) for fn in (path.fast, path.reference))
        assert got["value0"].shape == (o, cells.size)
        for name, ref in want.items():
            assert_matches(got[name], ref, EXACT if exact.get(name, True) else path.rules[dtype],
                           name)


@settings(max_examples=80, deadline=None)
@given(case=cell_conv_cases())
def test_conv3d_at_equals_take_of_conv3d(case):
    xshape, wshape, cells, with_bias, seed = case
    rng = np.random.default_rng(seed)
    x, w = rng.normal(size=xshape), rng.normal(size=wshape)
    assert_at_cells_equal(x, w, rng.normal(size=wshape[0]) if with_bias else None, cells, seed)


@pytest.mark.parametrize("xshape, wshape, cells", [
    ((4, 1, 1, 4), (2, 4, 1, 1, 5), [1]),            # kx*C = 20, the case hypothesis found
    ((6, 4, 6, 6), (3, 6, 3, 3, 3), [0, 17, 70, 143]),  # kx*C = 18
    ((2, 4, 4, 4), (6, 2, 3, 3, 3), [5, 21, 42]),      # kx*O = 18 in the input gradient
    ((3, 4, 4, 4), (1, 3, 3, 3, 3), [5, 21, 42]),      # one output channel
    ((1, 1, 1, 1), (2, 1, 3, 3, 3), [0]),              # a one-cell grid
])
def test_conv3d_at_agrees_to_round_off_where_columns_round_apart(xshape, wshape, cells):
    # outside columns_round_alike the values or the input gradient may
    # differ from conv3d's in the last bit; the gap is bounded, not hidden
    x, w, bias, _ = random_case(xshape, wshape, seed=11)
    assert_at_cells_equal(x, w, bias, np.array(cells), seed=12)


@settings(max_examples=40, deadline=None)
@given(case=cell_conv_cases())
def test_conv3d_at_satisfies_its_adjoint_identity(case):
    xshape, wshape, cells, _, seed = case
    rng = np.random.default_rng(seed)
    xv, wv = rng.normal(size=xshape), rng.normal(size=wshape)
    yv = rng.normal(size=(wshape[0], cells.size))
    tape = GraphTape(np.float64)
    x, w = tape.input(xv.reshape(xshape[0], -1)), tape.input(wv)
    out = tc.conv3d_at(x, w, None, tc.cell_plan(xshape[1:], wshape[2:], cells))
    grads = tape.backward(out, seed=yv)
    # bilinear: <conv(x, w), y> = <x, gx(y)> = <w, gw(y)>
    lhs = float(np.sum(out.value * yv))
    scale = float(np.sum(np.abs(conv3d_reference(np.abs(xv), np.abs(wv)).reshape(
        wshape[0], -1)[:, cells] * yv))) + 1.0
    assert abs(lhs - float(np.sum(x.value * grads.wrt(x)))) <= 1e-12 * scale
    assert abs(lhs - float(np.sum(wv * grads.wrt(w)))) <= 1e-12 * scale


@pytest.mark.parametrize("cells", [[185], [0], [255], [0, 7, 56, 63, 192, 255], [28, 197, 184]],
                         ids=["one", "first", "last", "corners", "faces"])
def test_conv3d_at_is_exact_on_edges_and_single_cells(cells):
    # a one-column product would take the matrix-vector path, which rounds
    # differently; taps outside the grid read the zero column
    x, w, bias, _ = random_case((4, 4, 8, 8), (4, 4, 3, 3, 3), seed=9)
    assert_at_cells_equal(x, w, bias, np.array(cells), seed=9)


def test_conv3d_at_reads_an_input_held_at_sources():
    rng = np.random.default_rng(10)
    shape, kshape = (4, 6, 5), (3, 3, 3)
    x, w = rng.normal(size=(3,) + shape), rng.normal(size=(2, 3) + kshape)
    cells = np.array([0, 31, 64, 119])
    sources = tc.cell_plan(shape, kshape, cells).read
    g = rng.normal(size=(2, cells.size))
    out = []
    for held in (False, True):
        plan = tc.cell_plan(shape, kshape, cells, sources if held else None)
        tape = GraphTape(np.float64)
        xn = tape.input(x.reshape(3, -1)[:, sources] if held else x.reshape(3, -1))
        wn = tape.input(w)
        node = tc.conv3d_at(xn, wn, None, plan)
        grads = tape.backward(node, seed=g)
        gx = grads.wrt(xn) if held else grads.wrt(xn)[:, sources]
        out.append((node.value, gx, grads.wrt(wn)))
    for full, held in zip(*out):
        np.testing.assert_array_equal(held, full)
    with pytest.raises(tc.TensorError, match="outside sources"):
        tc.cell_plan(shape, kshape, cells, sources[1:])


def test_cell_plan_is_read_only_and_transposes_its_taps():
    plan = tc.cell_plan((3, 4, 5), (3, 1, 3), [7, 0, 33])
    for v in (plan.cells, plan.taps, plan.read, plan.back):
        assert not v.flags.writeable
    # cell p's tap (i, k) reads column q exactly when the flipped tap at q
    # meets p, and the flipped taps meet no other cell
    r, kx, p = plan.taps.shape
    inside = list(zip(*np.nonzero(plan.taps < 60)))
    for i, k, pp in inside:
        q = np.searchsorted(plan.read, plan.taps[i, k, pp])
        assert plan.back[r - 1 - i, kx - 1 - k, q] == pp
    assert np.count_nonzero(plan.back < p) == len(inside)


@pytest.mark.parametrize("args, error, match", [
    (((4, 4, 4), (3, 3, 3), [64]), tc.TensorError, "indices"),
    (((4, 4, 4), (3, 3, 3), [[1]]), tc.TensorError, "1-D"),
    (((4, 4, 4), (3, 2, 3), [1]), tc.ShapeError, "odd"),
    (((4, 4, 4), (3, 3, 3), [1], [2, 1]), tc.TensorError, "sorted"),
    (((4, 4, 4), (3, 3, 3), [5, 9, 5]), tc.TensorError, "distinct"),
])
def test_cell_plan_rejects_bad_plans(args, error, match):
    # repeated output cells are refused: the input gradient's plan meets
    # each output cell once per tap
    with pytest.raises(error, match=match):
        tc.cell_plan(*args)


@pytest.mark.parametrize("xshape, wshape, bshape, match", [
    ((2, 64), (2, 2, 3, 3), None, "kernel"),
    ((2, 64), (2, 3, 3, 3, 3), None, "kernel"),
    ((2, 63), (2, 2, 3, 3, 3), None, "kernel"),
    ((2, 64), (2, 2, 1, 3, 3), None, "kernel"),
    ((2, 64), (2, 2, 3, 3, 3), (3,), "bias"),
])
def test_conv3d_at_rejects_bad_shapes(xshape, wshape, bshape, match):
    tape = GraphTape(np.float64)
    bias = None if bshape is None else tape.input(np.zeros(bshape))
    with pytest.raises(tc.ShapeError, match=match):
        tc.conv3d_at(tape.input(np.zeros(xshape)), tape.input(np.zeros(wshape)), bias,
                     tc.cell_plan((4, 4, 4), (3, 3, 3), [0, 5]))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
def test_band_windows_match_the_dense_banded_matrix(k, axis, dtype):
    # axis lengths shorter than the 9-tap kernel and up to two band blocks
    # of 16, which take the whole matrix, and 40, 67 and 128, which take
    # windows; on 40 and 67 the last outputs fill no whole block
    path = FAST_PATHS["_band"]
    for n in BAND_LENGTHS:
        inputs, args = _band_case(100 * k + axis, axis, k, n)
        if k > 1:
            check_fast_path(path, dtype, (inputs, args), seed=n)
            tape = GraphTape(dtype)
            tc.conv3d(tape.input(inputs["x"]), tape.constant(args["w"]))
            assert len(tape._records) == 1
            continue
        # a one-tap kernel takes the general path in conv3d: _band on its own
        x = inputs["x"].astype(dtype)
        taps = args["w"].reshape(-1).astype(dtype).astype(np.float64)
        want = tc._along_axis(x, tc._banded(taps, n), 1 + axis).astype(dtype)
        assert_matches(tc._band(x, taps, 1 + axis).astype(dtype), want, path.rules[dtype])
