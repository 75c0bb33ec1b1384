"""Shared test fixtures.

- ``assert_matches(actual, reference, rule)``, the one comparison rule of
  the tests that hold a fast path to the slow path it replaced: ``EXACT``
  (dtype, shape and bits) or ``round_off(k)`` (dtype, shape, and every entry
  within k storage-dtype ulps of the largest |reference| entry).
- ``FAST_PATHS``, the table of every ``tc.custom`` site under ``src/`` and
  every fast engine kernel, each with its reference, its rule per storage
  dtype and a seeded input strategy; ``check_fast_path`` compares one entry's
  values and input gradients on one case, and ``scan_fast_path`` lists the
  failing cases of one entry over a range of seeds.
- ``gradient_check``, the central-difference oracle of taped gradients.
- ``rejection_test(table)``, the one form of a module's table of input
  checks: callable, arguments, exception type and message fragment.
- The procedural generator's two exact latent symmetries,
  ``flip_amplitude`` and ``shift_phase``, and their fold, ``fold_latent``.
- The references the table reads: the per-tap and per-offset loops that
  ``tc.conv3d`` and ``tc.upconv3d`` ran before their column buffer, the
  interface reflectivity, the procedural build, the dense chain and the flow
  transform as the tapes of ops their one records replaced.
- Other references: a linear generator with a known least-squares oracle, a
  direct-summation oracle for ``tc.conv3d``, the wide-buffer form of
  conv3d's row accumulation, the padded-column reflectivity formula, the
  one-restart-at-a-time latent optimization loop that the row blocks
  replaced, the neural build as the upsample-then-convolve composition that
  ``tc.upconv3d`` replaced, the per-array Adam update that the one-vector
  update replaced, the friable-sand moduli as named arrays, and DREAM(ZS)
  with one keyed stream per proposal and a list archive."""

import math
import re
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

import fluvinv.tensors as tc
from fluvinv import geophysics
from fluvinv.generators import (_MAP_COEFF_NAMES, LABEL_NAMES, ProceduralGenerator,
                                _batch_rows, _cell_coordinates, _label_node, keyed_rng,
                                neutral_labels, sample_prior)
from fluvinv.geophysics import BurdenConfig, RockPhysicsParams, rock_physics, rock_physics_nodes
from fluvinv.grids import GridGeometry, ModelGrid
from fluvinv.inversion import ChainEnsemble, DataLoss, FlowConfig, FlowModel, InversionError
from fluvinv.inversion.mcmc import _distinct_rows, accept_probability, de_jump
from fluvinv.inversion.networks import mlp_apply, mlp_init
from fluvinv.inversion.optimize import RestartRecord, descend


EXACT = ("exact", 0)


def round_off(k):
    """The rule that every entry lies within k ulps of the storage dtype of
    the largest |reference| entry, as sums in different orders leave an
    entry far below the largest with round-off above its own size."""
    return ("round_off", k)


def assert_matches(actual, reference, rule, what="array"):
    """Assert that ``actual`` matches ``reference`` by ``rule``: both have
    one dtype and shape, and under ``EXACT`` the same bits; under
    ``round_off(k)`` their non-finite entries are equal and every other
    entry is within k ulps of the largest finite |reference| entry. Dicts
    of arrays match when they have the same keys and each entry matches."""
    if isinstance(reference, dict):
        assert actual.keys() == reference.keys(), f"{what}: {sorted(actual)} != {sorted(reference)}"
        for k, ref in reference.items():
            assert_matches(actual[k], ref, rule, f"{what}[{k}]")
        return
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.dtype == reference.dtype, f"{what}: dtype {actual.dtype} != {reference.dtype}"
    assert actual.shape == reference.shape, f"{what}: shape {actual.shape} != {reference.shape}"
    kind, k = rule
    if kind == "exact":
        assert actual.tobytes() == reference.tobytes(), f"{what}: bits differ"
        return
    finite = np.isfinite(reference)
    np.testing.assert_array_equal(actual[~finite], reference[~finite], err_msg=what)
    err = np.abs(actual[finite].astype(np.float64) - reference[finite])
    ulp = float(np.spacing(reference.dtype.type(np.max(np.abs(reference[finite]), initial=0.0))))
    worst = float(np.max(err, initial=0.0))
    assert worst <= k * ulp, f"{what}: error of {worst / ulp:.4g} ulps of the largest entry > {k}"


def rejection_test(table):
    """A test of every row of ``table``, ``{id: (callable, arguments, error,
    message fragment)}``: calling the callable with the arguments raises
    ``error``, and its message holds the fragment as literal text. Bind it
    to a ``test_*`` name in the module whose checks the table holds."""
    @pytest.mark.parametrize("fn, args, error, fragment", list(table.values()), ids=list(table))
    def test(fn, args, error, fragment):
        with pytest.raises(error, match=re.escape(fragment)):
            fn(*args)
    return test


def gradient_check(fn, point, step=1e-5):
    """Max relative mismatch between taped and central-difference gradients.

    ``fn(tape, node) -> scalar node`` defines the function; it is evaluated
    in float64. Returns max_i |analytic_i - numeric_i| / max(|analytic_i|,
    |numeric_i|, 1e-12).
    """
    if step <= 0:
        raise ValueError("gradient_check: step must be > 0")
    point = np.asarray(point, dtype=np.float64)

    tape = tc.GraphTape(np.float64)
    x = tape.input(point)
    out = fn(tape, x)
    if out.value.shape != ():
        raise ValueError("gradient_check: function must return a scalar node")
    if not np.isfinite(out.value):
        raise ValueError("gradient_check: non-finite value at the evaluation point")
    analytic = tape.backward(out).wrt(x).ravel()

    def value_at(p):
        t = tc.GraphTape(np.float64)
        return float(fn(t, t.input(p)).value)

    flat = point.ravel()
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        delta = np.zeros_like(flat)
        delta[i] = step
        hi = value_at((flat + delta).reshape(point.shape))
        lo = value_at((flat - delta).reshape(point.shape))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"gradient_check: non-finite function value at probe coordinate {i}")
        numeric[i] = (hi - lo) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))


class LinearGenerator:
    """G(z) = offset + A z laid out on a 1 x 1 x m grid; convex inversion."""

    kind = "linear"
    builds_at_cells = False

    def __init__(self, A, offset=0.5):
        A = np.asarray(A, dtype=np.float64)
        self.A = A
        self.offset = offset
        self.geometry = GridGeometry(nx=A.shape[0], ny=1, nz=1)
        self.latent_dim = A.shape[1]
        self.label_dim = 0

    def weights(self):
        return {}

    def build(self, tape, z, labels=None, weights=None, cells=None, depo=True):
        """(coarse, depo) nodes for a latent (d,) or a batch of latents (B, d);
        depo is None with ``depo=False``."""
        v = tc.dense(tape.constant(self.A), z) + self.offset
        return _at_cells(v, cells, depo)

    def generate(self, z, labels=None, dtype=np.float64):
        vals = np.clip(self.A @ np.asarray(z, dtype=np.float64) + self.offset,
                       0.0, 1.0).reshape(1, 1, -1)
        return ModelGrid(self.geometry, vals, vals.copy())

    def posterior(self, y, sigma):
        """Analytic Gaussian posterior for data y = offset + A z + noise."""
        prec = np.eye(self.latent_dim) + self.A.T @ self.A / sigma ** 2
        cov = np.linalg.inv(prec)
        mean = cov @ self.A.T @ (np.asarray(y) - self.offset) / sigma ** 2
        return mean, cov


class NonFiniteGenerator(LinearGenerator):
    """LinearGenerator with its matrix as the tunable weight "A", whose output
    turns NaN from the ``nan_step``-th tape with a differentiable input that it
    builds on (counted from 0).

    Every descent step records a fresh tape with its parameters as input
    nodes, so that tape is step ``nan_step``; builds on constant tapes (a
    well-MAE evaluation, say) do not count. With ``nan_row`` only that row of
    a batch turns NaN; a single latent's output turns NaN either way.
    """

    def __init__(self, A, nan_step, offset=0.5, nan_row=None):
        super().__init__(A, offset)
        self.nan_step = nan_step
        self.nan_row = nan_row
        self._tapes = []

    def weights(self):
        return {"A": self.A.copy()}

    def build(self, tape, z, labels=None, weights=None, cells=None, depo=True):
        A = weights["A"] if weights else tape.constant(self.A)
        if (z.requires_grad or A.requires_grad) and not any(t is tape for t in self._tapes):
            self._tapes.append(tape)
        v = tc.dense(A, z) + self.offset
        if len(self._tapes) > self.nan_step:
            if self.nan_row is None or v.value.ndim == 1:
                v = v * np.nan
            else:
                mask = np.ones((v.value.shape[0], 1))
                mask[self.nan_row] = np.nan
                v = v * tape.constant(mask)
        return _at_cells(v, cells, depo)


def _at_cells(v, cells, depo):
    """(coarse, depo) of a test generator from its output node v, (m,) or a
    batch (B, m): the 1 x 1 x m grid, or v gathered at cells, per row; depo
    is the coarse node itself, or None without ``depo``."""
    batch = v.value.shape[:-1]
    if cells is not None:
        cells = np.asarray(cells)
        if batch:
            cells = np.arange(batch[0])[:, None] * v.value.shape[-1] + cells
        coarse = tc.take(v, cells)
    else:
        coarse = tc.reshape(v, batch + (1, 1, v.value.shape[-1]))
    return coarse, coarse if depo else None


def run_restart_reference(generator, observations, config, index):
    """Restart ``index`` of ``latent_optimize(generator, observations, config)``
    descended on its own: one tape per step over its single latent (d,), its
    own DataLoss, ball projection, label clip and well MAE."""
    dtype = np.dtype(config.dtype)
    params = {"z": sample_prior(index + 1, generator.latent_dim, config.rng_seed)[index]}
    if config.optimize_labels:
        if generator.label_dim == 0:
            raise InversionError("generator has no labels to co-optimize")
        params["labels"] = neutral_labels(generator.label_dim)
    loss_fn = DataLoss(observations, config.loss, geometry=generator.geometry)

    def objective(tape, nodes, step):
        coarse, _ = generator.build(tape, nodes["z"], nodes.get("labels"),
                                    cells=loss_fn.cells)
        return loss_fn.build(tape, coarse, z=nodes["z"])

    def constrain(p):
        if config.ball_radius is not None:
            norm = float(np.linalg.norm(p["z"]))
            cap = config.ball_radius * math.sqrt(p["z"].size)
            if norm > cap:
                p["z"] = p["z"] * (cap / norm)
        if "labels" in p:
            p["labels"] = np.clip(p["labels"], 0.0, 1.0)

    history, aborted = descend(objective, params, dtype, config.iterations, config.lr,
                               config.lr_schedule, constrain=constrain)
    note = ""
    if aborted:
        note = f"non-finite loss at iteration {len(history) - 1}"
    else:
        tape = tc.GraphTape(dtype)
        final = objective(tape, {k: tape.constant(v) for k, v in params.items()}, None)
        history.append(float(final.value))

    mae = math.nan
    if observations.wells is not None:
        tape = tc.GraphTape(dtype)
        labels = params.get("labels")
        coarse, _ = generator.build(tape, tape.constant(params["z"]),
                                    None if labels is None else tape.constant(labels),
                                    cells=observations.wells.flat_cell_indices())
        mae = float(np.mean(np.abs(coarse.value - observations.wells.values())))
    return RestartRecord(index=index, z=params["z"], labels=params.get("labels"),
                         loss_history=np.asarray(history), well_mae=mae,
                         aborted=aborted, note=note)


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


def correlate_wide_buffer(cols, w, shape):
    """``tc._correlate`` over the column buffer ``cols`` as it would be
    without its contiguous buffer: each kernel row's (O, kx*C) @ (kx*C, L)
    product is added into the first L columns of an (O, Z*Yp*Xp) buffer,
    whose (O, Z, Y, X) corner is returned."""
    o, c, kz, ky, kx = w.shape
    nz, ny, nx = shape
    yp, xp = ny + ky - 1, nx + kx - 1
    rows = np.ascontiguousarray(w.transpose(2, 3, 0, 4, 1), dtype=np.float64)
    n = (nz - 1) * yp * xp + (ny - 1) * xp + nx
    acc = np.zeros((o, nz * yp * xp), dtype=np.float64)
    out = acc[:, :n]
    term = np.empty_like(out)
    for i, j in np.ndindex(kz, ky):
        start = i * yp * xp + j * xp
        out += np.matmul(rows[i, j].reshape(o, kx * c), cols[:, start:start + n], out=term)
    return acc.reshape(o, nz, yp, xp)[:, :, :ny, :nx]


def shifted_views(v, kshape):
    """v (C, Z, Y, X) zero-padded by half a kernel on every side into one
    float64 buffer, flattened to (C, Zp*Yp*Xp). Per kernel tap (i, j, k), in
    np.ndindex order, a (C, L) view of it whose column z*Yp*Xp + y*Xp + x
    holds v[:, z+i-pz, y+j-py, x+k-px], L reaching column (Z-1, Y-1, X-1).
    Adding into a view scatters into the padded buffer."""
    c, nz, ny, nx = v.shape
    pz, py, px = (k // 2 for k in kshape)
    yp, xp = ny + 2 * py, nx + 2 * px
    buf = np.zeros((c, nz + 2 * pz, yp, xp), dtype=np.float64)
    buf[:, pz:pz + nz, py:py + ny, px:px + nx] = v
    flat = buf.reshape(c, -1)
    n = (nz - 1) * yp * xp + (ny - 1) * xp + nx
    views = {}
    for i, j, k in np.ndindex(*kshape):
        o = i * yp * xp + j * xp + k
        views[i, j, k] = flat[:, o:o + n]
    return views


def correlate_per_tap(views, w, shape):
    """"same" correlation with w (O, C, kz, ky, kx) of the (C, *shape) array
    whose shifted views these are: one float64 (O, C) @ (C, L) matmul per
    tap, as ``tc.conv3d`` ran it before its column buffer."""
    taps = np.ascontiguousarray(w.transpose(2, 3, 4, 0, 1), dtype=np.float64)
    acc = np.zeros((w.shape[0], next(iter(views.values())).shape[1]), dtype=np.float64)
    term = np.empty_like(acc)
    for tap, view in views.items():
        acc += np.matmul(taps[tap], view, out=term)
    return tc._column_grid(acc, shape, w.shape[2:])


def conv3d_per_tap(x, w, bias, g):
    """(value, gx, gw, gbias) of ``tc.conv3d(x, w, bias)`` with output
    gradient g by the per-tap loop, in float64; bias may be None (then
    gbias is None)."""
    kshape = w.shape[2:]
    views = shifted_views(x, kshape)
    value = correlate_per_tap(views, w, x.shape[1:])
    if bias is not None:
        value = value + bias[:, None, None, None]
    gviews = shifted_views(g, kshape)
    # the input gradient correlates g with the flipped, channel-swapped kernel
    wt = w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
    gx = correlate_per_tap(gviews, wt, g.shape[1:])
    # gw[:, :, i, j, k] = g @ view(i, j, k).T, with g in the forward's
    # column layout: the centre view of padded g
    gf = gviews[tuple(k // 2 for k in kshape)]
    gw = np.empty(w.shape, dtype=np.float64)
    for (i, j, k), view in views.items():
        gw[:, :, i, j, k] = gf @ view.T
    gbias = None if bias is None else g.sum(axis=(1, 2, 3), dtype=np.float64)
    return np.array(value), np.array(gx), gw, gbias


def upconv3d_per_offset(x, w, bias, g):
    """(value, gx, gw, gbias) of ``tc.upconv3d(x, w, bias)`` with output
    gradient g by its per-offset loop as it ran before the column buffer:
    per coarse offset s of ``tc._phase_plan``, one (n_s*O, C) @ (C, L)
    matmul over a shifted view of the padded coarse input, in float64; bias
    may be None (then gbias is None)."""
    kshape, offsets, p = tc._phase_plan(w.shape[2:])
    (o, c), shape = w.shape[:2], x.shape[1:]
    nz, ny, nx = shape
    # rows lo*O:hi*O of m are the stacked (n_s*O, C) phase kernels of offset s
    m = (p @ w.reshape(o * c, -1).T).reshape(-1, c)
    views = shifted_views(x, kshape)
    ncol = next(iter(views.values())).shape[1]
    acc = np.zeros((2, 2, 2, o, ncol), dtype=np.float64)
    for (phases, lo, hi), view in zip(offsets, views.values()):
        dst = acc[phases]
        dst += (m[lo * o:hi * o] @ view).reshape(dst.shape)
    # (rz, ry, rx, O, Z, Y, X) -> (O, Z, rz, Y, ry, X, rx)
    value = tc._column_grid(acc, shape, kshape).transpose(3, 4, 0, 5, 1, 6, 2).reshape(
        (o,) + tuple(2 * e for e in shape))
    if bias is not None:
        value = value + bias[:, None, None, None]
    # g in the forward's (2, 2, 2, O, L) column layout, zero in the columns
    # y >= Y or x >= X
    gp = np.zeros((2, 2, 2, o, ncol), dtype=np.float64)
    tc._column_grid(gp, shape, kshape)[...] = g.reshape(
        o, nz, 2, ny, 2, nx, 2).transpose(2, 4, 6, 0, 1, 3, 5)
    gviews = shifted_views(np.zeros((c,) + shape), kshape)
    gm = np.empty_like(m)
    for s, (phases, lo, hi) in zip(np.ndindex(*kshape), offsets):
        gs = gp[phases].reshape(-1, ncol)
        gviews[s] += m[lo * o:hi * o].T @ gs
        gm[lo * o:hi * o] = gs @ views[s].T
    gx = tc._column_grid(gviews[tuple(k // 2 for k in kshape)], shape, kshape)
    gw = (gm.reshape(-1, o * c).T @ p).reshape(w.shape)
    gbias = None if bias is None else g.sum(axis=(1, 2, 3), dtype=np.float64)
    return value, np.array(gx), gw, gbias


def padded_reflectivity(imp, burden, dz, params):
    """Normal-incidence reflection coefficients of an impedance cube
    (nz, ny, nx) under ``burden``: pad sheets of the top burden impedance
    above it and pad of the bottom one below, then (I[1:] - I[:-1]) /
    (I[1:] + I[:-1]) down the padded column, in the dtype of ``imp``.

    Returns the (nz + 2*pad - 1, ny, nx) coefficients and their
    vector-Jacobian product g -> gradient with respect to ``imp``, derived by
    hand: d r / d lower = 2 upper / total**2, d r / d upper = -2 lower / total**2.
    """
    pad = burden.cells_per_side(dz)
    caps = [np.full((pad,) + imp.shape[1:], float(rho * vp), dtype=imp.dtype)
            for rho, vp in (rock_physics(np.float64(f), params) for f in burden.fractions)]
    column = np.concatenate([caps[0], imp, caps[1]])
    upper, lower = column[:-1], column[1:]
    total = lower + upper

    def vjp(g):
        g_column = np.zeros(column.shape)
        g_column[1:] += 2.0 * g * upper / total ** 2
        g_column[:-1] -= 2.0 * g * lower / total ** 2
        return g_column[pad:pad + imp.shape[0]]

    return (lower - upper) / total, vjp


def taped_interface_nodes(tape, rho, vp, geometry, burden, params):
    """``geophysics._interface_nodes`` as it was taped op by op: the
    impedance between one cap sheet of burden impedance on each side
    (concat), its upper and lower sheets (two crops), and (lower - upper) /
    (lower + upper) as sub, add and div records. Returns the same
    ``(node, first, nzs)``."""
    pad = burden.cells_per_side(geometry.dz)
    imp = rho * vp
    if pad:
        sheet = (1, geometry.ny, geometry.nx)
        caps = [tape.constant(np.full(sheet, float(rho_b * vp_b)))
                for rho_b, vp_b in (rock_physics(np.float64(f), params)
                                    for f in burden.fractions)]
        imp = tc.concat([caps[0], imp, caps[1]], axis=0)
    n = imp.value.shape[0] - 1
    upper = tc.crop(imp, (slice(0, n), slice(None), slice(None)))
    lower = tc.crop(imp, (slice(1, n + 1), slice(None), slice(None)))
    return (lower - upper) / (lower + upper), max(pad - 1, 0), geometry.nz + 2 * pad - 1


def taped_procedural_build(gen, tape, z, labels=None, weights=None, cells=None):
    """``ProceduralGenerator.build`` as one tape record per elementwise op:
    the slow-path reference of the fused kernel, same arguments and return."""
    g = gen.geometry
    rows = _batch_rows(z, gen.latent_dim)
    labels = _label_node(tape, labels, gen.label_dim, len(LABEL_NAMES), rows)
    if weights is None:
        weights = {"maps": tape.constant(gen.weights()["maps"])}

    if cells is None:
        x = np.arange(g.nx, dtype=np.float64).reshape(1, 1, g.nx)
        y = np.arange(g.ny, dtype=np.float64).reshape(1, g.ny, 1)
        layer = np.arange(g.nz, dtype=np.float64).reshape(g.nz, 1, 1)
        if rows:
            z = tc.reshape(z, (rows, 1, 1, gen.latent_dim))
            if labels.value.ndim == 2:
                labels = tc.reshape(labels, (rows, 1, 1, gen.label_dim))
    else:
        cells = _cell_coordinates(cells, g)[0]
        x = (cells % g.nx).astype(np.float64)
        y = ((cells // g.nx) % g.ny).astype(np.float64)
        layer = (cells // (g.ny * g.nx)).astype(np.float64)
    b = taped_belt_nodes(g, z, labels, weights["maps"])
    xg, yg, mg = tape.constant(x), tape.constant(y), tape.constant(layer)

    centerline = b["center"] + b["drift"] * mg + b["amplitude"] * tc.sin(
        (2.0 * np.pi) * xg / b["wavelength"] + b["phase"] + b["turn"] * mg)
    dist = tc.absolute(yg - centerline)
    coarse = tc.sigmoid((b["half_width"] - dist) / b["sharpness"])
    core = tc.sigmoid((0.6 * b["half_width"] - dist) / b["sharpness"])

    q = tc.exp(np.log(2.0) * (1.0 - 2.0 * b["aggradation"]))
    t = tape.constant(np.clip(layer / max(g.nz - 1, 1), 1e-6, 1.0))
    t_warp = tc.exp(q * tc.log(t))
    weight_core = b["core_blend"] * core
    depo = weight_core + (1.0 - weight_core) * t_warp
    return coarse, depo


def composed_neural_build(gen, tape, z, labels=None, weights=None, cells=None, depo=True):
    """``NeuralGenerator.build`` with every block written as it was before
    ``tc.upconv3d``: conv1 and the 1x1x1 skip both read ``upsample2(h)``.
    Same arguments and return."""
    d = gen.descriptor
    if cells is not None:
        cells = _cell_coordinates(cells, gen.geometry)[0]
    rows = _batch_rows(z, d.latent_dim)
    labels = _label_node(tape, labels, d.label_dim, d.label_dim, rows)
    if weights is None:
        weights = {k: tape.constant(v) for k, v in gen.weights().items()}
    if rows:
        def row(node, i, width):
            return tc.reshape(tc.crop(node, (slice(i, i + 1), slice(None))), (width,))

        per_row = labels is not None and labels.value.ndim == 2
        outs = [composed_neural_build(gen, tape, row(z, i, d.latent_dim),
                                      row(labels, i, d.label_dim) if per_row else labels,
                                      weights, cells, depo)
                for i in range(rows)]
        return (tc.stack([o[0] for o in outs]),
                tc.stack([o[1] for o in outs]) if depo else None)

    x = z if labels is None else tc.concat([z, labels], axis=0)
    sx, sy, sz = d.seed_extents
    ch = d.channels
    h = tc.dense(weights["dense.w"], x, weights["dense.b"])
    h = tc.reshape(h, (ch[0], sz, sy, sx))
    for i in range(d.num_blocks):
        up = tc.upsample2(h)
        m = tc.conv3d(up, weights[f"block{i}.conv1.w"], weights[f"block{i}.conv1.b"])
        m = tc.leaky_relu(m, d.leaky_slope)
        m = tc.conv3d(m, weights[f"block{i}.conv2.w"], weights[f"block{i}.conv2.b"])
        h = m + tc.conv3d(up, weights[f"block{i}.skip.w"])
    out = tc.conv3d(h, weights["head.w"], weights["head.b"])
    out = tc.affine(tc.tanh(out), 0.5, 0.5)

    def channel(k):
        node = tc.reshape(tc.crop(out, (slice(k, k + 1),) + (slice(None),) * 3),
                          gen.geometry.shape)
        return node if cells is None else tc.take(node, cells)

    return channel(0), channel(1) if depo else None


def taped_belt_nodes(geometry, z, labels, maps):
    """The belt parameter nodes of :func:`taped_procedural_build`: shape (1,)
    for a latent (d,); the latent- and per-row label-driven ones keep a
    batch's leading axes, with the last axis of size 1."""
    def col(node, i):
        return tc.crop(node, (slice(None),) * (node.value.ndim - 1) + (slice(i, i + 1),))

    def zc(i):
        return col(z, i)

    def cf(i):
        return tc.take(maps, [i])

    g_coarse, g_fine, erod, aggr, rain = (col(labels, i) for i in range(5))

    ny, nx, nz = float(geometry.ny), float(geometry.nx), geometry.nz
    y0 = ny * tc.sigmoid(cf(0) * zc(0) + cf(1))
    half_width = ny * (cf(2) + cf(3) * tc.sigmoid(0.7 * zc(1)))
    half_width = half_width * (cf(4) + cf(5) * rain)
    amp = ny * cf(6) * tc.tanh(0.7 * zc(2)) * (1.3 - 0.6 * g_coarse)
    wavelength = nx * (cf(7) + cf(8) * tc.tanh(0.7 * zc(3)))
    phase = cf(9) * zc(4)
    drift = (ny / max(nz - 1, 1)) * cf(10) * tc.tanh(0.7 * zc(5)) * (0.5 + erod)
    sharp = (cf(11) + cf(12) * tc.sigmoid(0.7 * zc(6))) * (0.7 + 0.6 * g_fine)
    turn = cf(13) * tc.tanh(0.7 * zc(7))
    blend = tc.sigmoid(cf(14))
    return {"center": y0, "half_width": half_width, "amplitude": amp,
            "wavelength": wavelength, "phase": phase, "drift": drift,
            "sharpness": sharp, "turn": turn, "core_blend": blend, "aggradation": aggr}


def phase_gain(gen):
    """c9, the gain of ``phase = c9 z4`` of a procedural generator."""
    return float(gen.weights()["maps"][_MAP_COEFF_NAMES.index("phase_gain")])


def flip_amplitude(z, c9):
    """(z2, z4) -> (-z2, z4 + pi / c9) of latents z (..., d): amplitude is
    odd in z2 and enters as amplitude sin(... + c9 z4 + ...), so the
    procedural grid stays the same."""
    z = np.array(z, dtype=np.float64)
    z[..., 2] = -z[..., 2]
    z[..., 4] += np.pi / c9
    return z


def shift_phase(z, c9):
    """z4 -> z4 + 2 pi / c9 of latents z (..., d): one period of the sine
    that ``phase = c9 z4`` enters, so the procedural grid stays the same."""
    z = np.array(z, dtype=np.float64)
    z[..., 4] += 2.0 * np.pi / c9
    return z


def fold_latent(z, c9):
    """The copy of latents z (..., d) under :func:`flip_amplitude` and
    :func:`shift_phase` with z2 >= 0 and z4 in [0, 2 pi / c9): latents that
    the two symmetries map into each other fold to one point, up to the
    round-off of the phase shifts."""
    z = np.array(z, dtype=np.float64)
    flip = z[..., 2] < 0
    z[..., 2] = np.abs(z[..., 2])
    z[..., 4] = np.mod(z[..., 4] + np.where(flip, np.pi / c9, 0.0), 2.0 * np.pi / c9)
    return z


def rock_physics_moduli(f, params=RockPhysicsParams()):
    """Named intermediates of the friable-sand chain as arrays: mineral, dry
    and saturated moduli, porosity, density and Vp."""
    tape = tc.GraphTape(np.float64)
    f = geophysics._clamped_fraction(tape.constant(np.asarray(f)))
    return {k: np.asarray(v.value) for k, v in geophysics._friable_sand(tape, f, params).items()}


def taped_mlp_apply(tape, weights, x, n_layers, slope=0.2):
    """:func:`fluvinv.inversion.networks.mlp_apply` as one ``tc.dense`` and
    one ``tc.leaky_relu`` record per layer: the reference of the fused
    kernel, same arguments and return."""
    h = x
    for i in range(n_layers):
        h = tc.dense(weights[f"fc{i}.w"], h, weights[f"fc{i}.b"])
        if i < n_layers - 1:
            h = tc.leaky_relu(h, slope)
    return h


def taped_flow_transform(flow, tape, u, weight_nodes=None, clamped=None):
    """``FlowModel.transform`` as 14 tape records per coupling layer (crops,
    the taped conditioner, clamp, exp, product, sum, concat, log-determinant
    sum): the reference of the fused kernel, same arguments and return."""
    if weight_nodes is None:
        weight_nodes = {k: tape.constant(v) for k, v in flow.weights.items()}
    cfg = flow.config
    lead = (slice(None),) * (u.value.ndim - 1)

    def cols(x, lo, hi):
        return tc.crop(x, lead + (slice(lo, hi),))

    z = u
    logdet = None
    for layer in range(cfg.n_layers):
        lo, hi = flow._halves(layer)
        a = cols(z, lo.start, lo.stop)
        b = cols(z, hi.start, hi.stop)
        sub = {k.split(".", 1)[1]: weight_nodes[k] for k in weight_nodes
               if k.startswith(f"layer{layer}.")}
        raw = taped_mlp_apply(tape, sub, a, flow._n_mlp)
        d_b = b.value.shape[-1]
        s_raw = cols(raw, 0, d_b)
        t = cols(raw, d_b, 2 * d_b)
        n_clamped = int(np.count_nonzero(np.abs(s_raw.value) > cfg.scale_clip))
        if n_clamped:
            warnings.warn("coupling scale clamped to keep the flow invertible", stacklevel=2)
            if clamped is not None:
                clamped[layer] += n_clamped
        s = tc.clamp(s_raw, -cfg.scale_clip, cfg.scale_clip)
        b_new = b * tc.exp(s) + t
        z = (tc.concat([a, b_new], axis=-1) if layer % 2 == 0
             else tc.concat([b_new, a], axis=-1))
        part = tc.sum_all(s)
        logdet = part if logdet is None else logdet + part
    return z, logdet


class PerArrayAdam:
    """``Adam`` with its moments kept per named array and each array updated
    on its own: the reference of the one-vector update."""

    def __init__(self, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m = {}
        self._v = {}
        self._t = 0

    def step(self, params, grads):
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self._t
        corr2 = 1.0 - b2 ** self._t
        for k, g in grads.items():
            g = np.asarray(g, dtype=np.float64)
            m = self._m.get(k)
            if m is None:
                m = np.zeros_like(g)
                self._m[k] = m
                self._v[k] = np.zeros_like(g)
            v = self._v[k]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            params[k] = params[k] - self.lr * (m / corr1) / (np.sqrt(v / corr2) + self.eps)
        return params


def dream_zs_per_proposal(log_posterior, d, config):
    """``dream_zs`` as one ``keyed_rng`` stream per proposal and an archive
    kept as a list of rows, re-stacked every generation: the reference of
    the one-pass stream words and the preallocated archive."""
    cfg = config
    m0 = cfg.archive_size0 if cfg.archive_size0 is not None else 10 * d
    total = cfg.burn_in + cfg.generations
    states = np.empty((cfg.n_chains, total, d))
    logps = np.empty((cfg.n_chains, total))

    archive_rows = list(cfg.init_scale * sample_prior(m0, d, cfg.rng_seed, 1))
    x = cfg.init_scale * sample_prior(cfg.n_chains, d, cfg.rng_seed, 2)
    x_logp = np.array([log_posterior(row) for row in x], dtype=np.float64)
    x_logp[np.isnan(x_logp)] = -np.inf
    n_accept = 0
    n_prop = 0
    n_resets = 0

    for t in range(total):
        arch = np.asarray(archive_rows)
        m = arch.shape[0]
        unit_jump = (t + 1) % cfg.gamma_one_every == 0
        for i in range(cfg.n_chains):
            rng = keyed_rng(cfg.rng_seed, 3, t, i)
            snooker = rng.uniform() < cfg.snooker_prob
            log_corr = 0.0
            if not snooker:
                delta = int(rng.integers(1, cfg.de_pairs_max + 1))
                rows = _distinct_rows(rng, m, 2 * delta)
                cr = cfg.cr_values[int(rng.integers(len(cfg.cr_values)))]
                mask = rng.uniform(size=d) < cr
                if not mask.any():
                    mask[int(rng.integers(d))] = True
                d_eff = int(mask.sum())
                gamma = 1.0 if unit_jump else 2.38 / math.sqrt(2.0 * delta * d_eff)
                e = rng.uniform(-cfg.jitter, cfg.jitter, size=d)
                eps = cfg.noise * rng.standard_normal(d)
                jump = de_jump(arch[rows[:delta]], arch[rows[delta:]],
                               gamma, mask, e, eps)
                proposal = x[i] + jump
            else:
                rows = _distinct_rows(rng, m, 3)
                za, zb, zc = arch[rows[0]], arch[rows[1]], arch[rows[2]]
                line = x[i] - za
                denom = float(line @ line)
                gamma_s = rng.uniform(1.2, 2.2)
                if denom < 1e-300:
                    continue  # degenerate line; keep the current state
                proj_b = (float(zb @ line) / denom) * line
                proj_c = (float(zc @ line) / denom) * line
                proposal = x[i] + gamma_s * (proj_b - proj_c)
                num = float(np.linalg.norm(proposal - za))
                den = float(np.linalg.norm(x[i] - za))
                if num <= 0 or den <= 0:
                    continue
                log_corr = (d - 1) * (math.log(num) - math.log(den))

            logp_new = log_posterior(proposal)
            n_prop += 1
            if np.isfinite(logp_new):
                alpha = accept_probability(logp_new - x_logp[i] + log_corr)
                if rng.uniform() < alpha:
                    x[i] = proposal
                    x_logp[i] = logp_new
                    n_accept += 1

        states[:, t, :] = x
        logps[:, t] = x_logp

        if (t + 1) % cfg.archive_thin == 0:
            archive_rows.extend(x.copy())

        if t < cfg.burn_in and cfg.outlier_every and (t + 1) % cfg.outlier_every == 0:
            half = (t + 1) // 2
            means = logps[:, half:t + 1].mean(axis=1)
            q1, q3 = np.percentile(means, [25, 75])
            bad = means < q1 - 2.0 * (q3 - q1)
            if bad.any():
                best = int(np.argmax(means))
                for i in np.where(bad)[0]:
                    x[i] = x[best]
                    x_logp[i] = x_logp[best]
                    n_resets += 1

    return ChainEnsemble(states=states, log_posteriors=logps,
                         archive=np.asarray(archive_rows), burn_in=cfg.burn_in,
                         accept_rate=n_accept / max(n_prop, 1),
                         outlier_resets=n_resets)


# ---------------------------------------------------------------------------
# the table of fast paths

class FastPath(NamedTuple):
    """A fast path and the slow path it replaced.

    ``site`` is the function under ``src/`` that holds the fast path, as
    ``Class.method`` or a module-level name. ``fast`` and ``reference`` map
    ``(tape, nodes, args)`` to an output node or a tuple of them, where
    ``nodes`` holds a tape input per array of a case's inputs and ``args``
    the rest of the case. ``rules`` gives the rule of values and gradients
    per storage dtype, and ``cases(seed)`` draws ``(inputs, args)``.
    """
    site: str
    fast: Callable
    reference: Callable
    rules: dict
    cases: Callable


def run_taped(fn, dtype, inputs, args, seed=0):
    """Each output value of ``fn`` on a fresh tape of ``dtype`` and the
    gradient of every input, by name, under upstream gradients drawn from
    ``seed``."""
    tape = tc.GraphTape(dtype)
    nodes = {k: tape.input(v) for k, v in inputs.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the flow's clamp warning
        outs = fn(tape, nodes, args)
    outs = outs if isinstance(outs, tuple) else (outs,)
    rng = np.random.default_rng(seed)
    loss = sum(tc.sum_all(tape.constant(rng.standard_normal(o.value.shape)) * o) for o in outs)
    grads = tape.backward(loss)
    return {**{f"value{i}": o.value for i, o in enumerate(outs)},
            **{f"grad[{k}]": grads.wrt(n) for k, n in nodes.items()}}


def check_fast_path(path, dtype, case, seed=0):
    """Assert that ``path`` matches its reference on ``case`` by its rule
    at ``dtype``, under the upstream gradients of ``seed``."""
    got, want = (run_taped(fn, dtype, *case, seed) for fn in (path.fast, path.reference))
    assert_matches(got, want, path.rules[np.dtype(dtype).type], path.site)


def scan_fast_path(site, dtypes, seeds):
    """The (seed, dtype, message) of every case of ``FAST_PATHS[site]``
    over ``seeds`` and ``dtypes`` that fails :func:`check_fast_path`; a case
    that raises anything but an assertion error raises."""
    path = FAST_PATHS[site]
    failures = []
    for seed in seeds:
        for dtype in dtypes:
            try:
                check_fast_path(path, dtype, path.cases(seed), seed)
            except AssertionError as err:
                failures.append((seed, np.dtype(dtype).type, str(err)))
    return failures


def _loop_record(loop, out_extents):
    """A tape function of ``loop(x, w, bias, g) -> (value, gx, gw, gbias)``,
    the per-tap or per-offset reference, as one record over x, w and bias
    that runs the loop in float64."""
    def build(tape, n, args):
        x, w, bias = (np.asarray(n[k].value, dtype=np.float64) for k in ("x", "w", "bias"))
        value = loop(x, w, bias, np.zeros((w.shape[0],) + out_extents(x.shape[1:])))[0]

        def vjp(g):
            return loop(x, w, bias, np.asarray(g, dtype=np.float64))[1:]

        return tc.custom(lambda *_: (value, vjp), n["x"], n["w"], n["bias"])
    return build


def _banded_matrix(tape, n, args):
    """A constant one-axis kernel as the dense banded matrix product,
    ``tc._along_axis`` of ``tc._banded``, in value and input gradient."""
    w = np.asarray(np.asarray(args["w"], dtype=tape.dtype), dtype=np.float64)
    axis = 1 + int(np.argmax(w.shape[2:]))
    m = tc._banded(w.reshape(-1), n["x"].value.shape[axis])
    return tc.custom(lambda v: (tc._along_axis(v, m, axis),
                                lambda g: (tc._along_axis(g, m.T, axis),)), n["x"])


def _conv_operands(rng, channels, extents):
    c, o = (int(rng.integers(1, channels + 1)) for _ in range(2))
    shape = tuple(int(rng.integers(1, extents + 1)) for _ in range(3))
    kshape = tuple(int(rng.choice([1, 3, 5])) for _ in range(3))
    return {"x": rng.standard_normal((c,) + shape), "w": rng.standard_normal((o, c) + kshape),
            "bias": rng.standard_normal(o)}


PROC = ProceduralGenerator(GridGeometry(nx=12, ny=9, nz=5), latent_dim=9)


def _procedural_case(seed):
    rng = np.random.default_rng(seed)
    rows = (None, 1, 3)[seed % 3]
    lead = () if rows is None else (rows,)
    per_row = rows is not None and rng.uniform() < 0.5
    cells = None if rng.uniform() < 0.3 else rng.integers(0, PROC.geometry.n_cells,
                                                          int(rng.integers(1, 41)))
    maps = PROC.weights()["maps"]
    return ({"z": 1.5 * rng.standard_normal(lead + (9,)),
             "labels": rng.uniform(0.0, 1.0, lead + (5,) if per_row else (5,)),
             "maps": maps * (1.0 + 0.2 * rng.standard_normal(maps.size))},
            {"cells": cells})


def _fraction_case(seed):
    rng = np.random.default_rng(seed)
    # inside both ends at float32 too, where the clamp's zero slope begins
    near_ends = np.array([1e-12, 1e-9, 1.0 - 2.0 ** -23])
    params = (RockPhysicsParams(), RockPhysicsParams(pressure=0.03, coordination=6.0))[seed % 2]
    return {"f": np.concatenate([rng.uniform(size=500), near_ends])}, {"params": params}


def _taped_vp(tape, n, args):
    return geophysics._friable_sand(tape, n["f"], args["params"])["vp"]


def _interface_case(seed):
    rng = np.random.default_rng(seed)
    geometry = GridGeometry(*(int(rng.integers(1, 9)) for _ in range(3)))
    burden = (BurdenConfig(), BurdenConfig(fraction=0.2, bottom_fraction=0.9),
              BurdenConfig(total_thickness_m=0.0))[seed % 3 if geometry.nz > 1 else seed % 2]
    rho, vp = rock_physics(rng.uniform(0.05, 0.95, geometry.shape))
    return {"rho": rho, "vp": vp}, {"geometry": geometry, "burden": burden,
                                    "params": RockPhysicsParams()}


def _interfaces(fn):
    return lambda tape, n, a: fn(tape, n["rho"], n["vp"], a["geometry"], a["burden"],
                                 a["params"])[0]


def _mlp_case(seed):
    rng = np.random.default_rng(seed)
    hidden = ((), (5,), (5, 6))[seed % 3]
    weights = {k: v + 0.1 for k, v in mlp_init(3, hidden, 4, rng).items()}  # nonzero biases
    x = rng.standard_normal(((3,), (1, 3), (4, 3))[int(rng.integers(3))])
    return {"x": x, **weights}, {"n_layers": len(hidden) + 1}


def _flow_case(seed):
    """A flow whose weights are its initial ones plus noise, so that every
    layer's scales and shifts are far from zero."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    flow = FlowModel(dim, FlowConfig(n_layers=4, hidden=((4,), (16,), (8, 8))[seed % 3],
                                     rng_seed=seed))
    weights = {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in flow.weights.items()}
    u = rng.standard_normal(((), (0,), (1,), (4,))[int(rng.integers(4))] + (dim,))
    return {"u": u, **weights}, {"flow": flow}


def _flow(transform):
    return lambda tape, n, a: transform(a["flow"], tape, n["u"],
                                        {k: n[k] for k in a["flow"].weights})


BAND_LENGTHS = (1, 2, 5, 16, 17, 24, 40, 67, 128)


def _band_case(seed, axis=None, k=None, n=None):
    """One input of shape (1, 3, 4, 5) with axis ``axis`` n long and a
    constant single-channel kernel of k taps along it."""
    rng = np.random.default_rng(seed)
    axis = int(rng.integers(3)) if axis is None else axis
    k = int(rng.choice([3, 5, 7, 9])) if k is None else k
    shape, kshape = [1, 3, 4, 5], [1, 1, 1, 1, 1]
    shape[1 + axis] = int(rng.choice(BAND_LENGTHS)) if n is None else n
    kshape[2 + axis] = k
    return {"x": rng.standard_normal(shape)}, {"w": rng.standard_normal(kshape)}


def _cell_conv_case(seed):
    rng = np.random.default_rng(seed)
    ops = _conv_operands(rng, 4, 6)
    shape = ops["x"].shape[1:]
    n = int(np.prod(shape))
    cells = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
    return ({**ops, "x": ops["x"].reshape(-1, n)},
            {"plan": tc.cell_plan(shape, ops["w"].shape[2:], cells)})


def _conv3d_at(tape, n, a):
    return tc.conv3d_at(n["x"], n["w"], n.get("bias"), a["plan"])


def _take_of_conv3d(tape, n, a):
    plan, (o, c) = a["plan"], n["w"].value.shape[:2]
    full = tc.conv3d(tc.reshape(n["x"], (c,) + plan.shape), n["w"], n.get("bias"))
    return tc.take(full, np.arange(o)[:, None] * n["x"].value.shape[1] + plan.cells)


def _both(rule):
    return {np.float32: rule, np.float64: rule}


# k ulps of the largest entry are at most k * eps of it: round-off of
# 1e-12 of it in float64 and of 1e-5 in float32
ROUND_OFF = {np.float32: round_off(83), np.float64: round_off(4503)}

FAST_PATHS = {path.site: path for path in [
    FastPath("ProceduralGenerator.build",
             lambda tape, n, a: PROC.build(tape, n["z"], n["labels"], {"maps": n["maps"]},
                                           a["cells"]),
             lambda tape, n, a: taped_procedural_build(PROC, tape, n["z"], n["labels"],
                                                       {"maps": n["maps"]}, a["cells"]),
             ROUND_OFF, _procedural_case),
    FastPath("rock_physics_nodes",
             lambda tape, n, a: rock_physics_nodes(tape, n["f"], a["params"])[1],
             _taped_vp, ROUND_OFF, _fraction_case),
    FastPath("_interface_nodes", _interfaces(geophysics._interface_nodes),
             _interfaces(taped_interface_nodes), _both(EXACT), _interface_case),
    FastPath("mlp_apply", lambda tape, n, a: mlp_apply(tape, n, n["x"], a["n_layers"]),
             lambda tape, n, a: taped_mlp_apply(tape, n, n["x"], a["n_layers"]),
             _both(EXACT), _mlp_case),
    FastPath("FlowModel.transform", _flow(FlowModel.transform), _flow(taped_flow_transform),
             _both(EXACT), _flow_case),
    FastPath("conv3d", lambda tape, n, a: tc.conv3d(n["x"], n["w"], n["bias"]),
             _loop_record(conv3d_per_tap, lambda shape: shape), ROUND_OFF,
             lambda seed: (_conv_operands(np.random.default_rng(seed), 4, 6), {})),
    FastPath("_band", lambda tape, n, a: tc.conv3d(n["x"], tape.constant(a["w"])),
             _banded_matrix, _both(round_off(4)), _band_case),
    FastPath("upconv3d", lambda tape, n, a: tc.upconv3d(n["x"], n["w"], n["bias"]),
             _loop_record(upconv3d_per_offset, lambda shape: tuple(2 * e for e in shape)),
             ROUND_OFF,
             lambda seed: (_conv_operands(np.random.default_rng(seed), 3, 4), {})),
    FastPath("conv3d_at", _conv3d_at, _take_of_conv3d,
             {np.float32: round_off(1), np.float64: round_off(450)}, _cell_conv_case),
]}
