"""Shared test fixtures: a linear generator with a known least-squares oracle,
a direct-summation oracle for ``tc.conv3d``, the per-tap and per-offset
loops that ``tc.conv3d`` and ``tc.upconv3d`` ran before their column
buffer, the wide-buffer form of conv3d's row accumulation, the
padded-column reflectivity formula, the one-restart-at-a-time latent
optimization loop that the row blocks replaced, the procedural build as a
tape of elementwise ops that the fused kernel replaced, the neural build as
the upsample-then-convolve composition that ``tc.upconv3d`` replaced, the
flow transform and the dense chain as the per-op tape records that their
fused kernels replaced, the per-array Adam update that the one-vector
update replaced, and the friable-sand moduli as named arrays."""

import math
import warnings

import numpy as np

import fluvinv.tensors as tc
from fluvinv import geophysics
from fluvinv.generators import (LABEL_NAMES, _batch_rows, _cell_coordinates, _label_node,
                                neutral_labels, sample_prior)
from fluvinv.geophysics import RockPhysicsParams, rock_physics
from fluvinv.grids import GridGeometry, ModelGrid
from fluvinv.inversion import DataLoss, InversionError
from fluvinv.inversion.optimize import RestartRecord, descend


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
