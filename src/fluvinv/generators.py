"""Latent-to-grid generators.

Two interchangeable generators produce the two-channel deposit grid from a
latent vector and optional conditioning labels, both differentiable through
the tensor engine w.r.t. latent, labels, and their own parameters:

* :class:`ProceduralGenerator` -- an analytic channel-belt construction with
  a known ground truth, used to exercise the inversion machinery end to end.
* :class:`NeuralGenerator` -- a DCGAN-family residual upsampling network
  evaluated at inference time (weights are produced elsewhere and frozen).
"""

from __future__ import annotations

import functools
import json
import math
import struct
from collections import namedtuple
from dataclasses import dataclass, asdict

import numpy as np

from . import tensors as tc
from .grids import ModelGrid, check_config, is_integer

__all__ = [
    "GeneratorError",
    "LABEL_NAMES",
    "keyed_rng",
    "keyed_rngs",
    "sample_prior",
    "neutral_labels",
    "ProceduralGenerator",
    "GeneratorDescriptor",
    "NeuralGenerator",
    "save_weights",
    "load_weights",
    "weights_fingerprint",
]

LABEL_NAMES = (
    "coarse_grain_diameter",
    "fine_grain_diameter",
    "bank_erodibility",
    "aggradation_rate",
    "storm_rainfall",
)


class GeneratorError(Exception):
    pass


def keyed_rng(*key):
    """The package's one NumPy random stream: a PCG64 generator seeded from
    the integer tuple ``key`` alone, so a draw depends on its key and on
    nothing drawn before it. Every random draw in ``fluvinv`` comes from here.

    Keys in use (``seed`` is the caller's ``rng_seed``; ``i`` a row, ``t`` a
    generation, ``step`` a descent step):

    * ``(seed, i)`` -- :func:`sample_prior` latent row i (truths, restarts);
    * ``(seed,)`` -- :meth:`NeuralGenerator.random_init` and
      :func:`.survey.place_wells`;
    * ``(seed, 1, i)`` / ``(seed, 2, i)`` -- DREAM(ZS) archive row i / chain
      i initial state; ``(seed, 3, t, i)`` -- its proposal for chain i at
      generation t;
    * ``(seed, 7, step)`` -- pivotal tuning's anchors and pivots;
    * ``(seed, 11, layer)`` / ``(seed, 13, i)`` / ``(seed, 17, step)`` --
      flow conditioner init / :meth:`FlowModel.sample` row i / flow batch;
    * ``(seed, 19)`` / ``(seed, 23, i)`` / ``(seed, 29, step)`` -- inference
      net init / :meth:`InferenceNet.sample` row i / training batch.

    ``SeedSequence`` reads a key of up to four words as if zero-padded to
    four, so trailing zeros there name the same stream: ``(seed,)`` is
    latent row 0, and ``(seed, k, 0)`` or ``(seed, k, 0, 0)`` (row, layer or
    step 0 of family k; DREAM's first proposal) is latent row k. The
    inference net's init ``(seed, 19)`` is the key of latent row 19 itself.

    :func:`keyed_rngs` is the batch form, for callers that need many streams
    at once (DREAM(ZS) needs one per proposal). It hashes the entropy words
    themselves, words past the fourth included, so a key layout that puts
    the family and index in ``SeedSequence``'s ``spawn_key`` (appended after
    the seed's words, zero-padded to four) stays in its reach: such a stream
    is its plain key ``(*seed words, *zero padding, *spawn key)``.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        tuple(int(k) for k in key))))


# NumPy's SeedSequence constants (a four-word uint32 pool, arithmetic mod 2**32)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875   # entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED   # output hash
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_constants(start, mult, n):
    # column of n + 1 successive hash constants, start * mult**k mod 2**32
    out = [start]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


_OUT_HASH = _hash_constants(_INIT_B, _MULT_B, 8)
_OTHERS = [np.array([d for d in range(4) if d != s]) for s in range(4)]


def _hashmix(v, hc):
    # lane k: v ^= hc[k]; v *= hc[k + 1]; v ^= v >> 16, each lane with the
    # constant the scalar loop would have reached there
    v = v ^ hc[:-1]
    v *= hc[1:]
    v ^= v >> _SHIFT
    return v


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    r ^= r >> _SHIFT
    return r


def _entropy_words(keys):
    # (max(4, L), n) uint32 entropy words of each key (its entries split into
    # little-endian words, 0 as one word), zero past a key's end, and the
    # number of words of each key
    lengths = np.fromiter(map(len, keys), np.intp, len(keys))
    flat = [k for key in keys for k in key]
    rest = np.array(flat)
    if rest.dtype.kind not in "iu":  # numpy went to float or object: take exact Python ints
        rest = np.array([int(k) for k in flat], dtype=object)
    if (rest < 0).any():
        raise ValueError("keyed_rngs keys must be non-negative integers")
    parts, counts = [], np.ones(len(rest), dtype=np.intp)
    while True:
        parts.append((rest & 0xFFFFFFFF).astype(np.uint32))
        rest = rest >> 32
        alive = rest != 0
        if not alive.any():
            break
        counts += alive
    word_ends = np.concatenate(([0], np.cumsum(counts)))
    n_words = np.diff(word_ends[np.concatenate(([0], np.cumsum(lengths)))])
    words = np.zeros((len(keys), max(4, n_words.max(initial=0))), dtype=np.uint32)
    # both masks run row-major: key by key, and entry by entry, low word first
    words[np.arange(words.shape[1]) < n_words[:, None]] = \
        np.stack(parts, axis=1)[np.arange(len(parts)) < counts[:, None]]
    return np.ascontiguousarray(words.T), n_words


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 four precomputed state words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 state words, asked for {n_words} {dtype}")
        return self.words


class _KeyedStreams:
    """The streams of :func:`keyed_rngs`; stream j is built when indexed."""

    def __init__(self, words):
        self.words = words   # (n, 4) uint64, 32 bytes a stream

    def __len__(self):
        return len(self.words)

    def __getitem__(self, j):
        return np.random.Generator(np.random.PCG64(_StateWords(self.words[j])))


def keyed_rngs(keys):
    """:func:`keyed_rng` for a sequence of keys: stream j equals
    ``keyed_rng(*keys[j])`` draw for draw.

    The PCG64 state words of every key come from one vectorized replay of
    NumPy's ``SeedSequence(key).generate_state(4, np.uint64)``, one step over
    all keys at a time. Only those words are kept; ``streams[j]`` builds the
    generator of stream j when it is indexed. A key of any length, entries of
    any size included, is accepted; a negative entry raises ``ValueError``.
    """
    words, n_words = _entropy_words(keys)
    hc = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * (len(words) - 4))
    pool = _hashmix(words[:4], hc[:5])
    k = 4
    for s, dst in enumerate(_OTHERS):
        # pool[d] = mix(pool[d], hashmix(pool[s])) for d != s, in order; pool[s]
        # is not written, so its three hashes are one 3-lane op
        pool[dst] = _mix(pool[dst], _hashmix(pool[s], hc[k:k + 4]))
        k += 3
    for w in range(4, len(words)):
        # each word past the fourth is mixed into all four pool words
        mixed = _mix(pool, _hashmix(words[w], hc[k:k + 5]))
        pool = np.where(n_words > w, mixed, pool)
        k += 4
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_HASH)
    return _KeyedStreams(np.ascontiguousarray(out.T, dtype="<u4").view("<u8")
                         .astype(np.uint64))


def sample_prior(n, d, rng_seed, *stream):
    """n i.i.d. standard-normal vectors, shape (n, d).

    Row i is drawn from :func:`keyed_rng` ``(rng_seed, *stream, i)`` alone,
    so batches are identical no matter how the work is split across
    workers. Latents use no ``stream``; the flow, inference-net and DREAM
    noise rows pass theirs (see :func:`keyed_rng`).
    """
    if n < 1 or d < 1:
        raise GeneratorError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    out = np.empty((n, d), dtype=np.float64)
    for i in range(n):
        out[i] = keyed_rng(rng_seed, *stream, i).standard_normal(d)
    return out


def neutral_labels(k=len(LABEL_NAMES)):
    return np.full(k, 0.5)


def _label_node(tape, labels, label_dim, n_neutral, rows=None):
    """The label node a build uses: ``labels``, or ``n_neutral`` neutral
    labels (none if 0) when ``labels`` is None. A generator without labels
    (``label_dim`` 0) rejects any. Labels of shape (label_dim,) are shared by
    every row; a batch latent of ``rows`` rows also takes per-row labels,
    shape (rows, label_dim)."""
    if labels is None:
        return tape.constant(neutral_labels(n_neutral)) if n_neutral else None
    _check_label_shape(labels.value.shape, label_dim, rows)
    return labels


def _check_label_shape(shape, label_dim, rows=None):
    if not label_dim:
        raise GeneratorError("generator is unconditional, labels given")
    if shape != (label_dim,) and (rows is None or shape != (rows, label_dim)):
        per_row = "" if rows is None else f" or ({rows}, {label_dim})"
        raise GeneratorError(f"expected {label_dim} labels, shape ({label_dim},){per_row}, "
                             f"got shape {shape}")


def _check_labels(labels):
    labels = np.asarray(labels, dtype=np.float64)
    if np.any((labels < 0.0) | (labels > 1.0)):
        raise GeneratorError("labels must be normalized to [0, 1]")
    return labels


def _generate(self, z, labels=None, dtype=np.float32):
    """The model grid of one latent ``z``: :meth:`build` on a constant tape."""
    tape = tc.GraphTape(dtype)
    if labels is not None:
        labels = _check_labels(labels)
    coarse, depo = self.build(tape, tape.constant(np.asarray(z, dtype=np.float64)),
                              None if labels is None else tape.constant(labels))
    return ModelGrid(self.geometry, np.asarray(coarse.value), np.asarray(depo.value),
                     labels=labels)


def _cell_coordinates(cells, geometry):
    """``(cells, x, y, layer)`` of a build at ``cells`` of ``geometry``:
    the flat, layer-major cell indices as an intp array and their float64
    coordinates, one entry per cell; for ``cells`` None, no indices and
    broadcast aranges over the full grid. The arrays are read-only and
    computed once per distinct cell list, cached by its content, so a list
    changed in place gets fresh coordinates. Bad cells raise on every call."""
    if cells is None:
        return _coordinates(geometry.nx, geometry.ny, geometry.nz, None)
    arr = np.asarray(cells)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":  # np.issubdtype costs ten times more
        raise GeneratorError(
            f"cells must be a 1-D integer array, got dtype {arr.dtype} shape {arr.shape}")
    return _coordinates(geometry.nx, geometry.ny, geometry.nz,
                        arr.astype(np.intp, copy=False).tobytes())


@functools.lru_cache(maxsize=16)
def _coordinates(nx, ny, nz, key):
    # an error is not cached, so bad cells raise again on the next call
    if key is None:
        cells = None
        x = np.arange(nx, dtype=np.float64).reshape(1, 1, nx)
        y = np.arange(ny, dtype=np.float64).reshape(1, ny, 1)
        layer = np.arange(nz, dtype=np.float64).reshape(nz, 1, 1)
    else:
        cells = np.frombuffer(key, dtype=np.intp)  # read-only
        if cells.size and (cells.min() < 0 or cells.max() >= nx * ny * nz):
            raise GeneratorError(f"cell index outside [0, {nx * ny * nz})")
        x = (cells % nx).astype(np.float64)
        y = ((cells // nx) % ny).astype(np.float64)
        layer = (cells // (ny * nx)).astype(np.float64)
    for v in (x, y, layer):
        v.flags.writeable = False
    return cells, x, y, layer


def _batch_rows(z, latent_dim):
    """The row count B of a batch latent node ``z``, shape (B, d), or None
    for one latent, shape (d,)."""
    shape = z.value.shape
    if shape == (latent_dim,):
        return None
    if len(shape) == 2 and shape[0] >= 1 and shape[1] == latent_dim:
        return shape[0]
    raise GeneratorError(f"latent shape {shape} is neither ({latent_dim},) "
                         f"nor (B, {latent_dim})")


def weights_fingerprint(weights):
    """Order-independent digest of a named tensor set."""
    import hashlib
    h = hashlib.sha256()
    for name in sorted(weights):
        h.update(name.encode())
        arr = np.ascontiguousarray(weights[name], dtype=np.float64)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# procedural channel-belt generator

# Coefficients of the fixed affine/squashing maps from (z, labels) to belt
# parameters. Exposed as a named tensor so weight tuning can adjust them the
# same way it adjusts neural weights.
_MAP_COEFF_NAMES = (
    "center_gain", "center_bias",
    "width_base", "width_gain",
    "width_rain_base", "width_rain_gain",
    "amp_gain",
    "wave_base", "wave_gain",
    "phase_gain",
    "drift_gain",
    "sharp_base", "sharp_gain",
    "turn_gain",
    "core_blend_raw",
)
_MAP_COEFF_DEFAULTS = np.array([
    0.7, 0.0,      # belt center
    0.06, 0.12,    # half-width base
    0.75, 0.5,     # rainfall widening
    0.12,          # sinuosity amplitude
    0.55, 0.15,    # wavelength (kept narrow: wide ranges alias at few wells)
    1.5,           # phase
    0.25,          # per-layer drift
    0.5, 2.5,      # core sharpness
    0.1,           # per-layer phase turn
    0.0,           # core blend (through a sigmoid)
])

_MIN_EXTENTS = (8, 8, 4)  # nx, ny, nz below which belt features degenerate


class ProceduralGenerator:
    """Analytic, everywhere-differentiable channel-belt grids.

    The first eight latent components steer belt center, width, sinuosity,
    wavelength, phase, per-layer drift, edge sharpness and per-layer meander
    turn; the five conditioning labels modulate width, amplitude, sharpness,
    drift and vertical stacking.
    """

    kind = "procedural"
    builds_at_cells = True  # a build at cells evaluates only those cells

    def __init__(self, geometry, latent_dim=16, label_dim=len(LABEL_NAMES),
                 map_coefficients=None):
        if latent_dim < 8:
            raise GeneratorError(f"procedural generator needs latent_dim >= 8, got {latent_dim}")
        if (geometry.nx < _MIN_EXTENTS[0] or geometry.ny < _MIN_EXTENTS[1]
                or geometry.nz < _MIN_EXTENTS[2]):
            raise GeneratorError(
                f"extents {geometry.nx}x{geometry.ny}x{geometry.nz} below minimum "
                f"{_MIN_EXTENTS[0]}x{_MIN_EXTENTS[1]}x{_MIN_EXTENTS[2]}")
        if label_dim not in (0, len(LABEL_NAMES)):
            raise GeneratorError(f"label_dim must be 0 or {len(LABEL_NAMES)}")
        self.geometry = geometry
        self.latent_dim = latent_dim
        self.label_dim = label_dim
        if map_coefficients is None:
            map_coefficients = _MAP_COEFF_DEFAULTS.copy()
        map_coefficients = np.asarray(map_coefficients, dtype=np.float64)
        if map_coefficients.shape != (len(_MAP_COEFF_NAMES),):
            raise GeneratorError(
                f"map coefficient vector must have {len(_MAP_COEFF_NAMES)} entries")
        self._maps = map_coefficients

    def weights(self):
        return {"maps": self._maps.copy()}

    def with_weights(self, weights):
        if set(weights) != {"maps"}:
            raise GeneratorError(f"procedural weights must be exactly {{'maps'}}, "
                                 f"got {sorted(weights)}")
        return ProceduralGenerator(self.geometry, self.latent_dim, self.label_dim,
                                   weights["maps"])

    # -- differentiable core ------------------------------------------------
    def build(self, tape, z, labels=None, weights=None, cells=None, depo=True):
        """Emit (coarse_fraction, depo_time) nodes of shape (nz, ny, nx).

        With ``cells`` (flat, layer-major indices, as
        ``WellDataset.flat_cell_indices`` returns), both nodes have shape
        ``(len(cells),)`` and hold exactly the values of the full grid at
        those cells: the construction is pointwise in (layer, y, x), so only
        those cells are evaluated.

        ``z`` is one latent, shape (d,), or a batch of B latents, shape
        (B, d); a batch gives both nodes a leading batch axis, (B, nz, ny, nx)
        or (B, len(cells)), and row i equals the build of ``z[i]`` exactly.

        ``labels`` is a node of ``label_dim`` labels shared by every row, or
        for a batch of B latents per-row labels, shape (B, label_dim), or None
        for neutral labels; an unconditional generator takes none.

        With ``depo=False`` the build returns ``(coarse, None)``: it skips
        every step only the depositional time reads and records one node,
        whose values and gradients equal the coarse of a ``depo=True`` build
        bit for bit.

        The build is one :func:`tc.custom` record per channel of one fused
        kernel (:func:`_procedural_kernel`) over (z, labels, maps). The
        kernel's belt parameters of one latent are numpy scalars, not (1,)
        arrays (see :func:`_belt`), so a build at a few cells, one DREAM
        proposal's, pays numpy's per-call cost mostly on the cell arrays.
        """
        g = self.geometry
        rows = _batch_rows(z, self.latent_dim)
        labels = _label_node(tape, labels, self.label_dim, len(LABEL_NAMES), rows)
        maps = tape.constant(self._maps) if weights is None else weights["maps"]
        _, x, y, layer = _cell_coordinates(cells, g)
        # the kernel runs once here; each record takes one channel's value and
        # backward from it
        coarse, depo = _procedural_kernel(
            g, x, y, layer, z.value, labels.value, maps.value,
            (z.requires_grad, labels.requires_grad, maps.requires_grad), depo)
        return (tc.custom(lambda *_: coarse, z, labels, maps),
                None if depo is None else tc.custom(lambda *_: depo, z, labels, maps))

    generate = _generate

    def belt_parameters(self, z, labels=None):
        """Interpretable belt parameters for a latent (diagnostics/tests), plus the
        core blend and the aggradation label that shape the vertical stacking."""
        if labels is None:
            labels = neutral_labels()
        else:
            labels = _check_labels(labels)
            _check_label_shape(labels.shape, self.label_dim)
        b = _belt(self.geometry, np.asarray(z, dtype=np.float64), labels, self._maps)
        return {k: float(b[k]) for k in _BELT_PARAMETERS}


_BELT_PARAMETERS = ("center", "half_width", "amplitude", "wavelength", "phase", "drift",
                    "sharpness", "turn", "core_blend", "aggradation")
_LN2 = float(np.log(2.0))


def _belt(geometry, z, labels, maps, depo=True):
    """The belt parameters (:data:`_BELT_PARAMETERS`) from latent, label and
    map-coefficient arrays of one float dtype, with the intermediates that
    :func:`_belt_vjp` reads. Latent and label columns are read along a
    leading axis (:func:`_leading`): for a latent of shape (d,) and shared
    labels every parameter is a numpy scalar of that dtype (``core_blend`` a
    0-d array), which costs a fraction of a (1,) array per op and broadcasts
    against the cells the same way; the latent- and per-row label-driven
    ones of a batch (*lead, d) have shape (*lead, 1). ``core_blend`` is None
    unless ``depo``, the only channel that reads it. With map coefficients c,
    latent z and labels:

    * center = ny sigmoid(c0 z0 + c1)
    * half_width = ny (c2 + c3 sigmoid(0.7 z1)) (c4 + c5 rain)
    * amplitude = ny c6 tanh(0.7 z2) (1.3 - 0.6 coarse grain)
    * wavelength = nx (c7 + c8 tanh(0.7 z3)); phase = c9 z4
    * drift = ny / (nz - 1) c10 tanh(0.7 z5) (0.5 + erodibility)
    * sharpness = (c11 + c12 sigmoid(0.7 z6)) (0.7 + 0.6 fine grain)
    * turn = c13 tanh(0.7 z7); core_blend = sigmoid(c14); aggradation label

    Every op runs in that dtype (Python scalars adopt it), with the operand
    order and association written here, so a float32 build rounds as a tape
    of one record per op does. The elementwise sigmoids and tanhs of the
    latent-driven arguments each run as one call over their columns.
    """
    ny, nx = float(geometry.ny), float(geometry.nx)
    zc = list(_leading(z)[:8])
    g_coarse, g_fine, erod, aggr, rain = _leading(labels)
    c = list(maps)
    # kept for the backward: sK and tK are the sigmoid and tanh terms of latent
    # component K, and a parameter that is a product keeps its factors
    b = {"z": zc, "labels": (g_coarse, g_fine, erod, aggr, rain), "maps": c,
         "ny": ny, "nx": nx, "drift_scale": ny / max(geometry.nz - 1, 1)}
    # np.array, not np.stack, which costs several times more on scalars
    b["s0"], b["s1"], b["s6"] = s0, s1, s6 = tc._stable_sigmoid(
        np.array([c[0] * zc[0] + c[1], zc[1] * 0.7, zc[6] * 0.7]))
    b["t2"], b["t3"], b["t5"], b["t7"] = t2, t3, t5, t7 = np.tanh(
        np.array([zc[2], zc[3], zc[5], zc[7]]) * 0.7)
    b["hw0"] = hw0 = (c[2] + c[3] * s1) * ny
    b["wr"] = wr = c[4] + c[5] * rain
    b["a6"] = a6 = c[6] * ny
    b["a62"] = a62 = a6 * t2
    b["k2"] = k2 = 1.3 - g_coarse * 0.6
    b["d10"] = d10 = c[10] * b["drift_scale"]
    b["d105"] = d105 = d10 * t5
    b["e5"] = e5 = erod + 0.5
    b["sh0"] = sh0 = c[11] + c[12] * s6
    b["f6"] = f6 = g_fine * 0.6 + 0.7
    b.update(center=s0 * ny, half_width=hw0 * wr, amplitude=a62 * k2,
             wavelength=(c[7] + c[8] * t3) * nx, phase=c[9] * zc[4], drift=d105 * e5,
             sharpness=sh0 * f6, turn=c[13] * t7,
             core_blend=tc._stable_sigmoid(c[14]) if depo else None, aggradation=aggr)
    return b


def _leading(a):
    """The columns of ``a`` along its first axis: a vector (k,) as it is, so
    that each column is a numpy scalar; a batch (*lead, k) as the view
    (k, *lead, 1), whose columns keep the batch's shape. (That view is
    ``np.moveaxis(a[..., None], -2, 0)``, which costs several times more.)"""
    return a if a.ndim == 1 else a[..., None].transpose(a.ndim - 1, *range(a.ndim - 1), a.ndim)


def _belt_vjp(b, gp, needs):
    """Gradients of the latent components, labels and map coefficients, as
    dicts from column index to array, from the gradients ``gp`` of the belt
    parameters of ``b`` (:func:`_belt`): each factor is the derivative of
    one op of the forward, applied in reverse op order, and each broadcast is
    summed back as the tape sums it. ``needs`` flags which of (latent,
    labels, maps) take gradients."""
    rz, rl, rm = needs
    zc, (g_coarse, g_fine, erod, aggr, rain), c = b["z"], b["labels"], b["maps"]
    ny, nx = b["ny"], b["nx"]
    gz, gl, gm = {}, {}, {}
    g = gp.get("center")
    if g is not None:
        s0 = b["s0"]
        g = g * ny * s0 * (1.0 - s0)
        if rm:
            gm[0], gm[1] = _sum_to(g * zc[0], c[0]), _sum_to(g, c[1])
        if rz:
            gz[0] = g * c[0]
    g = gp.get("half_width")
    if g is not None:
        if rz or rm:
            g0 = _sum_to(g * b["wr"], b["hw0"]) * ny
            if rm:
                gm[2], gm[3] = _sum_to(g0, c[2]), _sum_to(g0 * b["s1"], c[3])
            if rz:
                s1 = b["s1"]
                gz[1] = g0 * c[3] * s1 * (1.0 - s1) * 0.7
        if rl or rm:
            g0 = _sum_to(g * b["hw0"], b["wr"])
            if rm:
                gm[4], gm[5] = _sum_to(g0, c[4]), _sum_to(g0 * rain, c[5])
            if rl:
                gl[4] = g0 * c[5]
    g = gp.get("amplitude")
    if g is not None:
        if rz or rm:
            g0 = _sum_to(g * b["k2"], b["a62"])
            if rm:
                gm[6] = _sum_to(g0 * b["t2"], c[6]) * ny
            if rz:
                t2 = b["t2"]
                gz[2] = g0 * b["a6"] * (1.0 - t2 * t2) * 0.7
        if rl:
            gl[0] = -_sum_to(g * b["a62"], b["k2"]) * 0.6
    g = gp.get("wavelength")
    if g is not None:
        g = g * nx
        if rm:
            gm[7], gm[8] = _sum_to(g, c[7]), _sum_to(g * b["t3"], c[8])
        if rz:
            t3 = b["t3"]
            gz[3] = g * c[8] * (1.0 - t3 * t3) * 0.7
    g = gp.get("phase")
    if g is not None:
        if rm:
            gm[9] = _sum_to(g * zc[4], c[9])
        if rz:
            gz[4] = g * c[9]
    g = gp.get("drift")
    if g is not None:
        if rz or rm:
            g0 = _sum_to(g * b["e5"], b["d105"])
            if rm:
                gm[10] = _sum_to(g0 * b["t5"], c[10]) * b["drift_scale"]
            if rz:
                t5 = b["t5"]
                gz[5] = g0 * b["d10"] * (1.0 - t5 * t5) * 0.7
        if rl:
            gl[2] = _sum_to(g * b["d105"], b["e5"])
    g = gp.get("sharpness")
    if g is not None:
        if rz or rm:
            g0 = _sum_to(g * b["f6"], b["sh0"])
            if rm:
                gm[11], gm[12] = _sum_to(g0, c[11]), _sum_to(g0 * b["s6"], c[12])
            if rz:
                s6 = b["s6"]
                gz[6] = g0 * c[12] * s6 * (1.0 - s6) * 0.7
        if rl:
            gl[1] = _sum_to(g * b["sh0"], b["f6"]) * 0.6
    g = gp.get("turn")
    if g is not None:
        if rm:
            gm[13] = _sum_to(g * b["t7"], c[13])
        if rz:
            t7 = b["t7"]
            gz[7] = g * c[13] * (1.0 - t7 * t7) * 0.7
    g = gp.get("core_blend")
    if g is not None and rm:
        blend = b["core_blend"]
        gm[14] = g * blend * (1.0 - blend)
    if "aggradation" in gp:
        gl[3] = gp["aggradation"]
    return gz, gl, gm


def _sum_to(g, like):
    """``g`` summed over the axes that ``like`` broadcasts along, in the
    dtype of ``like``: the gradient of an operand, as the tape reduces it.
    A 0-d ``like`` (a one-latent belt parameter) takes shape (1,), that of
    the tape's column node: summing a grid straight to () would add in
    another order than the tape's two stages, leading axes then the last.
    A ``g`` of that shape and the dtype of ``like`` is returned itself, so
    no caller may write into the result in place."""
    return tc._unbroadcast(g, like.shape or (1,)).astype(like.dtype, copy=False)


def _columns(shape, dt, cols):
    """An array of ``shape`` whose last-axis columns are ``cols`` (index to
    array), zero elsewhere. Each column is added into the zeros, as the
    tape adds the zero-filled gradients of its column crops, so a -0.0
    entry comes out +0.0 there too."""
    out = np.zeros(shape, dtype=dt)
    for i, v in cols.items():
        out[..., i:i + 1] += v
    return out


def _procedural_kernel(geometry, x, y, layer, z, labels, maps, needs, depo=True):
    """The procedural build from latent, label and map-coefficient arrays, as
    ``((coarse, coarse_vjp), (depo, depo_vjp))`` for two :func:`tc.custom`
    records over (z, labels, maps), or ``((coarse, coarse_vjp), None)``
    without ``depo``, which skips every step below that only depo reads; x,
    y and layer are the cell coordinates, broadcast aranges for the full grid
    or one entry per cell. The forward:

    * centerline = center + drift layer
      + amplitude sin(2 pi x / wavelength + phase + turn layer);
    * dist = |y - centerline|; coarse = sigmoid((half_width - dist) / sharpness),
      core = sigmoid((0.6 half_width - dist) / sharpness);
    * depo = w + (1 - w) t**q, w = core_blend core, with t the layer time
      clipped to [1e-6, 1] and q = 2**(1 - 2 aggradation): vertical stacking
      warped by the aggradation label and pulled toward 1 (recent reworking)
      inside the channel core.

    Each channel's backward is derived by hand, op for op (see
    :func:`_belt_vjp`); it reads the forward's arrays and skips the inputs
    that ``needs`` (latent, labels, maps) leaves out. A channel no loss reads
    costs no backward; when both are read, the tape sums their gradients."""
    rz, rl, rm = needs
    rzm = rz or rm  # center, wavelength, phase and turn take gradients
    dt = z.dtype
    z_shape, labels_shape = z.shape, labels.shape
    if z.ndim == 2 and x.ndim == 3:
        # a batch over the full grid: latent and per-row label columns
        # of shape (B, 1, 1, 1) broadcast over the grid
        z = z.reshape(z.shape[0], 1, 1, z.shape[1])
        if labels.ndim == 2:
            labels = labels.reshape(labels.shape[0], 1, 1, labels.shape[1])
    b = _belt(geometry, z, labels, maps, depo)
    xg, yg, mg = (np.asarray(v, dtype=dt) for v in (x, y, layer))
    center, half_width, amp, wavelength, phase, drift, sharp, turn, blend, aggr = (
        b[k] for k in _BELT_PARAMETERS)

    xs = xg * (2.0 * np.pi)
    xw = xs / wavelength
    a1 = xw + phase
    tm = turn * mg
    arg = a1 + tm
    sn = np.sin(arg)
    dm = drift * mg
    cb = center + dm
    am = amp * sn
    cl = cb + am
    diff = yg - cl
    dist = np.abs(diff)
    n1 = half_width - dist
    # both channels share one allocation: as two arrays, a full-seismic
    # latent call took twice the page faults (glibc sizes its heap trim
    # by the largest chunk freed so far); a coarse-only build allocates
    # coarse alone
    if depo:
        coarse, depo_time = np.empty((2,) + dist.shape, dtype=dt)
    else:
        coarse = np.empty(dist.shape, dtype=dt)
    tc._stable_sigmoid(np.divide(n1, sharp, out=coarse), out=coarse)

    def tail(g_dist, gp):
        # dist = |yg - centerline| down to the belt parameters
        g_dist *= np.sign(diff)
        g_cl = -_sum_to(g_dist, cl)
        g_cb, g_am = _sum_to(g_cl, cb), _sum_to(g_cl, am)
        gp["amplitude"] = _sum_to(g_am * sn, amp)
        gp["drift"] = _sum_to(_sum_to(g_cb, dm) * mg, drift)
        if rzm:
            gp["center"] = _sum_to(g_cb, center)
            g_arg = _sum_to(g_am * amp, sn) * np.cos(arg)
            gp["turn"] = _sum_to(_sum_to(g_arg, tm) * mg, turn)
            g_a1 = _sum_to(g_arg, a1)
            gp["phase"] = _sum_to(g_a1, phase)
            g_xw = _sum_to(g_a1, xw)
            gp["wavelength"] = _sum_to(-g_xw * xs / (wavelength * wavelength), wavelength)
        gz, gl, gm = _belt_vjp(b, gp, needs)
        return (_columns(z.shape, dt, gz).reshape(z_shape) if rz else None,
                _columns(labels.shape, dt, gl).reshape(labels_shape) if rl else None,
                _columns(maps.shape, dt, gm) if rm else None)

    def sigmoid_quotient(g, o, n):
        # g through o = sigmoid(n / sharp): (gradient of n, of sharp)
        g = g * o
        term = np.subtract(1.0, o)
        g *= term
        np.negative(g, out=term)
        term *= n
        term /= sharp * sharp
        g /= sharp
        return g, _sum_to(term, sharp)

    def coarse_vjp(g):
        g_n1, g_sharp = sigmoid_quotient(g, coarse, n1)
        # negated first: the sum of -g is -(sum of g) bit for bit, and
        # _sum_to may hand back g_n1 itself, which tail then scales in place
        np.negative(g_n1, out=g_n1)
        gp = {"sharpness": g_sharp, "half_width": -_sum_to(g_n1, half_width)}
        return tail(g_n1, gp)

    if not depo:
        return (coarse, coarse_vjp), None
    n2 = np.subtract(half_width * 0.6, dist, out=dist)
    core = n2 / sharp
    tc._stable_sigmoid(core, out=core)
    q = np.exp((1.0 - aggr * 2.0) * _LN2)
    lt = np.log(np.asarray(np.clip(layer / max(geometry.nz - 1, 1), 1e-6, 1.0), dtype=dt))
    tw = np.exp(q * lt)
    wc = blend * core
    om = np.subtract(1.0, wc)
    np.multiply(om, tw, out=depo_time)
    depo_time += wc
    del wc
    if not rl:  # only the time warp's backward reads om
        om = None

    def depo_vjp(g):
        gp = {}
        g_wc = g * tw
        if rl:
            g_tw = _sum_to(g * om, tw) * tw
            gp["aggradation"] = -(_sum_to(g_tw * lt, q) * q * _LN2) * 2.0
        np.subtract(g, g_wc, out=g_wc)
        if rm:
            gp["core_blend"] = _sum_to(g_wc * core, blend)
        g_wc *= blend
        g_n2, gp["sharpness"] = sigmoid_quotient(g_wc, core, n2)
        gp["half_width"] = _sum_to(g_n2, half_width) * 0.6
        return tail(np.negative(g_n2, out=g_n2), gp)

    return (coarse, coarse_vjp), (depo_time, depo_vjp)


# ---------------------------------------------------------------------------
# neural generator

@dataclass(frozen=True)
class GeneratorDescriptor:
    """Inference-time architecture: dense seed projection, residual
    nearest-upsample blocks, tanh head mapped to [0, 1]."""

    latent_dim: int = 16
    label_dim: int = 0
    base_channels: int = 16
    num_blocks: int = 2
    out_extents: tuple = (32, 32, 8)  # (nx, ny, nz)
    leaky_slope: float = 0.2

    def __post_init__(self):
        check_config(self, GeneratorError, ("label_dim", ">=", 0), ("leaky_slope", ">=", 0.0),
                     ("latent_dim base_channels num_blocks out_extents", ">=", 1))
        if any(e % 2 ** self.num_blocks for e in self.out_extents):
            raise GeneratorError(
                f"out extents {self.out_extents} must be divisible by 2^{self.num_blocks}")

    @property
    def channels(self):
        """Channel counts entering each block (halving, floor 2) plus the last."""
        ch = [self.base_channels]
        for _ in range(self.num_blocks):
            ch.append(max(ch[-1] // 2, 2))
        return ch

    @property
    def seed_extents(self):
        f = 2 ** self.num_blocks
        nx, ny, nz = self.out_extents
        return (nx // f, ny // f, nz // f)

    def weight_shapes(self):
        sx, sy, sz = self.seed_extents
        ch = self.channels
        shapes = {
            "dense.w": (ch[0] * sz * sy * sx, self.latent_dim + self.label_dim),
            "dense.b": (ch[0] * sz * sy * sx,),
        }
        for i in range(self.num_blocks):
            ci, co = ch[i], ch[i + 1]
            shapes[f"block{i}.conv1.w"] = (co, ci, 3, 3, 3)
            shapes[f"block{i}.conv1.b"] = (co,)
            shapes[f"block{i}.conv2.w"] = (co, co, 3, 3, 3)
            shapes[f"block{i}.conv2.b"] = (co,)
            shapes[f"block{i}.skip.w"] = (co, ci, 1, 1, 1)
        shapes["head.w"] = (2, ch[-1], 3, 3, 3)
        shapes["head.b"] = (2,)
        return shapes

    def to_json_dict(self):
        d = asdict(self)
        d["out_extents"] = list(d["out_extents"])
        return d

    @classmethod
    def from_json_dict(cls, d):
        d = dict(d)
        d["out_extents"] = tuple(d["out_extents"])
        return cls(**d)


_CellPlan = namedtuple("_CellPlan", "conv2 skip head gather")


@functools.lru_cache(maxsize=16)
def _neural_cell_plan(shape, conv2_shape, head_shape, key):
    """The plans of a neural build at the cells ``key`` (the bytes of a
    validated intp cell array) over a grid of ``shape`` (Z, Y, X), read
    only. With U the distinct cells and S the in-grid cells that the head's
    taps at U read: ``conv2``, the last block's conv2 at S, and ``head``,
    the head at U reading S (``tc.cell_plan``); ``skip``, the flat index of
    S's parent cells in each channel of the coarse skip output, (conv2's
    output channels, |S|); ``gather``, per output channel, the index of each
    requested cell in the (channels, |U|) head output."""
    cells = np.frombuffer(key, dtype=np.intp)
    unique, inverse = np.unique(cells, return_inverse=True)
    support = tc.cell_plan(shape, head_shape[2:], unique).read
    coarse = tuple(e // 2 for e in shape)
    parents = np.ravel_multi_index(
        tuple(a // 2 for a in np.unravel_index(support, shape)), coarse)
    plan = _CellPlan(
        conv2=tc.cell_plan(shape, conv2_shape[2:], support),
        skip=np.arange(conv2_shape[0])[:, None] * math.prod(coarse) + parents,
        head=tc.cell_plan(shape, head_shape[2:], unique, support),
        gather=np.arange(head_shape[0])[:, None] * unique.size + inverse)
    plan.skip.flags.writeable = plan.gather.flags.writeable = False
    return plan


class NeuralGenerator:
    """Frozen inference pass of the residual upsampling generator."""

    kind = "neural"
    builds_at_cells = False  # a build at cells still runs most of the network on the full grid

    def __init__(self, geometry, descriptor, weights):
        if (geometry.nx, geometry.ny, geometry.nz) != tuple(descriptor.out_extents):
            raise GeneratorError(
                f"geometry {geometry.nx}x{geometry.ny}x{geometry.nz} does not match "
                f"descriptor out_extents {descriptor.out_extents}")
        shapes = descriptor.weight_shapes()
        for name, shape in shapes.items():
            if name not in weights:
                raise GeneratorError(f"missing weight tensor {name!r}")
            if tuple(weights[name].shape) != shape:
                raise GeneratorError(
                    f"weight {name!r} has shape {tuple(weights[name].shape)}, "
                    f"descriptor expects {shape}")
        extra = set(weights) - set(shapes)
        if extra:
            raise GeneratorError(f"unexpected weight tensors {sorted(extra)}")
        self.geometry = geometry
        self.descriptor = descriptor
        self._weights = {k: np.asarray(v) for k, v in weights.items()}

    @classmethod
    def random_init(cls, geometry, descriptor, rng_seed):
        """He-style random weights (the stand-in for an externally trained model)."""
        weights = {}
        rng = keyed_rng(rng_seed)
        for name, shape in descriptor.weight_shapes().items():
            if name.endswith(".b"):
                weights[name] = np.zeros(shape, dtype=np.float32)
            elif name == "dense.w":
                std = 1.0 / np.sqrt(shape[1])
                weights[name] = (std * rng.standard_normal(shape)).astype(np.float32)
            else:
                fan_in = int(np.prod(shape[1:]))
                std = np.sqrt(2.0 / fan_in)
                if name.startswith("head"):
                    std *= 0.5  # keep the tanh head unsaturated at init
                weights[name] = (std * rng.standard_normal(shape)).astype(np.float32)
        return cls(geometry, descriptor, weights)

    @property
    def latent_dim(self):
        return self.descriptor.latent_dim

    @property
    def label_dim(self):
        return self.descriptor.label_dim

    def weights(self):
        return {k: v.copy() for k, v in self._weights.items()}

    def with_weights(self, weights):
        return NeuralGenerator(self.geometry, self.descriptor, weights)

    def build(self, tape, z, labels=None, weights=None, cells=None, depo=True):
        """Emit (coarse_fraction, depo_time) nodes of shape (nz, ny, nx).

        With ``cells`` (flat, layer-major indices, repeats allowed) both
        nodes have shape ``(len(cells),)`` and equal the full-grid build
        gathered there. Everything up to the last block's leaky activation
        still runs on the full grid. That block's conv2 runs only on S, the
        in-grid 3x3x3 neighbourhood of the distinct cells, and its skip term
        is read at S's parent cells of the coarse skip output, where
        ``upsample2`` would put it. The head, ``tanh`` and
        ``affine`` run only at the distinct cells, and a gather puts them
        back in request order. The plans are cached per grid and cell list.
        Values and gradients equal the gathered full-grid build's bit for
        bit where ``tc.conv3d_at`` matches ``tc.conv3d`` (the default widths
        on the OpenBLAS kernels measured), and to round-off otherwise.

        ``z`` is one latent, shape (d,), or a batch, shape (B, d). A batch is
        built row by row and stacked, so both nodes gain a leading batch axis
        and row i equals the build of ``z[i]`` (with labels ``labels[i]``
        when they are per row): the convolutions take one (C, Z, Y, X)
        sample.

        Each residual block is ``conv2(leaky(conv1(upsample2(h)))) +
        skip(upsample2(h))``, computed without convolving the upsampled
        grid: conv1 is ``tc.upconv3d``, which runs it on the coarse grid
        with 0.30x the multiply-adds, and the 1x1x1 skip commutes with
        nearest upsampling, so it runs before ``upsample2``. conv2 and the
        head are ``tc.conv3d`` (``tc.conv3d_at`` at cells, as above). Both
        ops contract each kernel row's x-taps in one matmul over a column
        buffer of the padded input: nine matmuls per 3x3x3 ``conv3d``,
        eighteen per ``upconv3d``.

        ``labels`` follows the rule of :meth:`ProceduralGenerator.build`.
        With ``depo=False`` the build returns ``(coarse, None)``: the network
        still runs whole, but the depo channel is neither cropped nor stacked.
        """
        d = self.descriptor
        if cells is not None:
            cells = _cell_coordinates(cells, self.geometry)[0]
        rows = _batch_rows(z, d.latent_dim)
        labels = _label_node(tape, labels, d.label_dim, d.label_dim, rows)
        if weights is None:
            weights = {k: tape.constant(v) for k, v in self._weights.items()}
        if rows:
            def row(node, i, width):
                return tc.reshape(tc.crop(node, (slice(i, i + 1), slice(None))), (width,))

            per_row = labels is not None and labels.value.ndim == 2
            outs = [self.build(tape, row(z, i, d.latent_dim),
                               row(labels, i, d.label_dim) if per_row else labels,
                               weights, cells, depo)
                    for i in range(rows)]
            return (tc.stack([o[0] for o in outs]),
                    tc.stack([o[1] for o in outs]) if depo else None)

        def wn(name):
            if name not in weights:
                raise GeneratorError(f"missing weight tensor {name!r}")
            return weights[name]

        x = z if labels is None else tc.concat([z, labels], axis=0)
        sx, sy, sz = d.seed_extents
        ch = d.channels
        h = tc.dense(wn("dense.w"), x, wn("dense.b"))
        h = tc.reshape(h, (ch[0], sz, sy, sx))
        plan = None if cells is None else _neural_cell_plan(
            self.geometry.shape, wn(f"block{d.num_blocks - 1}.conv2.w").shape,
            wn("head.w").shape, cells.tobytes())
        for i in range(d.num_blocks):
            m = tc.upconv3d(h, wn(f"block{i}.conv1.w"), wn(f"block{i}.conv1.b"))
            m = tc.leaky_relu(m, d.leaky_slope)
            w2, b2 = wn(f"block{i}.conv2.w"), wn(f"block{i}.conv2.b")
            if plan is not None and i == d.num_blocks - 1:
                m = tc.conv3d_at(tc.reshape(m, (m.shape[0], -1)), w2, b2, plan.conv2)
                skip = tc.take(tc.conv3d(h, wn(f"block{i}.skip.w")), plan.skip)
            else:
                m = tc.conv3d(m, w2, b2)
                skip = tc.upsample2(tc.conv3d(h, wn(f"block{i}.skip.w")))
            h = m + skip
        if plan is None:
            out = tc.conv3d(h, wn("head.w"), wn("head.b"))
        else:
            out = tc.conv3d_at(h, wn("head.w"), wn("head.b"), plan.head)
        out = tc.affine(tc.tanh(out), 0.5, 0.5)

        def channel(k):
            if plan is not None:
                return tc.take(out, plan.gather[k])
            return tc.reshape(tc.crop(out, (slice(k, k + 1),) + (slice(None),) * 3),
                              self.geometry.shape)

        return channel(0), channel(1) if depo else None

    generate = _generate


# ---------------------------------------------------------------------------
# weights file

_WEIGHTS_MAGIC = b"FLVWTS\x00\x00"
_FORMAT_VERSION = 1


def save_weights(path, weights, descriptor=None):
    """Write named tensors: magic, little-endian u32 header length, JSON
    manifest, contiguous float32 little-endian payload. Bit-exact round trip."""
    names = sorted(weights)
    tensors = []
    offset = 0
    payloads = []
    for name in names:
        arr = np.ascontiguousarray(weights[name], dtype="<f4")
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        payloads.append(arr.tobytes())
        offset += arr.nbytes
    manifest = {
        "format_version": _FORMAT_VERSION,
        "descriptor": descriptor.to_json_dict() if descriptor is not None else None,
        "tensors": tensors,
    }
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(_WEIGHTS_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for p in payloads:
            f.write(p)


def load_weights(path):
    """Read a weights file; returns (weights dict, descriptor or None).

    Any file that is not a complete weights file of this format raises
    :class:`GeneratorError`.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != _WEIGHTS_MAGIC:
        raise GeneratorError(f"{path}: bad magic, not a weights file")
    if len(blob) < 12:
        raise GeneratorError(f"{path}: truncated header length")
    (hlen,) = struct.unpack("<I", blob[8:12])
    if len(blob) < 12 + hlen:
        raise GeneratorError(f"{path}: truncated header")
    try:
        manifest = json.loads(blob[12:12 + hlen].decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise GeneratorError(f"{path}: header is not a UTF-8 JSON manifest ({exc})") from None
    if not isinstance(manifest, dict):
        raise GeneratorError(f"{path}: manifest is not a JSON object")
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise GeneratorError(f"{path}: unsupported format version "
                             f"{manifest.get('format_version')}")
    tensors = _check_tensor_entries(path, manifest.get("tensors"))
    payload = blob[12 + hlen:]
    expected = max((t["offset"] + 4 * math.prod(t["shape"]) for t in tensors), default=0)
    if len(payload) < expected:
        raise GeneratorError(f"{path}: truncated payload "
                             f"({len(payload)} bytes, manifest needs {expected})")
    weights = {}
    for t in tensors:
        raw = payload[t["offset"]:t["offset"] + 4 * math.prod(t["shape"])]
        weights[t["name"]] = np.frombuffer(raw, dtype="<f4").reshape(t["shape"]).copy()
    descriptor = manifest.get("descriptor")
    if descriptor is not None:
        try:
            descriptor = GeneratorDescriptor.from_json_dict(descriptor)
        except (TypeError, ValueError, KeyError, ArithmeticError) as exc:
            raise GeneratorError(f"{path}: bad descriptor ({exc!r})") from None
    return weights, descriptor


def _check_tensor_entries(path, tensors):
    """The manifest's tensor list, each entry a name, a shape of non-negative
    ints and a non-negative byte offset; names unique."""
    def count(v):
        return is_integer(v) and v >= 0

    if not isinstance(tensors, list):
        raise GeneratorError(f"{path}: manifest has no tensor list")
    names = set()
    for t in tensors:
        if not (isinstance(t, dict) and isinstance(t.get("name"), str)
                and isinstance(t.get("shape"), list) and all(map(count, t["shape"]))
                and count(t.get("offset"))):
            raise GeneratorError(f"{path}: malformed tensor entry {t!r}")
        if t["name"] in names:
            raise GeneratorError(f"{path}: tensor {t['name']!r} listed twice")
        names.add(t["name"])
    return tensors
