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

import json
import math
import struct
from dataclasses import dataclass, asdict

import numpy as np

from . import tensors as tc
from .grids import ModelGrid

__all__ = [
    "GeneratorError",
    "LABEL_NAMES",
    "keyed_rng",
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
    step 0 of family k; DREAM's first proposal) is latent row k.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        tuple(int(k) for k in key))))


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
    if not label_dim:
        raise GeneratorError("generator is unconditional, labels given")
    shape = labels.value.shape
    if shape != (label_dim,) and (rows is None or shape != (rows, label_dim)):
        per_row = "" if rows is None else f" or ({rows}, {label_dim})"
        raise GeneratorError(f"expected {label_dim} labels, shape ({label_dim},){per_row}, "
                             f"got shape {shape}")
    return labels


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


def _check_cells(cells, geometry):
    """``cells`` as an intp array of flat, layer-major cell indices of ``geometry``."""
    arr = np.asarray(cells)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise GeneratorError(
            f"cells must be a 1-D integer array, got dtype {arr.dtype} shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= geometry.n_cells):
        raise GeneratorError(f"cell index outside [0, {geometry.n_cells})")
    return arr.astype(np.intp, copy=False)


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
    def build(self, tape, z, labels=None, weights=None, cells=None):
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
        """
        g = self.geometry
        rows = _batch_rows(z, self.latent_dim)
        labels = _label_node(tape, labels, self.label_dim, len(LABEL_NAMES), rows)
        if weights is None:
            weights = {"maps": tape.constant(self._maps)}

        if cells is None:
            x = np.arange(g.nx, dtype=np.float64).reshape(1, 1, g.nx)
            y = np.arange(g.ny, dtype=np.float64).reshape(1, g.ny, 1)
            layer = np.arange(g.nz, dtype=np.float64).reshape(g.nz, 1, 1)
            if rows:
                # latent and per-row label columns of shape (B, 1, 1, 1)
                # broadcast over the grid
                z = tc.reshape(z, (rows, 1, 1, self.latent_dim))
                if labels.value.ndim == 2:
                    labels = tc.reshape(labels, (rows, 1, 1, self.label_dim))
        else:
            cells = _check_cells(cells, g)
            x = (cells % g.nx).astype(np.float64)
            y = ((cells // g.nx) % g.ny).astype(np.float64)
            layer = (cells // (g.ny * g.nx)).astype(np.float64)
        b = self._belt_nodes(z, labels, weights["maps"])
        xg, yg, mg = tape.constant(x), tape.constant(y), tape.constant(layer)

        centerline = b["center"] + b["drift"] * mg + b["amplitude"] * tc.sin(
            (2.0 * np.pi) * xg / b["wavelength"] + b["phase"] + b["turn"] * mg)
        dist = tc.absolute(yg - centerline)
        coarse = tc.sigmoid((b["half_width"] - dist) / b["sharpness"])
        core = tc.sigmoid((0.6 * b["half_width"] - dist) / b["sharpness"])

        # vertical stacking: layer time warped by the aggradation label and
        # pulled toward 1 (recent reworking) inside the channel core
        q = tc.exp(np.log(2.0) * (1.0 - 2.0 * b["aggradation"]))
        t = tape.constant(np.clip(layer / max(g.nz - 1, 1), 1e-6, 1.0))
        t_warp = tc.exp(q * tc.log(t))
        weight_core = b["core_blend"] * core
        depo = weight_core + (1.0 - weight_core) * t_warp

        return coarse, depo

    generate = _generate

    def belt_parameters(self, z, labels=None):
        """Interpretable belt parameters for a latent (diagnostics/tests), plus the
        core blend and the aggradation label that shape the vertical stacking."""
        tape = tc.GraphTape(np.float64)
        if labels is not None:
            labels = tape.constant(_check_labels(labels))
        nodes = self._belt_nodes(tape.constant(np.asarray(z, dtype=np.float64)),
                                 _label_node(tape, labels, self.label_dim, len(LABEL_NAMES)),
                                 tape.constant(self._maps))
        return {k: float(v.value[0]) for k, v in nodes.items()}

    def _belt_nodes(self, z, labels, maps):
        """Belt parameter nodes from latent, label and map-coefficient nodes:
        shape (1,) for a latent of shape (d,); the latent- and per-row
        label-driven ones keep a batch's leading axes, with the last axis of
        size 1."""
        def col(node, i):  # component i along the last axis
            return tc.crop(node, (slice(None),) * (node.value.ndim - 1) + (slice(i, i + 1),))

        def zc(i):  # latent component
            return col(z, i)

        def cf(i):  # map coefficient
            return tc.take(maps, [i])

        g_coarse, g_fine, erod, aggr, rain = (col(labels, i) for i in range(5))

        g = self.geometry
        ny, nx, nz = float(g.ny), float(g.nx), g.nz
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
        if self.latent_dim < 1:
            raise GeneratorError("latent_dim must be >= 1")
        if self.num_blocks < 1:
            raise GeneratorError("num_blocks must be >= 1")
        f = 2 ** self.num_blocks
        for e in self.out_extents:
            if e % f != 0:
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


class NeuralGenerator:
    """Frozen inference pass of the residual upsampling generator."""

    kind = "neural"
    builds_at_cells = False  # a build at cells builds the whole grid, then gathers

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

    def build(self, tape, z, labels=None, weights=None, cells=None):
        """Emit (coarse_fraction, depo_time) nodes of shape (nz, ny, nx).

        With ``cells`` (flat, layer-major indices) both nodes have shape
        ``(len(cells),)``. The network is not pointwise, so the full grid is
        built and then gathered at those cells.

        ``z`` is one latent, shape (d,), or a batch, shape (B, d). A batch is
        built row by row and stacked, so both nodes gain a leading batch axis
        and row i equals the build of ``z[i]`` (with labels ``labels[i]``
        when they are per row). ``upsample2`` and ``conv3d`` take one
        (C, Z, Y, X) sample; a row's time goes to the per-tap matmuls of its
        convolutions, not to the Python cost of its calls.

        ``labels`` follows the rule of :meth:`ProceduralGenerator.build`.
        """
        d = self.descriptor
        if cells is not None:
            cells = _check_cells(cells, self.geometry)
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
                               weights, cells)
                    for i in range(rows)]
            return tc.stack([o[0] for o in outs]), tc.stack([o[1] for o in outs])

        def wn(name):
            if name not in weights:
                raise GeneratorError(f"missing weight tensor {name!r}")
            return weights[name]

        x = z if labels is None else tc.concat([z, labels], axis=0)
        sx, sy, sz = d.seed_extents
        ch = d.channels
        h = tc.dense(wn("dense.w"), x, wn("dense.b"))
        h = tc.reshape(h, (ch[0], sz, sy, sx))
        for i in range(d.num_blocks):
            up = tc.upsample2(h)
            m = tc.conv3d(up, wn(f"block{i}.conv1.w"), wn(f"block{i}.conv1.b"))
            m = tc.leaky_relu(m, d.leaky_slope)
            m = tc.conv3d(m, wn(f"block{i}.conv2.w"), wn(f"block{i}.conv2.b"))
            h = m + tc.conv3d(up, wn(f"block{i}.skip.w"))
        out = tc.conv3d(h, wn("head.w"), wn("head.b"))
        out = tc.affine(tc.tanh(out), 0.5, 0.5)

        nz, ny, nx = self.geometry.shape
        coarse = tc.reshape(tc.crop(out, (slice(0, 1),) + (slice(None),) * 3), (nz, ny, nx))
        depo = tc.reshape(tc.crop(out, (slice(1, 2),) + (slice(None),) * 3), (nz, ny, nx))
        if cells is not None:
            return tc.take(coarse, cells), tc.take(depo, cells)
        return coarse, depo

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
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

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
