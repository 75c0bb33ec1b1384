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
import struct
from dataclasses import dataclass, asdict

import numpy as np

from . import tensors as tc
from .grids import ModelGrid

__all__ = [
    "GeneratorError",
    "LABEL_NAMES",
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


def sample_prior(n, d, rng_seed):
    """n i.i.d. standard-normal latent vectors, shape (n, d).

    Row i depends only on (rng_seed, i), so batches are identical no matter
    how the work is split across workers.
    """
    if n < 1 or d < 1:
        raise GeneratorError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    out = np.empty((n, d), dtype=np.float64)
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(rng_seed), i))))
        out[i] = rng.standard_normal(d)
    return out


def neutral_labels(k=len(LABEL_NAMES)):
    return np.full(k, 0.5)


def _label_node(tape, labels, k):
    """Constant node of k labels; neutral ones when ``labels`` is None."""
    return tape.constant(neutral_labels(k) if labels is None else _check_labels(labels, k))


def _check_labels(labels, k):
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (k,):
        raise GeneratorError(f"expected {k} labels, got shape {labels.shape}")
    if labels.min() < 0.0 or labels.max() > 1.0:
        raise GeneratorError("labels must be normalized to [0, 1]")
    return labels


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
    def build(self, tape, z, labels=None, weights=None):
        """Emit (coarse_fraction, depo_time) nodes of shape (nz, ny, nx)."""
        g = self.geometry
        if z.value.shape != (self.latent_dim,):
            raise GeneratorError(f"latent shape {z.value.shape} != ({self.latent_dim},)")
        if labels is None:
            labels = _label_node(tape, None, len(LABEL_NAMES))
        if weights is None:
            weights = {"maps": tape.constant(self._maps)}
        b = self._belt_nodes(z, labels, weights["maps"])

        xg = tape.constant(np.arange(g.nx, dtype=np.float64).reshape(1, 1, g.nx))
        yg = tape.constant(np.arange(g.ny, dtype=np.float64).reshape(1, g.ny, 1))
        mg = tape.constant(np.arange(g.nz, dtype=np.float64).reshape(g.nz, 1, 1))

        centerline = b["center"] + b["drift"] * mg + b["amplitude"] * tc.sin(
            (2.0 * np.pi) * xg / b["wavelength"] + b["phase"] + b["turn"] * mg)
        dist = tc.absolute(yg - centerline)
        coarse = tc.sigmoid((b["half_width"] - dist) / b["sharpness"])
        core = tc.sigmoid((0.6 * b["half_width"] - dist) / b["sharpness"])

        # vertical stacking: layer time warped by the aggradation label and
        # pulled toward 1 (recent reworking) inside the channel core
        q = tc.exp(np.log(2.0) * (1.0 - 2.0 * b["aggradation"]))
        t = tape.constant(np.clip(np.arange(g.nz, dtype=np.float64) / max(g.nz - 1, 1),
                                  1e-6, 1.0).reshape(g.nz, 1, 1))
        t_warp = tc.exp(q * tc.log(t))
        weight_core = b["core_blend"] * core
        depo = weight_core + (1.0 - weight_core) * t_warp

        return coarse, depo

    def generate(self, z, labels=None, dtype=np.float32):
        tape = tc.GraphTape(dtype)
        zn = tape.constant(np.asarray(z, dtype=np.float64))
        ln = _label_node(tape, labels, self.label_dim) if self.label_dim else None
        coarse, depo = self.build(tape, zn, ln)
        return ModelGrid(self.geometry,
                         np.asarray(coarse.value), np.asarray(depo.value),
                         labels=None if labels is None else np.asarray(labels, dtype=np.float64))

    def belt_parameters(self, z, labels=None):
        """Interpretable belt parameters for a latent (diagnostics/tests), plus the
        core blend and the aggradation label that shape the vertical stacking."""
        tape = tc.GraphTape(np.float64)
        nodes = self._belt_nodes(tape.constant(np.asarray(z, dtype=np.float64)),
                                 _label_node(tape, labels, len(LABEL_NAMES)),
                                 tape.constant(self._maps))
        return {k: float(v.value[0]) for k, v in nodes.items()}

    def _belt_nodes(self, z, labels, maps):
        """Belt parameter nodes, each of shape (1,), from latent, label and
        map-coefficient nodes."""
        def zc(i):  # squashed latent component
            return tc.take(z, [i])

        def cf(i):  # map coefficient
            return tc.take(maps, [i])

        g_coarse = tc.take(labels, [0])
        g_fine = tc.take(labels, [1])
        erod = tc.take(labels, [2])
        aggr = tc.take(labels, [3])
        rain = tc.take(labels, [4])

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
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(rng_seed),))))
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

    def build(self, tape, z, labels=None, weights=None):
        """Emit (coarse_fraction, depo_time) nodes of shape (nz, ny, nx)."""
        d = self.descriptor
        if z.value.shape != (d.latent_dim,):
            raise GeneratorError(f"latent shape {z.value.shape} != ({d.latent_dim},)")
        if weights is None:
            weights = {k: tape.constant(v) for k, v in self._weights.items()}

        def wn(name):
            if name not in weights:
                raise GeneratorError(f"missing weight tensor {name!r}")
            return weights[name]

        x = z
        if d.label_dim:
            if labels is None:
                raise GeneratorError(f"generator conditioned on {d.label_dim} labels, none given")
            x = tc.concat([z, labels], axis=0)
        elif labels is not None:
            raise GeneratorError("generator is unconditional, labels given")

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
        return coarse, depo

    def generate(self, z, labels=None, dtype=np.float32):
        tape = tc.GraphTape(dtype)
        zn = tape.constant(np.asarray(z, dtype=np.float64))
        ln = _label_node(tape, labels, self.label_dim) if self.label_dim else None
        coarse, depo = self.build(tape, zn, ln)
        return ModelGrid(self.geometry, np.asarray(coarse.value), np.asarray(depo.value),
                         labels=None if labels is None else np.asarray(labels, dtype=np.float64))


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
    """Read a weights file; returns (weights dict, descriptor or None)."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != _WEIGHTS_MAGIC:
        raise GeneratorError(f"{path}: bad magic, not a weights file")
    (hlen,) = struct.unpack("<I", blob[8:12])
    if len(blob) < 12 + hlen:
        raise GeneratorError(f"{path}: truncated header")
    manifest = json.loads(blob[12:12 + hlen].decode())
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise GeneratorError(f"{path}: unsupported format version "
                             f"{manifest.get('format_version')}")
    payload = blob[12 + hlen:]
    weights = {}
    expected = 0
    for t in manifest["tensors"]:
        size = int(np.prod(t["shape"])) if t["shape"] else 1
        expected = max(expected, t["offset"] + 4 * size)
    if len(payload) < expected:
        raise GeneratorError(f"{path}: truncated payload "
                             f"({len(payload)} bytes, manifest needs {expected})")
    for t in manifest["tensors"]:
        size = int(np.prod(t["shape"])) if t["shape"] else 1
        raw = payload[t["offset"]:t["offset"] + 4 * size]
        if len(raw) != 4 * size:
            raise GeneratorError(f"{path}: tensor {t['name']!r} payload does not match "
                                 f"manifest shape {t['shape']}")
        weights[t["name"]] = np.frombuffer(raw, dtype="<f4").reshape(t["shape"]).copy()
    descriptor = manifest.get("descriptor")
    if descriptor is not None:
        descriptor = GeneratorDescriptor.from_json_dict(descriptor)
    return weights, descriptor
