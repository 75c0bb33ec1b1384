"""Differentiable forward model from coarse-sediment fraction to a seismic cube.

Chain: unconsolidated quartz/clay mixture -> density and P-wave velocity
(Voigt-Reuss-Hill mineral mixing, Hertz-Mindlin at critical porosity,
modified Hashin-Shtrikman lower-bound interpolation, Gassmann water
saturation) -> normal-incidence reflectivity -> 3D convolution with a
separable point-spread function (depth-domain Ricker vertically, Gaussian
laterally; Lecomte et al., 2015) -> a cube over the burden-padded column.

The burden (:class:`BurdenConfig`) is one impedance above and one below the
deposit, so of the padded column's interfaces only the deposit's own, its
top and its base can reflect. The forward works on those nz + 1 interfaces
(nz - 1 without burden): lateral PSF factors first, then the vertical factor
as one matrix that expands them to every interface of the padded column.

Formulas follow the friable-sand model of Avseth, Mukerji & Mavko (2005),
"Quantitative Seismic Interpretation", sec. 2.5-2.6, and Mavko, Mukerji &
Dvorkin, "The Rock Physics Handbook".

The taped chain (``_friable_sand``) is the reference physics. Per cell,
density is one affine map of f, and Vp is read from a table built once per
``RockPhysicsParams`` from one float64 pass of that chain over 65,537
uniform knots on [0, 1]: a cubic Hermite interpolant of the knot values and
slopes for Vp, and one of the knot slopes and their central differences for
dVp/df. Both agree with the chain to float64 relative 1e-12 (slopes to
1e-12 of max |dVp/df|); see :func:`rock_physics_nodes`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensors as tc
from .grids import GridGeometry

__all__ = [
    "GeophysicsError",
    "MineralPhase",
    "RockPhysicsParams",
    "BurdenConfig",
    "PsfConfig",
    "PsfKernel",
    "SeismicCube",
    "SeismicModel",
    "rock_physics_nodes",
    "rock_physics",
    "reflectivity_nodes",
    "reflectivity",
    "build_psf",
]


class GeophysicsError(Exception):
    pass


@dataclass(frozen=True)
class MineralPhase:
    """End-member solid phase: density (g/cm3), end-member porosity,
    bulk and shear moduli (GPa)."""

    rho: float
    porosity: float
    bulk: float
    shear: float


@dataclass(frozen=True)
class RockPhysicsParams:
    quartz: MineralPhase = MineralPhase(rho=2.65, porosity=0.27, bulk=37.0, shear=44.0)
    clay: MineralPhase = MineralPhase(rho=2.6, porosity=0.14, bulk=21.0, shear=7.0)
    water_rho: float = 1.0          # g/cm3
    water_bulk: float = 2.29        # GPa
    critical_porosity: float = 0.5
    pressure: float = 0.01          # effective pressure, GPa (10 MPa)
    coordination: float = 8.5       # Hertz-Mindlin grain contacts

    def __post_init__(self):
        for phase in (self.quartz, self.clay):
            if phase.bulk <= 0 or phase.shear <= 0:
                raise GeophysicsError("mineral moduli must be > 0")
            if not 0 < phase.porosity < self.critical_porosity:
                raise GeophysicsError(
                    "end-member porosities must lie in (0, critical porosity)")
        if not 0 < self.critical_porosity < 1:
            raise GeophysicsError("critical porosity must lie in (0, 1)")


def _friable_sand(tape, f, params):
    """Named nodes of the friable-sand chain for a coarse-fraction node with
    values in [0, 1]: mineral, dry and saturated moduli (GPa), porosity,
    density (g/cm3) and P-wave velocity (m/s).

    The chain applies no clamp, so its derivatives at f = 0 and f = 1 are the
    one-sided limits. It builds the Vp table of :func:`rock_physics_nodes`
    and is its reference.
    """
    q, c = params.quartz, params.clay
    phi_c = params.critical_porosity

    one_minus = 1.0 - f
    # Voigt-Reuss-Hill mineral mixing over the solid fractions (f, 1-f)
    k_voigt = f * q.bulk + one_minus * c.bulk
    k_reuss = 1.0 / (f / q.bulk + one_minus / c.bulk)
    k_min = 0.5 * (k_voigt + k_reuss)
    g_voigt = f * q.shear + one_minus * c.shear
    g_reuss = 1.0 / (f / q.shear + one_minus / c.shear)
    g_min = 0.5 * (g_voigt + g_reuss)

    # porosity mixes linearly between the end members, which RockPhysicsParams
    # keeps inside (0, critical porosity), away from the Gassmann poles
    phi = f * q.porosity + one_minus * c.porosity

    # Hertz-Mindlin pack at (critical porosity, effective pressure)
    nu = (3.0 * k_min - 2.0 * g_min) / (2.0 * (3.0 * k_min + g_min))
    hm_scale = params.coordination ** 2 * (1.0 - phi_c) ** 2 * params.pressure
    k_hm = tc.power(hm_scale * tc.square(g_min)
                    / (18.0 * np.pi ** 2 * tc.square(1.0 - nu)), 1.0 / 3.0)
    g_hm = ((5.0 - 4.0 * nu) / (5.0 * (2.0 - nu))) * tc.power(
        3.0 * hm_scale * tc.square(g_min) / (2.0 * np.pi ** 2 * tc.square(1.0 - nu)),
        1.0 / 3.0)

    # modified Hashin-Shtrikman lower bound between the mineral (phi=0) and
    # the Hertz-Mindlin pack (phi=phi_c)
    frac = phi / phi_c
    k_dry = 1.0 / (frac / (k_hm + (4.0 / 3.0) * g_hm)
                   + (1.0 - frac) / (k_min + (4.0 / 3.0) * g_hm)) - (4.0 / 3.0) * g_hm
    zeta = (g_hm / 6.0) * (9.0 * k_hm + 8.0 * g_hm) / (k_hm + 2.0 * g_hm)
    g_dry = 1.0 / (frac / (g_hm + zeta) + (1.0 - frac) / (g_min + zeta)) - zeta

    # Gassmann water saturation; shear modulus unchanged
    k_sat = k_dry + tc.square(1.0 - k_dry / k_min) / (
        phi / params.water_bulk + (1.0 - phi) / k_min - k_dry / tc.square(k_min))
    g_sat = g_dry

    # phase volumes per unit bulk: f of saturated sand, 1-f of saturated clay,
    # so density is exactly affine between the two wet end members
    rho = (f * (1.0 - q.porosity) * q.rho
           + one_minus * (1.0 - c.porosity) * c.rho
           + phi * params.water_rho)
    # GPa and g/cm3 to m/s: sqrt(1e9 Pa / 1e3 kg/m3) = 1000
    vp = 1000.0 * tc.sqrt((k_sat + (4.0 / 3.0) * g_sat) / rho)
    return {"k_mineral": k_min, "g_mineral": g_min, "porosity": phi,
            "k_dry": k_dry, "g_dry": g_dry, "k_sat": k_sat, "g_sat": g_sat,
            "rho": rho, "vp": vp}


def _clamped_fraction(f):
    """The coarse-fraction node clamped to [0, 1]; values more than 1e-9
    outside raise. The clamp's gradient is 0 at and beyond both ends."""
    fv = np.asarray(f.value, dtype=np.float64)
    if fv.min() < -1e-9 or fv.max() > 1.0 + 1e-9:
        raise GeophysicsError(
            f"coarse fraction outside [0, 1]: range [{fv.min()}, {fv.max()}]")
    return tc.clamp(f, 0.0, 1.0)


_KNOTS = 2 ** 16 + 1  # uniform on [0, 1], knot spacing 2**-16


def _hermite_rows(y, d, h):
    """Per-interval coefficients (a, b, c, e) of the cubic Hermite interpolant
    of knot values ``y`` and knot slopes ``d``: a + t(b + t(c + t e)) at the
    local coordinate t in [0, 1]."""
    y0, y1, s0, s1 = y[:-1], y[1:], h * d[:-1], h * d[1:]
    rows = np.stack([y0, s0, 3.0 * (y1 - y0) - 2.0 * s0 - s1, 2.0 * (y0 - y1) + s0 + s1])
    rows.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=8)
def _vp_table(params):
    """Hermite rows of Vp(f) and of dVp/df over the knots, from one taped
    float64 pass of the friable-sand chain. The slope is interpolated from
    the knot slopes and their central-difference derivative, not taken from
    the value interpolant: cancellation in its (y1 - y0)/h costs about 2e-10
    of max |dVp/df|."""
    tape = tc.GraphTape(np.float64)
    knots = tape.input(np.linspace(0.0, 1.0, _KNOTS))
    vp = _friable_sand(tape, knots, params)["vp"]
    slope = tape.backward(vp).wrt(knots)  # elementwise chain: ones seed gives dVp/df
    h = 1.0 / (_KNOTS - 1)
    curvature = np.gradient(slope, h, edge_order=2)
    return _hermite_rows(vp.value, slope, h), _hermite_rows(slope, curvature, h)


def _horner(rows, i, t):
    # a + t(b + t(c + t e)) per cell, in place on the gathered e
    a, b, c, e = (np.take(r, i) for r in rows)
    e *= t
    e += c
    e *= t
    e += b
    e *= t
    e += a
    return e


def rock_physics_nodes(tape, f, params=RockPhysicsParams()):
    """Density (g/cm3) and P-wave velocity (m/s) nodes from a coarse-fraction node.

    Three records: the [0, 1] clamp, density as one affine map of f (its
    coefficients are the wet end-member densities), and Vp as one tabulated
    record whose backward reads one kept slope array. Vp and dVp/df are cubic
    Hermite interpolants over 65,537 uniform knots of the friable-sand chain
    (:func:`_friable_sand`, the reference), tabulated once per ``params``.
    Against the taped chain they agree to 6e-16 relative in value and 2e-13
    of max |dVp/df| in slope; the tests hold both to 1e-12.
    """
    f = _clamped_fraction(f)
    rho_sand, rho_clay = ((1.0 - p.porosity) * p.rho + p.porosity * params.water_rho
                          for p in (params.quartz, params.clay))
    rho = tc.affine(f, rho_sand - rho_clay, rho_clay)
    value_rows, slope_rows = _vp_table(params)

    def vp(v):
        s = np.asarray(v, dtype=np.float64) * (_KNOTS - 1)
        # fmin sends NaN to the last interval, where t and so Vp stay NaN
        i = np.fmin(s, _KNOTS - 2).astype(np.intp)
        t = s - i
        value = _horner(value_rows, i, t)
        if not f.requires_grad:
            return value, None
        slope = np.asarray(_horner(slope_rows, i, t), dtype=tape.dtype)
        return value, lambda g: (g * slope,)

    return rho, tc.custom(vp, f)


def rock_physics(f, params=RockPhysicsParams(), dtype=np.float64):
    """Numpy wrapper around :func:`rock_physics_nodes`."""
    tape = tc.GraphTape(dtype)
    rho, vp = rock_physics_nodes(tape, tape.constant(np.asarray(f)), params)
    return np.asarray(rho.value), np.asarray(vp.value)


# ---------------------------------------------------------------------------
# reflectivity with over-/underburden

@dataclass(frozen=True)
class BurdenConfig:
    """Structureless material added above and below the deposit interval.

    Total extra thickness split evenly; constant pure fine fraction so the
    burden itself is reflection-free but the top/base contrasts remain.
    ``bottom_fraction`` overrides the underburden lithology (single-interface
    test setups); None mirrors the overburden.
    """

    total_thickness_m: float = 18.0
    fraction: float = 0.0
    bottom_fraction: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.total_thickness_m) and self.total_thickness_m >= 0):
            raise GeophysicsError(
                f"burden thickness must be finite and >= 0, got {self.total_thickness_m}")
        for name in ("fraction", "bottom_fraction"):
            value = getattr(self, name)
            if value is not None and not 0 <= value <= 1:
                raise GeophysicsError(f"burden {name} must lie in [0, 1], got {value}")

    @property
    def fractions(self):
        bottom = self.fraction if self.bottom_fraction is None else self.bottom_fraction
        return self.fraction, bottom

    def cells_per_side(self, dz):
        half = self.total_thickness_m / 2.0
        cells = half / dz
        if abs(cells - round(cells)) > 1e-9:
            raise GeophysicsError(
                f"burden half thickness {half} m is not a whole number of {dz} m cells")
        return int(round(cells))


def _interface_nodes(tape, rho, vp, geometry, burden, params):
    """Reflection coefficients at the interfaces of the burden-padded column
    that can reflect, and where they sit in it.

    Returns ``(node, first, nzs)``: the padded column has nzs interfaces, and
    node (n, ny, nx) holds interfaces first .. first + n - 1 of them. These
    are the deposit's nz - 1 and, with a burden, the two at its top and base
    (n = nz + 1), computed with one cap sheet of burden impedance on each
    side. The burden-internal interfaces separate equal impedances and
    reflect exactly 0.
    """
    pad = burden.cells_per_side(geometry.dz)
    if geometry.nz == 1 and pad == 0:
        raise GeophysicsError(
            f"a {geometry.nx}x{geometry.ny}x{geometry.nz} grid under a "
            f"{burden.total_thickness_m} m burden has no interface to reflect")
    imp = rho * vp
    if pad:
        sheet = (1, geometry.ny, geometry.nx)
        caps = []
        for f_side in burden.fractions:
            rho_b, vp_b = rock_physics(np.float64(f_side), params)
            caps.append(tape.constant(np.full(sheet, float(rho_b * vp_b))))
        imp = tc.concat([caps[0], imp, caps[1]], axis=0)
    n = imp.value.shape[0] - 1
    upper = tc.crop(imp, (slice(0, n), slice(None), slice(None)))
    lower = tc.crop(imp, (slice(1, n + 1), slice(None), slice(None)))
    return (lower - upper) / (lower + upper), max(pad - 1, 0), geometry.nz + 2 * pad - 1


def reflectivity_nodes(tape, rho, vp, geometry, burden=BurdenConfig(),
                       params=RockPhysicsParams()):
    """Normal-incidence reflection coefficients over the burden-padded column.

    Output shape (nz + 2*pad - 1, ny, nx): one sample per interface. These
    are the interfaces that can reflect (:func:`_interface_nodes`) and zero
    sheets at the burden-internal ones, where the padded-column formula gives
    (c - c) / (c + c) = +0.0, so the values are the same bit for bit.
    """
    refl, first, nzs = _interface_nodes(tape, rho, vp, geometry, burden, params)
    sheets = [first, nzs - first - refl.value.shape[0]]
    zeros = [tape.constant(np.zeros((k, geometry.ny, geometry.nx))) for k in sheets]
    return tc.concat([zeros[0], refl, zeros[1]], axis=0)


def reflectivity(grid, burden=BurdenConfig(), params=RockPhysicsParams(),
                 dtype=np.float64):
    """Numpy reflectivity cube for a model grid."""
    tape = tc.GraphTape(dtype)
    f = tape.constant(grid.coarse_fraction)
    rho, vp = rock_physics_nodes(tape, f, params)
    r = reflectivity_nodes(tape, rho, vp, grid.geometry, burden, params)
    return np.asarray(r.value)


# ---------------------------------------------------------------------------
# point-spread function

@dataclass(frozen=True)
class PsfConfig:
    """Separable PSF: depth-domain Ricker vertically, isotropic Gaussian
    laterally with width set by the illumination aperture."""

    peak_frequency_hz: float = 60.0
    illumination_angle_deg: float = 45.0
    velocity_mps: float | None = None    # None: mean Vp of the padded cube
    kernel_extents: tuple | None = None  # (kz, ky, kx), odd; None: auto

    def __post_init__(self):
        if self.peak_frequency_hz <= 0:
            raise GeophysicsError("peak frequency must be > 0")
        if not 0 < self.illumination_angle_deg <= 90:
            raise GeophysicsError("illumination angle must lie in (0, 90] degrees")
        if self.kernel_extents is not None:
            if any(int(k) % 2 == 0 for k in self.kernel_extents):
                raise GeophysicsError(
                    f"kernel extents must be odd, got {self.kernel_extents}")


@dataclass
class PsfKernel:
    """1D separable factors; the full kernel is their outer product."""

    vertical: np.ndarray
    lateral_y: np.ndarray
    lateral_x: np.ndarray
    velocity_mps: float
    sigma_lateral_m: float


def ricker_depth(zeta, peak_wavenumber):
    """Zero-phase Ricker in depth: (1 - 2 pi^2 k^2 z^2) exp(-pi^2 k^2 z^2)."""
    u = (np.pi * peak_wavenumber * np.asarray(zeta, dtype=np.float64)) ** 2
    return (1.0 - 2.0 * u) * np.exp(-u)


def build_psf(config, dz, dy, dx, velocity_mps=None):
    """Sampled PSF factors for the given cell sizes.

    The vertical factor keeps w(0) = 1; both lateral factors are normalized
    to unit sum so a laterally uniform reflector passes unchanged.
    """
    v = config.velocity_mps if config.velocity_mps is not None else velocity_mps
    if v is None or v <= 0:
        raise GeophysicsError("PSF needs a positive average velocity")
    k_peak = 2.0 * config.peak_frequency_hz / v  # two-way vertical wavenumber
    theta = np.deg2rad(config.illumination_angle_deg)
    sigma = v / (4.0 * config.peak_frequency_hz * np.sin(theta))

    if config.kernel_extents is not None:
        kz, ky, kx = (int(k) for k in config.kernel_extents)
        hz, hy, hx = kz // 2, ky // 2, kx // 2
    else:
        # beyond 1.4/k the Ricker is below 1e-6; the lateral Gaussian collapses
        # to a delta once its first discretized side tap is negligible
        hz = int(np.ceil(1.4 / (k_peak * dz)))

        def lateral_half(d):
            if np.exp(-0.5 * (d / sigma) ** 2) < 1e-4:
                return 0
            return int(np.ceil(3.0 * sigma / d))

        hy, hx = lateral_half(dy), lateral_half(dx)

    if sigma < min(dx, dy) / 4.0:
        warnings.warn(f"lateral PSF width {sigma:.2f} m is below a quarter cell; "
                      "the blur is unresolvable on this grid", stacklevel=2)

    vertical = ricker_depth(np.arange(-hz, hz + 1) * dz, k_peak)

    def gauss(h, d):
        taps = np.exp(-0.5 * (np.arange(-h, h + 1) * d / sigma) ** 2)
        return taps / taps.sum()

    return PsfKernel(vertical=vertical, lateral_y=gauss(hy, dy), lateral_x=gauss(hx, dx),
                     velocity_mps=float(v), sigma_lateral_m=float(sigma))


# ---------------------------------------------------------------------------
# seismic forward

@dataclass
class SeismicCube:
    """Migrated-image amplitudes, one sample per interface of the padded column."""

    amplitudes: np.ndarray  # (nz_seis, ny, nx)
    geometry: GridGeometry
    velocity_mps: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.amplitudes)):
            raise GeophysicsError("seismic amplitudes must be finite")


def _conv_axis(tape, x, taps, axis):
    # separable "same" zero-padded convolution along one spatial axis of (1,Z,Y,X)
    if taps.shape[0] == 1:
        return x * float(taps[0])
    shape = [1, 1, 1, 1, 1]
    shape[2 + axis] = taps.shape[0]
    kern = tape.constant(taps.reshape(shape))
    return tc.conv3d(x, kern)


@dataclass
class SeismicModel:
    """Bundle of physics + imaging settings with forward operators.

    Unless ``psf.velocity_mps`` fixes it, the PSF velocity is the mean Vp of
    the burden-padded cube of the model being built: it is evaluated on every
    build, read from the Vp values already on the tape, and excluded from
    differentiation. It is not frozen at a first evaluation or at the
    observed cube, since either would change the objective being minimized.
    """

    params: RockPhysicsParams = field(default_factory=RockPhysicsParams)
    psf: PsfConfig = field(default_factory=PsfConfig)
    burden: BurdenConfig = field(default_factory=BurdenConfig)

    def average_velocity(self, coarse_values, geometry):
        """PSF velocity for coarse-fraction values: the fixed one, or the mean
        Vp of the burden-padded cube."""
        if self.psf.velocity_mps is not None:
            return float(self.psf.velocity_mps)
        _, vp = rock_physics(np.asarray(coarse_values, dtype=np.float64), self.params)
        return self._padded_mean_vp(vp, geometry)

    def _padded_mean_vp(self, vp, geometry):
        n_side = self.burden.cells_per_side(geometry.dz) * geometry.ny * geometry.nx
        total = vp.sum(dtype=np.float64)
        for f_side in self.burden.fractions:
            _, vp_b = rock_physics(np.float64(f_side), self.params)
            total += n_side * float(vp_b)
        return float(total / (vp.size + 2 * n_side))

    def build(self, tape, coarse, geometry):
        """Seismic amplitude node (nz_seis, ny, nx) from a coarse-fraction node
        (nz, ny, nx), one sample per interface of the burden-padded column
        (nz_seis = nz + 2*pad - 1). The reflectivity and the lateral PSF run
        on the nz + 1 interfaces that can reflect (nz - 1 without burden); the
        vertical PSF factor expands them to nz_seis last. A batch
        (B, nz, ny, nx) gives (B, nz_seis, ny, nx); each row is built on its
        own, with the PSF velocity of that model."""
        if coarse.value.ndim == 4:
            shape = coarse.value.shape[1:]
            return tc.stack([
                self._build(tape, tc.reshape(tc.crop(coarse, (slice(i, i + 1),)
                                                     + (slice(None),) * 3), shape),
                            geometry)[0]
                for i in range(coarse.value.shape[0])])
        return self._build(tape, coarse, geometry)[0]

    def _build(self, tape, coarse, geometry):
        # (amplitude node, PSF kernel). The separable PSF factors commute, so
        # the lateral ones run on the interfaces that can reflect, and the
        # vertical one, as the interface columns of its banded matrix over
        # the padded column, expands them to all nzs interfaces last
        rho, vp = rock_physics_nodes(tape, coarse, self.params)
        refl, first, nzs = _interface_nodes(tape, rho, vp, geometry, self.burden, self.params)
        v_avg = (self._padded_mean_vp(vp.value, geometry)
                 if self.psf.velocity_mps is None else None)
        kernel = build_psf(self.psf, geometry.dz, geometry.dy, geometry.dx, v_avg)

        shape = refl.value.shape
        x = tc.reshape(refl, (1,) + shape)
        x = _conv_axis(tape, x, kernel.lateral_y, axis=1)
        x = _conv_axis(tape, x, kernel.lateral_x, axis=2)
        vertical = tc._banded(kernel.vertical, nzs)[:, first:first + shape[0]]
        return tc.matmul_axis(tc.reshape(x, shape), vertical, 0), kernel

    def forward(self, grid, dtype=np.float64):
        """SeismicCube for a model grid."""
        tape = tc.GraphTape(dtype)
        out, kernel = self._build(tape, tape.constant(grid.coarse_fraction), grid.geometry)
        return SeismicCube(np.asarray(out.value), grid.geometry,
                           velocity_mps=kernel.velocity_mps)
