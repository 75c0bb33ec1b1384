"""Rock physics, reflectivity, PSF, and seismic forward operator."""

import functools

import numpy as np
import pytest
from helpers import (EXACT, assert_matches, gradient_check, padded_reflectivity,
                     rejection_test, rock_physics_moduli)

import fluvinv.tensors as tc
from fluvinv.generators import ProceduralGenerator, sample_prior
from fluvinv.geophysics import (
    BurdenConfig,
    GeophysicsError,
    PsfConfig,
    RockPhysicsParams,
    SeismicModel,
    build_psf,
    reflectivity,
    reflectivity_nodes,
    ricker_depth,
    rock_physics,
    rock_physics_nodes,
)
from fluvinv.grids import GridGeometry, ModelGrid

PARAMS = RockPhysicsParams()


def constant_grid(f, geometry=GridGeometry(nx=8, ny=8, nz=4)):
    shape = geometry.shape
    return ModelGrid(geometry, np.full(shape, float(f)), np.linspace(
        0, 1, geometry.nz)[:, None, None] * np.ones(shape))


def test_density_endpoints_from_constants():
    # pure quartz: (1 - 0.27) * 2.65 + 0.27 * 1.0; pure clay: (1 - 0.14) * 2.6 + 0.14 * 1.0
    rho1, _ = rock_physics(np.float64(1.0), PARAMS)
    rho0, _ = rock_physics(np.float64(0.0), PARAMS)
    assert abs(float(rho1) - 2.2045) < 1e-12
    assert abs(float(rho0) - 2.376) < 1e-12


def test_density_affine_in_fraction():
    f = np.linspace(0, 1, 11)
    rho, _ = rock_physics(f, PARAMS)
    fitted = rho[0] + (rho[-1] - rho[0]) * f
    np.testing.assert_allclose(rho, fitted, atol=1e-12)


def test_gassmann_invariants_over_fractions():
    f = np.linspace(0, 1, 101)
    mod = rock_physics_moduli(f, PARAMS)
    np.testing.assert_array_equal(mod["g_sat"], mod["g_dry"])  # exact identity
    assert np.all(mod["k_sat"] >= mod["k_dry"])


def test_vp_follows_from_saturated_moduli():
    f = np.linspace(0, 1, 101)
    mod = rock_physics_moduli(f, PARAMS)
    _, vp = rock_physics(f, PARAMS)
    # GPa over g/cm3 to m/s
    from_moduli = 1000.0 * np.sqrt((mod["k_sat"] + 4.0 / 3.0 * mod["g_sat"]) / mod["rho"])
    np.testing.assert_allclose(from_moduli, vp, rtol=1e-12, atol=0)


def test_gassmann_zero_porosity_limit():
    # K_dry -> K_mineral makes the Gassmann correction vanish
    k_min, k_dry, phi, k_fl = 37.0, 37.0, 0.2, 2.29
    k_sat = k_dry + (1 - k_dry / k_min) ** 2 / (phi / k_fl + (1 - phi) / k_min
                                                - k_dry / k_min ** 2)
    assert k_sat == k_dry


def test_vp_strictly_increasing():
    f = np.linspace(0, 1, 101)
    _, vp = rock_physics(f, PARAMS)
    assert np.all(np.diff(vp) > 0)


def test_fraction_out_of_range_rejected():
    with pytest.raises(GeophysicsError, match="outside"):
        rock_physics(np.array([0.5, 1.1]), PARAMS)


def test_nan_fraction_rejected_by_the_seismic_forward():
    # rock physics passes a NaN fraction on as NaN, so the mean Vp that sets
    # the PSF is NaN; the model then predicts NaN amplitudes, which the cube
    # of observed data refuses
    grid = constant_grid(0.5)
    grid.coarse_fraction[1, 2, 3] = np.nan
    with pytest.raises(GeophysicsError, match="seismic amplitudes must be finite"):
        SeismicModel().forward(grid)


@pytest.mark.parametrize("velocity", [np.nan, 0.0, -1.0, None])
def test_psf_rejects_a_velocity_that_is_not_positive(velocity):
    with pytest.raises(GeophysicsError, match="positive average velocity"):
        build_psf(PsfConfig(), 0.5, 25.0, 25.0, velocity_mps=velocity)


def test_reflectivity_homogeneous_column_zero():
    # grid matching the burden lithology: no contrast anywhere
    grid = constant_grid(0.0)
    r = reflectivity(grid)
    np.testing.assert_allclose(r, 0.0, atol=1e-15)


def test_reflectivity_impedance_ratio_three_gives_half():
    i1, i2 = 2.0, 6.0
    assert (i2 - i1) / (i2 + i1) == 0.5


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("burden", [BurdenConfig(), BurdenConfig(total_thickness_m=0.0),
                                    BurdenConfig(fraction=0.2, bottom_fraction=0.9)],
                         ids=["default", "no-burden", "bottom-fraction"])
def test_reflectivity_equals_padded_column_formula(burden, dtype):
    geometry = GridGeometry(nx=6, ny=5, nz=4)
    coarse = np.random.default_rng(2).uniform(0.0, 1.0, size=geometry.shape)
    tape = tc.GraphTape(dtype)
    rho, vp = rock_physics_nodes(tape, tape.constant(coarse), PARAMS)
    want, _ = padded_reflectivity(np.asarray((rho * vp).value), burden, geometry.dz, PARAMS)
    got = [np.asarray(reflectivity_nodes(tape, rho, vp, geometry, burden, PARAMS).value),
           reflectivity(ModelGrid(geometry, coarse, coarse), burden, PARAMS, dtype=dtype)]
    for r in got:
        assert_matches(r, want, EXACT)  # signs of zero included


def test_reflectivity_vertical_extent_full_scale():
    geometry = GridGeometry()  # 128x128x16
    grid = ModelGrid(geometry, np.full(geometry.shape, 0.5), np.full(geometry.shape, 0.5))
    r = reflectivity(grid)
    assert r.shape == (51, 128, 128)


def test_ricker_at_zero_and_first_root():
    k = 0.05
    assert ricker_depth(0.0, k) == 1.0
    root = 1.0 / (np.sqrt(2.0) * np.pi * k)
    assert abs(ricker_depth(root, k)) < 1e-12


def test_psf_90_degrees_collapses_lateral():
    cfg = PsfConfig(illumination_angle_deg=90.0)
    with pytest.warns(UserWarning, match="unresolvable"):
        kern = build_psf(cfg, dz=0.5, dy=50.0, dx=50.0, velocity_mps=2400.0)
    assert kern.lateral_x.shape == (1,) and kern.lateral_y.shape == (1,)
    assert kern.lateral_x[0] == 1.0


def test_psf_lateral_normalized_and_odd():
    kern = build_psf(PsfConfig(), dz=0.5, dy=50.0, dx=50.0, velocity_mps=2400.0)
    assert abs(kern.lateral_x.sum() - 1.0) < 1e-12
    assert kern.vertical.shape[0] % 2 == 1
    assert abs(kern.lateral_y.sum() - 1.0) < 1e-12


def test_seismic_full_scale_vertical_extent_51():
    geometry = GridGeometry()
    grid = ModelGrid(geometry, np.full(geometry.shape, 0.3), np.full(geometry.shape, 0.5))
    cube = SeismicModel().forward(grid)
    assert cube.amplitudes.shape == (51, 128, 128)


def test_seismic_homogeneous_grid_zero_cube():
    cube = SeismicModel().forward(constant_grid(0.0))
    np.testing.assert_allclose(cube.amplitudes, 0.0, atol=1e-15)


def flat_interface_grid(geometry, z_split, f_lower=0.9):
    coarse = np.zeros(geometry.shape)
    coarse[z_split:] = f_lower
    depo = np.full(geometry.shape, 0.5)
    return ModelGrid(geometry, coarse, depo)


def test_flat_interface_theta90_reproduces_ricker():
    # underburden matched to the deep lithology: exactly one interface
    geometry = GridGeometry(nx=6, ny=6, nz=16)
    grid = flat_interface_grid(geometry, z_split=8)
    burden = BurdenConfig(fraction=0.0, bottom_fraction=0.9)
    model = SeismicModel(psf=PsfConfig(illumination_angle_deg=90.0), burden=burden)
    with pytest.warns(UserWarning, match="unresolvable"):
        cube = model.forward(grid)

    # independent oracle: impedances on both sides give a single delta of
    # coefficient r at the interface; trace = r * analytic Ricker
    rho0, vp0 = rock_physics(np.float64(0.0))
    rho1, vp1 = rock_physics(np.float64(0.9))
    i0, i1 = float(rho0 * vp0), float(rho1 * vp1)
    r = (i1 - i0) / (i1 + i0)
    v_avg = model.average_velocity(grid.coarse_fraction, geometry)
    k_peak = 2.0 * 60.0 / v_avg
    pad = 18
    # interface index in the padded reflectivity column between cells (pad+7, pad+8)
    z_int = pad + 8 - 1
    nzs = geometry.nz + 2 * pad - 1
    zeta = (np.arange(nzs) - z_int) * geometry.dz
    expected = r * ricker_depth(zeta, k_peak)
    for iy in range(geometry.ny):
        for ix in range(geometry.nx):
            np.testing.assert_allclose(cube.amplitudes[:, iy, ix], expected, atol=1e-6)


def test_seismic_linear_in_reflectivity():
    # double the reflectivity by hand and push both through the PSF convolution
    geometry = GridGeometry(nx=6, ny=5, nz=8)
    rng = np.random.default_rng(0)
    model = SeismicModel(psf=PsfConfig(velocity_mps=2400.0))
    kern = build_psf(model.psf, geometry.dz, geometry.dy, geometry.dx)

    def convolve(r):
        tape = tc.GraphTape(np.float64)
        from fluvinv.geophysics import _conv_axis
        x = tc.reshape(tape.constant(r), (1,) + r.shape)
        x = _conv_axis(tape, x, kern.vertical, 0)
        x = _conv_axis(tape, x, kern.lateral_y, 1)
        x = _conv_axis(tape, x, kern.lateral_x, 2)
        return np.asarray(x.value).reshape(r.shape)

    r = rng.normal(size=(43, 5, 6)) * 0.05
    np.testing.assert_allclose(convolve(2.0 * r), 2.0 * convolve(r), atol=1e-6)


def test_seismic_lateral_shift_equivariance():
    geometry = GridGeometry(nx=24, ny=24, nz=8)
    gen = ProceduralGenerator(geometry, latent_dim=8, label_dim=0)
    z = sample_prior(1, 8, rng_seed=2)[0]
    grid = gen.generate(z, dtype=np.float64)
    shift = 3
    shifted = ModelGrid(geometry, np.roll(grid.coarse_fraction, shift, axis=1),
                        np.roll(grid.depo_time, shift, axis=1))
    model = SeismicModel(psf=PsfConfig(velocity_mps=2400.0))
    a = model.forward(grid).amplitudes
    b = model.forward(shifted).amplitudes
    ky = build_psf(model.psf, geometry.dz, geometry.dy, geometry.dx).lateral_y.size // 2
    lo, hi = shift + ky, geometry.ny - ky
    np.testing.assert_allclose(b[:, lo:hi, :], np.roll(a, shift, axis=1)[:, lo:hi, :],
                               atol=1e-6)


def test_seismic_gradient_matches_fd():
    geometry = GridGeometry(nx=4, ny=4, nz=4)
    model = SeismicModel(psf=PsfConfig(velocity_mps=2400.0,
                                       kernel_extents=(9, 3, 3)))

    def loss(tape, x):
        coarse = tc.sigmoid(tc.reshape(x, geometry.shape))
        out = model.build(tape, coarse, geometry)
        return tc.sum_all(tc.square(out))

    rng = np.random.default_rng(4)
    x0 = rng.normal(size=geometry.n_cells) * 0.5
    assert gradient_check(loss, x0, step=1e-5) < 1e-4


def test_burden_must_tile_cells():
    with pytest.raises(GeophysicsError, match="whole number"):
        BurdenConfig(total_thickness_m=17.3).cells_per_side(0.5)


@pytest.mark.parametrize("kwargs", [
    {"total_thickness_m": -1.0}, {"total_thickness_m": float("nan")},
    {"total_thickness_m": float("inf")}, {"fraction": -0.1}, {"fraction": 1.5},
    {"fraction": float("nan")}, {"bottom_fraction": -0.5}, {"bottom_fraction": 1.1},
    {"bottom_fraction": float("nan")}])
def test_burden_rejects_out_of_range_inputs(kwargs):
    with pytest.raises(GeophysicsError, match=next(iter(kwargs))):
        BurdenConfig(**kwargs)


def test_burden_accepts_its_range_ends():
    for burden in (BurdenConfig(total_thickness_m=0.0, fraction=1.0, bottom_fraction=0.0),
                   BurdenConfig(fraction=0.0, bottom_fraction=1.0)):
        assert burden.cells_per_side(0.5) in (0, 18)


def test_column_without_interface_rejected():
    grid = constant_grid(0.5, GridGeometry(nx=4, ny=3, nz=1))
    model = SeismicModel(burden=BurdenConfig(total_thickness_m=0.0))
    with pytest.raises(GeophysicsError, match=r"4x3x1 grid under a 0.0 m burden"):
        model.forward(grid)


def test_a_fixed_psf_velocity_is_the_average_velocity():
    grid = constant_grid(0.4)
    model = SeismicModel(psf=PsfConfig(velocity_mps=2750.0))
    assert model.average_velocity(grid.coarse_fraction, grid.geometry) == 2750.0
    assert model.forward(grid).velocity_mps == 2750.0


# callable, arguments, error, message fragment
REJECTIONS = {
    "end-member porosity at critical": (functools.partial(RockPhysicsParams,
                                                          critical_porosity=0.27), (),
                                        GeophysicsError,
                                        "end-member porosities must lie below critical_porosity"),
    "even kernel extent": (functools.partial(PsfConfig, kernel_extents=(9, 4, 3)), (),
                           GeophysicsError, "kernel_extents must be odd, got (9, 4, 3)"),
}

test_geophysics_rejects_bad_input = rejection_test(REJECTIONS)
