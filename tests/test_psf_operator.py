"""The seismic forward on the deposit's interfaces, against a reference
written on the burden-padded column.

``reference_build`` is the seismic forward as it was written before the
banded path and before the compact build: the reflectivity of the whole
padded column from the plain numpy formula in ``helpers``, one
general-kernel ``tc.conv3d`` per PSF axis (vertical first), and the PSF
velocity from a separate float64 rock-physics pass over the whole cube.
``SeismicModel.build`` must reproduce it, values and input gradient, to
float64 round-off.

The interface reflectivity is one record; ``helpers.taped_interface_nodes``
is the tape of concat, crops, sub, add and div that it replaced, and it
must equal that tape bit for bit, values and gradients.
"""

import numpy as np
import pytest
from helpers import padded_reflectivity, taped_interface_nodes

import fluvinv.tensors as tc
from fluvinv import geophysics
from fluvinv.geophysics import (
    BurdenConfig,
    PsfConfig,
    SeismicModel,
    build_psf,
    rock_physics,
    rock_physics_nodes,
)
from fluvinv.grids import GridGeometry, ModelGrid

RTOL = 1e-12
# a float32 tape stores impedances of about 5e3 to 7 digits, and the
# reflectivity takes their differences: about 2e-5 of the largest amplitude
F32_RTOL = 5e-5


def reference_build(model, tape, coarse, geometry):
    rho, vp = rock_physics_nodes(tape, coarse, model.params)
    imp = rho * vp

    def reflectivity(imp_value):
        value, vjp = padded_reflectivity(imp_value, model.burden, geometry.dz, model.params)
        return value, lambda g: (vjp(g),)

    # one record whose backward is the hand-derived vector-Jacobian product
    refl = tc.custom(reflectivity, imp)
    v_avg = model.average_velocity(coarse.value, geometry)
    kernel = build_psf(model.psf, geometry.dz, geometry.dy, geometry.dx, v_avg)
    nzs = refl.value.shape[0]
    x = tc.reshape(refl, (1, nzs, geometry.ny, geometry.nx))
    for axis, taps in enumerate((kernel.vertical, kernel.lateral_y, kernel.lateral_x)):
        if taps.shape[0] == 1:
            x = x * float(taps[0])
            continue
        shape = [1, 1, 1, 1, 1]
        shape[2 + axis] = taps.shape[0]
        # a kernel that needs its own gradient keeps conv3d on the general path
        x = tc.conv3d(x, tape.input(taps.reshape(shape)))
    return tc.reshape(x, (nzs, geometry.ny, geometry.nx)), kernel


def value_and_gradient(build, coarse, seed=None, dtype=np.float64):
    tape = tc.GraphTape(dtype)
    node = tape.input(coarse)
    out = build(tape, node)
    if seed is None:
        seed = np.random.default_rng(1).normal(size=out.value.shape)
    grad = tape.backward(out, seed=seed).wrt(node)
    return np.asarray(out.value, dtype=np.float64), np.asarray(grad, dtype=np.float64), seed


def assert_close(actual, reference, rtol):
    # relative to the largest reference magnitude: the PSF sums many taps,
    # so single samples near zero carry round-off far above their own size
    err = np.max(np.abs(actual - reference)) / np.max(np.abs(reference))
    assert err <= rtol, f"relative error {err:.3e} > {rtol:g}"


def coarse_cube(geometry, seed=0):
    return np.random.default_rng(seed).uniform(0.05, 0.95, size=geometry.shape)


# (geometry, model, what the case is there for, checked on the model, its
# kernel and the (1, Z, Y, X) shape of the padded column's reflectivity)
CASES = {
    # the vertical kernel is taller than the burden-padded column
    "default-128x128x16": (GridGeometry(), SeismicModel(),
                           lambda m, k, shape: k.vertical.size > shape[1] == 51),
    "extents-9x3x3": (GridGeometry(nx=12, ny=10, nz=8),
                      SeismicModel(psf=PsfConfig(kernel_extents=(9, 3, 3))),
                      lambda m, k, shape: (k.vertical.size, k.lateral_y.size,
                                           k.lateral_x.size) == (9, 3, 3)),
    # single-tap lateral factors: a scalar multiply each
    "illumination-90": (GridGeometry(nx=8, ny=8, nz=8),
                        SeismicModel(psf=PsfConfig(illumination_angle_deg=90.0)),
                        lambda m, k, shape: k.lateral_y.size == k.lateral_x.size == 1),
    # lateral factors of 7 (x) and 5 (y) taps; the 7-tap one is longer than nx
    "non-square": (GridGeometry(nx=5, ny=12, nz=8, dx=20.0, dy=30.0), SeismicModel(),
                   lambda m, k, shape: (k.lateral_y.size, k.lateral_x.size) == (5, 7)
                   and k.lateral_x.size > shape[3]),
    # no burden: only the deposit's own nz - 1 interfaces, nothing to expand
    "no-burden": (GridGeometry(nx=9, ny=7, nz=8),
                  SeismicModel(burden=BurdenConfig(total_thickness_m=0.0)),
                  lambda m, k, shape: shape[1] == 7),
    # different lithologies above and below the deposit
    "bottom-fraction": (GridGeometry(nx=9, ny=7, nz=8),
                        SeismicModel(burden=BurdenConfig(fraction=0.2, bottom_fraction=0.9)),
                        lambda m, k, shape: len(set(m.burden.fractions)) == 2),
    # a one-layer deposit: its top and base are the only interfaces
    "one-layer": (GridGeometry(nx=6, ny=5, nz=1), SeismicModel(),
                  lambda m, k, shape: shape[1] == 36),
}


@pytest.mark.filterwarnings("ignore:lateral PSF width")
@pytest.mark.parametrize("name", sorted(CASES))
def test_banded_psf_matches_conv3d_reference(name):
    geometry, model, covers = CASES[name]
    coarse = coarse_cube(geometry)
    kernels = []

    def reference(tape, node):
        out, kernel = reference_build(model, tape, node, geometry)
        kernels.append(kernel)
        return out

    def build(tape, node):
        return model.build(tape, node, geometry)

    want, want_g, seed = value_and_gradient(reference, coarse)
    assert covers(model, kernels[0], (1,) + want.shape)
    got, got_g, _ = value_and_gradient(build, coarse, seed)
    assert_close(got, want, RTOL)
    assert_close(got_g, want_g, RTOL)
    got, got_g, _ = value_and_gradient(build, coarse, seed, dtype=np.float32)
    assert_close(got, want, F32_RTOL)
    assert_close(got_g, want_g, F32_RTOL)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", sorted(n for n, case in CASES.items()
                                        if case[1].burden.total_thickness_m > 0))
def test_interface_record_equals_the_taped_form(name, dtype):
    geometry, model, _ = CASES[name]
    rho_v, vp_v = rock_physics(coarse_cube(geometry), model.params, dtype=dtype)
    # with a burden, the deposit's nz - 1 interfaces and its top and base
    seed = np.random.default_rng(4).normal(size=(geometry.nz + 1, geometry.ny, geometry.nx))
    results = []
    for interfaces in (geophysics._interface_nodes, taped_interface_nodes):
        tape = tc.GraphTape(dtype)
        rho, vp = tape.input(rho_v), tape.input(vp_v)
        refl, first, nzs = interfaces(tape, rho, vp, geometry, model.burden, model.params)
        records = len(tape._records)
        grads = tape.backward(refl, seed=seed)
        results.append((refl.value, grads.wrt(rho), grads.wrt(vp), first, nzs, records))
    got, want = results
    assert got[-1] == 2  # the impedance product and the reflectivity record
    assert got[3:5] == want[3:5]
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype == dtype
        np.testing.assert_array_equal(a, b)


def test_forward_reports_the_build_velocity():
    geometry = GridGeometry(nx=8, ny=6, nz=4)
    model = SeismicModel()
    grid_coarse = coarse_cube(geometry)
    tape = tc.GraphTape(np.float64)
    want, kernel = reference_build(model, tape, tape.constant(grid_coarse), geometry)
    cube = model.forward(ModelGrid(geometry, grid_coarse, np.full(geometry.shape, 0.5)))
    assert cube.velocity_mps == kernel.velocity_mps
    assert cube.velocity_mps == model.average_velocity(grid_coarse, geometry)
    assert_close(cube.amplitudes, np.asarray(want.value), RTOL)


def test_float32_tape_matches_float64():
    geometry = GridGeometry(nx=16, ny=12, nz=8)
    model = SeismicModel()
    coarse = coarse_cube(geometry, seed=3)
    want, want_g, seed = value_and_gradient(lambda t, c: model.build(t, c, geometry), coarse)
    got, got_g, _ = value_and_gradient(lambda t, c: model.build(t, c, geometry), coarse,
                                       seed, dtype=np.float32)
    assert_close(got, want, 1e-5)
    assert_close(got_g, want_g, 1e-5)


def test_build_slides_no_window_and_runs_no_whole_cube_rock_physics(monkeypatch):
    def no_general_path(*args, **kwargs):
        raise AssertionError("SeismicModel.build took conv3d's general-kernel path")

    rock_sizes = []
    original = geophysics.rock_physics

    def counted(f, *args, **kwargs):
        rock_sizes.append(np.size(f))
        return original(f, *args, **kwargs)

    monkeypatch.setattr(tc, "_padded", no_general_path)
    monkeypatch.setattr(geophysics, "rock_physics", counted)
    geometry = GridGeometry(nx=8, ny=6, nz=4)
    tape = tc.GraphTape(np.float64)
    coarse = tape.input(coarse_cube(geometry))
    out = SeismicModel(burden=geophysics.BurdenConfig(fraction=0.123)).build(
        tape, coarse, geometry)
    tape.backward(out)
    assert rock_sizes and all(size == 1 for size in rock_sizes)


def test_build_expands_to_the_padded_column_only_at_the_vertical_factor(monkeypatch):
    geometry = GridGeometry(nx=32, ny=32, nz=8)
    nzs = geometry.nz + 2 * SeismicModel().burden.cells_per_side(geometry.dz) - 1
    shapes = []
    original = tc.GraphTape._new_node

    def recorded(self, value, requires_grad):
        shapes.append(np.shape(value))
        return original(self, value, requires_grad)

    monkeypatch.setattr(tc.GraphTape, "_new_node", recorded)
    tape = tc.GraphTape(np.float64)
    out = SeismicModel().build(tape, tape.input(coarse_cube(geometry)), geometry)
    assert out.value.shape == (nzs, geometry.ny, geometry.nx)
    # every node before the vertical factor's output has fewer sheets
    tall = [i for i, shape in enumerate(shapes) if nzs in shape[:-2]]
    assert tall == [len(shapes) - 1]
