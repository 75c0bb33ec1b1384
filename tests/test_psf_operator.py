"""The seismic PSF on conv3d's banded path, against the sliding-window path.

``reference_build`` is the seismic forward as it was written before the
banded path: one sliding-window ``tc.conv3d`` per PSF axis, and the PSF
velocity from a separate float64 rock-physics pass over the whole cube.
``SeismicModel.build`` must reproduce it, values and input gradient, to
float64 round-off.
"""

import numpy as np
import pytest

import fluvinv.tensors as tc
from fluvinv import geophysics
from fluvinv.geophysics import (
    PsfConfig,
    SeismicModel,
    build_psf,
    reflectivity_nodes,
    rock_physics_nodes,
)
from fluvinv.grids import GridGeometry, ModelGrid

RTOL = 1e-12


def reference_build(model, tape, coarse, geometry):
    rho, vp = rock_physics_nodes(tape, coarse, model.params)
    refl = reflectivity_nodes(tape, rho, vp, geometry, model.burden, model.params)
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
        # a kernel that needs its own gradient keeps conv3d on the sliding window
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


# (geometry, PSF, what the case is there for, checked on its kernel and the
# (1, Z, Y, X) shape the PSF is applied to)
CASES = {
    # the vertical kernel is taller than the burden-padded column
    "default-128x128x16": (GridGeometry(), PsfConfig(),
                           lambda k, shape: k.vertical.size > shape[1] == 51),
    "extents-9x3x3": (GridGeometry(nx=12, ny=10, nz=8), PsfConfig(kernel_extents=(9, 3, 3)),
                      lambda k, shape: (k.vertical.size, k.lateral_y.size,
                                        k.lateral_x.size) == (9, 3, 3)),
    # single-tap lateral factors: a scalar multiply each
    "illumination-90": (GridGeometry(nx=8, ny=8, nz=8), PsfConfig(illumination_angle_deg=90.0),
                        lambda k, shape: k.lateral_y.size == k.lateral_x.size == 1),
    # lateral factors of 7 (x) and 5 (y) taps; the 7-tap one is longer than nx
    "non-square": (GridGeometry(nx=5, ny=12, nz=8, dx=20.0, dy=30.0), PsfConfig(),
                   lambda k, shape: (k.lateral_y.size, k.lateral_x.size) == (5, 7)
                   and k.lateral_x.size > shape[3]),
}


@pytest.mark.filterwarnings("ignore:lateral PSF width")
@pytest.mark.parametrize("name", sorted(CASES))
def test_banded_psf_matches_conv3d_reference(name):
    geometry, psf, covers = CASES[name]
    model = SeismicModel(psf=psf)
    coarse = coarse_cube(geometry)
    kernels = []

    def reference(tape, node):
        out, kernel = reference_build(model, tape, node, geometry)
        kernels.append(kernel)
        return out

    want, want_g, seed = value_and_gradient(reference, coarse)
    assert covers(kernels[0], (1,) + want.shape)
    got, got_g, _ = value_and_gradient(lambda t, c: model.build(t, c, geometry), coarse, seed)
    assert_close(got, want, RTOL)
    assert_close(got_g, want_g, RTOL)


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
    def no_windows(*args, **kwargs):
        raise AssertionError("SeismicModel.build took conv3d's sliding-window path")

    rock_sizes = []
    original = geophysics.rock_physics

    def counted(f, *args, **kwargs):
        rock_sizes.append(np.size(f))
        return original(f, *args, **kwargs)

    monkeypatch.setattr(tc, "_windows", no_windows)
    monkeypatch.setattr(geophysics, "rock_physics", counted)
    geometry = GridGeometry(nx=8, ny=6, nz=4)
    tape = tc.GraphTape(np.float64)
    coarse = tape.input(coarse_cube(geometry))
    out = SeismicModel(burden=geophysics.BurdenConfig(fraction=0.123)).build(
        tape, coarse, geometry)
    tape.backward(out)
    assert rock_sizes and all(size == 1 for size in rock_sizes)
