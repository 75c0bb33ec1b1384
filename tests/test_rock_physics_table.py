"""Tabulated Vp(f) in ``rock_physics_nodes`` against the taped friable-sand chain.

``geophysics._friable_sand`` is the reference: its Vp node and the gradient
of that node, on a float64 tape, at the same coarse fractions (an entry of
``helpers.FAST_PATHS``).
"""

import warnings

import numpy as np
import pytest

import fluvinv.tensors as tc
from fluvinv import geophysics
from fluvinv.geophysics import RockPhysicsParams, rock_physics_nodes
from helpers import FAST_PATHS, check_fast_path

PARAMS = RockPhysicsParams()
STIFF = RockPhysicsParams(pressure=0.03, coordination=6.0)
H = 1.0 / (geophysics._KNOTS - 1)


def probe_fractions(seed=0):
    """Random f, interior knots, interval midpoints and f within 1e-9 of both ends."""
    rng = np.random.default_rng(seed)
    knots = np.arange(1, geophysics._KNOTS - 1, 997) * H
    near_ends = np.array([1e-12, 1e-10, 1e-9, 1.0 - 1e-9, 1.0 - 1e-10, 1.0 - 1e-12])
    return np.concatenate([rng.uniform(size=4000), knots, knots + 0.5 * H, near_ends])


def chain_vp(f, params):
    tape = tc.GraphTape(np.float64)
    x = tape.input(f)
    vp = geophysics._friable_sand(tape, x, params)["vp"]
    return vp.value, tape.backward(vp).wrt(x)


def table_vp(f, params, dtype=np.float64):
    tape = tc.GraphTape(dtype)
    x = tape.input(f)
    _, vp = rock_physics_nodes(tape, x, params)
    return np.asarray(vp.value), np.asarray(tape.backward(vp).wrt(x))


@pytest.mark.parametrize("params", [PARAMS, STIFF], ids=["default", "stiff"])
def test_values_and_gradients_match_chain(params):
    check_fast_path(FAST_PATHS["rock_physics_nodes"], np.float64,
                    ({"f": probe_fractions()}, {"params": params}))


def test_non_default_params_get_their_own_table():
    assert geophysics._vp_table(STIFF) is not geophysics._vp_table(PARAMS)
    f = probe_fractions()
    assert not np.allclose(table_vp(f, STIFF)[0], table_vp(f, PARAMS)[0])


def test_end_values_and_zero_gradient_at_ends():
    f = np.array([0.0, 1.0])
    ref_v, _ = chain_vp(f, PARAMS)
    v, g = table_vp(f, PARAMS)
    np.testing.assert_allclose(v, ref_v, rtol=1e-12, atol=0)
    assert np.all(g == 0.0)


def test_clamped_just_outside_unit_interval():
    f = np.array([-5e-10, 1.0 + 5e-10])
    v, g = table_vp(f, PARAMS)
    np.testing.assert_array_equal(v, table_vp(np.array([0.0, 1.0]), PARAMS)[0])
    assert np.all(g == 0.0)


def test_float32_tape_matches_float64():
    f = probe_fractions().astype(np.float32).astype(np.float64)
    v64, g64 = table_vp(f, PARAMS)
    v32, g32 = table_vp(f, PARAMS, dtype=np.float32)
    assert v32.dtype == np.float32 and g32.dtype == np.float32
    np.testing.assert_allclose(v32, v64, rtol=1e-6, atol=0)
    np.testing.assert_allclose(g32, g64, rtol=1e-6, atol=0)


def test_equal_params_reuse_the_table():
    first = geophysics._vp_table(RockPhysicsParams())
    misses = geophysics._vp_table.cache_info().misses
    table_vp(np.linspace(0.0, 1.0, 11), RockPhysicsParams())
    assert geophysics._vp_table.cache_info().misses == misses
    assert geophysics._vp_table(RockPhysicsParams()) is first


def test_at_most_three_records():
    tape = tc.GraphTape(np.float64)
    x = tape.input(np.full((4, 5, 6), 0.4))
    before = len(tape._records)
    rock_physics_nodes(tape, x, PARAMS)
    assert len(tape._records) - before <= 3


def test_scalar_fraction():
    rho, vp = geophysics.rock_physics(np.float64(0.25), PARAMS)
    assert rho.shape == () and vp.shape == ()
    np.testing.assert_allclose(vp, chain_vp(np.array([0.25]), PARAMS)[0][0], rtol=1e-12)


def test_nan_fraction_gives_nan_vp_silently():
    # a diverged latent must reach the loss as NaN, where descent halts on it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho, vp = geophysics.rock_physics(np.array([0.5, np.nan]), PARAMS)
    assert np.isfinite(vp[0]) and np.isnan(vp[1]) and np.isnan(rho[1])
