"""The fused procedural build against the tape of elementwise ops it replaced.

``ProceduralGenerator.build`` is two ``tc.custom`` records, one per channel,
of a numpy forward and a hand-derived backward. ``helpers.taped_procedural_build``
is the same construction as one record per op: the fused values must equal it
bit for bit in float32 and float64, and the gradients with respect to the
latent, the labels and the map coefficients of a loss that reads one channel
must equal it too, up to the sign of a zero entry. A loss that reads both
sums the two channels' gradients at the inputs, where the tape sums them at
the shared belt parameters, so those agree to round-off, the rule of the
build's entry in ``helpers.FAST_PATHS``.

A ``depo=False`` build is one record whose coarse values and gradients equal
the ``depo=True`` coarse bit for bit.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from helpers import (EXACT, FAST_PATHS, PROC, assert_matches, gradient_check, round_off,
                     taped_belt_nodes, taped_procedural_build)

import fluvinv.tensors as tc
from fluvinv.generators import sample_prior

GEO = PROC.geometry  # 12 x 9 x 5, latent_dim 9: the build's entry in FAST_PATHS
MAPS = PROC.weights()["maps"]
CELLS = np.array([0, 14, 37, 101, 230, 333, 470])
SETTINGS = settings(max_examples=30, deadline=None)


def _build(build, dtype, z, labels, maps, cells, wrt, channels=("coarse", "depo")):
    """(coarse, depo, gradients by name or None) of ``build`` on a fresh tape;
    the inputs named in ``wrt`` are tape inputs, the others constants, and
    the loss reads ``channels``."""
    tape = tc.GraphTape(dtype)

    def leaf(name, value):
        if value is None:
            return None
        return tape.input(value) if name in wrt else tape.constant(value)

    nodes = {"z": leaf("z", z), "labels": leaf("labels", labels), "maps": leaf("maps", maps)}
    coarse, depo = build(tape, nodes["z"], nodes["labels"], {"maps": nodes["maps"]}, cells)
    grads = None
    if wrt:
        rng = np.random.default_rng(5)
        terms = [tc.sum_all(tape.constant(rng.standard_normal(node.value.shape)) * node)
                 for name, node in (("coarse", coarse), ("depo", depo)) if name in channels]
        g = tape.backward(terms[0] if len(terms) == 1 else terms[0] + terms[1])
        grads = {k: g.wrt(nodes[k]) for k in wrt}
    return coarse.value, depo.value, grads


def _taped(tape, z, labels, weights, cells):
    return taped_procedural_build(PROC, tape, z, labels, weights, cells)


def _fused(tape, z, labels, weights, cells):
    return PROC.build(tape, z, labels, weights, cells)


def _case(draw_rows, seed, label_mode, cell_list):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((draw_rows, 9) if draw_rows else 9) * 1.5
    labels = None
    if label_mode == "shared":
        labels = rng.uniform(0.0, 1.0, 5)
    elif label_mode == "per_row":
        labels = rng.uniform(0.0, 1.0, (draw_rows, 5))
    maps = MAPS * (1.0 + 0.2 * rng.standard_normal(MAPS.size))
    cells = None if cell_list is None else np.asarray(cell_list)
    return z, labels, maps, cells


CASES = st.tuples(
    st.sampled_from([None, 1, 3]),                                   # latent rows
    st.integers(0, 2 ** 16),                                          # seed
    st.sampled_from(["neutral", "shared", "per_row"]),                # labels
    st.one_of(st.none(), st.lists(st.integers(0, GEO.n_cells - 1), min_size=1,
                                  max_size=40)),                       # cells
).filter(lambda c: not (c[0] is None and c[2] == "per_row"))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@SETTINGS
@given(case=CASES)
def test_fused_values_equal_taped_reference_bit_for_bit(dtype, case):
    z, labels, maps, cells = _case(*case)
    fc, fd, _ = _build(_fused, dtype, z, labels, maps, cells, ())
    tc_, td, _ = _build(_taped, dtype, z, labels, maps, cells, ())
    assert fc.dtype == dtype
    assert_matches(fc, tc_, EXACT, "coarse")
    assert_matches(fd, td, EXACT, "depo")


@pytest.mark.parametrize("channels", [("coarse",), ("depo",), ("coarse", "depo")])
@SETTINGS
@given(case=CASES, wrt=st.sampled_from([("z",), ("labels",), ("maps",),
                                        ("z", "labels", "maps")]))
# one cell: the belt parameters have the shape of the cell gradients, so
# the backward's reductions hand back their argument itself
@example(case=(None, 4, "neutral", [17]), wrt=("z", "labels", "maps"))
@example(case=(3, 4, "per_row", [17]), wrt=("z", "labels", "maps"))
def test_fused_gradients_match_taped_reference(channels, case, wrt):
    z, labels, maps, cells = _case(*case)
    if labels is None:
        wrt = tuple(k for k in wrt if k != "labels") or ("z",)
    fused = _build(_fused, np.float64, z, labels, maps, cells, wrt, channels)[2]
    taped = _build(_taped, np.float64, z, labels, maps, cells, wrt, channels)[2]
    # one channel: equal, though a zero gradient entry may take the other
    # sign of zero, so not bit for bit
    rule = FAST_PATHS["ProceduralGenerator.build"].rules[np.float64]
    assert_matches(fused, taped, round_off(0) if len(channels) == 1 else rule)


@pytest.mark.parametrize("cells", [None, [0, 7, 7, 200, 539]], ids=["grid", "cells"])
@pytest.mark.parametrize("channel", ["coarse", "depo"])
def test_float32_gradients_equal_taped_reference(channel, cells):
    z, labels, maps, cells = _case(3, 11, "per_row", cells)
    wrt = ("z", "labels", "maps")
    fused = _build(_fused, np.float32, z, labels, maps, cells, wrt, (channel,))[2]
    taped = _build(_taped, np.float32, z, labels, maps, cells, wrt, (channel,))[2]
    assert fused["z"].dtype == np.float32
    assert_matches(fused, taped, EXACT)


def _coarse_only(tape, z, labels, weights, cells):
    coarse, depo = PROC.build(tape, z, labels, weights, cells, depo=False)
    assert depo is None
    return coarse, coarse


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@SETTINGS
@given(case=CASES)
def test_coarse_only_build_equals_coarse_of_both_bit_for_bit(dtype, case):
    z, labels, maps, cells = _case(*case)
    wrt = ("z", "maps") if labels is None else ("z", "labels", "maps")
    want_value, _, want = _build(_fused, dtype, z, labels, maps, cells, wrt, ("coarse",))
    got_value, _, got = _build(_coarse_only, dtype, z, labels, maps, cells, wrt, ("coarse",))
    assert got_value.dtype == dtype
    assert_matches({"coarse": got_value, **got}, {"coarse": want_value, **want}, EXACT)


@pytest.mark.parametrize("cells", [None, CELLS], ids=["grid", "cells"])
@pytest.mark.parametrize("depo, records", [(True, 2), (False, 1)])
def test_build_records_one_node_per_channel(depo, records, cells):
    tape = tc.GraphTape(np.float64)
    z = tape.input(sample_prior(2, 9, rng_seed=1))
    before = len(tape._records)
    coarse, d = PROC.build(tape, z, cells=cells, depo=depo)
    assert len(tape._records) - before == records
    assert (d is None) == (not depo)


def test_belt_parameters_equal_taped_belt():
    z = sample_prior(1, 9, rng_seed=4)[0]
    labels = np.array([0.2, 0.9, 0.4, 0.7, 0.1])
    tape = tc.GraphTape(np.float64)
    nodes = taped_belt_nodes(GEO, tape.constant(z), tape.constant(labels),
                             tape.constant(MAPS))
    got = PROC.belt_parameters(z, labels)
    assert set(got) == set(nodes)
    for k, node in nodes.items():
        assert got[k] == float(node.value[0]), k


def test_build_tape_is_freed_by_reference_counting():
    gc.disable()
    try:
        tape = tc.GraphTape(np.float64)
        z = tape.input(sample_prior(1, 9, rng_seed=2)[0])
        coarse, depo = PROC.build(tape, z, cells=np.array([1, 2, 3]))
        ref = weakref.ref(tape)
        del tape, z, coarse, depo
        assert ref() is None
    finally:
        gc.enable()


def test_procedural_gradient_wrt_maps_matches_fd():
    z0 = sample_prior(1, 9, rng_seed=6)[0]
    labels = np.array([0.3, 0.6, 0.2, 0.8, 0.4])
    target = np.random.default_rng(0).uniform(0.0, 1.0, CELLS.size)

    def loss(tape, maps):
        coarse, depo = PROC.build(tape, tape.constant(z0), tape.constant(labels),
                                  weights={"maps": maps}, cells=CELLS)
        return (tc.mean_all(tc.square(coarse - tape.constant(target)))
                + tc.mean_all(tc.square(depo)))

    assert gradient_check(loss, MAPS, step=1e-6) < 1e-4


def test_procedural_gradient_wrt_per_row_labels_matches_fd():
    zs = sample_prior(2, 9, rng_seed=9)

    def loss(tape, lab):
        coarse, depo = PROC.build(tape, tape.constant(zs), tc.sigmoid(lab), cells=CELLS)
        return tc.mean_all(tc.square(coarse)) + tc.mean_all(tc.square(depo))

    point = np.random.default_rng(3).standard_normal((2, 5))
    assert gradient_check(loss, point, step=1e-6) < 1e-4


def test_procedural_gradient_wrt_maps_on_full_grid_batch_matches_fd():
    zs = sample_prior(2, 9, rng_seed=12)

    def loss(tape, maps):
        coarse, depo = PROC.build(tape, tape.constant(zs), weights={"maps": maps})
        return tc.mean_all(tc.square(coarse)) + tc.mean_all(tc.square(depo))

    assert gradient_check(loss, MAPS, step=1e-6) < 1e-4
