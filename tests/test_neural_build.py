"""The neural generator's blocks run conv1 as ``tc.upconv3d`` and the 1x1x1
skip before ``upsample2``, where they read ``upsample2(h)``.

``helpers.composed_neural_build`` keeps the composition. Both builds must
give the same values and the same gradients with respect to the latent, the
labels and every weight, to float64 round-off, and no ``conv3d`` of a build
may read an ``upsample2`` output.
"""

import numpy as np
import pytest

import fluvinv.tensors as tc
from fluvinv.generators import GeneratorDescriptor, NeuralGenerator, sample_prior
from fluvinv.grids import GridGeometry
from fluvinv.tensors import GraphTape
from helpers import composed_neural_build

GEN = NeuralGenerator.random_init(
    GridGeometry(nx=8, ny=8, nz=4),
    GeneratorDescriptor(latent_dim=6, label_dim=3, base_channels=8, out_extents=(8, 8, 4)),
    rng_seed=5)
CELLS = np.array([0, 17, 17, 100, 255, 4 * 64 - 1])


def taped_build(build, z, labels, cells, depo, seed):
    """Values of both channels, and the gradients of a random projection of
    them with respect to z, the labels and every weight, on a float64 tape."""
    tape = GraphTape(np.float64)
    zn = tape.input(z)
    ln = None if labels is None else tape.input(labels)
    weights = {k: tape.input(v) for k, v in GEN.weights().items()}
    coarse, depo_node = build(GEN, tape, zn, ln, weights, cells, depo)
    outs = [coarse] if depo_node is None else [coarse, depo_node]
    rng = np.random.default_rng(seed)
    loss = None
    for node in outs:
        term = tc.sum_all(node * tape.constant(rng.normal(size=node.shape)))
        loss = term if loss is None else loss + term
    grads = tape.backward(loss)
    named = {"z": zn} | ({} if ln is None else {"labels": ln}) | weights
    return ([n.value for n in outs] + [grads.wrt(n) for n in named.values()],
            ["coarse", "depo"][:len(outs)] + list(named))


def new_build(gen, *args):
    return gen.build(*args)


# (rows, labels): one latent or a batch of three; neutral labels, one label
# vector for every row, or a label vector per row
CASES = [(None, "neutral"), (None, "shared"), (3, "neutral"), (3, "shared"), (3, "per-row")]


@pytest.mark.parametrize("rows, labels", CASES)
@pytest.mark.parametrize("cells", [None, CELLS], ids=["grid", "cells"])
@pytest.mark.parametrize("depo", [True, False])
def test_build_matches_composition(rows, labels, cells, depo):
    n = 1 if rows is None else rows
    z = sample_prior(n, GEN.latent_dim, rng_seed=7)
    z = z[0] if rows is None else z
    lab = {"neutral": None, "shared": np.array([0.2, 0.7, 0.4]),
           "per-row": np.linspace(0.1, 0.9, 3 * n).reshape(n, 3)}[labels]
    got, names = taped_build(new_build, z, lab, cells, depo, seed=11)
    want, _ = taped_build(composed_neural_build, z, lab, cells, depo, seed=11)
    assert len(names) == len(got) == len(want)
    for name, a, r in zip(names, got, want):
        assert a.shape == r.shape, name
        scale = max(float(np.max(np.abs(r))), 1e-300)
        err = float(np.max(np.abs(a - r))) / scale
        assert err <= 1e-12, f"{name}: relative error {err:.3e}"


def test_no_conv3d_reads_an_upsample2_output(monkeypatch):
    # the outputs are kept alive, so no later node can reuse their identity
    upsampled, offenders = [], []
    upsample2, conv3d = tc.upsample2, tc.conv3d

    def tracked_upsample2(x):
        upsampled.append(upsample2(x))
        return upsampled[-1]

    def checked_conv3d(x, w, bias=None):
        if any(x is u for u in upsampled):
            offenders.append(x.shape)
        return conv3d(x, w, bias)

    monkeypatch.setattr(tc, "upsample2", tracked_upsample2)
    monkeypatch.setattr(tc, "conv3d", checked_conv3d)
    tape = GraphTape(np.float32)
    GEN.build(tape, tape.input(sample_prior(2, GEN.latent_dim, rng_seed=1)))
    assert len(upsampled) == 2 * GEN.descriptor.num_blocks  # the skips, per row
    assert offenders == []
