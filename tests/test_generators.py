"""Generators: prior sampling, procedural construction, neural pass, weights IO."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fluvinv.tensors as tc
from fluvinv.generators import (
    GeneratorDescriptor,
    GeneratorError,
    NeuralGenerator,
    ProceduralGenerator,
    keyed_rng,
    keyed_rngs,
    load_weights,
    neutral_labels,
    sample_prior,
    save_weights,
)
from fluvinv.grids import GridGeometry
from helpers import EXACT, assert_matches, gradient_check

DESK = GridGeometry(nx=32, ny=32, nz=8)


def test_sample_prior_clt_bound():
    z = sample_prior(300, 128, rng_seed=0)
    assert z.shape == (300, 128)
    assert np.all(np.abs(z.mean(axis=0)) < 3.0 / np.sqrt(300))


def test_sample_prior_deterministic():
    a = sample_prior(5, 16, rng_seed=42)
    b = sample_prior(5, 16, rng_seed=42)
    assert a.tobytes() == b.tobytes()


def test_sample_prior_worker_split_invariant():
    # row i depends only on (seed, i): a prefix equals the same rows of a larger batch
    whole = sample_prior(10, 4, rng_seed=7)
    head = sample_prior(3, 4, rng_seed=7)
    np.testing.assert_array_equal(whole[:3], head)


def test_sample_prior_single_value():
    z = sample_prior(1, 1, rng_seed=1)
    assert z.shape == (1, 1) and np.isfinite(z[0, 0])


def _inline_rng(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def test_keyed_rng_is_the_pcg64_stream_of_its_key():
    for key in [(5,), (5, 19), (5, 3, 2, 1), (2**32 - 1, 29, 400)]:
        assert_matches(keyed_rng(*key).standard_normal(6), _inline_rng(*key).standard_normal(6),
                       EXACT, str(key))
    # numpy integers name the same stream as Python ints
    assert_matches(keyed_rng(np.uint32(5), np.int64(7)).uniform(size=4),
                   _inline_rng(5, 7).uniform(size=4), EXACT)


def _batch_keys():
    # 1- to 6-entry keys; entries past 32 and 64 bits give keys of up to 18 words
    edges = [0, 1, 2**32 - 1, 2**32, 2**64 + 5]
    keys = [tuple(edges[(j + k) % 5] for k in range(n)) for n in range(1, 7) for j in range(5)]
    rng = np.random.default_rng(11)
    keys += [tuple(int(v) for v in rng.integers(0, 2**40, size=n)) for n in range(1, 7)]
    return keys + [(5, 3, 0, 0), (5, 3), (2**32, 3, 7, 2), (np.uint32(5), np.int64(7)),
                   (np.uint64(2**63 + 9), 3)]


def test_keyed_rngs_are_the_streams_of_their_keys():
    keys = _batch_keys()
    streams = keyed_rngs(keys)
    assert len(streams) == len(keys)
    for j, key in enumerate(keys):
        seq = np.random.SeedSequence(tuple(int(k) for k in key))
        assert_matches(streams.words[j], seq.generate_state(4, np.uint64), EXACT, str(key))
        assert_matches(streams[j].standard_normal(5), keyed_rng(*key).standard_normal(5), EXACT,
                       str(key))


def test_keyed_rngs_rejects_negative_entries_and_other_state_sizes():
    for key in [(5, -1), (np.int64(-3),), (2**70, 1, -2**70)]:
        with pytest.raises(ValueError):
            keyed_rng(*key)
        with pytest.raises(ValueError, match="non-negative"):
            keyed_rngs([(1, 2), key])
    seq = keyed_rngs([(1, 2)])[0].bit_generator.seed_seq
    for n_words, dtype in [(8, np.uint64), (4, np.uint32)]:
        with pytest.raises(ValueError, match="4 uint64"):
            seq.generate_state(n_words, dtype)


@pytest.mark.parametrize("stream", [(), (13,), (1,), (3, 4)])
def test_sample_prior_row_i_is_keyed_by_stream_and_i(stream):
    z = sample_prior(4, 3, 9, *stream)
    for i in range(4):
        np.testing.assert_array_equal(z[i], _inline_rng(9, *stream, i).standard_normal(3))


def test_sample_prior_rejects_bad_counts():
    with pytest.raises(GeneratorError):
        sample_prior(0, 4, rng_seed=0)


def test_procedural_zero_latent_centered_belt():
    gen = ProceduralGenerator(DESK)
    grid = gen.generate(np.zeros(16))
    params = gen.belt_parameters(np.zeros(16))
    assert params["center"] == DESK.ny / 2
    # mirror symmetry of the coarse channel around the centerline
    c = grid.coarse_fraction
    for j in range(1, 16):
        np.testing.assert_allclose(c[:, 16 - j, :], c[:, 16 + j, :], atol=1e-6)


def test_procedural_center_monotone_in_z1():
    gen = ProceduralGenerator(DESK)
    centers = [gen.belt_parameters(np.r_[v, np.zeros(15)])["center"]
               for v in np.linspace(-3, 3, 9)]
    assert np.all(np.diff(centers) > 0)


def test_procedural_is_pure_and_in_range():
    gen = ProceduralGenerator(DESK)
    z = sample_prior(1, 16, rng_seed=3)[0]
    a = gen.generate(z)
    b = gen.generate(z)
    assert a.coarse_fraction.tobytes() == b.coarse_fraction.tobytes()
    assert a.depo_time.tobytes() == b.depo_time.tobytes()
    assert a.in_range(tol=0.0)


def test_procedural_rejects_small_extents():
    with pytest.raises(GeneratorError, match="below minimum"):
        ProceduralGenerator(GridGeometry(nx=6, ny=8, nz=4))


def test_procedural_aggradation_label_monotone_stacking():
    gen = ProceduralGenerator(DESK)
    z = sample_prior(1, 16, rng_seed=11)[0]
    means = []
    for aggr in np.linspace(0.05, 0.95, 7):
        labels = neutral_labels()
        labels[3] = aggr
        grid = gen.generate(z, labels)
        belt = grid.coarse_fraction > 0.5
        means.append(grid.depo_time[belt].mean())
    assert np.all(np.diff(means) > 0)


def test_procedural_gradient_wrt_latent_matches_fd():
    gen = ProceduralGenerator(GridGeometry(nx=8, ny=8, nz=4), latent_dim=8)
    target = gen.generate(sample_prior(1, 8, rng_seed=5)[0], dtype=np.float64)
    cells = np.array([0, 37, 101, 200])

    def well_loss(tape, z):
        coarse, _ = gen.build(tape, z)
        picked = tc.take(coarse, cells)
        obs = tape.constant(target.coarse_fraction.reshape(-1)[cells])
        return tc.mean_all(tc.square(picked - obs))

    z0 = sample_prior(1, 8, rng_seed=6)[0]
    assert gradient_check(well_loss, z0, step=1e-5) < 1e-4


def test_procedural_gradient_wrt_labels_matches_fd():
    gen = ProceduralGenerator(GridGeometry(nx=8, ny=8, nz=4), latent_dim=8)
    z0 = sample_prior(1, 8, rng_seed=9)[0]

    def loss(tape, lab):
        coarse, depo = gen.build(tape, tape.constant(z0), labels=tc.sigmoid(lab))
        return tc.mean_all(tc.square(coarse)) + tc.mean_all(tc.square(depo))

    assert gradient_check(loss, np.array([0.3, -0.2, 0.5, -0.4, 0.1]), step=1e-5) < 1e-4


DESC = GeneratorDescriptor(latent_dim=8, base_channels=8, num_blocks=2, out_extents=(16, 16, 4))
GEO16 = GridGeometry(nx=16, ny=16, nz=4)


def test_neural_output_extents_and_range():
    gen = NeuralGenerator.random_init(GEO16, DESC, rng_seed=0)
    grid = gen.generate(sample_prior(1, 8, rng_seed=0)[0])
    assert grid.coarse_fraction.shape == (4, 16, 16)
    assert grid.in_range(tol=0.0)


def test_neural_deterministic():
    gen = NeuralGenerator.random_init(GEO16, DESC, rng_seed=1)
    z = sample_prior(1, 8, rng_seed=2)[0]
    a, b = gen.generate(z), gen.generate(z)
    assert a.coarse_fraction.tobytes() == b.coarse_fraction.tobytes()


def test_neural_weight_gradients_match_fd():
    gen = NeuralGenerator.random_init(GEO16, DESC, rng_seed=3)
    z0 = sample_prior(1, 8, rng_seed=4)[0]
    name = "block1.conv1.w"
    base = gen.weights()
    shape = base[name].shape

    def loss(tape, wflat):
        weights = {k: tape.constant(v) for k, v in base.items()}
        weights[name] = tc.reshape(wflat, shape)
        coarse, _ = gen.build(tape, tape.constant(z0), weights=weights)
        return tc.mean_all(tc.square(coarse))

    assert gradient_check(loss, base[name].astype(np.float64).ravel(), step=1e-5) < 1e-4


def test_neural_rejects_weight_mismatch():
    weights = NeuralGenerator.random_init(GEO16, DESC, rng_seed=0).weights()
    weights["head.w"] = weights["head.w"][:, :1]
    with pytest.raises(GeneratorError, match="head.w"):
        NeuralGenerator(GEO16, DESC, weights)


SMALL = GridGeometry(nx=8, ny=8, nz=4)


def test_unconditional_procedural_rejects_labels_everywhere():
    gen = ProceduralGenerator(SMALL, latent_dim=8, label_dim=0)
    z, labels = np.zeros(8), neutral_labels()
    tape = tc.GraphTape(np.float64)
    with pytest.raises(GeneratorError, match="unconditional"):
        gen.build(tape, tape.constant(z), tape.constant(labels))
    with pytest.raises(GeneratorError, match="unconditional"):
        gen.generate(z, labels)
    with pytest.raises(GeneratorError, match="unconditional"):
        gen.belt_parameters(z, labels)
    # with no labels it builds at the neutral ones, as a conditioned generator would
    conditioned = ProceduralGenerator(SMALL, latent_dim=8)
    np.testing.assert_array_equal(gen.generate(z).coarse_fraction,
                                  conditioned.generate(z, labels).coarse_fraction)


@pytest.mark.parametrize("shape", [(6,), (2, 6)], ids=["one", "batch"])
def test_conditioned_neural_build_defaults_to_neutral_labels(shape):
    desc = GeneratorDescriptor(latent_dim=6, label_dim=5, base_channels=4, out_extents=(8, 8, 4))
    gen = NeuralGenerator.random_init(SMALL, desc, rng_seed=3)
    z = np.random.default_rng(4).standard_normal(shape)
    tape = tc.GraphTape(np.float64)
    default = gen.build(tape, tape.constant(z))
    neutral = gen.build(tape, tape.constant(z), tape.constant(neutral_labels()))
    for got, want in zip(default, neutral):
        np.testing.assert_array_equal(got.value, want.value)
    with pytest.raises(GeneratorError, match="expected 5 labels"):
        gen.build(tape, tape.constant(z), tape.constant(neutral_labels(4)))


def test_descriptor_rejects_indivisible_extents():
    with pytest.raises(GeneratorError, match="divisible"):
        GeneratorDescriptor(out_extents=(30, 32, 8), num_blocks=2)


def test_weights_roundtrip_bit_exact(tmp_path):
    gen = NeuralGenerator.random_init(GEO16, DESC, rng_seed=5)
    path = tmp_path / "w.flvwts"
    save_weights(path, gen.weights(), DESC)
    loaded, desc = load_weights(path)
    assert desc == DESC
    for name, arr in gen.weights().items():
        assert loaded[name].tobytes() == arr.astype("<f4").tobytes()


def test_weights_bad_magic_rejected(tmp_path):
    path = tmp_path / "w.flvwts"
    save_weights(path, {"a": np.ones(3, dtype=np.float32)})
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(GeneratorError, match="magic"):
        load_weights(path)


def test_weights_truncated_payload_rejected(tmp_path):
    path = tmp_path / "w.flvwts"
    save_weights(path, {"a": np.ones(8, dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(GeneratorError, match="truncated"):
        load_weights(path)


def _saved_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("w") / "w.flvwts"
    save_weights(path, {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                        "b": np.ones(1, dtype=np.float32)}, DESC)
    return path.read_bytes()


def _load_blob(tmp_path_factory, blob):
    """load_weights on ``blob``; None or the GeneratorError it raised."""
    path = tmp_path_factory.mktemp("c") / "w.flvwts"
    path.write_bytes(blob)
    try:
        load_weights(path)
    except GeneratorError as exc:
        return exc
    return None


def test_weights_cut_at_every_length_rejected(tmp_path_factory):
    blob = _saved_blob(tmp_path_factory)
    for n in range(len(blob)):
        assert isinstance(_load_blob(tmp_path_factory, blob[:n]), GeneratorError), n
    assert _load_blob(tmp_path_factory, blob) is None


@pytest.mark.parametrize("header, match", [
    (b"\xff\xfe{}", "UTF-8 JSON"),
    (b"not json", "UTF-8 JSON"),
    (b"[1, 2]", "JSON object"),
    (b'{"format_version": 1}', "tensor list"),
    (b'{"format_version": 1, "tensors": [{"name": "a", "shape": [-1], "offset": 0}]}',
     "malformed"),
    (b'{"format_version": 1, "tensors": [{"name": "a", "shape": [1], "offset": 0}, '
     b'{"name": "a", "shape": [1], "offset": 4}]}', "twice"),
    (b'{"format_version": 1, "tensors": [], "descriptor": {"latent_dim": 8}}', "descriptor"),
])
def test_weights_bad_manifest_rejected(tmp_path, header, match):
    path = tmp_path / "w.flvwts"
    path.write_bytes(b"FLVWTS\x00\x00" + struct.pack("<I", len(header)) + header
                     + bytes(16))
    with pytest.raises(GeneratorError, match=match):
        load_weights(path)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_weights_corrupted_header_loads_or_raises_generator_error(tmp_path_factory, data):
    blob = bytearray(_saved_blob(tmp_path_factory))
    header_end = 12 + struct.unpack("<I", blob[8:12])[0]
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(8, header_end - 1))
        blob[at] = data.draw(st.integers(0, 255))
    _load_blob(tmp_path_factory, bytes(blob))  # anything else propagates
