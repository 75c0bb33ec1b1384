"""Well placement and log extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluvinv.grids import GridGeometry, ModelGrid
from fluvinv.survey import (
    PlacementPolicy,
    StagePolicy,
    SurveyError,
    Well,
    WellDataset,
    extract_well_data,
    place_wells,
    read_wells_csv,
    write_wells_csv,
)

FULL = GridGeometry()  # 128x128x16 at 50 m cells
POLICY = PlacementPolicy()


def pairwise_cell_distances(locs):
    out = []
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            out.append(np.hypot(locs[i][0] - locs[j][0], locs[i][1] - locs[j][1]))
    return np.asarray(out)


def test_uniform_map_legacy_spacing():
    maps = [np.ones((128, 128))] * 3
    legacy, _ = place_wells(maps, POLICY, rng_seed=0)
    assert len(legacy) == 4
    # 1 km at 50 m cells = 20 cells
    assert pairwise_cell_distances(legacy).min() >= 20.0


def test_stage2_spacing():
    rng = np.random.default_rng(1)
    maps = [rng.random((128, 128)) for _ in range(3)]
    legacy, extras = place_wells(maps, POLICY, rng_seed=1)
    for placed in extras:
        assert len(placed) == 16
        assert pairwise_cell_distances(placed).min() >= 10.0  # 0.5 km
        for new in placed:
            for old in legacy:
                assert np.hypot(new[0] - old[0], new[1] - old[1]) >= 5.0  # 0.25 km


def test_infeasible_second_draw_rejected():
    w = np.zeros((128, 128))
    w[64, 64] = 1.0
    huge = PlacementPolicy(legacy=StagePolicy(count=2, exclusion_m=20000.0, ramp_m=30000.0))
    with pytest.raises(SurveyError, match="stage 1.*well 1"):
        place_wells([w], huge, rng_seed=0)


def test_default_policy_on_desk_grid_names_stage_radii_and_extent():
    # the 16 extra wells 500 m apart do not fit on 32x32 cells of 50 m
    with pytest.raises(SurveyError) as err:
        place_wells([np.ones((32, 32))], POLICY, rng_seed=0)
    msg = str(err.value)
    assert msg.startswith("stage 2: no feasible cell left for well 9 of 16 ")
    assert "exclusion 500 m, ramp 1000 m" in msg
    assert "32x32 grid of 50 m cells (1600 m x 1600 m)" in msg


def test_placement_deterministic():
    maps = [np.random.default_rng(2).random((128, 128)) for _ in range(3)]
    a = place_wells(maps, POLICY, rng_seed=9)
    b = place_wells(maps, POLICY, rng_seed=9)
    assert a == b


@pytest.mark.parametrize("seed", range(200))
def test_exclusion_never_violated(seed):
    rng = np.random.default_rng(1000 + seed)
    maps = [rng.random((64, 64)) for _ in range(2)]
    policy = PlacementPolicy(
        legacy=StagePolicy(count=3, exclusion_m=500.0, ramp_m=1000.0),
        extra=StagePolicy(count=5, exclusion_m=250.0, ramp_m=500.0),
        legacy_in_stage2=StagePolicy(count=0, exclusion_m=150.0, ramp_m=300.0),
    )
    legacy, extras = place_wells(maps, policy, rng_seed=seed)
    assert pairwise_cell_distances(legacy).min() * 50.0 >= 500.0
    for placed in extras:
        assert pairwise_cell_distances(placed).min() * 50.0 >= 250.0
        for new in placed:
            for old in legacy:
                assert np.hypot(new[0] - old[0], new[1] - old[1]) * 50.0 >= 150.0


def test_weighting_concentrates_wells():
    w = np.zeros((64, 64))
    w[:, 32:] = 1.0  # all weight in the right half
    policy = PlacementPolicy(
        legacy=StagePolicy(count=4, exclusion_m=200.0, ramp_m=400.0),
        extra=StagePolicy(count=0, exclusion_m=100.0, ramp_m=200.0),
    )
    hits = total = 0
    for seed in range(500):
        legacy, _ = place_wells([w], policy, rng_seed=seed)
        hits += sum(1 for ix, _ in legacy if ix >= 32)
        total += len(legacy)
    assert hits / total >= 0.9


def two_cell_map(axis, cells):
    """A 12x12 map whose only weight sits at (0, 0) and ``cells`` cells along x or y."""
    w = np.zeros((12, 12))
    w[0, 0] = 1.0
    w[(cells, 0) if axis == "y" else (0, cells)] = 1.0
    return w


@pytest.mark.parametrize("axis", ["x", "y"])
def test_cell_size_scales_the_exclusion_distance(axis):
    # two legacy wells with a 250 m exclusion fit on the two weighted cells
    # only if they are more than 250 m apart: 5 cells of 50 m, 2.5 of 100 m
    policy = PlacementPolicy(legacy=StagePolicy(count=2, exclusion_m=250.0, ramp_m=500.0),
                             extra=StagePolicy(count=0, exclusion_m=100.0, ramp_m=200.0))
    for size, exclusion_cells in ((50.0, 5.0), (100.0, 2.5)):
        geometry = GridGeometry(nx=12, ny=12, nz=1, dx=size, dy=size)
        for cells in range(1, 12):
            maps = [two_cell_map(axis, cells)]
            if cells > exclusion_cells:
                legacy, _ = place_wells(maps, policy, rng_seed=0, geometry=geometry)
                assert sorted(legacy) == sorted([(0, 0), (0, cells) if axis == "y"
                                                 else (cells, 0)])
            else:
                with pytest.raises(SurveyError, match=f"{size:g} m cells"):
                    place_wells(maps, policy, rng_seed=0, geometry=geometry)


def test_default_geometry_is_50_m_cells():
    maps = [np.random.default_rng(3).random((64, 64)) for _ in range(2)]
    policy = PlacementPolicy(legacy=StagePolicy(count=3, exclusion_m=500.0, ramp_m=1000.0),
                             extra=StagePolicy(count=4, exclusion_m=250.0, ramp_m=500.0))
    assert place_wells(maps, policy, rng_seed=4) == place_wells(
        maps, policy, rng_seed=4, geometry=GridGeometry(nx=64, ny=64, nz=3))


def test_geometry_must_match_the_maps():
    with pytest.raises(SurveyError, match=r"\(64, 32\) do not match the 64x32 grid"):
        place_wells([np.ones((64, 32))], POLICY, rng_seed=0,
                    geometry=GridGeometry(nx=64, ny=32, nz=1))


def grid_with_marker(geometry=GridGeometry(nx=16, ny=16, nz=4)):
    coarse = np.random.default_rng(0).random(geometry.shape)
    return ModelGrid(geometry, coarse, np.full(geometry.shape, 0.5))


def test_extract_exact_columns():
    grid = grid_with_marker()
    ds = extract_well_data(grid, [(3, 7), (10, 2)])
    np.testing.assert_array_equal(ds.columns[0], grid.coarse_fraction[:, 7, 3])
    np.testing.assert_array_equal(ds.columns[1], grid.coarse_fraction[:, 2, 10])


def test_extract_constant_grid():
    geometry = GridGeometry(nx=8, ny=8, nz=4)
    grid = ModelGrid(geometry, np.full(geometry.shape, 0.25), np.full(geometry.shape, 0.5))
    ds = extract_well_data(grid, [(0, 0), (7, 7)])
    assert np.all(ds.columns == 0.25)


def test_observation_count():
    geometry = GridGeometry(nx=64, ny=64, nz=16)
    grid = ModelGrid(geometry, np.full(geometry.shape, 0.5), np.full(geometry.shape, 0.5))
    locs = [(i, i) for i in range(20)]
    ds = extract_well_data(grid, locs)
    assert ds.columns.size == 320


def test_extract_out_of_bounds_rejected():
    with pytest.raises(SurveyError, match="out of bounds"):
        extract_well_data(grid_with_marker(), [(16, 0)])


def test_flat_cell_indices_pick_column_values():
    grid = grid_with_marker()
    ds = extract_well_data(grid, [(5, 9)])
    np.testing.assert_array_equal(grid.coarse_fraction.reshape(-1)[ds.flat_cell_indices()],
                                  ds.columns[0])


def test_wells_csv_roundtrip(tmp_path):
    grid = grid_with_marker()
    ds = extract_well_data(grid, [(1, 2), (12, 13)])
    path = tmp_path / "wells.csv"
    write_wells_csv(path, ds)
    header = path.read_text().splitlines()[0]
    assert header == "well_id,ix,iy,iz,coarse_fraction"
    back = read_wells_csv(path, grid.geometry)
    assert [w.well_id for w in back.wells] == [w.well_id for w in ds.wells]
    np.testing.assert_array_equal(back.columns, ds.columns)


def write_rows(path, rows):
    lines = ["well_id,ix,iy,iz,coarse_fraction"] + [",".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_wells_csv_rejects_a_repeated_layer(tmp_path):
    path = tmp_path / "wells.csv"
    write_rows(path, [("W00", 1, 2, 0, 0.5), ("W00", 1, 2, 1, 0.25), ("W00", 1, 2, 1, 0.75)])
    with pytest.raises(SurveyError, match="well W00: layer 1 given twice"):
        read_wells_csv(path, GridGeometry(nx=4, ny=4, nz=2))


def test_wells_csv_rejects_a_moving_well(tmp_path):
    path = tmp_path / "wells.csv"
    write_rows(path, [("W00", 1, 2, 0, 0.5), ("W00", 1, 3, 1, 0.25)])
    with pytest.raises(SurveyError, match=r"well W00: at \(1, 2\) and at \(1, 3\)"):
        read_wells_csv(path, GridGeometry(nx=4, ny=4, nz=2))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_wells_csv_round_trip_is_exact(tmp_path_factory, data):
    geometry = GridGeometry(nx=6, ny=5, nz=data.draw(st.integers(1, 4)))
    n = data.draw(st.integers(0, 5))
    locations = [(data.draw(st.integers(0, 5)), data.draw(st.integers(0, 4))) for _ in range(n)]
    values = st.floats(0.0, 1.0, allow_subnormal=True)
    columns = np.array([[data.draw(values) for _ in range(geometry.nz)] for _ in range(n)],
                       dtype=np.float64).reshape(n, geometry.nz)
    wells = [Well(f"W{i:02d}", ix, iy) for i, (ix, iy) in enumerate(locations)]
    ds = WellDataset(geometry, wells, columns)
    path = tmp_path_factory.mktemp("wells") / "wells.csv"
    write_wells_csv(path, ds)
    back = read_wells_csv(path, geometry)
    assert back.wells == ds.wells
    assert back.columns.tobytes() == ds.columns.tobytes()


@st.composite
def stage_policies(draw, max_count):
    exclusion = draw(st.floats(1.0, 600.0))
    return StagePolicy(count=draw(st.integers(0, max_count)), exclusion_m=exclusion,
                       ramp_m=exclusion + draw(st.floats(1.0, 600.0)))


def _metres(a, b, geometry):
    return np.hypot((a[0] - b[0]) * geometry.dx, (a[1] - b[1]) * geometry.dy)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_placed_wells_respect_every_exclusion_radius(data):
    cell = data.draw(st.sampled_from([25.0, 50.0, 100.0]))
    geometry = GridGeometry(nx=data.draw(st.integers(4, 20)), ny=data.draw(st.integers(4, 20)),
                            nz=1, dx=cell, dy=cell)
    policy = PlacementPolicy(legacy=data.draw(stage_policies(5)),
                             extra=data.draw(stage_policies(6)),
                             legacy_in_stage2=data.draw(stage_policies(0)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    maps = [rng.uniform(0.0, 1.0, (geometry.ny, geometry.nx))
            * (rng.uniform(size=(geometry.ny, geometry.nx)) < 0.8)
            for _ in range(data.draw(st.integers(1, 2)))]
    try:
        legacy, extras = place_wells(maps, policy, rng_seed=data.draw(st.integers(0, 99)),
                                     geometry=geometry)
    except SurveyError as exc:
        assert "no feasible cell left" in str(exc)
        return
    # a policy that cannot be met raises; it never returns fewer wells
    assert len(legacy) == policy.legacy.count
    assert [len(e) for e in extras] == [policy.extra.count] * len(maps)
    for i, a in enumerate(legacy):
        for b in legacy[i + 1:]:
            assert _metres(a, b, geometry) >= policy.legacy.exclusion_m
    for placed, m in zip(extras, maps):
        for i, a in enumerate(placed):
            assert m[a[1], a[0]] > 0
            for b in placed[i + 1:]:
                assert _metres(a, b, geometry) >= policy.extra.exclusion_m
            for b in legacy:
                assert _metres(a, b, geometry) >= policy.legacy_in_stage2.exclusion_m


def test_infeasible_policy_raises_instead_of_placing_fewer_wells():
    # five wells 500 m apart cannot fit on a 400 m x 400 m grid
    geometry = GridGeometry(nx=8, ny=8, nz=1)
    policy = PlacementPolicy(legacy=StagePolicy(count=5, exclusion_m=500.0, ramp_m=600.0))
    with pytest.raises(SurveyError, match="stage 1: no feasible cell left"):
        place_wells([np.ones((8, 8))], policy, rng_seed=0, geometry=geometry)
