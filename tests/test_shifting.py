import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cell_oracles import scan_contaminated
from regionvote.bounds import best_shift_ratio_ceiling, fixed_partition_ratio_ceiling
from regionvote.grid import Partition, enumerate_partitions
from regionvote import shifting
from regionvote.noise import BlockNoiseSpec, PlacementInfeasibleError, random_anchor_placement
from regionvote.shifting import (
    contaminated_counts,
    fewest_contaminated,
    shift_histogram,
    sweep_partitions,
    sweep_to_csv,
    touched_regions,
)


def single_block(edge, anchor=(0, 0)):
    return BlockNoiseSpec(block_edge=edge, anchors=(anchor,), target=0, flip_to=1)


def anchor_arrays(spec):
    return np.array(spec.anchors, dtype=np.int64).reshape(-1, 2).T


def contaminated_ids(dims, partition, spec):
    """The regions spec's blocks touch under one partition, via touched_regions."""
    ids = touched_regions(
        dims, partition.region_width, partition.region_height,
        np.array([partition.dx]), np.array([partition.dy]), *anchor_arrays(spec), spec.block_edge,
    )
    return frozenset(ids[0].tolist())


@given(
    st.integers(1, 6),
    st.sampled_from([2, 3, 4, 6]),
    st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_geometric_contamination_matches_cell_scan(noise_edge, region_edge, seed):
    dims = (24, 24)
    spec = random_anchor_placement(dims, noise_edge, 3, seed=seed)
    for partition in enumerate_partitions(region_edge):
        geometric = contaminated_ids(dims, partition, spec)
        assert geometric == scan_contaminated(dims, partition, spec)


@pytest.mark.parametrize("region", [(3, 3), (4, 2), (2, 5)])
@pytest.mark.parametrize("relation", ["below", "equal", "above"])
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 3), blocks=st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_touched_regions_match_cell_scan(region, relation, seed, extra, blocks):
    # every shift of square and rectangular partitions, block edges below,
    # equal to and above the region edge, and zero blocks
    rw, rh = region
    short, long = min(rw, rh), max(rw, rh)
    edge = {"below": max(1, short - 1 - extra), "equal": short, "above": long + 1 + extra}[relation]
    dims = (6 * rw, 4 * rh)
    try:
        spec = random_anchor_placement(dims, edge, blocks, seed=seed)
    except PlacementInfeasibleError:
        assume(False)
    ax, ay = anchor_arrays(spec)
    dx, dy = np.divmod(np.arange(rw * rh), rh)
    ids = touched_regions(dims, rw, rh, dx, dy, ax, ay, edge)
    pieces = [-(-(edge - 1) // e) + 1 for e in (rw, rh)]  # ceil((edge - 1) / e) + 1 per axis
    assert ids.shape == (rw * rh, len(spec.anchors) * pieces[0] * pieces[1])
    for row, sx, sy in zip(ids.tolist(), dx.tolist(), dy.tolist()):
        assert set(row) == scan_contaminated(dims, Partition(rw, rh, sx, sy), spec)
    if rw == rh:
        counts = contaminated_counts(dims, rw, ax, ay, edge)
        scans = [len(scan_contaminated(dims, p, spec)) for p in enumerate_partitions(rw)]
        assert counts.tolist() == scans


@pytest.mark.parametrize("relation", ["below", "equal", "above"])
@given(seed=st.integers(0, 2**32 - 1), blocks=st.lists(st.integers(0, 4), min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_one_shift_chunks_count_alike(relation, seed, blocks):
    # a 1-byte cap counts every shift in its own chunk; one spec, and each
    # trial's blocks tagged in one call, count as the whole-array kernel does
    region_edge = 4
    edge = {"below": 2, "equal": region_edge, "above": region_edge + 3}[relation]
    dims = (5 * region_edge, 3 * region_edge)
    try:
        specs = [random_anchor_placement(dims, edge, b, seed=seed + t) for t, b in enumerate(blocks)]
    except PlacementInfeasibleError:
        assume(False)
    arrays = [anchor_arrays(spec) for spec in specs]
    ax, ay = np.concatenate(arrays, axis=1)
    trial = np.repeat(np.arange(len(blocks)), blocks)
    singles = [contaminated_counts(dims, region_edge, *xy, edge) for xy in arrays]
    tagged = contaminated_counts(dims, region_edge, ax, ay, edge, trial, len(blocks))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shifting, "_SUB_BATCH_BYTES", 1)
        for xy, single in zip(arrays, singles):
            assert contaminated_counts(dims, region_edge, *xy, edge).tolist() == single.tolist()
        split = contaminated_counts(dims, region_edge, ax, ay, edge, trial, len(blocks))
    assert split.tolist() == tagged.tolist() == [single.tolist() for single in singles]


@pytest.mark.parametrize("region_edge", [12, 40, 120])
def test_contaminated_counts_memory_stays_flat(region_edge):
    # 200 3x3 blocks under up to 14,400 shifts: the whole (shifts, ids) array
    # would take about 92 MB at region edge 120
    dims = (120, 120)
    ax, ay = anchor_arrays(random_anchor_placement(dims, 3, 200, seed=0))
    tracemalloc.start()
    try:
        contaminated_counts(dims, region_edge, ax, ay, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_zero_blocks_touch_nothing_and_pick_shift_zero():
    dims = (12, 12)
    spec = BlockNoiseSpec(block_edge=5, anchors=(), target=0, flip_to=1)
    reports = sweep_partitions(dims, 4, spec)
    assert [r.contaminated_regions for r in reports] == [0] * 16
    assert fewest_contaminated(reports).partition == Partition.square(4)
    assert contaminated_ids(dims, Partition(4, 3, 1, 2), spec) == frozenset()


def test_contamination_report_fields():
    dims = (48, 48)
    spec = single_block(5, (10, 7))
    report = sweep_partitions(dims, 8, spec)[0]
    assert report.partition == enumerate_partitions(8)[0]
    assert report.contaminated_regions == len(contaminated_ids(dims, report.partition, spec))
    assert report.concentrated_area == 25
    assert report.contaminated_area == report.contaminated_regions * 64
    assert report.ratio == Fraction(report.contaminated_area, 25)
    assert report.slack == report.contaminated_area - 25


def test_single_block_shift_histogram_five_eight():
    dims = (48, 48)
    spec = single_block(5, (13, 22))
    reports = sweep_partitions(dims, 8, spec)
    assert len(reports) == 64
    hist = shift_histogram(reports)
    assert hist == {1: 16, 2: 32, 4: 16}
    assert sum(k * v for k, v in hist.items()) == (5 + 8 - 1) ** 2


@given(st.integers(1, 7), st.sampled_from([2, 3, 4, 6]), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_single_block_contamination_sums_to_square(noise_edge, region_edge, seed):
    # summed over all shifts, one block touches (noise_edge + region_edge - 1)^2 regions
    dims = (region_edge * 8, region_edge * 8)
    spec = random_anchor_placement(dims, noise_edge, 1, seed=seed)
    reports = sweep_partitions(dims, region_edge, spec)
    total = sum(r.contaminated_regions for r in reports)
    assert total == (noise_edge + region_edge - 1) ** 2


def test_best_partition_is_minimal_and_lex_first():
    dims = (48, 48)
    spec = BlockNoiseSpec(
        block_edge=5, anchors=((3, 3), (20, 11), (37, 30)), target=0, flip_to=1
    )
    reports = sweep_partitions(dims, 8, spec)
    best = fewest_contaminated(reports)
    # the chooser scheme_winner and the block searches use
    touched = contaminated_counts(dims, 8, *anchor_arrays(spec), 5)
    assert enumerate_partitions(8)[touched.argmin()] == best.partition
    fewest = min(r.contaminated_regions for r in reports)
    assert best.contaminated_regions == fewest
    ties = [
        r for r in reports if r.contaminated_regions == fewest
    ]
    assert (best.partition.dx, best.partition.dy) == min(
        (r.partition.dx, r.partition.dy) for r in ties
    )


@given(st.integers(1, 6), st.sampled_from([2, 3, 4, 6]), st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_ratio_ceilings_hold_on_random_specs(noise_edge, region_edge, seed):
    dims = (24, 24)
    spec = random_anchor_placement(dims, noise_edge, 2, seed=seed)
    reports = sweep_partitions(dims, region_edge, spec)
    fixed_cap = fixed_partition_ratio_ceiling(noise_edge, region_edge)
    for report in reports:
        assert report.ratio <= fixed_cap
    best = min(r.ratio for r in reports)
    assert best <= best_shift_ratio_ceiling(noise_edge, region_edge)


def test_sweep_csv_shape():
    dims = (16, 16)
    spec = single_block(3, (2, 5))
    reports = sweep_partitions(dims, 4, spec)
    lines = sweep_to_csv(reports).strip().splitlines()
    assert lines[0] == "dx,dy,contaminated_regions,contaminated_area,concentrated_area,ratio"
    assert len(lines) == 1 + 16
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"


def test_sweep_rejects_incompatible_region_edge():
    dims = (10, 10)
    with pytest.raises(Exception):
        sweep_partitions(dims, 3, single_block(2))
