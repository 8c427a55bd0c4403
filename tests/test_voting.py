import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cell_oracles import region_of
from regionvote.grid import Grid, Partition
from regionvote.voting import (
    RegionalTally,
    _sole_leaders,
    plurality_winner,
    region_counts,
    tally_global,
    tally_regional,
    winners,
)


def test_plurality_strictness():
    assert plurality_winner([3, 1]) == 0
    assert plurality_winner([1, 3]) == 1
    assert plurality_winner([2, 2]) is None
    assert plurality_winner([2, 2, 1]) is None
    assert plurality_winner([0, 0]) is None
    assert plurality_winner([5]) == 0


def test_global_tally():
    g = Grid(3, 2, 2, (0, 0, 0, 1, 1, 0))
    t = tally_global(g)
    assert t.counts == (4, 2)
    assert t.winner == 0


def test_global_tie_has_no_winner():
    g = Grid(2, 2, 2, (0, 0, 1, 1))
    assert tally_global(g).winner is None


def test_regional_tally_small():
    # two 2x2 regions: left all A, right 3 B / 1 A
    g = Grid(4, 2, 2, (0, 0, 1, 1, 0, 0, 0, 1))
    t = tally_regional(g, Partition.square(2))
    assert t.region_winners == (0, 1)
    assert t.regions_won == (1, 1)
    assert t.winner is None  # one region each


def test_regional_winner_differs_from_global():
    # B holds a heavy block in one region, A takes the other two narrowly
    votes = (
        0, 0, 1, 1, 0, 0,
        0, 1, 1, 1, 1, 0,
    )
    g = Grid(6, 2, 2, votes)
    p = Partition(region_width=2, region_height=2)
    t = tally_regional(g, p)
    assert tally_global(g).winner is None  # 6 vs 6
    assert t.region_winners == (0, 1, 0)
    assert t.winner == 0


def test_region_tie_counts_for_nobody():
    g = Grid(2, 2, 2, (0, 1, 1, 0))
    t = tally_regional(g, Partition.square(2))
    assert t.region_winners == (None,)
    assert t.tie_regions == 1
    assert t.winner is None


def test_shifted_partition_changes_regions():
    votes = (
        0, 0, 0, 1,
        0, 0, 0, 1,
        1, 1, 1, 1,
        1, 1, 1, 1,
    )
    g = Grid(4, 4, 2, votes)
    ref = tally_regional(g, Partition.square(2))
    shifted = tally_regional(g, Partition(region_width=2, region_height=2, dx=1, dy=1))
    assert ref.regions_won != shifted.regions_won or ref.region_winners != shifted.region_winners


def test_multicandidate_result_shape():
    g = Grid(4, 4, 3, tuple([0, 1, 2, 0] * 4))
    national = tally_global(g)
    assert national.counts == (8, 4, 4)
    assert national.winner == 0
    tally = tally_regional(g, Partition.square(2))
    # every 2x2 region splits 2-2 between candidate 0 and a rival
    assert tally.region_winners == (None,) * 4
    assert tally.regions_won == (0, 0, 0)
    assert tally.tie_regions == 4
    assert tally.winner is None


@given(
    st.integers(2, 4).flatmap(
        lambda c: st.tuples(
            st.lists(st.integers(0, c - 1), min_size=16, max_size=16),
            st.permutations(list(range(c))),
        )
    )
)
@settings(max_examples=60)
def test_relabeling_equivariance(data):
    votes, perm = data
    c = len(perm)
    g = Grid(4, 4, c, tuple(votes))
    relabeled = Grid(4, 4, c, tuple(perm[v] for v in votes))
    t1 = tally_global(g)
    t2 = tally_global(relabeled)
    for label in range(c):
        assert t2.counts[perm[label]] == t1.counts[label]
    assert t2.winner == (None if t1.winner is None else perm[t1.winner])
    r1 = tally_regional(g, Partition.square(2))
    r2 = tally_regional(relabeled, Partition.square(2))
    assert r2.winner == (None if r1.winner is None else perm[r1.winner])
    assert r2.tie_regions == r1.tie_regions


def test_tally_rejects_mismatched_partition():
    g = Grid(4, 4, 2, (0,) * 16)
    with pytest.raises(Exception):
        tally_regional(g, Partition.square(3))


def reference_tally_regional(grid, partition):
    """The per-cell tally: route every cell through region_of, then count."""
    dims = (grid.width, grid.height)
    partition.validate_for(dims)
    per_region = [[0] * grid.candidate_count for _ in range(partition.region_count(dims))]
    for y in range(grid.height):
        for x in range(grid.width):
            per_region[region_of(partition, dims, (x, y))][grid.votes[y * grid.width + x]] += 1
    region_winners = tuple(plurality_winner(c) for c in per_region)
    regions_won = [0] * grid.candidate_count
    for w in region_winners:
        if w is not None:
            regions_won[w] += 1
    return RegionalTally(
        partition=partition,
        region_winners=region_winners,
        regions_won=tuple(regions_won),
        tie_regions=region_winners.count(None),
        winner=plurality_winner(regions_won),
    )


@st.composite
def grids_and_partitions(draw):
    rw, rh = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cols, rows = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    candidates = draw(st.integers(1, 3))
    width, height = rw * cols, rh * rows
    votes = draw(st.lists(st.integers(0, candidates - 1), min_size=width * height,
                          max_size=width * height))
    partition = Partition(rw, rh, draw(st.integers(0, rw - 1)), draw(st.integers(0, rh - 1)))
    return Grid(width, height, candidates, tuple(votes)), partition


@given(grids_and_partitions())
@settings(max_examples=300, deadline=None)
def test_tally_regional_matches_per_cell_reference(case):
    grid, partition = case
    assert tally_regional(grid, partition) == reference_tally_regional(grid, partition)


def test_tally_regional_counts_ties_at_both_levels():
    # 2x1 regions: (0,1) ties, (0,0) to 0, (1,1) to 1, (2,2) to 2, (1,2) ties
    grid = Grid(10, 1, 3, (0, 1, 0, 0, 1, 1, 2, 2, 1, 2))
    tally = tally_regional(grid, Partition(2, 1))
    assert tally == reference_tally_regional(grid, Partition(2, 1))
    assert tally.region_winners == (None, 0, 1, 2, None)
    assert tally.regions_won == (1, 1, 1) and tally.tie_regions == 2
    assert tally.winner is None
    shifted = tally_regional(grid, Partition(2, 1, dx=1))
    assert shifted == reference_tally_regional(grid, Partition(2, 1, dx=1))


@st.composite
def vote_rows_and_shifts(draw):
    """Rows of votes on one grid, and shifts of one rectangular partition."""
    rw, rh = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    width, height = rw * draw(st.integers(1, 4)), rh * draw(st.integers(1, 4))
    candidates = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 3))
    votes = draw(st.lists(st.integers(0, candidates - 1), min_size=n_rows * width * height,
                          max_size=n_rows * width * height))
    shifts = draw(st.lists(st.tuples(st.integers(0, rw - 1), st.integers(0, rh - 1)),
                           min_size=1, max_size=4))
    partitions = [Partition(rw, rh, dx, dy) for dx, dy in shifts]
    return (width, height), candidates, np.array(votes).reshape(n_rows, -1), partitions


def every_region_ties(partition, dims):
    """Votes alternating 0, 1 within each region: an even-area region ties."""
    labels = partition.labels(dims)
    row = np.zeros(labels.size, dtype=np.int64)
    for region in range(partition.region_count(dims)):
        cells = np.flatnonzero(labels == region)
        row[cells] = np.arange(cells.size) % 2
    return row


@given(vote_rows_and_shifts())
@settings(max_examples=100, deadline=None)
def test_kernel_matches_per_cell_reference_in_both_broadcasts(case):
    dims, candidates, votes, partitions = case
    first = partitions[0]
    n_regions = first.region_count(dims)
    tie_row = candidates > 1 and first.region_width * first.region_height % 2 == 0
    if tie_row:
        votes = np.vstack([votes, every_region_ties(first, dims)])
    # many vote rows under one label row, then one vote row under each shift's labels
    many_votes = region_counts(votes, first.labels(dims), n_regions, candidates)
    labels = np.array([p.labels(dims) for p in partitions])
    many_shifts = region_counts(votes[-1], labels, n_regions, candidates)
    assert many_votes.shape == (candidates, len(votes), n_regions)
    assert many_shifts.shape == (candidates, len(partitions), n_regions)
    if tie_row:
        assert not _sole_leaders(many_votes)[:, -1].any() and winners(many_votes)[-1] == -1
    cases = [(row, first) for row in votes] + [(votes[-1], p) for p in partitions]
    counts = np.concatenate([many_votes, many_shifts], axis=1)
    won = _sole_leaders(counts).sum(axis=2).T
    for (row, partition), row_won, winner in zip(cases, won, winners(counts)):
        ref = reference_tally_regional(Grid(*dims, candidates, row), partition)
        assert winner == (-1 if ref.winner is None else ref.winner)
        assert tuple(row_won.tolist()) == ref.regions_won
