import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cell_oracles import cells_of_region, region_of
from regionvote.grid import (
    DimensionMismatchError,
    Grid,
    Partition,
    enumerate_partitions,
    grid_to_text,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0, 3, 2, ())
    with pytest.raises(ValueError):
        Grid(2, 2, 2, (0, 1, 0))  # wrong vote count
    with pytest.raises(ValueError):
        Grid(2, 2, 2, (0, 1, 2, 0))  # candidate id out of range
    with pytest.raises(ValueError):
        Grid(2, 2, 0, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        Grid(2, 2, 2, ((0, 1), (1, 0)))  # votes must be flat


def test_votes_are_a_read_only_copy():
    source = np.array([0, 1, 1, 0])
    g = Grid(2, 2, 2, source)
    source[0] = 1
    assert g.vote_at(0, 0) == 0
    assert g.votes.dtype == np.int64
    with pytest.raises(ValueError):
        g.votes[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.votes = source


def test_tuple_list_and_array_votes_give_equal_grids():
    votes = (0, 1, 2, 2, 1, 0)
    as_tuple, as_list, as_array = (
        Grid(3, 2, 3, v) for v in (votes, list(votes), np.array(votes, dtype=np.int32))
    )
    assert as_tuple == as_list == as_array
    assert as_tuple != Grid(3, 2, 3, (0, 1, 2, 2, 1, 1))
    assert as_tuple != Grid(2, 3, 3, votes)
    assert as_tuple != Grid(3, 2, 4, votes)


def test_counts_and_vote_at_return_python_ints():
    g = Grid(3, 2, 3, np.array([0, 1, 2, 2, 1, 0]))
    assert [type(n) for n in g.counts()] == [int, int, int]
    assert type(g.vote_at(2, 0)) is int


def test_vote_addressing_is_row_major():
    g = Grid(3, 2, 3, (0, 1, 2, 2, 1, 0))
    assert g.vote_at(0, 0) == 0
    assert g.vote_at(2, 0) == 2
    assert g.vote_at(0, 1) == 2
    assert g.vote_at(2, 1) == 0
    assert grid_to_text(g) == "3 2 3\n0 1 2\n2 1 0\n"


def test_counts():
    g = Grid(2, 3, 2, (0, 0, 1, 0, 1, 1))
    assert g.counts() == (3, 3)
    assert g.n_cells == 6


grids = st.integers(1, 6).flatmap(
    lambda w: st.integers(1, 6).flatmap(
        lambda h: st.integers(1, 4).flatmap(
            lambda c: st.tuples(
                st.just(w),
                st.just(h),
                st.just(c),
                st.tuples(*[st.integers(0, c - 1) for _ in range(w * h)]),
            )
        )
    )
).map(lambda t: Grid(*t))


@given(grids)
def test_text_round_trip(g):
    header, *rows = grid_to_text(g).splitlines()
    width, height, candidates = (int(tok) for tok in header.split())
    votes = [int(tok) for row in rows for tok in row.split()]
    assert len(rows) == height and Grid(width, height, candidates, votes) == g


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(region_width=0, region_height=3)
    with pytest.raises(ValueError):
        Partition(region_width=3, region_height=3, dx=3)  # offset must stay below edge
    p = Partition.square(3)
    with pytest.raises(DimensionMismatchError):
        p.validate_for((10, 9))
    p.validate_for((9, 9))


def test_region_of_reference_partition():
    p = Partition.square(3)
    dims = (9, 6)
    assert region_of(p, dims, (0, 0)) == 0
    assert region_of(p, dims, (8, 0)) == 2
    assert region_of(p, dims, (0, 5)) == 3
    assert region_of(p, dims, (4, 4)) == 4


def test_region_of_wraps_toroidally():
    # shifting by dx moves the boundary; cells left of it wrap to the last column
    p = Partition(region_width=3, region_height=3, dx=1, dy=0)
    dims = (9, 3)
    assert region_of(p, dims, (0, 0)) == 0
    assert region_of(p, dims, (1, 0)) == 0
    assert region_of(p, dims, (2, 0)) == 1
    assert region_of(p, dims, (8, 0)) == 0  # (8+1) % 9 = 0 -> first region again


def test_enumerate_partitions_order_and_count():
    parts = enumerate_partitions(3)
    assert len(parts) == 9
    assert parts[0] == Partition(region_width=3, region_height=3, dx=0, dy=0)
    assert parts[1] == Partition(region_width=3, region_height=3, dx=0, dy=1)
    assert parts[3] == Partition(region_width=3, region_height=3, dx=1, dy=0)
    assert len({(p.dx, p.dy) for p in parts}) == 9


@given(
    st.sampled_from([2, 3, 4]),
    st.integers(0, 3),
    st.integers(0, 3),
)
@settings(max_examples=40)
def test_regions_partition_the_grid(edge, dx, dy):
    p = Partition(region_width=edge, region_height=edge, dx=dx % edge, dy=dy % edge)
    dims = (edge * 3, edge * 2)
    n = p.region_count(dims)
    seen = {}
    for y in range(dims[1]):
        for x in range(dims[0]):
            r = region_of(p, dims, (x, y))
            assert 0 <= r < n
            seen.setdefault(r, set()).add((x, y))
    assert len(seen) == n
    for r, cells in seen.items():
        assert len(cells) == edge * edge
        assert cells == set(cells_of_region(p, dims, r))


@given(st.sampled_from([2, 3, 5]), st.integers(0, 20), st.integers(0, 20))
@settings(max_examples=40)
def test_shift_periodicity(edge, x, y):
    dims = (edge * 4, edge * 4)
    for dx in range(edge):
        for dy in range(edge):
            p1 = Partition(region_width=edge, region_height=edge, dx=dx, dy=dy)
            cell = (x % dims[0], y % dims[1])
            # shifting the cell by a full region edge along x lands in the
            # horizontally adjacent region, modulo wrap
            r1 = region_of(p1, dims, cell)
            moved = ((cell[0] + edge) % dims[0], cell[1])
            r2 = region_of(p1, dims, moved)
            assert r2 // p1.region_cols(dims) == r1 // p1.region_cols(dims)


def test_rectangular_partition_region_count():
    p = Partition(region_width=5, region_height=4)
    assert p.region_count((15, 24)) == 18
    assert p.region_cols((15, 24)) == 3
    assert p.region_rows((15, 24)) == 6


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_labels_agree_with_region_of(rw, rh, cols, rows, data):
    p = Partition(rw, rh, data.draw(st.integers(0, rw - 1)), data.draw(st.integers(0, rh - 1)))
    dims = (rw * cols, rh * rows)
    labels = p.labels(dims)
    assert labels.tolist() == [
        region_of(p, dims, (x, y)) for y in range(dims[1]) for x in range(dims[0])
    ]


def test_labels_are_cached_read_only_and_validated():
    p = Partition(5, 4, dx=2, dy=1)
    labels = p.labels((15, 24))
    assert p.labels((15, 24)) is labels
    assert Partition(5, 4, dx=2, dy=1).labels((15, 24)) is labels
    with pytest.raises(ValueError):
        labels[0] = 3
    with pytest.raises(DimensionMismatchError):
        p.labels((16, 24))
