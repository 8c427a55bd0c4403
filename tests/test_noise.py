import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from regionvote.grid import Grid
from regionvote.noise import (
    BlockNoiseSpec,
    BlockOverlapError,
    NoiseArea,
    PlacementInfeasibleError,
    _place_disjoint_blocks,
    _sample_disjoint_anchors,
    apply_block_noise,
    block_capacity,
    pack_blocks,
    random_anchor_placement,
)


def all_a_grid(w, h):
    return Grid(w, h, 2, (0,) * (w * h))


def test_block_spec_rejects_overlap():
    with pytest.raises(BlockOverlapError):
        BlockNoiseSpec(block_edge=3, anchors=((0, 0), (2, 2)), target=0, flip_to=1)
    # corner contact at distance exactly edge is fine
    BlockNoiseSpec(block_edge=3, anchors=((0, 0), (3, 3)), target=0, flip_to=1)


def first_overlap(anchors, edge):
    """The pair loop the spec constructor once ran: first (i, j > i) hit."""
    for i, (ax, ay) in enumerate(anchors):
        for bx, by in anchors[i + 1 :]:
            if abs(ax - bx) < edge and abs(ay - by) < edge:
                return f"blocks at ({ax}, {ay}) and ({bx}, {by}) overlap"
    return None


def overlap_message(anchors, edge):
    try:
        BlockNoiseSpec(block_edge=edge, anchors=anchors, target=0, flip_to=1)
    except BlockOverlapError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "anchors, edge, expected",
    [
        # (10, 10)-(12, 11) also overlap, but (0, 0)'s row comes first
        (((0, 0), (10, 10), (12, 11), (1, 1)), 3, "blocks at (0, 0) and (1, 1) overlap"),
        # row 1 holds the first pair although (3, 3) meets (0, 0)'s block too
        (((9, 9), (0, 0), (20, 0), (1, 2), (2, 1)), 3, "blocks at (0, 0) and (1, 2) overlap"),
        (((5, 5), (8, 5), (7, 7)), 3, "blocks at (5, 5) and (7, 7) overlap"),
        (((4, 4), (4, 4)), 1, "blocks at (4, 4) and (4, 4) overlap"),
        (((0, 0), (3, 0), (0, 3), (3, 3)), 3, None),
    ],
)
def test_block_overlap_reports_the_first_pair_in_loop_order(anchors, edge, expected):
    assert overlap_message(anchors, edge) == expected == first_overlap(anchors, edge)


def test_block_overlap_first_pair_across_row_chunks():
    # 1500 blocks are compared in chunks of 699 rows. Block 1100 meets
    # block 50 (rows in chunks 0 and 1) and block 1450 meets block 1000
    # (rows in chunks 1 and 2); the lower first row wins each time.
    anchors = [(3 * k, 0) for k in range(1500)]
    anchors[1450] = (3001, 1)
    anchors[1100] = (150, 1)
    assert overlap_message(anchors, 2) == first_overlap(anchors, 2)
    assert overlap_message(anchors, 2) == "blocks at (150, 0) and (150, 1) overlap"
    anchors[1100] = (3 * 1100, 0)
    assert overlap_message(anchors, 2) == first_overlap(anchors, 2)
    assert overlap_message(anchors, 2) == "blocks at (3000, 0) and (3001, 1) overlap"


@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=12),
    st.integers(1, 4),
)
@settings(max_examples=300, deadline=None)
def test_block_overlap_matches_the_pair_loop(anchors, edge):
    assert overlap_message(anchors, edge) == first_overlap(anchors, edge)


def test_block_overlap_check_is_not_quadratic():
    # 40,000 disjoint 2x2 blocks, then one meeting the first block: a pair
    # loop would compare 8e8 pairs; the bucket check stays near linear.
    anchors = [(2 * (k % 200), 2 * (k // 200)) for k in range(40_000)] + [(1, 1)]
    assert overlap_message(anchors, 2) == "blocks at (0, 0) and (1, 1) overlap"
    assert overlap_message(anchors[:-1], 2) is None


def test_block_spec_rejects_bad_fields():
    with pytest.raises(ValueError):
        BlockNoiseSpec(block_edge=0, anchors=(), target=0, flip_to=1)
    with pytest.raises(ValueError):
        BlockNoiseSpec(block_edge=2, anchors=(), target=1, flip_to=1)
    with pytest.raises(ValueError):
        BlockNoiseSpec(block_edge=2, anchors=(), target=0, flip_to=1, flip_probability=1.5)


def test_block_spec_bounds_check():
    spec = BlockNoiseSpec(block_edge=3, anchors=((4, 0),), target=0, flip_to=1)
    with pytest.raises(ValueError):
        spec.validate_bounds((6, 6))
    spec.validate_bounds((7, 6))


def test_certain_block_noise_flips_every_target_cell():
    g = all_a_grid(6, 6)
    spec = BlockNoiseSpec(block_edge=2, anchors=((1, 1), (4, 4)), target=0, flip_to=1)
    noisy, report = apply_block_noise(g, spec)
    assert report.flipped_cells == 8
    assert report.concentrated_area == 8
    flipped = {
        (x, y)
        for y in range(6)
        for x in range(6)
        if noisy.vote_at(x, y) == 1
    }
    assert flipped == {(1, 1), (2, 1), (1, 2), (2, 2), (4, 4), (5, 4), (4, 5), (5, 5)}


def test_block_noise_skips_non_target_cells():
    votes = [0] * 36
    votes[7] = 1  # (1, 1) already belongs to the rival
    g = Grid(6, 6, 2, tuple(votes))
    spec = BlockNoiseSpec(block_edge=2, anchors=((1, 1),), target=0, flip_to=1)
    noisy, report = apply_block_noise(g, spec)
    assert report.flipped_cells == 3
    assert noisy.counts() == (32, 4)


def test_partial_noise_needs_a_seed():
    g = all_a_grid(4, 4)
    spec = BlockNoiseSpec(block_edge=2, anchors=((0, 0),), target=0, flip_to=1, flip_probability=0.5)
    with pytest.raises(ValueError):
        apply_block_noise(g, spec)


def test_partial_noise_is_reproducible_and_subset():
    g = all_a_grid(10, 10)
    spec = BlockNoiseSpec(
        block_edge=4, anchors=((0, 0), (5, 5)), target=0, flip_to=1, flip_probability=0.6
    )
    noisy1, rep1 = apply_block_noise(g, spec, seed=42)
    noisy2, rep2 = apply_block_noise(g, spec, seed=42)
    assert noisy1 == noisy2
    assert rep1.flipped_cells == rep2.flipped_cells
    block_cells = set(spec.cells())
    for y in range(10):
        for x in range(10):
            if noisy1.vote_at(x, y) == 1:
                assert (x, y) in block_cells
    # spec-level seed works the same way
    spec2 = BlockNoiseSpec(
        block_edge=4, anchors=((0, 0), (5, 5)), target=0, flip_to=1,
        flip_probability=0.6, seed=42,
    )
    noisy3, _ = apply_block_noise(g, spec2)
    assert noisy3 == noisy1


def test_partial_noise_flip_count_is_binomial_scale():
    # 0.3 of 128 block cells; a 6-sigma band keeps this deterministic test honest
    g = all_a_grid(32, 16)
    anchors = tuple((x * 8, 0) for x in range(4)) + tuple((x * 8, 8) for x in range(4))
    spec = BlockNoiseSpec(
        block_edge=4, anchors=anchors, target=0, flip_to=1, flip_probability=0.3
    )
    n = 16 * len(anchors)
    mean = 0.3 * n
    sigma = math.sqrt(n * 0.3 * 0.7)
    _, rep = apply_block_noise(g, spec, seed=7)
    assert abs(rep.flipped_cells - mean) < 6 * sigma


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_block_noise_conserves_total_votes(seed):
    g = Grid(8, 8, 2, tuple((i * 7 + 3) % 2 for i in range(64)))
    spec = BlockNoiseSpec(
        block_edge=3, anchors=((0, 0), (4, 4)), target=0, flip_to=1, flip_probability=0.5
    )
    noisy, rep = apply_block_noise(g, spec, seed=seed)
    a0, b0 = g.counts()
    a1, b1 = noisy.counts()
    assert a1 == a0 - rep.flipped_cells
    assert b1 == b0 + rep.flipped_cells


def reference_block_noise(grid, spec, seed):
    """The per-cell loop: one draw per target cell, in spec.cells() order."""
    rng = np.random.default_rng(seed)
    votes = list(grid.votes)
    for x, y in spec.cells():
        idx = y * grid.width + x
        if votes[idx] == spec.target and (
            spec.flip_probability >= 1.0 or rng.random() < spec.flip_probability
        ):
            votes[idx] = spec.flip_to
    return grid.replace_votes(tuple(votes))


def test_noise_matches_per_cell_reference():
    for seed in range(300):
        rng = np.random.default_rng(seed)
        width, height = (int(v) for v in rng.integers(3, 13, 2))
        candidates = int(rng.integers(2, 4))
        rate = float(rng.choice([0.0, 0.3, 0.5, 1.0]))
        votes = rng.integers(0, candidates, width * height).tolist()
        grid = Grid(width, height, candidates, tuple(votes))
        edge = int(rng.integers(1, 4))
        try:
            spec = random_anchor_placement(
                (width, height), edge, int(rng.integers(0, 5)), seed=seed, target=1,
                flip_to=0, flip_probability=rate,
            )
        except PlacementInfeasibleError:
            spec = BlockNoiseSpec(edge, (), 1, 0, rate)
        noisy, report = apply_block_noise(grid, spec, seed=seed)
        assert noisy == reference_block_noise(grid, spec, seed), seed
        assert report.flipped_cells == sum(a != b for a, b in zip(grid.votes, noisy.votes))


def test_random_anchor_placement_disjoint_and_in_bounds():
    spec = random_anchor_placement((20, 20), 4, 6, seed=3)
    assert len(spec.anchors) == 6
    spec.validate_bounds((20, 20))
    # disjointness is enforced by the spec constructor; re-run for determinism
    assert random_anchor_placement((20, 20), 4, 6, seed=3).anchors == spec.anchors


def test_random_anchor_placement_infeasible():
    with pytest.raises(PlacementInfeasibleError):
        random_anchor_placement((6, 6), 4, 3, seed=0)


def test_placement_follows_random_sequential_adsorption_law():
    # 4x4 anchor lattice, edge 2, two blocks: the first anchor is uniform
    # over 16 and the second uniform over the anchors it leaves free, so
    # P(a1, a2) = 1/16 * 1/free(a1).
    lattice = [(x, y) for y in range(4) for x in range(4)]
    cells = [
        (a, b)
        for a in lattice
        for b in lattice
        if abs(a[0] - b[0]) >= 2 or abs(a[1] - b[1]) >= 2
    ]
    free = {a: sum(1 for p, _ in cells if p == a) for a in lattice}
    expected = np.array([1 / (16 * free[a]) for a, _ in cells])
    assert expected.sum() == pytest.approx(1.0)
    index = {pair: i for i, pair in enumerate(cells)}
    rng = np.random.default_rng(2024)
    draws = 30_000
    observed = np.zeros(len(cells))
    for _ in range(draws):
        ax, ay = _sample_disjoint_anchors(rng, (5, 5), 2, 2)
        observed[index[((int(ax[0]), int(ay[0])), (int(ax[1]), int(ay[1])))]] += 1
    assert chisquare(observed, expected * draws).pvalue > 0.001


def test_lockstep_placement_follows_random_sequential_adsorption_law():
    # the same law as above, all 30,000 trials placed in one lockstep call
    lattice = [(x, y) for y in range(4) for x in range(4)]
    cells = [
        (a, b)
        for a in lattice
        for b in lattice
        if abs(a[0] - b[0]) >= 2 or abs(a[1] - b[1]) >= 2
    ]
    free = {a: sum(1 for p, _ in cells if p == a) for a in lattice}
    expected = np.array([1 / (16 * free[a]) for a, _ in cells])
    draws = 30_000
    x, y, placed = _place_disjoint_blocks(
        np.random.default_rng(2025), (5, 5), 2, np.full(draws, 2)
    )
    assert (placed == 2).all()
    pair = (x[:, 0] + 4 * y[:, 0]) * 16 + x[:, 1] + 4 * y[:, 1]
    index = np.array([(a[0] + 4 * a[1]) * 16 + b[0] + 4 * b[1] for a, b in cells])
    observed = (pair[:, None] == index).sum(axis=0)
    assert observed.sum() == draws  # every placement is one of the disjoint pairs
    assert chisquare(observed, expected * draws).pvalue > 0.001


def _exact_success(n, free, blocks, tries, edge):
    """P(placing `blocks` more blocks on a row of n anchors), t tries each.

    A block is placed with probability 1 - (1 - |free| / n) ** t, then
    lands uniformly on a free anchor and blocks every anchor within edge.
    """
    if blocks == 0:
        return 1.0
    if not free:
        return 0.0
    placed = 1 - (1 - len(free) / n) ** tries
    rest = sum(
        _exact_success(n, frozenset(b for b in free if abs(b - a) >= edge), blocks - 1, tries, edge)
        for a in free
    )
    return placed * rest / len(free)


def test_retry_budget_is_per_block_and_sequential():
    # 9x2 grid, edge 2: eight anchors on one row and four blocks, which
    # fit in only five ways. The budget of t tries starts afresh for every
    # block, whichever batch its tries fall in.
    n = 4000
    rng = np.random.default_rng(7)
    for tries in (1, 2, 3, 5, 200):
        ok = 0
        for _ in range(n):
            try:
                _sample_disjoint_anchors(rng, (9, 2), 2, 4, max_tries_per_block=tries)
                ok += 1
            except PlacementInfeasibleError:
                pass
        p = _exact_success(8, frozenset(range(8)), 4, tries, 2)
        assert abs(ok - n * p) < 5 * math.sqrt(n * p * (1 - p)), (tries, ok, n * p)
    with pytest.raises(PlacementInfeasibleError, match="after 200 tries"):
        random_anchor_placement((3, 3), 2, 2, seed=0)


def test_lockstep_retry_budget_with_mixed_counts():
    # the 9x2 row again, 4,000 trials per budget in one call each, with
    # block counts 1 to 4 mixed: each count keeps its exact success law
    rng = np.random.default_rng(8)
    for tries in (1, 2, 3, 5, 200):
        counts = rng.integers(1, 5, size=4000)
        x, y, placed = _place_disjoint_blocks(rng, (9, 2), 2, counts, max_tries_per_block=tries)
        assert (y == 0).all() and (placed <= counts).all()
        for count in range(1, 5):
            n = int((counts == count).sum())
            ok = int((placed[counts == count] == count).sum())
            p = _exact_success(8, frozenset(range(8)), count, tries, 2)
            assert abs(ok - n * p) <= 5 * math.sqrt(n * p * (1 - p)) + 1e-9, (tries, count, ok, n * p)
        placed_slot = np.arange(x.shape[1]) < placed[:, None]
        row = np.sort(np.where(placed_slot, x, 99), axis=1)  # unplaced slots sort last
        assert (np.diff(row, axis=1)[placed_slot[:, 1:]] >= 2).all()  # disjoint


def test_counts_above_capacity_fail_without_a_draw():
    # a 7x5 grid holds (7 // 2) * (5 // 2) = 6 disjoint 2x2 blocks
    assert block_capacity((7, 5), 2) == 6
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    x, y, placed = _place_disjoint_blocks(rng, (7, 5), 2, np.array([7, 10**9]))
    assert rng.bit_generator.state == state
    assert placed.tolist() == [0, 0] and x.shape == y.shape == (2, 6)
    x, y, placed = _place_disjoint_blocks(rng, (6, 4), 2, np.array([6, 10**9, 6]))
    assert x.shape == (3, 6) and placed[1] == 0 and placed.max() <= 6
    with pytest.raises(PlacementInfeasibleError, match="holds at most 6 disjoint 2x2 blocks"):
        random_anchor_placement((7, 5), 2, 10**9, seed=0)
    with pytest.raises(PlacementInfeasibleError, match="holds at most 0"):
        random_anchor_placement((3, 3), 4, 1, seed=0)
    assert random_anchor_placement((7, 5), 2, 0, seed=0).anchors == ()


def test_noise_area_bounds():
    with pytest.raises(ValueError):
        NoiseArea(frozenset({(7, 0)}), dims=(6, 6))
    area = NoiseArea(frozenset({(0, 0), (1, 0)}), dims=(6, 6))
    assert len(area) == 2


def rect_area(w, h, x0=0, y0=0):
    return NoiseArea(frozenset((x0 + x, y0 + y) for x in range(w) for y in range(h)))


def test_pack_blocks_rectangle():
    result = pack_blocks(rect_area(10, 10), 3)
    assert result.packed_count == 9
    assert result.concentrated_area == 81
    assert result.residual == 19


def test_pack_blocks_exact_tiling():
    result = pack_blocks(rect_area(12, 9), 3)
    assert result.residual == 0
    assert result.packed_count == 12


def test_pack_blocks_edge_one_never_leaves_residue():
    area = NoiseArea(frozenset({(0, 0), (3, 1), (2, 2), (9, 9), (4, 7)}))
    result = pack_blocks(area, 1)
    assert result.residual == 0
    assert result.packed_count == len(area)


@given(st.integers(1, 4), st.integers(4, 12), st.integers(4, 12))
@settings(max_examples=30)
def test_pack_blocks_counts_are_consistent(edge, w, h):
    result = pack_blocks(rect_area(w, h), edge)
    assert result.concentrated_area + result.residual == w * h
    assert result.concentrated_area == result.packed_count * edge * edge
    assert result.packed_count == (w // edge) * (h // edge)
