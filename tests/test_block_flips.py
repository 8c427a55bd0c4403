"""Batched block-flip accounting against the per-block reference.

The reference is the slow path the randomized search once used per trial:
cut each block at region boundaries one run at a time (axis_split), read
each piece's target count from the summed-area table (rect_target_count),
and re-tally every touched region with plurality_winner. Its baselines come
from region_of, cell by cell. The batched evaluator, _FastState.outcomes,
must agree with it and with a full tally of the noisy grid for every trial
of a batch, and its best-shift chooser must pick the shift that a cell scan
of every block finds touching the fewest regions.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cell_oracles import region_of, scan_contaminated
from regionvote.breakdown import BestShiftScheme, GlobalScheme, RegionalScheme, _FastState
from regionvote.grid import Grid, Partition, enumerate_partitions
from regionvote.noise import (
    BlockNoiseSpec,
    PlacementInfeasibleError,
    apply_block_noise,
    random_anchor_placement,
)
from regionvote.shifting import fewest_contaminated, sweep_partitions
from regionvote.voting import plurality_winner, tally_global, tally_regional


def axis_split(anchor, extent, shift, axis_cells, region_edge):
    """Split a block extent at region boundaries: (start, length, region)."""
    n_regions = axis_cells // region_edge
    out = []
    x = anchor
    end = anchor + extent
    while x < end:
        shifted = (x + shift) % axis_cells
        room = region_edge - (shifted % region_edge)
        step = min(room, end - x)
        out.append((x, step, (shifted // region_edge) % n_regions))
        x += step
    return out


def rect_target_count(sat, x0, y0, w, h):
    return int(sat[y0 + h, x0 + w] - sat[y0, x0 + w] - sat[y0 + h, x0] + sat[y0, x0])


def reference_outcome(grid, partition, anchors, edge, target, flip_to):
    dims = (grid.width, grid.height)
    n_cols = grid.width // partition.region_width
    counts = [[0] * grid.candidate_count for _ in range(partition.region_count(dims))]
    for idx, v in enumerate(grid.votes):
        counts[region_of(partition, dims, (idx % grid.width, idx // grid.width))][v] += 1
    winners = [plurality_winner(c) for c in counts]
    won = [0] * grid.candidate_count
    for w in winners:
        if w is not None:
            won[w] += 1
    mask = (np.array(grid.votes).reshape(grid.height, grid.width) == target).astype(np.int64)
    sat = np.zeros((grid.height + 1, grid.width + 1), dtype=np.int64)
    sat[1:, 1:] = mask.cumsum(0).cumsum(1)
    flips = {}
    for ax, ay in anchors:
        xsegs = axis_split(ax, edge, partition.dx, grid.width, partition.region_width)
        ysegs = axis_split(ay, edge, partition.dy, grid.height, partition.region_height)
        for y0, hh, row in ysegs:
            for x0, ww, col in xsegs:
                f = rect_target_count(sat, x0, y0, ww, hh)
                if f:
                    rid = col + n_cols * row
                    flips[rid] = flips.get(rid, 0) + f
    for rid, f in flips.items():
        adjusted = list(counts[rid])
        adjusted[target] -= f
        adjusted[flip_to] += f
        if winners[rid] is not None:
            won[winners[rid]] -= 1
        new_w = plurality_winner(adjusted)
        if new_w is not None:
            won[new_w] += 1
    return plurality_winner(won)


def batched(state, scheme, specs, edge):
    """state.outcomes with one trial per spec, winners as Winner values."""
    trial = np.repeat(np.arange(len(specs)), [len(spec.anchors) for spec in specs])
    anchors = np.array([a for spec in specs for a in spec.anchors], dtype=np.int64).reshape(-1, 2)
    flips, winners, shifts = state.outcomes(
        scheme, trial, anchors[:, 0], anchors[:, 1], edge, len(specs)
    )
    return flips.tolist(), [None if w < 0 else w for w in winners.tolist()], shifts


def check_agreement(grid, partition, spec):
    state = _FastState(grid, spec.target, spec.flip_to)
    flips, winners, _ = batched(state, RegionalScheme(partition), [spec], spec.block_edge)
    slow = reference_outcome(
        grid, partition, spec.anchors, spec.block_edge, spec.target, spec.flip_to
    )
    noisy, report = apply_block_noise(grid, spec)
    assert winners[0] == slow == tally_regional(noisy, partition).winner
    assert flips[0] == report.flipped_cells


def random_grid(rng, width, height, candidates):
    return Grid(width, height, candidates, tuple(int(v) for v in rng.integers(0, candidates, width * height)))


@pytest.mark.parametrize("region", [(3, 3), (4, 2), (2, 5)])
@pytest.mark.parametrize("relation", ["below", "equal", "above"])
def test_block_outcome_matches_reference_on_every_edge_relation(region, relation):
    rw, rh = region
    width, height = 6 * rw, 4 * rh
    short = min(rw, rh)
    edge = {"below": max(1, short - 1), "equal": short, "above": max(rw, rh) + 1}[relation]
    rng = np.random.default_rng(rw * 10 + rh + len(relation))
    for rep in range(12):
        grid = random_grid(rng, width, height, 2)
        partition = Partition(rw, rh, rep % rw, (rep // 2) % rh)
        spec = random_anchor_placement((width, height), edge, 1 + rep % 2, seed=rep)
        check_agreement(grid, partition, spec)


@given(
    seed=st.integers(0, 2**32 - 1),
    rw=st.integers(1, 5),
    rh=st.integers(1, 5),
    cols=st.integers(1, 4),
    rows=st.integers(1, 4),
    candidates=st.integers(2, 3),
    edge=st.integers(1, 9),
    blocks=st.integers(0, 4),
)
@settings(max_examples=150, deadline=None)
def test_block_outcome_matches_reference_property(seed, rw, rh, cols, rows, candidates, edge, blocks):
    width, height = rw * cols, rh * rows
    assume(edge <= min(width, height))
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, width, height, candidates)
    partition = Partition(rw, rh, int(rng.integers(rw)), int(rng.integers(rh)))
    target = int(rng.integers(candidates))
    flip_to = (target + 1 + int(rng.integers(candidates - 1))) % candidates
    try:
        placed = random_anchor_placement((width, height), edge, blocks, seed=seed)
    except PlacementInfeasibleError:
        assume(False)
    spec = BlockNoiseSpec(edge, placed.anchors, target, flip_to)
    check_agreement(grid, partition, spec)


@given(seed=st.integers(0, 2**32 - 1), region_edge=st.integers(2, 6), blocks=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_best_shift_matches_cell_scan(seed, region_edge, blocks):
    dims = (4 * region_edge, 3 * region_edge)
    rng = np.random.default_rng(seed)
    edge = int(rng.integers(1, 2 * region_edge + 1))
    try:
        spec = random_anchor_placement(dims, edge, blocks, seed=seed)
    except PlacementInfeasibleError:
        assume(False)
    state = _FastState(random_grid(rng, *dims, 2), 0, 1)
    _, _, shifts = batched(state, BestShiftScheme(region_edge), [spec], edge)
    partitions = enumerate_partitions(region_edge)
    scans = [len(scan_contaminated(dims, p, spec)) for p in partitions]
    assert partitions[shifts[0]] == partitions[scans.index(min(scans))]


@given(
    seed=st.integers(0, 2**32 - 1),
    rw=st.integers(1, 5),
    rh=st.integers(1, 5),
    cols=st.integers(1, 4),
    rows=st.integers(1, 4),
    candidates=st.integers(2, 3),
    edge=st.integers(1, 7),
    trials=st.integers(1, 12),
)
@settings(max_examples=120, deadline=None)
def test_batched_outcomes_match_noisy_tallies(seed, rw, rh, cols, rows, candidates, edge, trials):
    """Every trial of one batch, under each scheme, against apply_block_noise
    and a full tally: square, rectangular and shifted partitions, block edges
    below, at and above the region edges, and trials with no blocks or with
    blocks over rival cells only (zero flips)."""
    width, height = rw * cols, rh * rows
    assume(edge <= min(width, height))
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, width, height, candidates)
    if rng.random() < 0.3:  # sparse target votes, so some blocks flip nothing
        grid = grid.replace_votes(np.where(rng.random(grid.n_cells) < 0.8, 1, grid.votes))
    target = int(rng.integers(candidates))
    flip_to = (target + 1 + int(rng.integers(candidates - 1))) % candidates
    specs = []
    for t in range(trials):
        try:
            placed = random_anchor_placement(
                (width, height), edge, int(rng.integers(0, 4)), seed=seed + t
            )
        except PlacementInfeasibleError:
            placed = BlockNoiseSpec(edge, (), target, flip_to)
        specs.append(BlockNoiseSpec(edge, placed.anchors, target, flip_to))
    partition = Partition(rw, rh, int(rng.integers(rw)), int(rng.integers(rh)))
    schemes = [GlobalScheme(), RegionalScheme(partition)]
    if rw == rh:
        schemes.append(BestShiftScheme(rw))
    state = _FastState(grid, target, flip_to)
    for scheme in schemes:
        flips, winners, shifts = batched(state, scheme, specs, edge)
        for t, spec in enumerate(specs):
            noisy, report = apply_block_noise(grid, spec)
            assert flips[t] == report.flipped_cells
            if isinstance(scheme, GlobalScheme):
                assert shifts[t] == 0 and winners[t] == tally_global(noisy).winner
            elif isinstance(scheme, RegionalScheme):
                assert shifts[t] == 0 and winners[t] == tally_regional(noisy, partition).winner
            else:
                chosen = fewest_contaminated(sweep_partitions((width, height), rw, spec)).partition
                assert enumerate_partitions(rw)[shifts[t]] == chosen
                assert winners[t] == tally_regional(noisy, chosen).winner
