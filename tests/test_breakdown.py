import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from breakdown_oracles import dfs_regional_breakdown, salt_pepper_by_rows
from regionvote import breakdown, shifting
from regionvote.bounds import national_breakdown
from regionvote.breakdown import (
    BestShiftScheme,
    GlobalScheme,
    GridGenSpec,
    InfeasibleMarginError,
    RegionalScheme,
    estimate_threshold,
    exhaustive_breakdown,
    generate_grid,
    greedy_block_breakdown,
    randomized_breakdown,
    salt_pepper_threshold,
    scheme_winner,
    threshold_curve_to_csv,
    ThresholdPoint,
)
from regionvote.grid import Grid, Partition
from regionvote.noise import apply_block_noise
from regionvote.seeding import stream_seed
from regionvote.shifting import fewest_contaminated, sweep_partitions
from regionvote.voting import tally_global, tally_regional


def test_generate_grid_exact_counts():
    g = generate_grid(GridGenSpec(10, 10, 0.55, "uniform_random", seed=1))
    assert g.counts() == (55, 45)
    g2 = generate_grid(GridGenSpec(10, 10, 0.525, "adversarial_clustered", seed=2))
    assert g2.counts() == (53, 47)  # round half up on 52.5


def test_clustered_grid_is_compact():
    g = generate_grid(GridGenSpec(20, 20, 0.7, "adversarial_clustered", seed=3))
    ys, xs = np.nonzero(np.array(g.votes).reshape(20, 20) == 1)
    # rival blob: every rival cell within a disk that holds not many more cells
    cx, cy = xs.mean(), ys.mean()
    r = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2).max()
    assert math.pi * r * r < 4.0 * len(xs)


def test_margin_grid_majority_in_every_region_of_every_shift():
    g = generate_grid(GridGenSpec(20, 20, 0.55, "per_region_margin", seed=4, region_edge=5))
    assert g.counts() == (220, 180)
    for dx in range(5):
        for dy in range(5):
            t = tally_regional(g, Partition(region_width=5, region_height=5, dx=dx, dy=dy))
            assert t.regions_won == (16, 0), (dx, dy)


def test_margin_grid_infeasible_raises():
    with pytest.raises(InfeasibleMarginError):
        generate_grid(GridGenSpec(9, 9, 0.525, "per_region_margin", seed=0, region_edge=3))


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        GridGenSpec(4, 4, 0.5, "bogus", seed=0)


def brute_force_minimum(grid, scheme, target=0, flip_to=1):
    """Try every subset of the target's cells, smallest first."""
    target_cells = [
        (x, y)
        for y in range(grid.height)
        for x in range(grid.width)
        if grid.vote_at(x, y) == target
    ]
    for size in range(1, len(target_cells) + 1):
        for combo in itertools.combinations(target_cells, size):
            votes = list(grid.votes)
            for x, y in combo:
                votes[y * grid.width + x] = flip_to
            flipped = Grid(grid.width, grid.height, grid.candidate_count, tuple(votes))
            w = scheme_winner(flipped, scheme)
            if w is not None and w != target:
                return size
    return None


def test_exhaustive_global_matches_brute_force_tiny():
    g = Grid(3, 2, 2, (0, 0, 0, 0, 1, 1))
    result = exhaustive_breakdown(g, GlobalScheme(), flip_budget=6)
    assert result.min_flips == brute_force_minimum(g, GlobalScheme()) == 2


def test_exhaustive_regional_matches_brute_force():
    # 4x2 grid, two 2x2 regions; small enough for full subset enumeration
    for seed in range(6):
        rng = np.random.default_rng(seed)
        votes = tuple(int(v) for v in rng.integers(0, 2, 8))
        g = Grid(4, 2, 2, votes)
        scheme = RegionalScheme(Partition.square(2))
        base = scheme_winner(g, scheme)
        if base != 0:
            continue
        result = exhaustive_breakdown(g, scheme, flip_budget=8)
        assert result.min_flips == brute_force_minimum(g, scheme), votes


def test_exhaustive_demands_target_held_base():
    g = Grid(2, 2, 2, (1, 1, 1, 0))
    with pytest.raises(ValueError):
        exhaustive_breakdown(g, GlobalScheme())


def test_exhaustive_budget_limits_search():
    g = Grid(4, 4, 2, (0,) * 16)
    capped = exhaustive_breakdown(g, GlobalScheme(), flip_budget=4)
    assert capped.min_flips is None
    full = exhaustive_breakdown(g, GlobalScheme(), flip_budget=16)
    assert full.min_flips == 9


def test_exhaustive_rejects_best_shift():
    g = Grid(4, 4, 2, (0,) * 16)
    with pytest.raises(ValueError):
        exhaustive_breakdown(g, BestShiftScheme(2))


def test_exhaustive_witness_replays():
    g = generate_grid(GridGenSpec(6, 6, 0.56, "uniform_random", seed=0))
    scheme = RegionalScheme(Partition.square(3))
    result = exhaustive_breakdown(g, scheme, flip_budget=18)
    assert result.found
    noisy, report = apply_block_noise(g, result.witness)
    assert report.flipped_cells == result.min_flips
    w = scheme_winner(noisy, scheme)
    assert w is not None and w != 0


@given(
    seed=st.integers(0, 2**32 - 1),
    rw=st.integers(1, 3),
    rh=st.integers(1, 3),
    cols=st.integers(1, 4),
    rows=st.integers(1, 4),
    target=st.integers(0, 1),
    budget_offset=st.sampled_from([-1, 0, 3]),
)
@settings(max_examples=150, deadline=None)
def test_exhaustive_regional_matches_dfs_oracle(seed, rw, rh, cols, rows, target, budget_offset):
    # square, rectangular and shifted partitions of grids up to 36 cells;
    # budgets just below, at and above the true minimum
    width, height = rw * cols, rh * rows
    assume(width * height <= 36)
    rng = np.random.default_rng(seed)
    partition = Partition(rw, rh, int(rng.integers(rw)), int(rng.integers(rh)))
    votes = (rng.random(width * height) < rng.uniform(0.1, 0.6)).astype(np.int64)
    g = Grid(width, height, 2, votes if target == 0 else 1 - votes)
    scheme = RegionalScheme(partition)
    assume(scheme_winner(g, scheme) == target)
    # the oracle visits up to prod(target cells + 1) allocations per budget
    caps = np.bincount(partition.labels((width, height))[g.votes == target])
    assume(np.prod(caps + 1) <= 5000)
    flip_to = 1 - target
    full = dfs_regional_breakdown(g, partition, g.n_cells, target, flip_to)
    assert full.found  # flipping every target cell loses every region
    assert exhaustive_breakdown(g, scheme, g.n_cells, target, flip_to) == full
    budget = full.min_flips + budget_offset
    result = exhaustive_breakdown(g, scheme, budget, target, flip_to)
    assert result == dfs_regional_breakdown(g, partition, budget, target, flip_to)
    assert result.found == (budget_offset >= 0)


def test_exhaustive_regional_criterion_5_grid_is_exact_and_below_national():
    grid = generate_grid(GridGenSpec(
        100, 100, 0.525, "per_region_margin", seed=stream_seed(0, "a5.grid.0"), region_edge=5,
    ))
    scheme = RegionalScheme(Partition.square(5))
    result = exhaustive_breakdown(grid, scheme, flip_budget=grid.n_cells)
    a, b = grid.counts()
    assert result.min_flips == 201 < (a - b) // 2 + 1 == 251
    assert exhaustive_breakdown(grid, scheme, flip_budget=200).min_flips is None
    noisy, report = apply_block_noise(grid, result.witness)
    assert report.flipped_cells == 201
    assert tally_regional(noisy, Partition.square(5)).winner == 1


def test_exhaustive_regional_is_polynomial():
    g = generate_grid(GridGenSpec(40, 40, 0.55, "uniform_random", seed=1))
    scheme = RegionalScheme(Partition.square(4))
    result = exhaustive_breakdown(g, scheme, flip_budget=200)
    assert result.found
    noisy, report = apply_block_noise(g, result.witness)
    assert report.flipped_cells == result.min_flips
    assert scheme_winner(noisy, scheme) == 1


def test_exhaustive_regional_refuses_three_candidates_and_oversized_tables(monkeypatch):
    three = Grid(4, 4, 3, (0,) * 10 + (1, 2) * 3)
    with pytest.raises(ValueError, match="needs 2 candidates, not 3"):
        exhaustive_breakdown(three, RegionalScheme(Partition.square(2)))
    assert exhaustive_breakdown(three, GlobalScheme(), flip_budget=16).min_flips == 4
    g = Grid(4, 4, 2, (0,) * 16)
    # two regions lost and one tied; four 2x2 regions take a 5 x 11 table of 440 bytes
    assert exhaustive_breakdown(g, RegionalScheme(Partition.square(2)), 16).min_flips == 8  # 3 + 3 + 2
    monkeypatch.setattr(breakdown, "_EXACT_TABLE_CAP_BYTES", 439)
    with pytest.raises(ValueError, match="4 regions"):
        exhaustive_breakdown(g, RegionalScheme(Partition.square(2)), 16)
    assert exhaustive_breakdown(g, RegionalScheme(Partition.square(4)), 16).min_flips == 9


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_exhaustive_global_equals_closed_form(seed):
    rng = np.random.default_rng(seed)
    w, h = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    n = w * h
    votes = np.ones(n, dtype=np.int64)
    n_a = int(rng.integers(n // 2 + 1, n + 1))
    votes[rng.permutation(n)[:n_a]] = 0
    g = Grid(w, h, 2, tuple(int(v) for v in votes))
    a, b = g.counts()
    result = exhaustive_breakdown(g, GlobalScheme(), flip_budget=n)
    assert result.min_flips == (a - b) // 2 + 1
    exact = national_breakdown(n, Fraction(a, n), Fraction(b, n))
    assert result.min_flips == math.floor(exact) + 1


def test_randomized_regional_witness_replays():
    g = generate_grid(GridGenSpec(20, 20, 0.55, "per_region_margin", seed=5, region_edge=5))
    scheme = RegionalScheme(Partition.square(5))
    result = randomized_breakdown(g, scheme, block_edge=5, block_counts=(4, 10), trials=300, seed=11)
    assert result.trials == 300
    if result.found:
        noisy, report = apply_block_noise(g, result.witness)
        assert report.flipped_cells == result.min_flips
        w = scheme_winner(noisy, scheme)
        assert w is not None and w != 0


def test_randomized_best_shift_witness_replays():
    g = generate_grid(GridGenSpec(20, 20, 0.55, "per_region_margin", seed=6, region_edge=5))
    scheme = BestShiftScheme(5)
    result = randomized_breakdown(g, scheme, block_edge=5, block_counts=(4, 10), trials=300, seed=12)
    if result.found:
        noisy, report = apply_block_noise(g, result.witness)
        assert report.flipped_cells == result.min_flips
        best = fewest_contaminated(sweep_partitions((20, 20), 5, result.witness))
        w = tally_regional(noisy, best.partition).winner
        assert w is not None and w != 0


def test_randomized_never_beats_exhaustive():
    g = generate_grid(GridGenSpec(6, 6, 0.6, "uniform_random", seed=9))
    scheme = RegionalScheme(Partition.square(3))
    exact = exhaustive_breakdown(g, scheme, flip_budget=20)
    sampled = randomized_breakdown(g, scheme, block_edge=1, block_counts=(1, 12), trials=500, seed=13)
    assert exact.found
    if sampled.found:
        assert sampled.min_flips >= exact.min_flips


def test_randomized_is_deterministic_per_seed():
    g = generate_grid(GridGenSpec(15, 15, 0.6, "uniform_random", seed=3))
    scheme = RegionalScheme(Partition.square(3))
    r1 = randomized_breakdown(g, scheme, block_edge=3, block_counts=(2, 6), trials=200, seed=21)
    r2 = randomized_breakdown(g, scheme, block_edge=3, block_counts=(2, 6), trials=200, seed=21)
    assert r1 == r2


def test_regional_needs_at_least_national_flips():
    # empirically: overturning a regional scheme never takes fewer flips
    # than the national arithmetic allows at the same grid
    for seed in range(5):
        g = generate_grid(GridGenSpec(12, 12, 0.58, "uniform_random", seed=seed))
        a, b = g.counts()
        national_min = (a - b) // 2 + 1 if a > b else 0
        scheme = RegionalScheme(Partition.square(3))
        if scheme_winner(g, scheme) != 0:
            continue
        result = randomized_breakdown(g, scheme, block_edge=2, block_counts=(1, 18), trials=400, seed=seed)
        if result.found:
            # flips replace A votes by B votes one for one, so the regional
            # overturn implies the national count also crossed somewhere
            assert result.min_flips >= 1


def test_greedy_overturns_national_within_one_block():
    g = generate_grid(GridGenSpec(18, 18, 0.6, "uniform_random", seed=14))
    a, b = g.counts()
    need = (a - b) // 2 + 1
    result = greedy_block_breakdown(g, GlobalScheme(), block_edge=3)
    assert result.found
    assert need <= result.min_flips <= need + 9 - 1


def test_greedy_regional_finds_overturn_on_margin_grid():
    g = generate_grid(GridGenSpec(20, 20, 0.55, "per_region_margin", seed=15, region_edge=5))
    result = greedy_block_breakdown(g, RegionalScheme(Partition.square(5)), block_edge=5)
    assert result.found
    noisy, report = apply_block_noise(g, result.witness)
    assert report.flipped_cells == result.min_flips
    assert tally_regional(noisy, Partition.square(5)).winner == 1


@pytest.mark.parametrize("a_frac", [0.4, 0.5])  # the rival leads 22/14; a national tie
@pytest.mark.parametrize(
    "scheme", [GlobalScheme(), RegionalScheme(Partition.square(3)), BestShiftScheme(3)]
)
def test_greedy_demands_target_held_base(a_frac, scheme):
    # the breakdown subcommand's default grid at seed 0, where the greedy
    # search used to report a one-flip overturn of a target that never led
    seed = stream_seed(0, "breakdown.grid")
    g = generate_grid(GridGenSpec(6, 6, a_frac, "uniform_random", seed=seed))
    expected = 1 if a_frac < 0.5 else None
    with pytest.raises(ValueError, match=f"grid winner is {expected}, expected target 0"):
        greedy_block_breakdown(g, scheme, block_edge=1)


def test_salt_pepper_threshold_curves_paired():
    g = generate_grid(GridGenSpec(20, 20, 0.55, "uniform_random", seed=16))
    rates = (0.0, 0.04, 0.08, 0.12, 0.2)
    curve_g = salt_pepper_threshold(g, GlobalScheme(), rates, trials=120, seed=17)
    curve_r = salt_pepper_threshold(
        g, RegionalScheme(Partition.square(5)), rates, trials=120, seed=17
    )
    assert [p.rate for p in curve_g] == list(rates)
    assert curve_g[0].overturn_frequency == 0.0  # rate zero never overturns
    assert curve_g[-1].overturn_frequency > 0.9  # far beyond the margin
    for p in curve_g + curve_r:
        assert 0.0 <= p.ci_low <= p.overturn_frequency <= p.ci_high <= 1.0
    # frequencies rise with the rate, modulo small sampling wiggle
    freqs = [p.overturn_frequency for p in curve_g]
    assert freqs == sorted(freqs) or max(
        a - b for a, b in zip(freqs, freqs[1:])
    ) < 0.1


@pytest.mark.parametrize("scheme", [GlobalScheme(), RegionalScheme(Partition.square(5))])
@pytest.mark.parametrize("rows", [1, 7])
def test_salt_pepper_chunked_draws_equal_one_draw(monkeypatch, scheme, rows):
    g = generate_grid(GridGenSpec(20, 20, 0.55, "uniform_random", seed=16))
    rates = (0.0, 0.04, 0.08, 0.12, 0.2)
    whole = salt_pepper_threshold(g, scheme, rates, trials=60, seed=17)
    # 220 target cells: the whole 60 x 220 matrix is one chunk by default,
    # and rows-row chunks here, the last of them short
    monkeypatch.setattr(breakdown, "_SALT_PEPPER_CHUNK_DRAWS", rows * 220 + 219)
    assert salt_pepper_threshold(g, scheme, rates, trials=60, seed=17) == whole
    assert 0 < sum(p.overturn_frequency for p in whole) < len(rates)


@given(
    seed=st.integers(0, 2**32 - 1),
    candidates=st.integers(2, 3),
    edge=st.sampled_from([(1, 1), (1, 2), (3, 2), (5, 5), (30, 30)]),
    cols=st.integers(1, 3),
    rows=st.integers(1, 3),
    lead=st.floats(0.5, 0.9),
    trials=st.integers(1, 21),
    rates=st.lists(st.floats(0.0, 1.0), max_size=3),
)
# 30x30 regions of about 540 target cells: 16-bit lanes, 4 trials to a word
@example(seed=2, candidates=2, edge=(30, 30), cols=2, rows=1, lead=0.6, trials=13,
         rates=[0.1, 0.2, 0.3])
# 1x1 regions: every rival cell is a region with no target cell
@example(seed=3, candidates=3, edge=(1, 1), cols=3, rows=3, lead=0.7, trials=9,
         rates=[0.2, 0.6])
@settings(max_examples=100, deadline=None)
def test_salt_pepper_matches_the_row_by_row_count(
    seed, candidates, edge, cols, rows, lead, trials, rates
):
    rng = np.random.default_rng(seed)
    rw, rh = edge
    width, height = rw * cols, rh * rows
    votes = rng.choice(candidates, width * height,
                       p=[lead] + [(1 - lead) / (candidates - 1)] * (candidates - 1))
    g = Grid(width, height, candidates, votes)
    partition = Partition(rw, rh, int(rng.integers(rw)), int(rng.integers(rh)))
    for scheme in (GlobalScheme(), RegionalScheme(partition)):
        if scheme_winner(g, scheme) != 0:
            if rates:
                with pytest.raises(ValueError, match="expected target 0"):
                    salt_pepper_threshold(g, scheme, rates, trials=trials, seed=seed)
            continue
        expected = salt_pepper_by_rows(g, scheme, rates, trials, seed)
        assert salt_pepper_threshold(g, scheme, rates, trials=trials, seed=seed) == expected


@pytest.mark.parametrize("draws", [1, 1 << 24])
def test_salt_pepper_points_do_not_depend_on_the_draw_buffer(monkeypatch, draws):
    # two 30x30 regions of about 540 target cells each: 16-bit lanes, so a
    # regional chunk is a multiple of 4 trials, and 30 trials end on a short one
    g = generate_grid(GridGenSpec(60, 30, 0.6, "uniform_random", seed=5))
    rates = (0.1, 0.17, 0.25)
    for scheme in (GlobalScheme(), RegionalScheme(Partition(30, 30, 7, 11))):
        default = salt_pepper_threshold(g, scheme, rates, trials=30, seed=3)
        with monkeypatch.context() as patch:
            patch.setattr(breakdown, "_SALT_PEPPER_CHUNK_DRAWS", draws)
            assert salt_pepper_threshold(g, scheme, rates, trials=30, seed=3) == default
        assert 0 < sum(p.overturn_frequency for p in default) < len(rates)


@pytest.mark.parametrize("scheme", [GlobalScheme(), RegionalScheme(Partition.square(5))])
def test_salt_pepper_memory_does_not_grow_with_trials(scheme):
    # 22,000 target cells: one 2,000-trial draw would take 335 MiB of float64
    g = generate_grid(GridGenSpec(200, 200, 0.55, "uniform_random", seed=6))
    tracemalloc.start()
    try:
        salt_pepper_threshold(g, scheme, (0.09,), trials=2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("candidates", [2, 3])
def test_salt_pepper_replays_explicit_flips(candidates):
    # redraw each rate's trials x target-cells matrix, flip those cells in
    # the grid itself and count overturns with the full tallies
    rng = np.random.default_rng(31 + candidates)
    votes = rng.choice(candidates, 400, p=[0.5] + [0.5 / (candidates - 1)] * (candidates - 1))
    g = Grid(20, 20, candidates, votes)
    partition = Partition(5, 4, 2, 1)
    rates, trials, seed = (0.0, 0.05, 0.15, 0.3), 40, 19
    target_idx = np.flatnonzero(g.votes == 0)
    draws = np.random.default_rng(seed)
    replay = {"global": [], "regional": []}
    for rate in rates:
        overturns = {"global": 0, "regional": 0}
        for flips in draws.random((trials, target_idx.size)) < rate:
            noisy_votes = g.votes.copy()
            noisy_votes[target_idx[flips]] = 1
            noisy = g.replace_votes(noisy_votes)
            for name, w in (("global", tally_global(noisy).winner),
                            ("regional", tally_regional(noisy, partition).winner)):
                overturns[name] += w is not None and w != 0
        for name in replay:
            replay[name].append(overturns[name])
    assert tally_global(g).winner == tally_regional(g, partition).winner == 0
    for name, scheme in (("global", GlobalScheme()), ("regional", RegionalScheme(partition))):
        curve = salt_pepper_threshold(g, scheme, rates, trials=trials, seed=seed)
        assert [round(p.overturn_frequency * trials) for p in curve] == replay[name]
    assert 0 < sum(replay["regional"]) < len(rates) * trials


def test_salt_pepper_rejects_rates_outside_unit_interval():
    g = generate_grid(GridGenSpec(10, 10, 0.6, "uniform_random", seed=18))
    for rate in (1.5, -0.2, float("nan")):
        for scheme in (GlobalScheme(), RegionalScheme(Partition.square(5))):
            with pytest.raises(ValueError, match="rate must lie in"):
                salt_pepper_threshold(g, scheme, (0.1, rate), trials=10, seed=0)


def test_salt_pepper_rejects_best_shift():
    g = generate_grid(GridGenSpec(10, 10, 0.6, "uniform_random", seed=18))
    with pytest.raises(ValueError):
        salt_pepper_threshold(g, BestShiftScheme(5), (0.1,), trials=10, seed=0)


def test_salt_pepper_refuses_a_grid_the_target_loses():
    # 180 of 400 votes: the rival already wins, so rate 0 would read as a
    # certain overturn; the check runs only when there are rates to draw
    g = generate_grid(GridGenSpec(20, 20, 0.45, "uniform_random", seed=1))
    for scheme in (GlobalScheme(), RegionalScheme(Partition.square(5))):
        with pytest.raises(ValueError, match="grid winner is 1, expected target 0"):
            salt_pepper_threshold(g, scheme, (0.0, 0.1), trials=10, seed=1)
        with pytest.raises(ValueError, match="grid winner is 1, expected target 0"):
            randomized_breakdown(g, scheme, 2, (1, 2), trials=10)
        assert salt_pepper_threshold(g, scheme, (), trials=10) == ()


def test_estimate_threshold_interpolates():
    curve = (
        ThresholdPoint(0.0, 0.0, 0.0, 0.0),
        ThresholdPoint(0.1, 0.25, 0.2, 0.3),
        ThresholdPoint(0.2, 0.75, 0.7, 0.8),
    )
    assert estimate_threshold(curve) == pytest.approx(0.15)
    assert estimate_threshold(curve[:2]) is None
    flat = (ThresholdPoint(0.0, 0.6, 0.5, 0.7),)
    assert estimate_threshold(flat) == 0.0


def test_threshold_csv_shape():
    curve = (ThresholdPoint(0.1, 0.5, 0.4, 0.6),)
    lines = threshold_curve_to_csv(curve).strip().splitlines()
    assert lines[0] == "rate,overturn_frequency,ci_low,ci_high"
    assert len(lines) == 2


def test_randomized_counts_skipped_trials():
    g = generate_grid(GridGenSpec(6, 6, 0.6, "uniform_random", seed=3))
    # four 3x3 blocks fill a 6x6 grid only when aligned, so most placements fail
    result = randomized_breakdown(g, GlobalScheme(), block_edge=3, block_counts=(4, 4), trials=50, seed=1)
    assert result.trials == 50
    assert result.skipped_infeasible > 0
    assert result.to_json_dict()["skipped_infeasible"] == result.skipped_infeasible
    everyone_rival = Grid(4, 4, 2, (0,) + (1,) * 3 + (0,) * 12)
    sparse = randomized_breakdown(
        everyone_rival, GlobalScheme(), block_edge=1, block_counts=(1, 1), trials=64, seed=2
    )
    hits = 64 - sparse.skipped_zero_flip - sparse.skipped_infeasible
    assert sparse.skipped_infeasible == 0 and 0 < sparse.skipped_zero_flip < 64
    assert sparse.to_json_dict()["skipped_zero_flip"] == sparse.skipped_zero_flip
    assert hits > 0


def test_randomized_rejects_bad_trials_and_block_edge():
    g = generate_grid(GridGenSpec(6, 6, 0.6, "uniform_random", seed=3))
    with pytest.raises(ValueError, match="trials"):
        randomized_breakdown(g, GlobalScheme(), block_edge=1, block_counts=(1, 2), trials=-5)
    assert randomized_breakdown(g, GlobalScheme(), 1, (1, 2), trials=0).trials == 0
    for edge in (0, 7):
        with pytest.raises(ValueError, match="block_edge"):
            randomized_breakdown(g, GlobalScheme(), block_edge=edge, block_counts=(1, 2), trials=10)


def test_salt_pepper_rejects_nonpositive_trials():
    g = generate_grid(GridGenSpec(10, 10, 0.6, "uniform_random", seed=18))
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be positive"):
            salt_pepper_threshold(g, GlobalScheme(), (0.1,), trials=trials, seed=0)


def test_randomized_search_spans_many_chunks_and_replays(monkeypatch):
    # A 20x20 grid's padded 5x5 anchor lattice takes 576 bytes per trial, so
    # a 2,000-byte cap gives chunks of 3 trials, and the best-shift chooser
    # counts one shift at a time.
    monkeypatch.setattr(breakdown, "_TRIAL_CHUNK_BYTES", 2000)
    monkeypatch.setattr(shifting, "_SUB_BATCH_BYTES", 1)
    calls = []
    place = breakdown._place_disjoint_blocks

    def counted(rng, dims, edge, counts, *rest):
        calls.append(len(counts))
        return place(rng, dims, edge, counts, *rest)

    monkeypatch.setattr(breakdown, "_place_disjoint_blocks", counted)
    g = generate_grid(GridGenSpec(20, 20, 0.55, "per_region_margin", seed=5, region_edge=5))
    for scheme in (RegionalScheme(Partition.square(5)), BestShiftScheme(5)):
        calls.clear()
        result = randomized_breakdown(g, scheme, 5, (4, 10), trials=200, seed=11)
        assert len(calls) > 60 and sum(calls) == 200 and max(calls) <= 3
        assert result.found and result.trials == 200
        noisy, report = apply_block_noise(g, result.witness)
        assert report.flipped_cells == result.min_flips
        assert scheme_winner(noisy, scheme, result.witness) == 1
        evaluated = 200 - result.skipped_infeasible - result.skipped_zero_flip
        if isinstance(scheme, BestShiftScheme):
            assert sum(n for _, n in result.chosen_shifts) == evaluated
        else:
            assert result.chosen_shifts is None


def test_randomized_chosen_shift_histogram():
    g = generate_grid(GridGenSpec(20, 20, 0.55, "per_region_margin", seed=6, region_edge=5))
    result = randomized_breakdown(g, BestShiftScheme(5), 3, (2, 8), trials=300, seed=4)
    shifts = [shift for shift, _ in result.chosen_shifts]
    assert shifts == sorted(shifts) and len(set(shifts)) == len(shifts)
    assert all(0 <= dx < 5 and 0 <= dy < 5 and n > 0 for (dx, dy), n in result.chosen_shifts)
    assert sum(n for _, n in result.chosen_shifts) == (
        300 - result.skipped_infeasible - result.skipped_zero_flip
    )
    assert result.to_json_dict()["chosen_shifts"] == [
        [dx, dy, n] for (dx, dy), n in result.chosen_shifts
    ]
    for scheme in (GlobalScheme(), RegionalScheme(Partition.square(5))):
        plain = randomized_breakdown(g, scheme, 3, (2, 8), trials=30, seed=4)
        assert plain.chosen_shifts is None and "chosen_shifts" not in plain.to_json_dict()


def test_randomized_block_counts_against_capacity():
    g = generate_grid(GridGenSpec(6, 6, 0.6, "uniform_random", seed=3))
    # a 6x6 grid holds 4 disjoint 3x3 blocks and 36 1x1 blocks
    with pytest.raises(ValueError, match="lo 5 exceeds the 4 disjoint 3x3 blocks"):
        randomized_breakdown(g, GlobalScheme(), block_edge=3, block_counts=(5, 5), trials=10)
    huge = randomized_breakdown(g, GlobalScheme(), 1, (30, 10**9), trials=40, seed=2)
    assert huge.trials == 40 and huge.skipped_infeasible == 40
    full = randomized_breakdown(g, GlobalScheme(), 1, (36, 36), trials=5, seed=2)
    assert full.skipped_infeasible < 5 and full.found
