"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines on
passing runs too (pytest swallows captured stdout otherwise). Every test is
seeded and deterministic; the slowest one (randomized lower-bound search)
stays well under its ten minute budget.
"""

import functools
import time
from fractions import Fraction

from scipy.stats import binomtest

from regionvote.bounds import (
    best_shift_ratio_ceiling,
    fixed_partition_ratio_ceiling,
    table_shifting_gain,
    table_stability_margins,
)
from regionvote.breakdown import (
    BestShiftScheme,
    GlobalScheme,
    GridGenSpec,
    RegionalScheme,
    estimate_threshold,
    exhaustive_breakdown,
    generate_grid,
    randomized_breakdown,
    salt_pepper_threshold,
)
from regionvote.cli import FlagConfig, _flag_search, main
from regionvote.eigenlab import PatternGallery, run_conjecture_experiment
from regionvote.grid import Partition
from regionvote.noise import BlockNoiseSpec, NoiseArea, pack_blocks, random_anchor_placement
from regionvote.seeding import stream_seed
from regionvote.shifting import shift_histogram, sweep_partitions

EXPECTED_ACCOMMODATION = (
    (656, 1167, 250),
    (688, 1222, 500),
    (750, 1333, 1000),
)
EXPECTED_SHIFT_GAIN = (
    (656, 945, 1167, 1680),
    (688, 990, 1222, 1760),
    (719, 1035, 1278, 1840),
    (750, 1080, 1333, 1920),
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({name}): {verdict} - {detail}", flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@functools.cache
def _block_corpus():
    """120 random disjoint-block specs, 20 per block edge 1..6, on 48x48."""
    corpus = []
    for noise_edge in range(1, 7):
        for i in range(20):
            spec = random_anchor_placement(
                (48, 48),
                noise_edge,
                1 + i % 6,
                seed=stream_seed(0, f"accept.corpus.{noise_edge}.{i}"),
            )
            corpus.append((noise_edge, spec))
    return corpus


def _dims_for(region_edge: int):
    # 48 is not a multiple of 5; blocks placed within 48x48 fit either way
    return (50, 50) if region_edge == 5 else (48, 48)


def test_criterion_01_bound_tables():
    t0 = time.perf_counter()
    t1 = table_stability_margins()
    t2 = table_shifting_gain()
    elapsed = time.perf_counter() - t0
    ok = (
        t1.cells == EXPECTED_ACCOMMODATION
        and t2.cells == EXPECTED_SHIFT_GAIN
        and elapsed < 1.0
    )
    _report(1, "bound tables", ok, f"25/25 cells exact in {elapsed * 1000:.1f} ms")


def test_criterion_02_fixed_partition_ceiling():
    t0 = time.perf_counter()
    checks = 0
    violations = 0
    for noise_edge, spec in _block_corpus():
        for region_edge in range(2, 7):
            dims = _dims_for(region_edge)
            ceiling = fixed_partition_ratio_ceiling(noise_edge, region_edge)
            for report in sweep_partitions(dims, region_edge, spec):
                checks += 1
                if report.ratio > ceiling:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checks >= 100 * (4 + 9 + 16 + 25 + 36) and elapsed < 60.0
    _report(
        2,
        "fixed-partition ceiling",
        ok,
        f"{violations} violations in {checks} partition checks"
        f" over {len(_block_corpus())} specs, {elapsed:.1f} s",
    )


def test_criterion_03_best_shift_ceiling_and_histogram():
    checks = 0
    violations = 0
    for noise_edge, spec in _block_corpus():
        for region_edge in range(2, 7):
            dims = _dims_for(region_edge)
            ceiling = best_shift_ratio_ceiling(noise_edge, region_edge)
            best = min(
                report.ratio
                for report in sweep_partitions(dims, region_edge, spec)
            )
            checks += 1
            if best > ceiling:
                violations += 1
    single = BlockNoiseSpec(5, ((13, 22),), 0, 1, 1.0)
    hist = shift_histogram(sweep_partitions((48, 48), 8, single))
    weighted = sum(k * n for k, n in hist.items())
    ok = violations == 0 and hist == {1: 16, 2: 32, 4: 16} and weighted == 144
    _report(
        3,
        "best-shift ceiling",
        ok,
        f"{violations} violations in {checks} min-over-shift checks;"
        f" single-block histogram {hist}, weighted sum {weighted}",
    )


def test_criterion_04_exhaustive_global_exactness():
    dims_cycle = ((6, 6), (5, 6), (4, 6), (5, 5), (4, 5), (6, 4), (4, 4), (7, 5), (5, 7), (6, 5))
    exact = 0
    for i in range(50):
        width, height = dims_cycle[i % len(dims_cycle)]
        a_frac = 0.55 + 0.3 * ((i * 7919) % 100) / 100
        grid = generate_grid(
            GridGenSpec(width, height, a_frac, "uniform_random", seed=stream_seed(0, f"accept.small.{i}"))
        )
        c_a, c_b = grid.counts()
        expected = (c_a - c_b) // 2 + 1
        result = exhaustive_breakdown(grid, GlobalScheme(), flip_budget=width * height)
        if result.min_flips == expected:
            exact += 1
    _report(4, "exhaustive global breakdown", exact == 50, f"{exact}/50 grids match the closed form")


def test_criterion_05_randomized_lower_bounds():
    t0 = time.perf_counter()
    fixed_min = None
    shift_min = None
    fixed_overturns = 0
    shift_overturns = 0
    for g in range(5):
        grid = generate_grid(
            GridGenSpec(
                100, 100, 0.525, "per_region_margin",
                seed=stream_seed(0, f"a5.grid.{g}"), region_edge=5,
            )
        )
        search_seed = stream_seed(0, f"a5.search.{g}")
        fixed = randomized_breakdown(
            grid, RegionalScheme(Partition.square(5)), 5, (40, 105),
            trials=2000, seed=search_seed,
        )
        shifted = randomized_breakdown(
            grid, BestShiftScheme(5), 5, (40, 105),
            trials=2000, seed=search_seed,
        )
        fixed_overturns += fixed.overturns
        shift_overturns += shifted.overturns
        if fixed.min_flips is not None and (fixed_min is None or fixed.min_flips < fixed_min):
            fixed_min = fixed.min_flips
        if shifted.min_flips is not None and (shift_min is None or shifted.min_flips < shift_min):
            shift_min = shifted.min_flips
    elapsed = time.perf_counter() - t0
    ok = (
        fixed_overturns > 0
        and shift_overturns > 0
        and fixed_min >= 656
        and shift_min >= 945
        and elapsed <= 600.0
    )
    _report(
        5,
        "randomized lower bounds",
        ok,
        f"fixed min {fixed_min} >= 656 ({fixed_overturns} overturns),"
        f" best-shift min {shift_min} >= 945 ({shift_overturns} overturns),"
        f" 10^4 trials each in {elapsed:.1f} s",
    )


def test_criterion_06_flag_instance():
    cfg = FlagConfig(seed=1)
    found = _flag_search(cfg)
    if found is None:
        _report(6, "flag experiment", False, f"no instance in {cfg.attempts} attempts")
        return
    g_before, a_before, b_before = found["before"]
    g_after, a_after, b_after = found["after"]
    flips = found["flips"]
    diffs = [
        (u, v)
        for u, v in zip(found["grid"].votes, found["noisy"].votes)
        if u != v
    ]
    ok = (
        found["attempt"] < cfg.attempts
        and g_before.counts == (207, 153)
        and g_before.winner == 0
        and g_after.winner == 1
        and g_after.counts == (207 - flips, 153 + flips)
        and sum(g_after.counts) == 360
        and a_before.winner == 0
        and b_before.winner == 0
        and a_after.winner == 0
        and b_after.winner == 0
        and len(diffs) == flips
        and all(pair == (0, 1) for pair in diffs)
    )
    _report(
        6,
        "flag experiment",
        ok,
        f"attempt {found['attempt']}, {flips} flips, national 207/153 -> "
        f"{g_after.counts[0]}/{g_after.counts[1]}, regions 5x4 "
        f"{a_after.regions_won[0]}/{a_after.regions_won[1]} white, 3x3 "
        f"{b_after.regions_won[0]}/{b_after.regions_won[1]} white",
    )


def test_criterion_07_salt_pepper_parity():
    grid = generate_grid(
        GridGenSpec(50, 50, 0.55, "uniform_random", seed=stream_seed(0, "a7.grid"))
    )
    rates = (0.06, 0.07, 0.08, 0.085, 0.09, 0.095, 0.10, 0.11, 0.12)
    noise_seed = stream_seed(0, "a7.noise")
    curve_g = salt_pepper_threshold(grid, GlobalScheme(), rates, trials=500, seed=noise_seed)
    curve_r = salt_pepper_threshold(
        grid, RegionalScheme(Partition.square(5)), rates, trials=500, seed=noise_seed
    )
    t_global = estimate_threshold(curve_g)
    t_regional = estimate_threshold(curve_r)
    if t_global is None or t_regional is None:
        _report(7, "salt-and-pepper parity", False, "a curve never crossed one half")
        return
    ok = abs(t_global - t_regional) <= 0.02
    _report(
        7,
        "salt-and-pepper parity",
        ok,
        f"thresholds global {t_global:.4f} vs regional {t_regional:.4f},"
        f" diff {abs(t_global - t_regional):.4f} <= 0.02",
    )


def test_criterion_08_packing_residual():
    sides = (3, 6, 12, 24, 48)
    fractions = []
    for side in sides:
        area = NoiseArea(frozenset((x, y) for x in range(side) for y in range(side)))
        packed = pack_blocks(area, 3)
        got = Fraction(packed.residual, side * side)
        want = 1 - Fraction((side // 3) * 3, side) ** 2
        fractions.append((side, got, want))
    unit = NoiseArea(frozenset((x, y) for x in range(5) for y in range(5)))
    unit_residual = pack_blocks(unit, 1).residual
    ok = (
        all(got == want for _, got, want in fractions)
        and all(a[1] >= b[1] for a, b in zip(fractions, fractions[1:]))
        and unit_residual == 0
    )
    _report(
        8,
        "packing residual",
        ok,
        "residual fractions "
        + ", ".join(f"W={side}: {got}" for side, got, _ in fractions)
        + f"; edge-1 residual {unit_residual}",
    )


def test_criterion_09_recognition_unimodality():
    gallery = PatternGallery.synthetic(16, 60, 40, seed=11)
    experiment = run_conjecture_experiment(
        gallery,
        region_counts=(1, 4, 8, 24, 96, 600),
        noise_levels=(0.5,),
        trials=100,
        seed=stream_seed(0, "a9.trials"),
        k=8,
    )
    rates = {rc: experiment.rates[(rc, 0.5)] for rc in experiment.region_counts}
    peak = max(rates, key=lambda rc: (rates[rc], -rc))
    correct = {rc: {} for rc in experiment.region_counts}
    for row in experiment.rows:
        correct[row.region_count][row.trial] = row.correct
    p_values = {}
    for rival in (1, 600):
        wins = sum(1 for t in range(100) if correct[peak][t] and not correct[rival][t])
        losses = sum(1 for t in range(100) if not correct[peak][t] and correct[rival][t])
        if wins + losses == 0:
            p_values[rival] = 1.0
        else:
            p_values[rival] = binomtest(wins, wins + losses, 0.5, alternative="greater").pvalue
    ok = (
        experiment.r1_matches_global
        and 1 < peak < 600
        and p_values[1] < 0.05
        and p_values[600] < 0.05
    )
    _report(
        9,
        "recognition unimodality",
        ok,
        f"rates {rates}, peak R={peak}; paired one-sided p vs R=1: {p_values[1]:.2e},"
        f" vs R=600: {p_values[600]:.2e}; R=1 matches global: {experiment.r1_matches_global}",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    eigen_cfg = tmp_path / "eigen.cfg"
    eigen_cfg.write_text(
        "patterns=6\nwidth=20\nheight=12\ntrials=3\nnoise_levels=0.0,0.5\nregion_counts=1,4\n"
    )
    runs = (
        ("bounds", ["--format", "json"]),
        ("sweep", ["--format", "csv", "--seed", "3"]),
        ("breakdown", ["--format", "json", "--seed", "5"]),
        ("eigen", ["--config", str(eigen_cfg), "--format", "csv", "--seed", "9"]),
        ("flag", ["--format", "json", "--seed", "1"]),
    )
    mismatched = []
    for name, extra in runs:
        first = tmp_path / f"{name}_first"
        second = tmp_path / f"{name}_second"
        code1 = main([name, "--out", str(first), *extra])
        code2 = main([name, "--out", str(second), *extra])
        if code1 != code2 or _tree_bytes(first) != _tree_bytes(second):
            mismatched.append(name)
    ok = not mismatched
    _report(
        10,
        "byte-identical reruns",
        ok,
        "all five subcommands reran identically" if ok else f"mismatch in {mismatched}",
    )
