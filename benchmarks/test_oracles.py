"""The benchmark's output checks against brute force, and against
corrupted outputs they must reject.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import copy
import itertools
import json
import math

import numpy as np
import pytest

import oracles
from regionvote import breakdown, cli, eigenlab
from regionvote.grid import Partition


def brute_region_counts(votes, region_w, region_h, dx, dy):
    """Cell-by-cell region counts, straight from the lattice definition."""
    height, width = votes.shape
    cols = width // region_w
    counts = {}
    for y in range(height):
        for x in range(width):
            col = ((x + dx) % width) // region_w
            row = ((y + dy) % height) // region_h
            key = col + cols * row
            counts.setdefault(key, [0, 0])[int(votes[y, x])] += 1
    return [counts[k] for k in sorted(counts)]


def brute_winner(counts):
    top = max(counts)
    leaders = [i for i, c in enumerate(counts) if c == top]
    return leaders[0] if len(leaders) == 1 else None


def brute_regional_winner(votes, region_w, region_h, dx=0, dy=0):
    won = [0, 0]
    for counts in brute_region_counts(votes, region_w, region_h, dx, dy):
        w = brute_winner(counts)
        if w is not None:
            won[w] += 1
    return brute_winner(won), won


# ---------------------------------------------------------------------------
# tallies and shifts, shared by the block and flag checks


@pytest.mark.parametrize(
    "dims, region", [((6, 4), (3, 2)), ((6, 6), (3, 3)), ((15, 24), (5, 4)), ((15, 24), (3, 3))]
)
def test_region_tallies_match_cell_by_cell_count(dims, region):
    rng = np.random.default_rng(7)
    width, height = dims
    for _ in range(5):
        votes = rng.integers(0, 2, size=(height, width))
        for dx in range(region[0]):
            for dy in range(region[1]):
                got = oracles.region_counts(votes, *region, dx, dy).tolist()
                assert got == brute_region_counts(votes, *region, dx, dy)
                winner, won = oracles.regional_winner(votes, *region, dx, dy)
                assert (winner, won.tolist()) == brute_regional_winner(votes, *region, dx, dy)


def test_best_shift_matches_brute_force_contamination():
    rng = np.random.default_rng(11)
    edge, size = 3, 9
    for _ in range(30):
        covered = np.zeros((size, size), dtype=bool)
        for _ in range(rng.integers(1, 4)):
            ax, ay = rng.integers(0, size - 2, size=2)
            covered[ay : ay + 2, ax : ax + 2] = True
        best = None
        for dx in range(edge):
            for dy in range(edge):
                touched = {
                    (((x + dx) % size) // edge, ((y + dy) % size) // edge)
                    for y, x in zip(*np.nonzero(covered))
                }
                if best is None or len(touched) < best[0]:
                    best = (len(touched), dx, dy)
        assert oracles.best_shift(covered, edge) == best[1:]


# ---------------------------------------------------------------------------
# block_search


@pytest.fixture(scope="module")
def block_case():
    spec = breakdown.GridGenSpec(100, 100, 0.525, "per_region_margin", seed=5, region_edge=5)
    grid = breakdown.generate_grid(spec)
    votes = np.asarray(grid.votes).reshape(100, 100)
    schemes = {
        "global": breakdown.GlobalScheme(),
        "regional": breakdown.RegionalScheme(Partition.square(5)),
        "best_shift": breakdown.BestShiftScheme(5),
    }
    results = {
        kind: breakdown.randomized_breakdown(grid, s, 5, (40, 105), trials=60, seed=9)
        for kind, s in schemes.items()
    }
    return votes, results


def _check(votes, kind, result, **changes):
    fields = {
        "min_flips": result.min_flips,
        "witness_anchors": result.witness.anchors if result.witness else (),
        "overturns": result.overturns,
    }
    fields.update(changes)
    return oracles.check_block_result(votes, kind, 5, 5, (40, 105), 60, **fields)


@pytest.mark.parametrize("kind", ["global", "regional", "best_shift"])
def test_block_check_accepts_program_output(block_case, kind):
    votes, results = block_case
    assert results[kind].overturns > 0
    assert _check(votes, kind, results[kind]) == []


@pytest.mark.parametrize("kind", ["global", "regional", "best_shift"])
def test_block_check_rejects_corrupted_output(block_case, kind):
    votes, results = block_case
    result = results[kind]
    anchors = list(result.witness.anchors)
    assert _check(votes, kind, result, min_flips=result.min_flips + 1)
    assert _check(votes, kind, result, overturns=0)
    assert _check(votes, kind, result, witness_anchors=anchors[:-1])
    moved = [(anchors[0][0], anchors[0][1])] + anchors[:-1]  # duplicate block: overlap
    assert _check(votes, kind, result, witness_anchors=moved)


def test_block_check_rejects_an_overturn_cheaper_than_the_bound():
    # Four 5x5 regions, three narrowly held by the target: two blocks
    # overturn the regional vote with 26 flips. The replay holds, so only
    # the theorem's bound rejects it.
    narrow = np.ones(25, dtype=np.int64)
    narrow[:13] = 0
    votes = np.ones((10, 10), dtype=np.int64)
    for x0, y0 in ((0, 0), (5, 0), (0, 5)):
        votes[y0 : y0 + 5, x0 : x0 + 5] = narrow.reshape(5, 5)
    errors = oracles.check_block_result(
        votes, "regional", 5, 5, (1, 105), 1, 26, [(0, 0), (5, 0)], 1
    )
    assert errors == ["regional: min_flips 26 below the bound 656"]


# ---------------------------------------------------------------------------
# dispersed_noise


def brute_overturn_probabilities(votes, region_edge, rate):
    """Sum over every subset of flipped target cells."""
    target_cells = list(zip(*np.nonzero(votes == 0)))
    p_global = p_regional = 0.0
    n = len(target_cells)
    for flips in itertools.product((0, 1), repeat=n):
        k = sum(flips)
        weight = rate**k * (1 - rate) ** (n - k)
        noisy = votes.copy()
        for (y, x), f in zip(target_cells, flips):
            if f:
                noisy[y, x] = 1
        if brute_winner([int((noisy == 0).sum()), int((noisy == 1).sum())]) == 1:
            p_global += weight
        if brute_regional_winner(noisy, region_edge, region_edge)[0] == 1:
            p_regional += weight
    return p_global, p_regional


@pytest.mark.parametrize("seed", range(4))
def test_exact_overturn_probabilities_match_enumeration(seed):
    rng = np.random.default_rng(seed)
    votes = np.ones((4, 4), dtype=np.int64)
    votes.ravel()[rng.permutation(16)[: 9 + seed % 3]] = 0
    for rate in (0.1, 0.35, 0.6):
        want_global, want_regional = brute_overturn_probabilities(votes, 2, rate)
        assert oracles.global_overturn_probability(votes, rate) == pytest.approx(want_global, abs=1e-12)
        assert oracles.regional_overturn_probability(votes, 2, rate) == pytest.approx(
            want_regional, abs=1e-12
        )


def test_binomial_pmf_matches_exact_binomial():
    for n, p in ((0, 0.3), (7, 0.2), (30, 0.55), (30, 0.0), (12, 1.0)):
        want = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        assert oracles.binomial_pmf(n, p) == pytest.approx(want, abs=1e-12)


def test_frequency_check_accepts_program_output_and_rejects_a_shifted_one():
    grid = breakdown.generate_grid(breakdown.GridGenSpec(20, 20, 0.55, "uniform_random", seed=2))
    votes = np.asarray(grid.votes).reshape(20, 20)
    rates = (0.05, 0.1, 0.15)
    for kind, scheme in (
        ("global", breakdown.GlobalScheme()),
        ("regional", breakdown.RegionalScheme(Partition.square(5))),
    ):
        points = breakdown.salt_pepper_threshold(grid, scheme, rates, trials=400, seed=4)
        for point in points:
            if kind == "global":
                p = oracles.global_overturn_probability(votes, point.rate)
            else:
                p = oracles.regional_overturn_probability(votes, 5, point.rate)
            assert oracles.check_overturn_frequency(kind, point.overturn_frequency, 400, p) == []
    assert oracles.check_overturn_frequency("x", 0.45, 500, 0.3)
    assert oracles.check_overturn_frequency("x", 0.0, 500, 0.2)
    assert oracles.check_overturn_frequency("x", 0.3, 500, 0.3) == []


# ---------------------------------------------------------------------------
# flag_search


@pytest.fixture(scope="module")
def flag_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("flag")
    assert cli.main(["flag", "--seed", "1", "--format", "json", "--out", str(out)]) == 0
    return json.loads((out / "flag_report.json").read_text())


def test_flag_check_accepts_program_output(flag_report):
    assert oracles.check_flag_report(flag_report) == []


def test_flag_check_rejects_corrupted_reports(flag_report):
    width = flag_report["config"]["width"]
    before, after = flag_report["grid_before"], flag_report["grid_after"]
    changed = [i for i, (u, v) in enumerate(zip(before, after)) if u != v]

    def corrupt(edit):
        report = copy.deepcopy(flag_report)
        edit(report)
        return oracles.check_flag_report(report)

    assert corrupt(lambda r: r.update(flips=r["flips"] + 1))
    # a changed cell put back: one flip fewer than reported
    assert corrupt(lambda r: r["grid_after"].__setitem__(changed[0], 0))
    # a black cell turned white
    black = before.index(1)
    assert corrupt(lambda r: r["grid_after"].__setitem__(black, 0))
    # a white cell flipped outside every block
    covered = oracles.block_mask(
        (flag_report["config"]["height"], width),
        flag_report["noise"]["anchors"],
        flag_report["noise"]["block_edge"],
    ).ravel()
    outside = next(i for i, v in enumerate(before) if v == 0 and not covered[i])
    assert corrupt(lambda r: r["grid_after"].__setitem__(outside, 1))
    assert corrupt(lambda r: r["regional_3x3"]["after"]["regions_won"].reverse())


# ---------------------------------------------------------------------------
# eigen_recognition


@pytest.fixture(scope="module")
def eigen_case():
    gallery = eigenlab.PatternGallery.synthetic(6, 20, 12, seed=3)
    exp = eigenlab.run_conjecture_experiment(gallery, (1, 4, 60), (0.0, 0.5), 4, seed=2, k=4)
    return gallery, exp


def test_noise_free_probes_match_themselves_in_every_region(eigen_case):
    # Brute force behind the "rate 1.0 at noise 0" claim: in pixel space
    # each gallery patch is nearest to itself, in every region layout.
    gallery, _ = eigen_case
    pats = gallery.patterns
    for rc in (1, 4, 60):
        cols, rows = eigenlab.region_layout(20, 12, rc)
        rw, rh = 20 // cols, 12 // rows
        for y0 in range(0, 12, rh):
            for x0 in range(0, 20, rw):
                patch = pats[:, y0 : y0 + rh, x0 : x0 + rw].reshape(len(pats), -1)
                dist = ((patch[:, None, :] - patch[None, :, :]) ** 2).sum(axis=2)
                assert (dist.argmin(axis=1) == np.arange(len(pats))).all()


def test_eigen_check_accepts_program_output(eigen_case):
    _, exp = eigen_case
    assert oracles.check_eigen_experiment(
        exp.rates, exp.rows, (1, 4, 60), (0.0, 0.5), 4, exp.r1_matches_global
    ) == []


def test_eigen_check_rejects_corrupted_output(eigen_case):
    _, exp = eigen_case
    args = ((1, 4, 60), (0.0, 0.5), 4)
    rates = dict(exp.rates)
    rates[(60, 0.0)] = 0.75
    assert oracles.check_eigen_experiment(rates, exp.rows, *args, True)
    assert oracles.check_eigen_experiment(exp.rates, exp.rows, *args, False)
    assert oracles.check_eigen_experiment(exp.rates, exp.rows[1:], *args, True)
    rates = dict(exp.rates)
    rates[(4, 0.5)] = min(1.0, rates[(4, 0.5)] + 0.25)
    if rates[(4, 0.5)] != exp.rates[(4, 0.5)]:
        assert oracles.check_eigen_experiment(rates, exp.rows, *args, True)
