"""Checks of the program's outputs, computed apart from the program.

Every function here takes plain numpy vote arrays and the program's
result, recomputes what the result claims with numpy, and returns a list
of error strings (empty when the output is correct). Nothing here
imports regionvote: tallies, contamination counts and exact overturn
probabilities are all computed afresh.

Votes are (height, width) integer arrays; cell (x, y) is votes[y, x].
"""

from __future__ import annotations

import math

import numpy as np

# Theorem bounds at N = 10,000 cells, 52.5 % for the leader and 5x5 noise
# blocks against 5x5 regions, copied from the paper's tables (table 1,
# fixed partition; table 2, best shift). They are literals on purpose: the
# check must not import the values it checks.
FIXED_PARTITION_MIN_FLIPS = 656
BEST_SHIFT_MIN_FLIPS = 945

# Binomial standard errors allowed between an observed overturn count and
# its exact expectation, plus one count of slack for the discrete draw.
# Six standard errors put a false alarm near 2e-9 per comparison.
OVERTURN_SIGMAS = 6.0

# The flag experiment's two unshifted regional schemes, (region width,
# region height), as the report names them: regional_5x4, regional_3x3.
FLAG_PARTITIONS = ((5, 4), (3, 3))


# ---------------------------------------------------------------------------
# tallies


def strict_winner(counts) -> int | None:
    """Index of the strict maximum of a 1-D count vector, else None."""
    counts = np.asarray(counts)
    top = counts.max()
    leaders = np.flatnonzero(counts == top)
    return int(leaders[0]) if leaders.size == 1 else None


def tiles(cells: np.ndarray, region_w: int, region_h: int, dx: int = 0, dy: int = 0):
    """(region rows, region_h, region cols, region_w) view of a shifted grid.

    A shift (dx, dy) moves cell (x, y) to ((x + dx) mod width,
    (y + dy) mod height) before the lattice is laid down, so region
    (row, col) has the row-major index col + cols * row.
    """
    height, width = cells.shape
    shifted = np.roll(cells, (dy, dx), axis=(0, 1))
    return shifted.reshape(height // region_h, region_h, width // region_w, region_w)


def region_counts(votes, region_w, region_h, dx=0, dy=0, candidates=2) -> np.ndarray:
    """(regions, candidates) vote counts, regions in row-major order."""
    t = tiles(votes, region_w, region_h, dx, dy)
    return np.stack(
        [(t == c).sum(axis=(1, 3)).ravel() for c in range(candidates)], axis=1
    )


def regional_winner(votes: np.ndarray, region_w: int, region_h: int, dx=0, dy=0):
    """(overall winner, regions won per candidate) under strict plurality."""
    counts = region_counts(votes, region_w, region_h, dx, dy)
    top = counts.max(axis=1)
    decided = (counts == top[:, None]).sum(axis=1) == 1
    won = np.bincount(counts.argmax(axis=1)[decided], minlength=counts.shape[1])
    return strict_winner(won), won


def global_winner(votes: np.ndarray) -> int | None:
    return strict_winner(np.bincount(votes.ravel(), minlength=2))


# ---------------------------------------------------------------------------
# block_search: randomized_breakdown witnesses


def block_mask(shape, anchors, edge: int) -> np.ndarray:
    """Cells covered by the blocks; cover counts above 1 mean overlap."""
    cover = np.zeros(shape, dtype=np.int64)
    for ax, ay in anchors:
        cover[ay : ay + edge, ax : ax + edge] += 1
    return cover


def best_shift(covered: np.ndarray, region_edge: int) -> tuple[int, int]:
    """Shift touching the fewest regions; ties to the smallest (dx, dy)."""
    best = None
    for dx in range(region_edge):
        for dy in range(region_edge):
            touched = int(tiles(covered, region_edge, region_edge, dx, dy).any(axis=(1, 3)).sum())
            if best is None or touched < best[0]:
                best = (touched, dx, dy)
    return best[1], best[2]


def check_block_result(
    votes: np.ndarray,
    scheme: str,
    region_edge: int,
    block_edge: int,
    block_counts: tuple[int, int],
    trials: int,
    min_flips,
    witness_anchors,
    overturns: int,
    target: int = 0,
    flip_to: int = 1,
) -> list[str]:
    """Replay a randomized_breakdown result on the vote array.

    scheme is "global", "regional" (unshifted region_edge squares) or
    "best_shift". The witness must be in-bounds disjoint blocks whose
    target cells number exactly min_flips and, flipped, change the
    scheme's winner; min_flips must respect the theorem's bounds.
    """
    errors = []
    if not 0 <= overturns <= trials:
        errors.append(f"{scheme}: {overturns} overturns out of {trials} trials")
    if (min_flips is None) != (overturns == 0):
        errors.append(f"{scheme}: min_flips {min_flips} with {overturns} overturns")
    if min_flips is None:
        return errors
    height, width = votes.shape
    lo, hi = block_counts
    if not lo <= len(witness_anchors) <= hi:
        errors.append(f"{scheme}: witness has {len(witness_anchors)} blocks")
    if any(
        not (0 <= ax <= width - block_edge and 0 <= ay <= height - block_edge)
        for ax, ay in witness_anchors
    ):
        errors.append(f"{scheme}: witness block out of bounds")
        return errors
    cover = block_mask(votes.shape, witness_anchors, block_edge)
    if cover.max() > 1:
        errors.append(f"{scheme}: witness blocks overlap")
    flipped = (cover > 0) & (votes == target)
    if int(flipped.sum()) != min_flips:
        errors.append(f"{scheme}: witness flips {int(flipped.sum())} cells, result says {min_flips}")
    noisy = np.where(flipped, flip_to, votes)
    if scheme == "global":
        before, after = global_winner(votes), global_winner(noisy)
        a, b = int((votes == target).sum()), int((votes == flip_to).sum())
        floor = (a - b) // 2 + 1
    elif scheme == "regional":
        before = regional_winner(votes, region_edge, region_edge)[0]
        after = regional_winner(noisy, region_edge, region_edge)[0]
        floor = FIXED_PARTITION_MIN_FLIPS
    else:
        dx, dy = best_shift(cover > 0, region_edge)
        before = regional_winner(votes, region_edge, region_edge, dx, dy)[0]
        after = regional_winner(noisy, region_edge, region_edge, dx, dy)[0]
        floor = BEST_SHIFT_MIN_FLIPS
    if before != target or after is None or after == target:
        errors.append(f"{scheme}: witness does not overturn ({before} -> {after})")
    if min_flips < floor:
        errors.append(f"{scheme}: min_flips {min_flips} below the bound {floor}")
    return errors


# ---------------------------------------------------------------------------
# dispersed_noise: exact overturn probabilities


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """P(X = k) for k = 0..n, X ~ Binomial(n, p), through log-gamma."""
    k = np.arange(n + 1)
    if p <= 0.0 or p >= 1.0:
        out = np.zeros(n + 1)
        out[0 if p <= 0.0 else n] = 1.0
        return out
    log_choose = np.array(
        [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in k]
    )
    return np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def global_overturn_probability(votes: np.ndarray, rate: float, target=0, flip_to=1) -> float:
    """P(rival strictly ahead) when each target vote flips with the rate."""
    a = int((votes == target).sum())
    b = int((votes == flip_to).sum())
    need = (a - b) // 2 + 1  # flips f with b + f > a - f
    pmf = binomial_pmf(a, rate)
    return float(pmf[max(need, 0):].sum())


def regional_overturn_probability(
    votes: np.ndarray, region_edge: int, rate: float, target=0, flip_to=1
) -> float:
    """P(rival wins strictly more regions) under independent flips.

    Each region keeps, ties or loses independently; a dynamic program
    over regions carries the distribution of (rival regions - target
    regions).
    """
    counts = region_counts(votes, region_edge, region_edge)
    n_regions = counts.shape[0]
    dist = np.zeros(2 * n_regions + 1)
    dist[n_regions] = 1.0
    outcome: dict[tuple[int, int], tuple[float, float, float]] = {}
    for a, b in zip(counts[:, target], counts[:, flip_to]):
        key = (int(a), int(b))
        if key not in outcome:
            f = np.arange(a + 1)
            pmf = binomial_pmf(int(a), rate)
            keep = float(pmf[(a - f) > (b + f)].sum())
            tie = float(pmf[(a - f) == (b + f)].sum())
            outcome[key] = (keep, tie, 1.0 - keep - tie)
        keep, tie, lose = outcome[key]
        nxt = tie * dist
        nxt[1:] += lose * dist[:-1]
        nxt[:-1] += keep * dist[1:]
        dist = nxt
    return float(dist[n_regions + 1 :].sum())


def check_overturn_frequency(label: str, frequency: float, trials: int, p: float) -> list[str]:
    observed = round(frequency * trials)
    allowed = OVERTURN_SIGMAS * math.sqrt(trials * p * (1 - p)) + 1
    if abs(observed - trials * p) > allowed:
        return [
            f"{label}: {observed}/{trials} overturns, exact probability {p:.4f}"
            f" allows {trials * p:.1f} +- {allowed:.1f}"
        ]
    return []


# ---------------------------------------------------------------------------
# flag_search: the flag report


def check_flag_report(report: dict) -> list[str]:
    """Recount a `regionvote flag` JSON report from its two grids."""
    cfg = report["config"]
    width, height = cfg["width"], cfg["height"]
    before = np.asarray(report["grid_before"], dtype=np.int64).reshape(height, width)
    after = np.asarray(report["grid_after"], dtype=np.int64).reshape(height, width)
    flips = report["flips"]
    errors = []
    white, black = int((before == 0).sum()), int((before == 1).sum())
    if (white, black) != (cfg["white"], cfg["black"]):
        errors.append(f"grid before has {white}/{black} votes")
    if global_winner(before) != 0 or global_winner(after) != 1:
        errors.append("black does not take the national vote")
    for region_w, region_h in FLAG_PARTITIONS:
        key = f"regional_{region_w}x{region_h}"
        for stage, votes in (("before", before), ("after", after)):
            winner, won = regional_winner(votes, region_w, region_h)
            if winner != 0:
                errors.append(f"{key} {stage}: white does not win ({won.tolist()})")
            if report.get(key, {}).get(stage, {}).get("regions_won") != won.tolist():
                errors.append(f"{key} {stage}: report disagrees with recount {won.tolist()}")
    changed = before != after
    if not np.all((before[changed] == 0) & (after[changed] == 1)):
        errors.append("a changed cell did not go white -> black")
    edge = report["noise"]["block_edge"]
    covered = block_mask(before.shape, report["noise"]["anchors"], edge) > 0
    if np.any(changed & ~covered):
        errors.append("a changed cell lies outside every block")
    if int(changed.sum()) != flips:
        errors.append(f"{int(changed.sum())} cells changed, report says {flips} flips")
    return errors


# ---------------------------------------------------------------------------
# eigen_recognition


def check_eigen_experiment(
    rates: dict, rows, counts_of_regions: tuple[int, ...], noise_levels: tuple[float, ...],
    trials: int, r1_matches_global: bool,
) -> list[str]:
    """Noise-free probes are always recognised, R=1 equals the global
    matcher, and the reported rates are the means of the reported rows."""
    errors = []
    if not r1_matches_global:
        errors.append("R=1 regional label differs from the global label")
    for rc in counts_of_regions:
        if rates[(rc, 0.0)] != 1.0:
            errors.append(f"R={rc}: rate {rates[(rc, 0.0)]} at noise 0")
    hits: dict = {}
    count = 0
    for row in rows:
        hits[(row.region_count, row.noise_level)] = (
            hits.get((row.region_count, row.noise_level), 0) + int(row.correct)
        )
        count += 1
    if count != len(counts_of_regions) * len(noise_levels) * trials:
        errors.append(f"{count} rows for {trials} trials")
    for key, rate in rates.items():
        if hits.get(key, 0) != round(rate * trials):
            errors.append(f"{key}: rate {rate} but {hits.get(key, 0)} correct rows")
    return errors
