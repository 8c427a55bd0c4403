"""Minimal overturning noise, searched four ways.

A breakdown of a voting scheme is the smallest number of target-to-rival
flips that changes the winner. Only flips away from the standing winner
are considered. The searches:

  * exhaustive_breakdown returns the exact minimum: nationally by walking
    flip counts upward, and for a fixed partition of a 2-candidate grid by
    a knapsack over each region's end state, in O(R^2) for R regions;
  * randomized_breakdown samples concentrated block placements (flip
    probability 1) and reports the cheapest overturn found, an upper
    bound on the true breakdown;
  * greedy_block_breakdown tiles aligned blocks row by row until the
    winner flips, a deterministic reference point;
  * salt_pepper_threshold sweeps dispersed-noise rates and estimates the
    rate where the overturn frequency crosses one half.

A best-shift scheme picks each placement's partition with
shifting.contaminated_counts, the contamination kernel the sweep uses,
so the search and the sweep cannot disagree on the chosen shift.

The randomized search places a chunk of trials in lockstep and
_FastState.outcomes evaluates them together, as the greedy search does
its prefixes. salt_pepper_threshold draws a chunk of trials into buffers
of about _SALT_PEPPER_CHUNK_DRAWS uniforms, allocated once per call, so
its memory does not grow with the trial count. Its regional branch counts
a chunk's flips per region with no loop over trials: it packs the same
cell's flip bits from several trials into the lanes of one uint64 word and
sums each region's words (SIMD within a register). A lane is wide enough
for the largest region's target cells, so no lane's sum carries into its
neighbour.

Every winner, national or regional, before or after the flips, comes from
voting.winners over voting.region_counts, with the nation as one region.
Every search first refuses a grid whose scheme winner is not the target,
since there is nothing to overturn.

Grid generation lives here too, with the margin-enforcing mode the
regional lower bounds are stated for.

All searches are deterministic for a fixed seed; the randomized chunks,
which share one generator, are sized from the arguments alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from regionvote.bounds import round_half_up
from regionvote.grid import Grid, GridDims, Partition, _axis_pieces, _axis_segments
from regionvote.grid import _summed_area, enumerate_partitions
from regionvote.noise import BlockNoiseSpec, _place_disjoint_blocks, block_capacity
from regionvote.shifting import _SUB_BATCH_BYTES, _anchor_arrays, contaminated_counts
from regionvote.voting import Winner, region_counts, tally_global, tally_regional, winners


class InfeasibleMarginError(ValueError):
    """The requested vote fraction cannot satisfy the per-region margin."""


# ---------------------------------------------------------------------------
# grid generation


@dataclass(frozen=True)
class GridGenSpec:
    """Two-candidate grid recipe with an exact leader count.

    Candidate 0 receives exactly round(a_frac * n_cells) votes. Modes:

      * uniform_random: leader cells drawn uniformly;
      * per_region_margin: candidate 0 holds a strict majority in every
        region_edge-square region, and not just for the reference
        partition: the construction balances votes over the block's
        phase lattice, so every toroidal translate of the region lattice
        keeps the margin too (any shifted partition sees majorities);
      * adversarial_clustered: rival votes packed into one compact blob,
        the hardest layout for national voting at a given margin.
    """

    width: int
    height: int
    a_frac: float
    mode: str
    seed: int
    region_edge: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("uniform_random", "per_region_margin", "adversarial_clustered"):
            raise ValueError(f"unknown grid mode {self.mode!r}")
        if not (0.0 <= self.a_frac <= 1.0):
            raise ValueError("a_frac must lie in [0, 1]")
        if self.mode == "per_region_margin" and self.region_edge is None:
            raise ValueError("per_region_margin mode needs region_edge")


def generate_grid(spec: GridGenSpec) -> Grid:
    n_cells = spec.width * spec.height
    n_a = round_half_up(spec.a_frac * n_cells)
    rng = np.random.default_rng(spec.seed)
    if spec.mode == "uniform_random":
        votes = np.ones(n_cells, dtype=np.int64)
        order = rng.permutation(n_cells)
        votes[order[:n_a]] = 0
    elif spec.mode == "adversarial_clustered":
        votes = _clustered_votes(spec.width, spec.height, n_cells - n_a, rng)
    else:
        votes = _margin_votes(spec.width, spec.height, n_a, spec.region_edge, rng)
    return Grid(spec.width, spec.height, 2, votes)


def _clustered_votes(width: int, height: int, n_b: int, rng: np.random.Generator) -> np.ndarray:
    cx = float(rng.uniform(0, width))
    cy = float(rng.uniform(0, height))
    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    dist = (xs - cx) ** 2 + (ys - cy) ** 2
    order = np.argsort(dist.ravel(), kind="stable")
    votes = np.zeros(width * height, dtype=np.int64)
    votes[order[:n_b]] = 1
    return votes


def _margin_votes(
    width: int, height: int, n_a: int, edge: int, rng: np.random.Generator
) -> np.ndarray:
    if width % edge != 0 or height % edge != 0:
        raise InfeasibleMarginError(
            f"region edge {edge} does not divide grid {width}x{height}"
        )
    n_cells = width * height
    n_b = n_cells - n_a
    area = edge * edge
    windows = n_cells // area
    # Each phase class (x mod edge, y mod edge) hits every aligned window
    # exactly once, so giving whole phases to the rival keeps every
    # window's rival count identical.
    rival_phases = -(-n_b * area // n_cells)  # ceil(n_b / windows)
    if rival_phases > (area - 1) // 2:
        raise InfeasibleMarginError(
            f"a_frac too small for a strict majority in every {edge}x{edge} region"
        )
    phase_order = rng.permutation(area)
    chosen = phase_order[:rival_phases]
    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    phases = (xs % edge) + edge * (ys % edge)
    votes = np.isin(phases, chosen).astype(np.int64).ravel()
    # Trim the rival surplus cell by cell; removals only widen margins.
    surplus = rival_phases * windows - n_b
    if surplus:
        rival_idx = np.flatnonzero(votes == 1)
        drop = rng.choice(rival_idx, size=surplus, replace=False)
        votes[drop] = 0
    return votes


# ---------------------------------------------------------------------------
# schemes


@dataclass(frozen=True)
class GlobalScheme:
    """Strict plurality over all cells."""


@dataclass(frozen=True)
class RegionalScheme:
    """Strict plurality of regions won under one fixed partition."""

    partition: Partition


@dataclass(frozen=True)
class BestShiftScheme:
    """Regional voting after re-partitioning to dodge the noise blocks.

    The defender sweeps every shift of the square partition, keeps the
    one touching the fewest regions (ties to the first in
    enumerate_partitions order, the lexicographically smallest offset),
    and tallies under it.
    """

    region_edge: int


Scheme = GlobalScheme | RegionalScheme | BestShiftScheme


def scheme_label(scheme: Scheme) -> str:
    if isinstance(scheme, GlobalScheme):
        return "global"
    if isinstance(scheme, RegionalScheme):
        p = scheme.partition
        return f"regional({p.region_width}x{p.region_height}+{p.dx},{p.dy})"
    return f"best_shift({scheme.region_edge})"


def scheme_winner(noisy: Grid, scheme: Scheme, spec: BlockNoiseSpec | None = None) -> Winner:
    """Winner of the scheme on an already noisy grid.

    BestShiftScheme needs the block spec: contamination is geometric, so
    the defender chooses the partition from the blocks, not the flips.
    """
    if isinstance(scheme, GlobalScheme):
        return tally_global(noisy).winner
    if isinstance(scheme, RegionalScheme):
        return tally_regional(noisy, scheme.partition).winner
    if spec is None:
        raise ValueError("best-shift evaluation needs the noise block spec")
    dims = (noisy.width, noisy.height)
    Partition.square(scheme.region_edge).validate_for(dims)
    spec.validate_bounds(dims)
    touched = contaminated_counts(dims, scheme.region_edge, *_anchor_arrays(spec), spec.block_edge)
    return tally_regional(noisy, enumerate_partitions(scheme.region_edge)[touched.argmin()]).winner


def _check_target_leads(grid: Grid, scheme: Scheme, target: int, flip_to: int) -> None:
    """Refuse a grid whose scheme winner is not the target: no flip away from
    the target can overturn it. Best shift tallies under the shift an empty
    block spec leaves, the first."""
    base_winner = scheme_winner(grid, scheme, BlockNoiseSpec(1, (), target, flip_to))
    if base_winner != target:
        raise ValueError(f"grid winner is {base_winner}, expected target {target}")


@dataclass(frozen=True)
class BreakdownResult:
    scheme: str
    search_mode: str
    min_flips: int | None
    witness: BlockNoiseSpec | None
    trials: int = 0
    overturns: int = 0
    skipped_infeasible: int = 0
    skipped_zero_flip: int = 0
    # randomized best-shift searches: ((dx, dy), trials) for every shift chosen
    chosen_shifts: tuple[tuple[tuple[int, int], int], ...] | None = None

    @property
    def found(self) -> bool:
        return self.min_flips is not None

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "search_mode": self.search_mode,
            "min_flips": self.min_flips,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "trials": self.trials,
            "overturns": self.overturns,
            "skipped_infeasible": self.skipped_infeasible,
            "skipped_zero_flip": self.skipped_zero_flip,
            **({} if self.chosen_shifts is None else {
                "chosen_shifts": [[dx, dy, n] for (dx, dy), n in self.chosen_shifts]}),
        }


# ---------------------------------------------------------------------------
# exhaustive search

# Largest table the exact regional search may allocate: (R + 1) x (2R + 3) int64
# entries for R regions, so at most about 4,000 regions.
_EXACT_TABLE_CAP_BYTES = 1 << 28


def exhaustive_breakdown(
    grid: Grid,
    scheme: Scheme,
    flip_budget: int | None = None,
    target: int = 0,
    flip_to: int = 1,
) -> BreakdownResult:
    """True minimal overturning flip count, or None above the budget.

    Tallies depend on flip sets only through per-region flip counts (the
    whole grid is one region for the national scheme), so the search
    finds the fewest flips per region and charges each region's flips to
    its first target cells. A regional search needs a 2-candidate grid
    and refuses a table over _EXACT_TABLE_CAP_BYTES.
    """
    if isinstance(scheme, BestShiftScheme):
        raise ValueError("exhaustive search enumerates bare flip sets; "
                         "best-shift needs block geometry")
    budget = grid.n_cells // 4 if flip_budget is None else flip_budget
    _check_target_leads(grid, scheme, target, flip_to)
    if isinstance(scheme, GlobalScheme):
        return _exhaustive_global(grid, budget, target, flip_to)
    return _exhaustive_regional(grid, scheme.partition, budget, target, flip_to)


def _exhaustive_global(grid: Grid, budget: int, target: int, flip_to: int) -> BreakdownResult:
    state = _FastState(grid, target, flip_to)
    target_cells = np.flatnonzero(grid.votes == target)
    flips = np.arange(1, min(budget, target_cells.size) + 1, dtype=np.int32)
    nation = _partitions(GlobalScheme(), state.dims)
    winners = state.regional_winners(nation, np.zeros(flips.size, dtype=np.intp), flips[:, None])
    over = np.flatnonzero(_overturned(winners, target))
    if over.size:
        picked = target_cells[:over[0] + 1]  # flips[i] is i + 1
        cells = tuple(zip((picked % grid.width).tolist(), (picked // grid.width).tolist()))
        witness = BlockNoiseSpec(1, cells, target, flip_to, 1.0)
        return BreakdownResult("global", "exhaustive", picked.size, witness)
    return BreakdownResult("global", "exhaustive", None, None)


def _exhaustive_regional(
    grid: Grid, partition: Partition, budget: int, target: int, flip_to: int
) -> BreakdownResult:
    """Only each region's end state counts (held, tied or lost), so the
    minimum is a multiple-choice knapsack over d = rival regions - target
    regions: best[r, j] is the fewest flips in regions r.. that end with
    d > 0 from d = j - R - 1 before region r. The forward pass takes, region
    by region, the cheapest state that still finishes at the minimum: the
    lexicographically first minimal allocation, the witness a search over
    every allocation in order would return."""
    if grid.candidate_count != 2:
        raise ValueError(
            f"exhaustive regional search needs 2 candidates, not {grid.candidate_count}"
        )
    state = _FastState(grid, target, flip_to)
    counts = state.region_counts((partition,))[:, 0]
    n = counts.shape[1]
    if 8 * (n + 1) * (2 * n + 3) > _EXACT_TABLE_CAP_BYTES:
        raise ValueError(
            f"{n} regions need an exhaustive search table over {_EXACT_TABLE_CAP_BYTES >> 20} MiB"
        )
    options = []  # (cost, step in d) of each region's reachable end states, cheapest first
    for m in (counts[target] - counts[flip_to]).tolist():
        tie = [(m // 2, 0)] if m > 0 and m % 2 == 0 else []
        options.append([(0, -1 if m > 0 else int(m < 0))] + tie + [(m // 2 + 1, 1)] * (m >= 0))
    # entries over n_cells are unreachable
    best = np.full((n + 1, 2 * n + 3), grid.n_cells + 1, dtype=np.int64)
    best[n, n + 2:] = 0
    for r in range(n - 1, -1, -1):
        row, nxt = best[r, 1:-1], best[r + 1]
        for cost, step in options[r]:
            np.minimum(row, cost + nxt[1 + step:2 * n + 2 + step], out=row)
    label = scheme_label(RegionalScheme(partition))
    need = int(best[0, n + 1])  # reachable: flipping every target cell loses every region
    if need > budget:
        return BreakdownResult(label, "exhaustive", None, None)
    alloc = np.zeros(n, dtype=np.int64)
    j, left = n + 1, need
    for r in range(n):
        cost, step = next(o for o in options[r] if best[r + 1, j + o[1]] == left - o[0])
        alloc[r], j, left = cost, j + step, left - cost
    # each region's first alloc[r] target cells, regions in index order
    target_idx = np.flatnonzero(state.votes == target)
    regions = partition.labels(state.dims)[target_idx]
    order = np.argsort(regions, kind="stable")
    regions = regions[order]
    rank = np.arange(order.size) - np.searchsorted(regions, regions)
    picked = target_idx[order][rank < alloc[regions]]
    cells = tuple(zip((picked % grid.width).tolist(), (picked // grid.width).tolist()))
    witness = BlockNoiseSpec(1, cells, target, flip_to, 1.0)
    return BreakdownResult(label, "exhaustive", need, witness)


# ---------------------------------------------------------------------------
# randomized concentrated search


class _FastState:
    """Summed-area table and per-partition region counts of one grid, and the
    outcomes of many block placements (trials) at once."""

    def __init__(self, grid: Grid, target: int, flip_to: int):
        self.target = target
        self.flip_to = flip_to
        self.dims: GridDims = (grid.width, grid.height)
        self.candidates = grid.candidate_count
        self.votes = grid.votes
        self._counts_cache: dict[tuple[Partition, ...], np.ndarray] = {}

    @functools.cached_property
    def sat(self) -> np.ndarray:
        """Flat summed-area table of the target's cells, built on first use:
        only the block searches read it."""
        width, height = self.dims
        return _summed_area((self.votes == self.target).reshape(height, width)).astype(
            np.int32).ravel()

    def region_counts(self, partitions: tuple[Partition, ...]) -> np.ndarray:
        """(candidates, partitions, regions) int32 vote counts, cached."""
        if partitions not in self._counts_cache:
            # one call per partition: stacking their label rows raises peak memory
            self._counts_cache[partitions] = np.concatenate([
                region_counts(self.votes, p.labels(self.dims), p.region_count(self.dims),
                              self.candidates) for p in partitions
            ], axis=1).astype(np.int32, order="C")
        return self._counts_cache[partitions]

    def outcomes(self, scheme: Scheme, trial, ax, ay, edge: int, n: int):
        """(flips, winners, shifts) of n trials once every target cell under their
        blocks flips, block i anchored at (ax[i], ay[i]) in trial trial[i], sorted:
        winners holds -1 for a tie, and shifts[t] indexes trial t's partition in
        _partitions(scheme). Blocks are cut at region boundaries, one four-corner
        gather counts the pieces' target cells, one bincount sums them per
        (trial, region)."""
        partitions = _partitions(scheme, self.dims)
        shifts = np.zeros(n, dtype=np.intp)
        if isinstance(scheme, BestShiftScheme):  # the shift scheme_winner picks
            counts = contaminated_counts(self.dims, scheme.region_edge, ax, ay, edge, trial, n)
            shifts = counts.argmin(axis=1)
        (width, height), first, shift = self.dims, partitions[0], shifts[trial]
        dx, dy = np.array([(p.dx, p.dy) for p in partitions], dtype=np.int32)[shift].T
        x0, x1, col = _axis_segments(ax, edge, dx, width, first.region_width)
        y0, y1, row = _axis_segments(ay, edge, dy, height, first.region_height)
        n_regions = first.region_count(self.dims)
        regions = (width // first.region_width) * row + n_regions * trial[:, None]
        regions = regions[:, :, None] + col[:, None, :]
        s, r0, r1 = self.sat, (width + 1) * y0[:, :, None], (width + 1) * y1[:, :, None]
        x0, x1 = x0[:, None, :], x1[:, None, :]
        pieces = s[r1 + x1] - s[r0 + x1] - s[r1 + x0] + s[r0 + x0]
        flipped = np.bincount(regions.ravel(), pieces.ravel(), minlength=n * n_regions)
        flipped = flipped.astype(np.int32).reshape(n, n_regions)
        winners = self.regional_winners(partitions, shifts, flipped)
        return flipped.sum(axis=1, dtype=np.int64), winners, shifts

    def regional_winners(self, partitions, shifts, flips) -> np.ndarray:
        """Winner, -1 for a tie, of each trial t once flips[t, r] target votes of
        region r flip under partitions[shifts[t]], as voting.winners tallies it."""
        counts = self.region_counts(partitions)[:, shifts]
        counts[self.target] -= flips
        counts[self.flip_to] += flips
        return winners(counts)


def _partitions(scheme: Scheme, dims: GridDims) -> tuple[Partition, ...]:
    """The partitions a scheme tallies under; the nation is one region."""
    if isinstance(scheme, GlobalScheme):
        return (Partition(*dims),)
    if isinstance(scheme, RegionalScheme):
        return (scheme.partition,)
    return enumerate_partitions(scheme.region_edge)


def _overturned(winners: np.ndarray, target: int) -> np.ndarray:
    return (winners >= 0) & (winners != target)


def _check_block_edge(grid: Grid, block_edge: int) -> None:
    if not 1 <= block_edge <= min(grid.width, grid.height):
        raise ValueError(
            f"block_edge must lie in [1, {min(grid.width, grid.height)}] "
            f"for a {grid.width}x{grid.height} grid"
        )


# Bytes of the largest array of a chunk of randomized trials (blocked mask, pieces or
# region counts); a dispersed re-tally sub-batch takes shifting._SUB_BATCH_BYTES.
_TRIAL_CHUNK_BYTES = 1 << 22


def randomized_breakdown(
    grid: Grid,
    scheme: Scheme,
    block_edge: int,
    block_counts: tuple[int, int],
    trials: int = 10_000,
    seed: int = 0,
    target: int = 0,
    flip_to: int = 1,
) -> BreakdownResult:
    """Cheapest overturn over random disjoint block placements, r = 1.

    Samples a block count uniformly from the inclusive block_counts range
    each trial, places that many disjoint blocks uniformly, flips every
    target cell under them, and records the flip count whenever the
    scheme's winner changes. The result is an upper bound on the true
    breakdown. Trials whose placement cannot be completed, or whose blocks
    cover no target cell, are skipped and counted in the result. Trials run
    in chunks, placed in lockstep and evaluated together. A negative trial
    count, a block edge the grid cannot hold, or a lower block count above
    the grid's capacity is refused before the first trial.
    """
    lo, hi = block_counts
    if not (1 <= lo <= hi):
        raise ValueError("block_counts must satisfy 1 <= lo <= hi")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    _check_block_edge(grid, block_edge)
    capacity = block_capacity((grid.width, grid.height), block_edge)
    if lo > capacity:
        raise ValueError(
            f"block_counts lo {lo} exceeds the {capacity} disjoint "
            f"{block_edge}x{block_edge} blocks a {grid.width}x{grid.height} grid holds"
        )
    _check_target_leads(grid, scheme, target, flip_to)
    state = _FastState(grid, target, flip_to)
    rng = np.random.default_rng(seed)
    partitions = _partitions(scheme, state.dims)
    rw, rh = partitions[0].region_width, partitions[0].region_height
    pieces = _axis_pieces(block_edge, rw) * _axis_pieces(block_edge, rh)
    most = max(1, _TRIAL_CHUNK_BYTES // max(  # a trial's blocked mask, pieces, region counts
        (grid.width + block_edge) * (grid.height + block_edge),
        8 * min(hi, capacity) * pieces, 4 * state.candidates * grid.n_cells // (rw * rh)))
    chunk = -(-trials // -(-trials // most)) if trials else 1  # even chunks of at most `most`
    best, overturns, skipped_infeasible, skipped_zero_flip, chosen = None, 0, 0, 0, 0
    for start in range(0, trials, chunk):
        counts = rng.integers(lo, hi + 1, size=min(chunk, trials - start))
        ax, ay, placed = _place_disjoint_blocks(rng, state.dims, block_edge, counts)
        feasible = placed == counts
        trial, slot = np.nonzero(np.arange(ax.shape[1]) < np.where(feasible, placed, 0)[:, None])
        flips, winners, shifts = state.outcomes(
            scheme, trial, ax[trial, slot], ay[trial, slot], block_edge, counts.size
        )
        evaluated = flips > 0
        skipped_infeasible += int(counts.size - feasible.sum())
        skipped_zero_flip += int((feasible & ~evaluated).sum())
        chosen += np.bincount(shifts[evaluated], minlength=len(partitions))
        over = np.flatnonzero(evaluated & _overturned(winners, target))
        overturns += over.size
        if over.size:
            t = over[np.argmin(flips[over])]  # the first of the cheapest
            if best is None or flips[t] < best[0]:
                blocks = slice(0, counts[t])
                best = (int(flips[t]), tuple(zip(ax[t, blocks].tolist(), ay[t, blocks].tolist())))
    witness = None if best is None else BlockNoiseSpec(block_edge, best[1], target, flip_to, 1.0)
    histogram = tuple(((p.dx, p.dy), n) for p, n in zip(partitions, np.ravel(chosen).tolist()) if n)
    return BreakdownResult(
        scheme_label(scheme), "randomized", None if best is None else best[0], witness, trials,
        overturns, skipped_infeasible, skipped_zero_flip,
        histogram if isinstance(scheme, BestShiftScheme) else None,
    )


def greedy_block_breakdown(
    grid: Grid,
    scheme: Scheme,
    block_edge: int,
    target: int = 0,
    flip_to: int = 1,
) -> BreakdownResult:
    """Tile aligned blocks in raster order until the winner flips.

    Deterministic; useful as a reference achieving the national breakdown
    within one block of flips. A block edge the grid cannot hold, or a grid
    the target does not lead, is refused.
    """
    _check_block_edge(grid, block_edge)
    _check_target_leads(grid, scheme, target, flip_to)
    state = _FastState(grid, target, flip_to)
    width, height = state.dims
    ys, xs = np.mgrid[0:height - block_edge + 1:block_edge, 0:width - block_edge + 1:block_edge]
    xs, ys = xs.ravel(), ys.ravel()
    for k in range(1, xs.size + 1):
        flips, winners, _ = state.outcomes(
            scheme, np.zeros(k, dtype=np.intp), xs[:k], ys[:k], block_edge, 1
        )
        if flips[0] > 0 and _overturned(winners, target)[0]:
            anchors = tuple(zip(xs[:k].tolist(), ys[:k].tolist()))
            witness = BlockNoiseSpec(block_edge, anchors, target, flip_to, 1.0)
            return BreakdownResult(scheme_label(scheme), "greedy", int(flips[0]), witness, k, 1)
    return BreakdownResult(scheme_label(scheme), "greedy", None, None, int(xs.size), 0)


# ---------------------------------------------------------------------------
# dispersed-noise thresholds

# Uniform draws salt_pepper_threshold holds at once: its trials x target-cells
# matrix is drawn in row chunks of this many draws or fewer, except that a
# chunk holds at least one row, and a regional chunk a whole number of uint64
# words of trials (up to 8 rows).
_SALT_PEPPER_CHUNK_DRAWS = 1 << 18


@dataclass(frozen=True)
class ThresholdPoint:
    rate: float
    overturn_frequency: float
    ci_low: float
    ci_high: float


def _wilson_interval(successes: int, n: int, z: float = 1.959964) -> tuple[float, float]:
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    # clamp against float dust so the interval always brackets phat
    return (min(max(0.0, center - half), phat), max(min(1.0, center + half), phat))


def salt_pepper_threshold(
    grid: Grid,
    scheme: Scheme,
    rates: tuple[float, ...] | list[float],
    trials: int = 500,
    seed: int = 0,
    target: int = 0,
    flip_to: int = 1,
) -> tuple[ThresholdPoint, ...]:
    """Overturn frequency of dispersed noise at each rate.

    Flip draws depend only on (seed, rate order), not on the scheme, so
    two schemes evaluated with the same arguments face identical noise
    trial by trial and their curves are directly comparable. Confidence
    bounds are 95% Wilson intervals. A grid whose scheme winner is not the
    target has nothing to overturn and is refused before the first draw.

    Each rate's trials x target-cells uniforms are drawn in row chunks of
    about _SALT_PEPPER_CHUNK_DRAWS (2 MiB of float64, a typical per-core L2
    cache), into one draw buffer reused by every chunk; a chunk also stays
    under shifting._SUB_BATCH_BYTES of region counts to re-tally. The
    global scheme sums each trial's flips. The regional scheme transposes a
    chunk's flip bits into lanes of the smallest unsigned type that holds
    the most target cells any region has, 8 // itemsize lanes to a uint64
    word, with the chunk rounded up to a multiple of that, and sums each
    region's words in one reduceat. A lane's sum counts at most its
    region's target cells, so it never exceeds the lane's maximum and never
    carries into the next lane.
    """
    if isinstance(scheme, BestShiftScheme):
        raise ValueError("dispersed noise has no blocks for best-shift to dodge")
    if trials < 1:
        raise ValueError("trials must be positive")
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {rate!r}")
    state = _FastState(grid, target, flip_to)
    target_idx = np.flatnonzero(state.votes == target)
    n_t = target_idx.size
    partitions = _partitions(scheme, state.dims)
    region_idx = partitions[0].labels(state.dims)[target_idx]
    n_regions = partitions[0].region_count(state.dims)
    # Only a sweep that draws checks the standing winner and sets up its buffers:
    # an empty one draws and reports nothing, and the dispersed_noise benchmark
    # times its setup through one, where an unconditional tally added 18-27 % to
    # setup_s.
    if len(rates):
        zero = np.zeros((1, n_regions), dtype=np.int32)
        standing = int(state.regional_winners(partitions, np.zeros(1, np.intp), zero)[0])
        if standing != target:
            shown = None if standing < 0 else standing
            raise ValueError(f"grid winner is {shown}, expected target {target}")
        chunk = max(1, min(  # rows of draws, and of region counts to re-tally
            _SALT_PEPPER_CHUNK_DRAWS // max(n_t, 1),
            _SUB_BATCH_BYTES // (4 * grid.candidate_count * n_regions),
        ))
        if n_regions > 1:
            # target cells in region order, each region a segment of that order
            sizes = np.bincount(region_idx, minlength=n_regions)
            order = np.argsort(region_idx, kind="stable")
            counted = np.flatnonzero(sizes)  # the regions with a target cell
            starts = np.concatenate(([0], np.cumsum(sizes[counted])[:-1]))
            lane = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                        if sizes.max() <= np.iinfo(t).max)
            lanes = 8 // np.dtype(lane).itemsize
            chunk = -(-chunk // lanes) * lanes
            packed = np.zeros((n_t, chunk), dtype=lane)
            flipped = np.zeros((chunk, n_regions), dtype=np.int32)
        draws = np.empty((min(chunk, trials), n_t))
        below = np.empty(draws.shape, dtype=bool)
        shifts = np.zeros(chunk, dtype=np.intp)
    rng = np.random.default_rng(seed)
    points = []
    for rate in rates:
        overturns = 0
        for start in range(0, trials, chunk):
            k = min(chunk, trials - start)
            # consecutive row chunks of rng.random equal one trials x n_t draw
            np.less(rng.random(out=draws[:k]), rate, out=below[:k])
            if n_regions == 1:
                flipped = below[:k].sum(axis=1, dtype=np.int32)[:, None]
            else:
                # a word holds one cell's flips in `lanes` trials, so summing
                # a region's segment of words counts its flips in all of them
                packed[:, :k] = below[:k].view(np.uint8).T
                words = packed.view(np.uint64).take(order, axis=0)
                counts = np.add.reduceat(words, starts, axis=0).view(lane)
                flipped[:k, counted] = counts[:, :k].T
            winners = state.regional_winners(partitions, shifts[:k], flipped[:k])
            overturns += int(_overturned(winners, target).sum())
        freq = overturns / trials
        lo, hi = _wilson_interval(overturns, trials)
        points.append(ThresholdPoint(float(rate), freq, lo, hi))
    return tuple(points)


def estimate_threshold(curve: tuple[ThresholdPoint, ...]) -> float | None:
    """Rate where the overturn frequency first crosses one half,
    linearly interpolated between neighboring sample rates."""
    prev = None
    for point in curve:
        if point.overturn_frequency >= 0.5:
            if prev is None:
                return point.rate
            span = point.rate - prev.rate
            rise = point.overturn_frequency - prev.overturn_frequency
            return prev.rate + span * (0.5 - prev.overturn_frequency) / rise
        prev = point
    return None


def threshold_curve_to_csv(curve: tuple[ThresholdPoint, ...]) -> str:
    lines = ["rate,overturn_frequency,ci_low,ci_high"]
    for p in curve:
        lines.append(f"{p.rate!r},{p.overturn_frequency!r},{p.ci_low!r},{p.ci_high!r}")
    return "\n".join(lines) + "\n"
