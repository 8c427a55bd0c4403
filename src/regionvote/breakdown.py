"""Minimal overturning noise, searched four ways.

A breakdown of a voting scheme is the smallest number of target-to-rival
flips that changes the winner. Only flips away from the standing winner
are considered. The searches:

  * exhaustive_breakdown walks flip counts upward and proves minimality,
    practical for grids up to a few dozen cells or tiny budgets;
  * randomized_breakdown samples concentrated block placements (flip
    probability 1) and reports the cheapest overturn found, an upper
    bound on the true breakdown;
  * greedy_block_breakdown tiles aligned blocks row by row until the
    winner flips, a deterministic reference point;
  * salt_pepper_threshold sweeps dispersed-noise rates and estimates the
    rate where the overturn frequency crosses one half.

Grid generation lives here too, with the margin-enforcing mode the
regional lower bounds are stated for.

All searches are deterministic for a fixed seed; trials run sequentially
but are independent, so the minimum would be unchanged under any
execution order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from regionvote.bounds import round_half_up
from regionvote.grid import Grid, GridDims, Partition, _summed_area, enumerate_partitions
from regionvote.noise import (
    BlockNoiseSpec,
    PlacementInfeasibleError,
    _sample_disjoint_anchors,
)
from regionvote.shifting import best_partition
from regionvote.voting import Winner, plurality_winner, tally_global, tally_regional
from regionvote.voting import _region_counts, _regions_won, _strict_winners


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
    one touching the fewest regions (ties to the lexicographically
    smallest offset), and tallies under it.
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
    chosen = best_partition((noisy.width, noisy.height), scheme.region_edge, spec).partition
    return tally_regional(noisy, chosen).winner


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
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# exhaustive search


def exhaustive_breakdown(
    grid: Grid,
    scheme: Scheme,
    flip_budget: int | None = None,
    target: int = 0,
    flip_to: int = 1,
) -> BreakdownResult:
    """True minimal overturning flip count, by enumeration.

    Tallies depend on flip sets only through per-region flip counts (the
    whole grid is one region for the national scheme), so the search
    enumerates those counts and charges each region's flips to concrete
    cells; that is exhaustive over outcome-distinct flip sets. Runtime
    grows combinatorially with the budget and region count; meant for
    grids of a few dozen cells.
    """
    if isinstance(scheme, BestShiftScheme):
        raise ValueError("exhaustive search enumerates bare flip sets; "
                         "best-shift needs block geometry")
    budget = grid.n_cells // 4 if flip_budget is None else flip_budget
    base_winner = scheme_winner(grid, scheme)
    if base_winner != target:
        raise ValueError(f"grid winner is {base_winner}, expected target {target}")

    if isinstance(scheme, GlobalScheme):
        return _exhaustive_global(grid, budget, target, flip_to)
    return _exhaustive_regional(grid, scheme.partition, budget, target, flip_to)


def _exhaustive_global(grid: Grid, budget: int, target: int, flip_to: int) -> BreakdownResult:
    state = _FastState(grid, target, flip_to)
    target_cells = np.flatnonzero(grid.votes == target).tolist()
    budget = min(budget, len(target_cells))
    for k in range(1, budget + 1):
        winner = state.global_outcome(k)
        if winner is not None and winner != target:
            cells = tuple(
                (i % grid.width, i // grid.width) for i in target_cells[:k]
            )
            witness = BlockNoiseSpec(1, cells, target, flip_to, 1.0)
            return BreakdownResult("global", "exhaustive", k, witness)
    return BreakdownResult("global", "exhaustive", None, None)


def _exhaustive_regional(
    grid: Grid, partition: Partition, budget: int, target: int, flip_to: int
) -> BreakdownResult:
    state = _FastState(grid, target, flip_to)
    counts, winners, regions_won = state.partition_baseline(partition)
    n_regions = len(winners)
    target_idx = np.flatnonzero(state.votes == target)
    target_regions = partition.labels(state.dims)[target_idx]
    region_target_cells = [target_idx[target_regions == r].tolist() for r in range(n_regions)]
    caps = [len(cells) for cells in region_target_cells]
    region_counts = counts.tolist()
    base_won = regions_won.tolist()
    base_winners = [None if w < 0 else w for w in winners.tolist()]

    def try_allocation(alloc: list[int]) -> bool:
        won = list(base_won)
        for rid, f in enumerate(alloc):
            if f == 0:
                continue
            adjusted = list(region_counts[rid])
            adjusted[target] -= f
            adjusted[flip_to] += f
            new_w = plurality_winner(adjusted)
            old_w = base_winners[rid]
            if old_w is not None:
                won[old_w] -= 1
            if new_w is not None:
                won[new_w] += 1
        overall = plurality_winner(won)
        return overall is not None and overall != target

    alloc = [0] * n_regions

    def dfs(rid: int, remaining: int) -> bool:
        if rid == n_regions:
            return remaining == 0 and try_allocation(alloc)
        if remaining > sum(caps[rid:]):
            return False
        for f in range(0, min(caps[rid], remaining) + 1):
            alloc[rid] = f
            if dfs(rid + 1, remaining - f):
                return True
        alloc[rid] = 0
        return False

    budget = min(budget, sum(caps))
    for k in range(1, budget + 1):
        if dfs(0, k):
            cells = []
            for rid, f in enumerate(alloc):
                for idx in region_target_cells[rid][:f]:
                    cells.append((idx % grid.width, idx // grid.width))
            witness = BlockNoiseSpec(1, tuple(cells), target, flip_to, 1.0)
            return BreakdownResult(
                scheme_label(RegionalScheme(partition)), "exhaustive", k, witness
            )
    return BreakdownResult(
        scheme_label(RegionalScheme(partition)), "exhaustive", None, None
    )


# ---------------------------------------------------------------------------
# randomized concentrated search


class _FastState:
    """Summed-area table and per-partition baselines for one grid."""

    def __init__(self, grid: Grid, target: int, flip_to: int):
        self.target = target
        self.flip_to = flip_to
        self.dims: GridDims = (grid.width, grid.height)
        self.candidates = grid.candidate_count
        self.votes = grid.votes
        self.sat = _summed_area((self.votes == target).reshape(grid.height, grid.width))
        self.base_counts = np.bincount(self.votes, minlength=self.candidates)
        self._partition_cache: dict[Partition, tuple] = {}
        self._choosers: dict[int, _ShiftChooser] = {}

    def block_flips(self, ax: np.ndarray, ay: np.ndarray, edge: int) -> int:
        s, x1, y1 = self.sat, ax + edge, ay + edge
        return int((s[y1, x1] - s[ay, x1] - s[y1, ax] + s[ay, ax]).sum())

    def partition_baseline(self, partition: Partition):
        """(region counts, region winners with -1 for a tie, regions won)."""
        cached = self._partition_cache.get(partition)
        if cached is None:
            c = self.candidates
            counts = _region_counts(self.votes, partition, self.dims, c)
            winners = _strict_winners(counts)
            cached = (counts, winners, _regions_won(winners, c))
            self._partition_cache[partition] = cached
        return cached

    def block_outcome(
        self, partition: Partition, ax: np.ndarray, ay: np.ndarray, edge: int
    ) -> Winner:
        """Regional winner once every target cell under the blocks flips.

        Each block is cut at region boundaries on both axes, the pieces'
        target counts come from the summed-area table and are summed per
        region, and only the touched regions are re-tallied.
        """
        counts, winners, won = self.partition_baseline(partition)
        x0, x1, y0, y1, regions = partition.block_pieces(self.dims, ax, ay, edge)
        s = self.sat
        pieces = s[y1, x1] - s[y0, x1] - s[y1, x0] + s[y0, x0]
        flips = np.bincount(regions.ravel(), pieces.ravel(), minlength=len(winners))
        touched = np.flatnonzero(flips)
        f = flips[touched].astype(np.int64)
        adjusted = counts[touched]
        adjusted[:, self.target] -= f
        adjusted[:, self.flip_to] += f
        lost = _regions_won(winners[touched], self.candidates)
        gained = _regions_won(_strict_winners(adjusted), self.candidates)
        return plurality_winner((won - lost + gained).tolist())

    def global_outcome(self, total_flips: int) -> Winner:
        adjusted = self.base_counts.copy()
        adjusted[self.target] -= total_flips
        adjusted[self.flip_to] += total_flips
        return plurality_winner(adjusted.tolist())

    def scheme_outcome(
        self, scheme: Scheme, ax: np.ndarray, ay: np.ndarray, edge: int, flips: int
    ) -> Winner:
        """The scheme's winner once the blocks, holding flips target cells, flip."""
        if isinstance(scheme, GlobalScheme):
            return self.global_outcome(flips)
        if isinstance(scheme, RegionalScheme):
            return self.block_outcome(scheme.partition, ax, ay, edge)
        chosen = self.best_shift(scheme.region_edge, ax, ay, edge)
        return self.block_outcome(chosen, ax, ay, edge)

    def best_shift(self, region_edge: int, ax: np.ndarray, ay: np.ndarray, edge: int) -> Partition:
        """The shift touching the fewest regions, as shifting.best_partition picks it."""
        if edge > region_edge:
            anchors = tuple(zip(ax.tolist(), ay.tolist()))
            probe = BlockNoiseSpec(edge, anchors, self.target, self.flip_to, 1.0)
            return best_partition(self.dims, region_edge, probe).partition
        if region_edge not in self._choosers:
            self._choosers[region_edge] = _ShiftChooser(self.dims, region_edge)
        chooser = self._choosers[region_edge]
        return chooser.partitions[int(np.argmin(chooser.counts(ax, ay, edge)))]


class _ShiftChooser:
    """Vectorized contaminated-region counts for every shift at once.

    Valid when the block edge does not exceed the region edge, so a block
    spans at most two region columns and two region rows.
    """

    def __init__(self, dims: GridDims, region_edge: int):
        self.dims = dims
        self.edge = region_edge
        self.n_cols = dims[0] // region_edge
        self.n_rows = dims[1] // region_edge
        n_regions = self.n_cols * self.n_rows
        self.partitions = enumerate_partitions(region_edge)
        self.dx = np.array([p.dx for p in self.partitions])[:, None]
        self.dy = np.array([p.dy for p in self.partitions])[:, None]
        self.buf = np.zeros((len(self.partitions), n_regions), dtype=bool)

    def counts(self, ax: np.ndarray, ay: np.ndarray, block_edge: int) -> np.ndarray:
        width, height = self.dims
        e = self.edge
        sx = (ax[None, :] + self.dx) % width
        sy = (ay[None, :] + self.dy) % height
        c0 = sx // e
        c1 = ((sx + block_edge - 1) % width) // e
        r0 = sy // e
        r1 = ((sy + block_edge - 1) % height) // e
        ids = np.concatenate([c + self.n_cols * r for r in (r0, r1) for c in (c0, c1)], axis=1)
        rows = np.arange(len(self.partitions))[:, None]
        self.buf[rows, ids] = True
        out = self.buf.sum(axis=1)
        self.buf[rows, ids] = False
        return out


def _check_block_edge(grid: Grid, block_edge: int) -> None:
    if not 1 <= block_edge <= min(grid.width, grid.height):
        raise ValueError(
            f"block_edge must lie in [1, {min(grid.width, grid.height)}] "
            f"for a {grid.width}x{grid.height} grid"
        )


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
    cover no target cell, are skipped and counted in the result. A
    negative trial count or a block edge the grid cannot hold is refused
    before the first trial.
    """
    lo, hi = block_counts
    if not (1 <= lo <= hi):
        raise ValueError("block_counts must satisfy 1 <= lo <= hi")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    _check_block_edge(grid, block_edge)
    base_winner = scheme_winner(grid, scheme, BlockNoiseSpec(block_edge, (), target, flip_to))
    if base_winner != target:
        raise ValueError(f"grid winner is {base_winner}, expected target {target}")
    state = _FastState(grid, target, flip_to)
    if isinstance(scheme, BestShiftScheme):
        for p in enumerate_partitions(scheme.region_edge):
            state.partition_baseline(p)
    rng = np.random.default_rng(seed)

    best_flips: int | None = None
    best_witness: BlockNoiseSpec | None = None
    overturns = skipped_infeasible = skipped_zero_flip = 0
    for _ in range(trials):
        count = int(rng.integers(lo, hi + 1))
        try:
            ax, ay = _sample_disjoint_anchors(rng, state.dims, block_edge, count)
        except PlacementInfeasibleError:
            skipped_infeasible += 1
            continue
        flips = state.block_flips(ax, ay, block_edge)
        if flips == 0:
            skipped_zero_flip += 1
            continue
        winner = state.scheme_outcome(scheme, ax, ay, block_edge, flips)
        if winner is not None and winner != target:
            overturns += 1
            if best_flips is None or flips < best_flips:
                best_flips = flips
                anchors = tuple(zip(ax.tolist(), ay.tolist()))
                best_witness = BlockNoiseSpec(block_edge, anchors, target, flip_to, 1.0)
    return BreakdownResult(
        scheme_label(scheme), "randomized", best_flips, best_witness, trials, overturns,
        skipped_infeasible, skipped_zero_flip,
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
    within one block of flips. A block edge the grid cannot hold is refused.
    """
    _check_block_edge(grid, block_edge)
    state = _FastState(grid, target, flip_to)
    width, height = state.dims
    xs: list[int] = []
    ys: list[int] = []
    for ay in range(0, height - block_edge + 1, block_edge):
        for ax in range(0, width - block_edge + 1, block_edge):
            xs.append(ax)
            ys.append(ay)
            ax_arr, ay_arr = np.array(xs), np.array(ys)
            flips = state.block_flips(ax_arr, ay_arr, block_edge)
            if flips == 0:
                continue
            winner = state.scheme_outcome(scheme, ax_arr, ay_arr, block_edge, flips)
            if winner is not None and winner != target:
                witness = BlockNoiseSpec(block_edge, tuple(zip(xs, ys)), target, flip_to, 1.0)
                return BreakdownResult(
                    scheme_label(scheme), "greedy", flips, witness, len(xs), 1
                )
    return BreakdownResult(scheme_label(scheme), "greedy", None, None, len(xs), 0)


# ---------------------------------------------------------------------------
# dispersed-noise thresholds


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
    bounds are 95% Wilson intervals.
    """
    if isinstance(scheme, BestShiftScheme):
        raise ValueError("dispersed noise has no blocks for best-shift to dodge")
    if trials < 1:
        raise ValueError("trials must be positive")
    state = _FastState(grid, target, flip_to)
    target_idx = np.flatnonzero(state.votes == target)
    n_t = target_idx.size
    if isinstance(scheme, RegionalScheme):
        counts = state.partition_baseline(scheme.partition)[0]
        region_idx = scheme.partition.labels(state.dims)[target_idx]
    rng = np.random.default_rng(seed)
    points = []
    for rate in rates:
        draws = rng.random((trials, n_t))
        flips_mat = draws < rate
        overturns = 0
        if isinstance(scheme, GlobalScheme):
            flip_totals = flips_mat.sum(axis=1)
            for f in flip_totals:
                w = state.global_outcome(int(f))
                if w is not None and w != target:
                    overturns += 1
        else:
            for t in range(trials):
                f_by_region = np.bincount(region_idx[flips_mat[t]], minlength=len(counts))
                adjusted = counts.copy()
                adjusted[:, target] -= f_by_region
                adjusted[:, flip_to] += f_by_region
                won = _regions_won(_strict_winners(adjusted), grid.candidate_count)
                w = plurality_winner(won.tolist())
                if w is not None and w != target:
                    overturns += 1
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
            if prev is None or point.overturn_frequency == prev.overturn_frequency:
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
