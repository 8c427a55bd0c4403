"""One-attempt-at-a-time reference for the chunked flag search.

These are the flag search's earlier scalar steps: flag_layout builds one
grid, winner_cellmap tallies one partition, flag_anchors draws one
anchor per rng.random() call, apply_flag_noise flips one grid's cells,
and flag_search runs them attempt by attempt, returning the first
success. The package evaluates a chunk of attempts in lockstep; on any
config it must return the same attempt and an equal found dict.
"""

from __future__ import annotations

import numpy as np

from regionvote.cli import FLAG_PARTITIONS, FlagConfig
from regionvote.grid import Grid, Partition, _summed_area
from regionvote.seeding import stream_rng
from regionvote.voting import tally_global, tally_regional


def flag_layout(rng: np.random.Generator, width: int, height: int, black: int) -> Grid:
    """Black votes clustered around a few random centers, count exact."""
    n_centers = int(rng.integers(2, 4))
    cx = rng.uniform(0, width, n_centers)
    cy = rng.uniform(0, height, n_centers)
    dx2 = (np.arange(width)[:, None] - cx) ** 2
    dy2 = (np.arange(height)[:, None, None] - cy) ** 2
    d2 = (dx2 + dy2).min(axis=2)
    d2 = d2 + rng.uniform(0, 0.35, d2.shape) * d2.max()
    votes = np.zeros(width * height, dtype=np.int64)
    votes[np.argsort(d2.ravel(), kind="stable")[:black]] = 1
    return Grid(width, height, 2, votes)


def winner_cellmap(grid: Grid, partition: Partition):
    """Per-cell map of whether Black won the cell's region, plus the tally."""
    tally = tally_regional(grid, partition)
    black = np.array([w == 1 for w in tally.region_winners])
    labels = partition.labels((grid.width, grid.height))
    return black[labels].reshape(grid.height, grid.width), tally


def window_sums(mask: np.ndarray, edge: int) -> np.ndarray:
    """Sum of every edge x edge window, indexed by the window's top-left cell."""
    t = _summed_area(mask)
    return t[edge:, edge:] - t[:-edge, edge:] - t[edge:, :-edge] + t[:-edge, :-edge]


def flag_anchors(
    rng: np.random.Generator,
    grid: Grid,
    edge: int,
    count: int,
    black_won: np.ndarray,
) -> tuple[tuple[int, int], ...]:
    """Anchors biased toward white pockets inside regions Black already
    holds; each draw halves the weights of the windows overlapping it."""
    white = grid.votes.reshape(grid.height, grid.width) == 0
    safe_w = window_sums(white & black_won, edge)
    unsafe_w = window_sums(white & ~black_won, edge)
    weights = (safe_w + 1.0) ** 2 / (unsafe_w + 1.0)
    n_rows, n_cols = weights.shape
    anchors: list[tuple[int, int]] = []
    for _ in range(count):
        total = weights.sum()
        if total <= 0:
            break
        cdf = (weights / total).ravel().cumsum()
        cdf /= cdf[-1]  # the inverse-CDF draw rng.choice(p=weights / total) makes
        ay, ax = divmod(int(cdf.searchsorted(rng.random(), "right")), n_cols)
        anchors.append((ax, ay))
        y0, y1 = max(0, ay - edge + 1), min(n_rows, ay + edge)
        x0, x1 = max(0, ax - edge + 1), min(n_cols, ax + edge)
        weights[y0:y1, x0:x1] *= 0.5
    return tuple(anchors)


def apply_flag_noise(
    grid: Grid, anchors, edge: int, rate: float, rng: np.random.Generator
) -> tuple[Grid, int]:
    """Flip white cells under the union of (possibly overlapping) blocks
    with the given probability; raster order makes the draws reproducible."""
    mask = np.zeros((grid.height, grid.width), dtype=bool)
    for ax, ay in anchors:
        mask[ay : ay + edge, ax : ax + edge] = True
    votes = grid.votes.copy()
    offered = np.flatnonzero(mask.ravel() & (votes == 0))
    flipped = offered[rng.random(offered.size) < rate]
    votes[flipped] = 1
    return grid.replace_votes(votes), int(flipped.size)


def flag_search(cfg: FlagConfig):
    """The first attempt whose block noise flips the national winner while
    both regional schemes keep White, tried one attempt at a time."""
    part_a, part_b = FLAG_PARTITIONS
    for attempt in range(cfg.attempts):
        rng = stream_rng(cfg.seed, f"flag.layout.{attempt}")
        grid = flag_layout(rng, cfg.width, cfg.height, cfg.black)
        map_a, before_a = winner_cellmap(grid, part_a)
        if before_a.winner != 0:
            continue
        map_b, before_b = winner_cellmap(grid, part_b)
        if before_b.winner != 0:
            continue
        anchors = flag_anchors(rng, grid, cfg.block_edge, cfg.blocks, map_a & map_b)
        if len(anchors) != cfg.blocks:
            continue
        noisy, flips = apply_flag_noise(
            grid,
            anchors,
            cfg.block_edge,
            cfg.rate,
            stream_rng(cfg.seed, f"flag.noise.{attempt}"),
        )
        if tally_global(noisy).winner != 1:
            continue
        after_a = tally_regional(noisy, part_a)
        after_b = tally_regional(noisy, part_b)
        if after_a.winner != 0 or after_b.winner != 0:
            continue
        return {
            "attempt": attempt,
            "grid": grid,
            "noisy": noisy,
            "anchors": anchors,
            "flips": flips,
            "before": (tally_global(grid), before_a, before_b),
            "after": (tally_global(noisy), after_a, after_b),
        }
    return None
