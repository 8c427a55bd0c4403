"""Strict-plurality tallies, national and regional.

The national scheme counts every cell once. The regional scheme first
elects a winner inside each region of a partition, then elects the
candidate winning a strict plurality of regions. Ties are counted for
nobody at both levels: a tied region contributes to no candidate's
region total, and a tied top level yields winner None.

Every regional winner in the package, from one tally to the searches'
re-tallies of many noisy trials, comes from region_counts and winners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from regionvote.grid import Grid, Partition

Winner = int | None


def plurality_winner(counts: tuple[int, ...] | list[int]) -> Winner:
    """Index of the strict maximum, or None on a shared maximum."""
    best = max(counts)
    leaders = [i for i, c in enumerate(counts) if c == best]
    return leaders[0] if len(leaders) == 1 else None


def region_counts(votes: np.ndarray, labels: np.ndarray, n_regions: int, candidates: int):
    """(candidates, rows, regions) vote counts of each row of flat votes under
    the matching row of region labels, from one offset bincount. A single row
    of either broadcasts against many rows of the other."""
    votes, labels = np.atleast_2d(votes, labels)
    rows = max(len(votes), len(labels))
    ids = (votes * rows + np.arange(rows)[:, None]) * n_regions + labels
    counts = np.bincount(ids.ravel(), minlength=candidates * rows * n_regions)
    return counts.reshape(candidates, rows, n_regions)


def _sole_leaders(counts: np.ndarray) -> np.ndarray:
    """Whether each entry is the strict maximum along the first axis."""
    lead = counts == counts.max(axis=0)
    return lead & (lead.sum(axis=0, dtype=np.int32) == 1)


def _leader_index(sole: np.ndarray) -> np.ndarray:
    """Index along the first axis of each sole leader, -1 where there is none."""
    return np.where(sole.any(axis=0), sole.argmax(axis=0), -1)


def winners(counts: np.ndarray) -> np.ndarray:
    """Winner of each row of (candidates, rows, regions) counts, -1 on a tie:
    the strict plurality of regions won, a region going to its strict
    plurality and a tied region to nobody."""
    won = _sole_leaders(counts).sum(axis=2)
    top = won == won.max(axis=0)
    return np.where(top.sum(axis=0) == 1, top.argmax(axis=0), -1)


@dataclass(frozen=True)
class GlobalTally:
    counts: tuple[int, ...]
    winner: Winner


@dataclass(frozen=True)
class RegionalTally:
    partition: Partition
    region_winners: tuple[Winner, ...]
    regions_won: tuple[int, ...]
    tie_regions: int
    winner: Winner

    def to_json_dict(self) -> dict:
        return {
            "region_width": self.partition.region_width,
            "region_height": self.partition.region_height,
            "dx": self.partition.dx,
            "dy": self.partition.dy,
            "region_winners": list(self.region_winners),
            "regions_won": list(self.regions_won),
            "tie_regions": self.tie_regions,
            "winner": self.winner,
        }


def tally_global(grid: Grid) -> GlobalTally:
    counts = grid.counts()
    return GlobalTally(counts=counts, winner=plurality_winner(counts))


def tally_regional(grid: Grid, partition: Partition) -> RegionalTally:
    """Per-region strict plurality, then strict plurality of won regions."""
    dims = (grid.width, grid.height)
    counts = region_counts(
        grid.votes, partition.labels(dims), partition.region_count(dims), grid.candidate_count
    )
    sole = _sole_leaders(counts)[:, 0]
    regions_won = sole.sum(axis=1).tolist()
    winner = int(winners(counts)[0])
    return RegionalTally(
        partition=partition,
        region_winners=tuple(None if w < 0 else w for w in _leader_index(sole).tolist()),
        regions_won=tuple(regions_won),
        tie_regions=sole.shape[1] - sum(regions_won),
        winner=None if winner < 0 else winner,
    )
