"""Strict-plurality tallies, national and regional.

The national scheme counts every cell once. The regional scheme first
elects a winner inside each region of a partition, then elects the
candidate winning a strict plurality of regions. Ties are counted for
nobody at both levels: a tied region contributes to no candidate's
region total, and a tied top level yields winner None.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from regionvote.grid import Grid, GridDims, Partition

Winner = int | None


def plurality_winner(counts: tuple[int, ...] | list[int]) -> Winner:
    """Index of the strict maximum, or None on a shared maximum."""
    best = max(counts)
    leaders = [i for i, c in enumerate(counts) if c == best]
    return leaders[0] if len(leaders) == 1 else None


def _strict_winners(counts: np.ndarray) -> np.ndarray:
    """Strict plurality of each row of a (regions, candidates) array, -1 on a tie."""
    top = np.sort(counts, axis=1)
    unique = top[:, -1] > top[:, -2] if counts.shape[1] > 1 else True
    return np.where(unique, counts.argmax(axis=1), -1)


def _regions_won(winners: np.ndarray, candidates: int) -> np.ndarray:
    return np.bincount(winners + 1, minlength=candidates + 1)[1:]


def _region_counts(votes: np.ndarray, partition: Partition, dims: GridDims, c: int):
    """(regions, candidates) vote counts of a flat row-major vote array."""
    n_regions = partition.region_count(dims)
    counts = np.bincount(partition.labels(dims) * c + votes, minlength=n_regions * c)
    return counts.reshape(n_regions, c)


@dataclass(frozen=True)
class GlobalTally:
    counts: tuple[int, ...]
    winner: Winner

    def to_json_dict(self) -> dict:
        return {"counts": list(self.counts), "winner": self.winner}


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


@dataclass(frozen=True)
class ElectionResult:
    """A national tally next to regional tallies of the same grid."""

    national: GlobalTally
    regional: tuple[RegionalTally, ...]

    def to_json_dict(self) -> dict:
        return {
            "national": self.national.to_json_dict(),
            "regional": [r.to_json_dict() for r in self.regional],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_csv_rows(self) -> list[list]:
        """One row per regional tally: offsets, per-candidate region wins,
        tie count, winner ('' for a tie)."""
        rows = []
        for tally in self.regional:
            rows.append(
                [tally.partition.dx, tally.partition.dy]
                + list(tally.regions_won)
                + [tally.tie_regions, "" if tally.winner is None else tally.winner]
            )
        return rows


def tally_global(grid: Grid) -> GlobalTally:
    counts = grid.counts()
    return GlobalTally(counts=counts, winner=plurality_winner(counts))


def tally_regional(grid: Grid, partition: Partition) -> RegionalTally:
    """Per-region strict plurality, then strict plurality of won regions."""
    c = grid.candidate_count
    counts = _region_counts(grid.votes, partition, (grid.width, grid.height), c)
    winners = _strict_winners(counts)
    regions_won = _regions_won(winners, c).tolist()
    return RegionalTally(
        partition=partition,
        region_winners=tuple(None if w < 0 else w for w in winners.tolist()),
        regions_won=tuple(regions_won),
        tie_regions=len(winners) - sum(regions_won),
        winner=plurality_winner(regions_won),
    )


def tally_multicandidate(grid: Grid, partition: Partition) -> ElectionResult:
    """National and regional outcomes for any number of candidates.

    The rules are the two-candidate ones applied verbatim: a single
    winner per level by strict plurality, ties for nobody.
    """
    return ElectionResult(
        national=tally_global(grid),
        regional=(tally_regional(grid, partition),),
    )
