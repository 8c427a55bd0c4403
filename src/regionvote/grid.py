"""Voting grids and toroidal region partitions.

A nation is an l x m lattice of cells, each voting for one candidate.
Cells are addressed as (x, y): x is the 0-based column counted left to
right, y the 0-based row counted top to bottom. A Partition slices the
lattice into equal rectangular regions whose edges wrap around the grid
(the left/right and top/bottom borders are glued), so every shift offset
produces the same number of whole regions.

Everything here is immutable and side-effect free, the vote arrays and
the cached label arrays included (they are read-only), so grids and
partitions can be shared freely across threads or worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Cell = tuple[int, int]
GridDims = tuple[int, int]


class DimensionMismatchError(ValueError):
    """Region edges must divide the grid dimensions exactly."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable rectangular grid of votes.

    votes is a flat, read-only int64 array in row-major order: the cell
    (x, y) holds votes[y * width + x]. The constructor copies whatever
    integer sequence it is given, so later changes to the caller's
    sequence never reach the grid. Candidate ids run from 0 to
    candidate_count - 1.

    >>> g = Grid(3, 2, 2, (0, 0, 1, 1, 0, 1))
    >>> g.vote_at(2, 0), g.vote_at(0, 1)
    (1, 1)
    >>> g.counts()
    (3, 3)
    """

    width: int
    height: int
    candidate_count: int
    votes: np.ndarray

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"grid dimensions must be positive, got {self.width}x{self.height}")
        if self.candidate_count < 1:
            raise ValueError("candidate_count must be at least 1")
        votes = np.array(self.votes, dtype=np.int64)
        if votes.ndim != 1:
            raise ValueError(f"votes must be a flat sequence, got shape {votes.shape}")
        if votes.size != self.n_cells:
            raise ValueError(f"expected {self.n_cells} votes, got {votes.size}")
        if votes.min() < 0 or votes.max() >= self.candidate_count:
            raise ValueError("vote out of candidate range")
        votes.flags.writeable = False
        object.__setattr__(self, "votes", votes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.width, self.height, self.candidate_count) == (
            other.width, other.height, other.candidate_count
        ) and np.array_equal(self.votes, other.votes)

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def vote_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"cell ({x}, {y}) outside {self.width}x{self.height} grid")
        return int(self.votes[y * self.width + x])

    def counts(self) -> tuple[int, ...]:
        """Per-candidate vote totals over the whole grid."""
        return tuple(np.bincount(self.votes, minlength=self.candidate_count).tolist())

    def replace_votes(self, votes) -> "Grid":
        return Grid(self.width, self.height, self.candidate_count, votes)


def grid_to_text(grid: Grid) -> str:
    """Plain text form: header "l m candidate_count", then m rows of l ids."""
    lines = [f"{grid.width} {grid.height} {grid.candidate_count}"]
    for row in grid.votes.reshape(grid.height, grid.width).tolist():
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Partition:
    """Equal rectangular regions with a toroidal shift offset.

    The common case is square regions (region_width == region_height);
    rectangular regions are allowed for experiments that need them.
    Offsets dx, dy live in [0, region_width) x [0, region_height);
    shifting by a full region edge reproduces the same partition, so
    these offsets enumerate every distinct one. Region indices are
    row-major over the region lattice.
    """

    region_width: int
    region_height: int
    dx: int = 0
    dy: int = 0

    def __post_init__(self) -> None:
        if self.region_width <= 0 or self.region_height <= 0:
            raise ValueError("region edges must be positive")
        if not (0 <= self.dx < self.region_width):
            raise ValueError(f"dx must lie in [0, {self.region_width}), got {self.dx}")
        if not (0 <= self.dy < self.region_height):
            raise ValueError(f"dy must lie in [0, {self.region_height}), got {self.dy}")

    @classmethod
    def square(cls, edge: int, dx: int = 0, dy: int = 0) -> "Partition":
        return cls(edge, edge, dx, dy)

    def validate_for(self, dims: GridDims) -> None:
        width, height = dims
        if width % self.region_width != 0 or height % self.region_height != 0:
            raise DimensionMismatchError(
                f"region {self.region_width}x{self.region_height} does not divide "
                f"grid {width}x{height}"
            )

    def region_cols(self, dims: GridDims) -> int:
        self.validate_for(dims)
        return dims[0] // self.region_width

    def region_rows(self, dims: GridDims) -> int:
        self.validate_for(dims)
        return dims[1] // self.region_height

    def region_count(self, dims: GridDims) -> int:
        return self.region_cols(dims) * self.region_rows(dims)

    @lru_cache(maxsize=8)
    def labels(self, dims: GridDims) -> np.ndarray:
        """Region index of every cell, flat in row-major order: the shift wraps,
        so cell (x, y) is in region column ((x + dx) mod width) // region_width,
        and likewise for rows. Read-only; cached per (partition, dims)."""
        self.validate_for(dims)
        width, height = dims
        cols = ((np.arange(width) + self.dx) % width) // self.region_width
        rows = ((np.arange(height) + self.dy) % height) // self.region_height
        labels = (cols[None, :] + (width // self.region_width) * rows[:, None]).ravel()
        labels.flags.writeable = False
        return labels


def _axis_pieces(extent: int, region_edge: int) -> int:
    """K = ceil((extent - 1) / region_edge) + 1: the pieces, on one axis, that
    _axis_regions cuts a block of the given extent into, whatever its shift."""
    return (extent - 2) // region_edge + 2


def _axis_regions(
    anchors: np.ndarray, extent: int, shift: int | np.ndarray, axis_cells: int, region_edge: int
) -> np.ndarray:
    """Region index, on one axis, of each piece of a block cut at region
    boundaries, on a new first axis of K = _axis_pieces(extent, region_edge).
    Piece j holds the cell at offset min(j * region_edge, extent - 1) from the
    block's first cell, so a piece past the block's end repeats the last
    piece's region. anchors and shift broadcast against each other."""
    pieces = np.arange(_axis_pieces(extent, region_edge), dtype=np.int32)
    offsets = np.minimum(pieces * region_edge, extent - 1)
    return np.add.outer(offsets, anchors + shift) % axis_cells // region_edge


def _axis_segments(
    anchors: np.ndarray, extent: int, shift: int | np.ndarray, axis_cells: int, region_edge: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut block extents at region boundaries: (start, stop, region), each
    (blocks, K), regions as _axis_regions names them; pieces past a block's
    end are empty (start == stop)."""
    regions = _axis_regions(anchors, extent, shift, axis_cells, region_edge).T
    stop = (anchors + extent)[:, None]
    room = region_edge - (anchors + shift) % region_edge
    steps = np.arange(regions.shape[1] - 1, dtype=np.int32)
    cuts = (anchors + room)[:, None] + region_edge * steps
    bounds = np.minimum(np.concatenate([anchors[:, None], cuts, stop], axis=1), stop)
    return bounds[:, :-1], bounds[:, 1:], regions


def _summed_area(mask: np.ndarray) -> np.ndarray:
    """Summed-area table over the last two axes of an array, one zero row
    and column in front: the sum over rows y0:y1 and columns x0:x1 is
    t[..., y1, x1] - t[..., y0, x1] - t[..., y1, x0] + t[..., y0, x0]."""
    table = np.zeros(mask.shape[:-2] + (mask.shape[-2] + 1, mask.shape[-1] + 1), dtype=np.int64)
    table[..., 1:, 1:] = mask.cumsum(-2).cumsum(-1)
    return table


def enumerate_partitions(edge: int) -> tuple[Partition, ...]:
    """All distinct shifts of the square partition with the given edge.

    Exactly edge**2 partitions, in shift order: dx varies in the outer
    loop and dy in the inner one.
    """
    return tuple(
        Partition.square(edge, dx, dy) for dx in range(edge) for dy in range(edge)
    )
