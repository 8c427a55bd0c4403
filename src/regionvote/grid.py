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

import json
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


def grid_from_text(text: str) -> Grid:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty grid text")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"malformed header {lines[0]!r}, want 'l m candidate_count'")
    try:
        width, height, candidates = (int(tok) for tok in header)
    except ValueError as exc:
        raise ValueError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != height:
        raise ValueError(f"expected {height} vote rows, got {len(lines) - 1}")
    votes = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != width:
            raise ValueError(f"expected {width} votes per row, got {len(toks)}")
        votes += [int(t) for t in toks]
    return Grid(width, height, candidates, votes)


def grid_to_json_dict(grid: Grid) -> dict:
    return {
        "l": grid.width,
        "m": grid.height,
        "candidates": grid.candidate_count,
        "votes": grid.votes.tolist(),
    }


def grid_from_json_dict(payload: dict) -> Grid:
    try:
        width, height = int(payload["l"]), int(payload["m"])
        return Grid(width, height, int(payload["candidates"]), payload["votes"])
    except KeyError as exc:
        raise ValueError(f"grid JSON missing key {exc}") from exc


def grid_to_json(grid: Grid) -> str:
    return json.dumps(grid_to_json_dict(grid), sort_keys=True)


def grid_from_json(text: str) -> Grid:
    return grid_from_json_dict(json.loads(text))


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

    @property
    def is_square(self) -> bool:
        return self.region_width == self.region_height

    @property
    def edge(self) -> int:
        """Square region edge; only defined for square partitions."""
        if not self.is_square:
            raise ValueError(
                f"partition regions are {self.region_width}x{self.region_height}, not square"
            )
        return self.region_width

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
        """Region index of every cell, flat in row-major cell order, as
        region_of gives it; read-only and cached per (partition, dims)."""
        self.validate_for(dims)
        width, height = dims
        cols = ((np.arange(width) + self.dx) % width) // self.region_width
        rows = ((np.arange(height) + self.dy) % height) // self.region_height
        labels = (cols[None, :] + (width // self.region_width) * rows[:, None]).ravel()
        labels.flags.writeable = False
        return labels

    def block_pieces(self, dims: GridDims, ax: np.ndarray, ay: np.ndarray, edge: int):
        """Cut in-bounds square blocks at region boundaries on both axes:
        x0, x1 (blocks, 1, Kx), y0, y1 (blocks, Ky, 1) and the pieces' region
        indices (blocks, Ky, Kx). Pieces past a block's end are empty."""
        width, height = dims
        x0, x1, col = _axis_segments(ax, edge, self.dx, width, self.region_width)
        y0, y1, row = _axis_segments(ay, edge, self.dy, height, self.region_height)
        regions = col[:, None, :] + (width // self.region_width) * row[:, :, None]
        return x0[:, None, :], x1[:, None, :], y0[:, :, None], y1[:, :, None], regions


def _axis_segments(
    anchors: np.ndarray, extent: int, shift: int, axis_cells: int, region_edge: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut block extents at region boundaries: (start, stop, region), each
    (blocks, K) with K = ceil((extent - 1) / region_edge) + 1; pieces past
    a block's end are empty (start == stop)."""
    k = -(-(extent - 1) // region_edge) + 1
    stop = (anchors + extent)[:, None]
    room = region_edge - (anchors + shift) % region_edge
    cuts = (anchors + room)[:, None] + region_edge * np.arange(k - 1)
    bounds = np.minimum(np.concatenate([anchors[:, None], cuts, stop], axis=1), stop)
    start = bounds[:, :-1]
    return start, bounds[:, 1:], ((start + shift) % axis_cells) // region_edge


def _summed_area(mask: np.ndarray) -> np.ndarray:
    """Summed-area table of a 2-D array, one zero row and column in front:
    the sum over rows y0:y1 and columns x0:x1 is
    t[y1, x1] - t[y0, x1] - t[y1, x0] + t[y0, x0]."""
    table = np.zeros((mask.shape[0] + 1, mask.shape[1] + 1), dtype=np.int64)
    table[1:, 1:] = mask.cumsum(0).cumsum(1)
    return table


def region_of(partition: Partition, dims: GridDims, cell: Cell) -> int:
    """Row-major region index of a cell under a shifted partition.

    The shift wraps: region column is floor(((x + dx) mod l) / region_width)
    and likewise for rows, so cells pushed past the right or bottom border
    re-enter on the opposite side.
    """
    partition.validate_for(dims)
    width, height = dims
    x, y = cell
    if not (0 <= x < width and 0 <= y < height):
        raise ValueError(f"cell ({x}, {y}) outside {width}x{height} grid")
    col = ((x + partition.dx) % width) // partition.region_width
    row = ((y + partition.dy) % height) // partition.region_height
    return col + (width // partition.region_width) * row


def enumerate_partitions(edge: int) -> tuple[Partition, ...]:
    """All distinct shifts of the square partition with the given edge.

    Exactly edge**2 partitions, in shift order: dx varies in the outer
    loop and dy in the inner one.
    """
    return tuple(
        Partition.square(edge, dx, dy) for dx in range(edge) for dy in range(edge)
    )


def cells_of_region(partition: Partition, dims: GridDims, region: int) -> frozenset[Cell]:
    """The set of cells mapping to the given region index.

    Inverse-consistent with region_of: every returned cell maps back to
    the index, and each region receives exactly region_width *
    region_height cells.
    """
    partition.validate_for(dims)
    width, height = dims
    n_cols = width // partition.region_width
    n_rows = height // partition.region_height
    if not (0 <= region < n_cols * n_rows):
        raise ValueError(f"region {region} out of range [0, {n_cols * n_rows})")
    col = region % n_cols
    row = region // n_cols
    cells = []
    for sy in range(partition.region_height):
        y = (row * partition.region_height + sy - partition.dy) % height
        for sx in range(partition.region_width):
            x = (col * partition.region_width + sx - partition.dx) % width
            cells.append((x, y))
    return frozenset(cells)
