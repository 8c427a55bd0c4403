"""Noise injection: concentrated anti-target blocks.

Concentrated noise is a set of pairwise disjoint square blocks; inside a
block, every cell currently voting for the target candidate flips to
flip_to with probability r (independently per cell). A NoiseReport
carries the realized flip count next to the concentrated area of the
blocks. Salt-and-pepper noise, which flips target cells uniformly over
the whole grid, is drawn by breakdown.salt_pepper_threshold itself.

The module also measures noise areas: pack_blocks() greedily packs
disjoint squares into an area to bound its concentrated part from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from regionvote.grid import Cell, Grid, GridDims


class BlockOverlapError(ValueError):
    """Noise blocks must be pairwise disjoint."""


class PlacementInfeasibleError(RuntimeError):
    """Could not place the requested disjoint blocks within the retry budget."""


@dataclass(frozen=True)
class BlockNoiseSpec:
    """Disjoint square noise blocks aimed at one candidate.

    anchors are block top-left cells; every block spans block_edge cells
    right and down from its anchor. seed is optional replay metadata for
    the flip draws (apply_block_noise's own seed argument wins when both
    are given); with flip_probability 1.0 the flips are deterministic and
    no seed is needed.
    """

    block_edge: int
    anchors: tuple[Cell, ...]
    target: int
    flip_to: int
    flip_probability: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.block_edge <= 0:
            raise ValueError("block_edge must be positive")
        if self.target == self.flip_to:
            raise ValueError("target and flip_to must differ")
        if not (0.0 <= self.flip_probability <= 1.0):
            raise ValueError("flip_probability must lie in [0, 1]")
        anchors = tuple((int(x), int(y)) for x, y in self.anchors)
        object.__setattr__(self, "anchors", anchors)
        self._check_disjoint()

    def _check_disjoint(self) -> None:
        """Raise on the first overlapping pair (i, j > i) in loop order, in O(n):
        overlapping blocks have anchors in equal or adjacent edge-sized buckets,
        and anchors sharing a bucket overlap, so every row before the first hit
        has a bucket of its own and each bucket is scanned at most nine times."""
        edge, anchors = self.block_edge, self.anchors
        buckets: dict[Cell, list[int]] = {}
        for j, (x, y) in enumerate(anchors):
            buckets.setdefault((x // edge, y // edge), []).append(j)
        for i, (x, y) in enumerate(anchors):
            bx, by = x // edge, y // edge
            near = [
                j for cx in (bx - 1, bx, bx + 1) for cy in (by - 1, by, by + 1)
                for j in buckets.get((cx, cy), ())
                if j > i and abs(anchors[j][0] - x) < edge and abs(anchors[j][1] - y) < edge
            ]
            if near:
                ox, oy = anchors[min(near)]
                raise BlockOverlapError(f"blocks at ({x}, {y}) and ({ox}, {oy}) overlap")

    def cells(self):
        """All block cells, block by block in anchor order, row-major inside."""
        edge = self.block_edge
        for ax, ay in self.anchors:
            for sy in range(edge):
                for sx in range(edge):
                    yield (ax + sx, ay + sy)

    def concentrated_area(self) -> int:
        """Total block area S_c = block_edge**2 * block count."""
        return self.block_edge * self.block_edge * len(self.anchors)

    def validate_bounds(self, dims: GridDims) -> None:
        width, height = dims
        edge = self.block_edge
        for ax, ay in self.anchors:
            if not (0 <= ax and ax + edge <= width and 0 <= ay and ay + edge <= height):
                raise ValueError(
                    f"block at ({ax}, {ay}) with edge {edge} exceeds "
                    f"{width}x{height} grid"
                )

    def to_json_dict(self) -> dict:
        return {
            "m_n": self.block_edge,
            "anchors": [[x, y] for x, y in self.anchors],
            "target": self.target,
            "flip_to": self.flip_to,
            "r": self.flip_probability,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class NoiseReport:
    """Realized block-noise accounting.

    flipped_cells is the number of votes actually changed (N_n), and
    concentrated_area the total block area (S_c).
    """

    flipped_cells: int
    concentrated_area: int


@dataclass(frozen=True)
class NoiseArea:
    """A plain set of cells treated as one noise-affected area."""

    cells: frozenset[Cell]
    dims: GridDims | None = None

    def __post_init__(self) -> None:
        cells = frozenset((int(x), int(y)) for x, y in self.cells)
        object.__setattr__(self, "cells", cells)
        if self.dims is not None:
            width, height = self.dims
            for x, y in cells:
                if not (0 <= x < width and 0 <= y < height):
                    raise ValueError(f"cell ({x}, {y}) outside {width}x{height} grid")

    def __len__(self) -> int:
        return len(self.cells)


def apply_block_noise(
    grid: Grid, spec: BlockNoiseSpec, seed: int | None = None
) -> tuple[Grid, NoiseReport]:
    """Flip target cells inside the spec's blocks, each with probability r.

    Blocks must lie within the grid and be pairwise disjoint (the spec
    constructor already enforces disjointness), so no cell is ever
    offered two flips. Identical seeds reproduce identical noisy grids.
    """
    dims = (grid.width, grid.height)
    spec.validate_bounds(dims)
    if seed is None:
        seed = spec.seed
    if spec.flip_probability < 1.0 and seed is None:
        raise ValueError("a seed is required when flip_probability < 1")
    rng = np.random.default_rng(seed if seed is not None else 0)
    # Block cells in spec.cells() order: block by block, row-major inside.
    ax, ay = np.array(spec.anchors, dtype=np.int64).reshape(-1, 2).T
    sy, sx = np.divmod(np.arange(spec.block_edge**2), spec.block_edge)
    idx = ((ay[:, None] + sy) * grid.width + ax[:, None] + sx).ravel()
    votes = grid.votes.copy()
    idx = idx[votes[idx] == spec.target]
    if spec.flip_probability < 1.0:
        idx = idx[rng.random(idx.size) < spec.flip_probability]
    votes[idx] = spec.flip_to
    report = NoiseReport(flipped_cells=idx.size, concentrated_area=spec.concentrated_area())
    return grid.replace_votes(votes), report


def random_anchor_placement(
    dims: GridDims,
    block_edge: int,
    block_count: int,
    seed: int,
    target: int = 0,
    flip_to: int = 1,
    flip_probability: float = 1.0,
    max_tries_per_block: int = 200,
) -> BlockNoiseSpec:
    """Uniformly sample disjoint in-bounds blocks, deterministically per seed.

    Anchors are drawn uniformly over the valid anchor lattice and
    rejected on overlap with already accepted blocks. Raises
    PlacementInfeasibleError once a block exhausts its retry budget, and
    at once for more blocks than the grid can hold.
    """
    rng = np.random.default_rng(seed)
    ax, ay = _sample_disjoint_anchors(rng, dims, block_edge, block_count, max_tries_per_block)
    anchors = tuple(zip(ax.tolist(), ay.tolist()))
    return BlockNoiseSpec(block_edge, anchors, target, flip_to, flip_probability, seed)


def _sample_disjoint_anchors(
    rng: np.random.Generator, dims: GridDims, block_edge: int, block_count: int,
    max_tries_per_block: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """One trial of _place_disjoint_blocks: anchor x and y arrays, or
    PlacementInfeasibleError."""
    x, y, placed = _place_disjoint_blocks(
        rng, dims, block_edge, np.array([block_count]), max_tries_per_block
    )
    if placed[0] < block_count:
        raise PlacementInfeasibleError(
            f"could not place {block_count} blocks after {max_tries_per_block} tries per block"
            f" (a {dims[0]}x{dims[1]} grid holds at most {block_capacity(dims, block_edge)}"
            f" disjoint {block_edge}x{block_edge} blocks)"
        )
    return x[0], y[0]


def block_capacity(dims: GridDims, block_edge: int) -> int:
    """Most disjoint block_edge squares a grid holds: each covers exactly one
    cell whose coordinates are both -1 mod block_edge."""
    return (dims[0] // block_edge) * (dims[1] // block_edge)


def _place_disjoint_blocks(
    rng: np.random.Generator, dims: GridDims, block_edge: int, counts: np.ndarray,
    max_tries_per_block: int = 200,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random sequential adsorption for many trials in lockstep: anchor x and
    y arrays (trials, min(max(counts), capacity)) in acceptance order, and
    the blocks placed per trial (counts[t] when trial t succeeded).

    Each round, every unfinished trial draws a few iid uniform candidates
    from rng and accepts the first one its row of one (trials x padded
    lattice) blocked mask leaves free; the rest are discarded, so each trial
    keeps the one-candidate-at-a-time law. A trial stops once a block has
    seen max_tries_per_block candidates, which the draws per round divide,
    and a count above block_capacity stops it before any draw.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_x, n_y = dims[0] - block_edge + 1, dims[1] - block_edge + 1
    k = int(min(counts.max(initial=0), block_capacity(dims, block_edge)))
    anchors = np.zeros((counts.size, k), dtype=np.int32)
    placed = np.zeros(counts.size, dtype=np.int64)
    active = np.flatnonzero((counts > 0) & (counts <= k))
    # blocked[t, pad + y, pad + x] marks anchors (x, y) that would overlap an
    # accepted block of trial t; the padding spares a block's window clipping.
    pad = block_edge - 1
    row = n_x + 2 * pad
    plane = row * (n_y + 2 * pad)
    blocked = np.zeros(active.size * plane, dtype=bool)
    side = np.arange(-pad, pad + 1)
    window = (side[:, None] * row + side).ravel()
    draws = max(d for d in range(1, 9) if max_tries_per_block % d == 0)  # per trial and round
    # per unfinished trial: mask offset of anchor (0, 0), blocks placed and wanted, tries
    origin = np.arange(active.size) * plane + pad * row + pad
    done, wanted, tries = placed[active], counts[active], np.zeros(active.size, dtype=np.int64)
    while active.size:
        cand = rng.integers(0, n_x * n_y, size=(active.size, draws))
        at = origin[:, None] + cand + cand // n_x * (2 * pad)
        taken = blocked[at]
        first = taken.argmin(axis=1)
        hit = ~taken.all(axis=1)
        pick = first[hit]
        anchors[active[hit], done[hit]] = cand[hit, pick]
        blocked[at[hit, pick][:, None] + window] = True
        done += hit
        tries += draws
        tries[hit] = 0
        going = (done < wanted) & (tries < max_tries_per_block)
        if not going.all():
            placed[active] = done
            active, origin, done, wanted, tries = (
                a[going] for a in (active, origin, done, wanted, tries)
            )
    return anchors % n_x, anchors // n_x, placed


@dataclass(frozen=True)
class PackResult:
    """Greedy square packing of an area.

    concentrated_area = packed_count * block_edge**2 is a lower bound on
    how much of the area concentrated blocks can claim; residual is the
    number of uncovered area cells.
    """

    packed_count: int
    concentrated_area: int
    residual: int


def pack_blocks(area: NoiseArea, block_edge: int) -> PackResult:
    """Raster-scan greedy packing of disjoint squares fully inside the area.

    Cells are scanned row-major (top to bottom, left to right); a block
    is packed at each cell where it fits inside the area without touching
    an already packed block.

    >>> square = NoiseArea(frozenset((x, y) for x in range(10) for y in range(10)))
    >>> pack_blocks(square, 3)
    PackResult(packed_count=9, concentrated_area=81, residual=19)
    """
    if block_edge <= 0:
        raise ValueError("block_edge must be positive")
    cells = area.cells
    if not cells:
        return PackResult(0, 0, 0)
    covered: set[Cell] = set()
    count = 0
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    for y in range(min(ys), max(ys) + 1):
        for x in range(min(xs), max(xs) + 1):
            if (x, y) not in cells or (x, y) in covered:
                continue
            block = [
                (x + sx, y + sy) for sy in range(block_edge) for sx in range(block_edge)
            ]
            if all(c in cells and c not in covered for c in block):
                covered.update(block)
                count += 1
    concentrated = count * block_edge * block_edge
    return PackResult(
        packed_count=count,
        concentrated_area=concentrated,
        residual=len(cells) - concentrated,
    )
