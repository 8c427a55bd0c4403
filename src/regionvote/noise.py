"""Noise injection: concentrated anti-target blocks and salt-and-pepper.

Concentrated noise is a set of pairwise disjoint square blocks; inside a
block, every cell currently voting for the target candidate flips to
flip_to with probability r (independently per cell). Salt-and-pepper
noise flips target cells uniformly over the whole grid instead. A
NoiseReport carries the realized flip count next to the concentrated
area of the blocks, and its residual counts flipped cells not covered by
any block (zero for block noise by construction, the full flip count for
salt-and-pepper).

The module also measures noise areas: orthomeasure() is the discrete
width of an area (the shortest maximal axis-aligned run of cells in any
of its 4-connected components), and pack_blocks() greedily packs
disjoint squares into an area to bound its concentrated part from below.
"""

from __future__ import annotations

import json
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
        """Raise on the first overlapping pair (i, j > i) in loop order: overlap
        is symmetric, so it is the first row's first hit off the diagonal.
        Rows go in chunks of about a million pairs."""
        n, edge = len(self.anchors), self.block_edge
        if n < 2:
            return
        x, y = np.array(self.anchors, dtype=np.int64).reshape(n, 2).T
        step = max(1, (1 << 20) // n)
        for i0 in range(0, n, step):
            i1 = min(n, i0 + step)
            near = np.abs(x[i0:i1, None] - x) < edge
            near &= np.abs(y[i0:i1, None] - y) < edge
            near[np.arange(i1 - i0), np.arange(i0, i1)] = False
            if near.any():
                i, j = np.argwhere(near)[0].tolist()
                (ax, ay), (bx, by) = self.anchors[i0 + i], self.anchors[j]
                raise BlockOverlapError(f"blocks at ({ax}, {ay}) and ({bx}, {by}) overlap")

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "BlockNoiseSpec":
        try:
            return cls(
                block_edge=int(payload["m_n"]),
                anchors=tuple((int(x), int(y)) for x, y in payload["anchors"]),
                target=int(payload["target"]),
                flip_to=int(payload["flip_to"]),
                flip_probability=float(payload["r"]),
                seed=None if payload.get("seed") is None else int(payload["seed"]),
            )
        except KeyError as exc:
            raise ValueError(f"noise spec JSON missing key {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "BlockNoiseSpec":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class SaltPepperSpec:
    """Uniform independent flips of target cells at the given rate."""

    rate: float
    target: int
    flip_to: int
    seed: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must lie in [0, 1]")
        if self.target == self.flip_to:
            raise ValueError("target and flip_to must differ")

    def to_json_dict(self) -> dict:
        return {
            "rate": self.rate,
            "target": self.target,
            "flip_to": self.flip_to,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class NoiseReport:
    """Realized noise accounting.

    flipped_cells is the number of votes actually changed (N_n),
    concentrated_area the total block area (S_c, zero for dispersed
    noise), and residual the flipped cells outside any block.
    """

    flipped_cells: int
    concentrated_area: int
    residual: int


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

    @classmethod
    def from_block_spec(cls, spec: BlockNoiseSpec, dims: GridDims | None = None) -> "NoiseArea":
        return cls(frozenset(spec.cells()), dims)

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
    spec._check_disjoint()
    if seed is None:
        seed = spec.seed
    if spec.flip_probability < 1.0 and seed is None:
        raise ValueError("a seed is required when flip_probability < 1")
    rng = np.random.default_rng(seed if seed is not None else 0)
    # Block cells in spec.cells() order: block by block, row-major inside.
    ax, ay = np.array(spec.anchors, dtype=np.int64).reshape(-1, 2).T
    sy, sx = np.divmod(np.arange(spec.block_edge**2), spec.block_edge)
    idx = ((ay[:, None] + sy) * grid.width + ax[:, None] + sx).ravel()
    votes = np.array(grid.votes)
    idx = idx[votes[idx] == spec.target]
    if spec.flip_probability < 1.0:
        idx = idx[rng.random(idx.size) < spec.flip_probability]
    votes[idx] = spec.flip_to
    report = NoiseReport(
        flipped_cells=idx.size,
        concentrated_area=spec.concentrated_area(),
        residual=0,
    )
    return grid.replace_votes(tuple(votes.tolist())), report


def apply_salt_pepper(grid: Grid, spec: SaltPepperSpec) -> tuple[Grid, NoiseReport]:
    """Flip each target cell independently with probability spec.rate."""
    rng = np.random.default_rng(spec.seed)
    votes = np.array(grid.votes)
    idx = np.flatnonzero(votes == spec.target)
    idx = idx[rng.random(idx.size) < spec.rate]
    votes[idx] = spec.flip_to
    report = NoiseReport(flipped_cells=idx.size, concentrated_area=0, residual=idx.size)
    return grid.replace_votes(tuple(votes.tolist())), report


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
    PlacementInfeasibleError once a block exhausts its retry budget.
    """
    rng = np.random.default_rng(seed)
    ax, ay = _sample_disjoint_anchors(rng, dims, block_edge, block_count, max_tries_per_block)
    return BlockNoiseSpec(
        block_edge=block_edge,
        anchors=tuple(zip(ax.tolist(), ay.tolist())),
        target=target,
        flip_to=flip_to,
        flip_probability=flip_probability,
        seed=seed,
    )


def _sample_disjoint_anchors(
    rng: np.random.Generator,
    dims: GridDims,
    block_edge: int,
    block_count: int,
    max_tries_per_block: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Random sequential adsorption of disjoint blocks: anchor x and y arrays.

    Candidates are iid uniform flat indices over the anchor lattice. They
    are offered in draw order: each is accepted unless it overlaps a block
    accepted before it, and PlacementInfeasibleError is raised once a
    block has seen max_tries_per_block candidates without an acceptance.
    That is the one-candidate-at-a-time law; only the draws are batched.
    A batch holds twice the blocks still to place plus the tries the
    current block has used, so a crowded lattice reaches the budget in a
    few draws. Blocking only grows, so a candidate already blocked when
    its batch is drawn is rejected without a Python step.
    """
    width, height = dims
    ax_max = width - block_edge + 1
    ay_max = height - block_edge + 1
    if ax_max <= 0 or ay_max <= 0:
        raise PlacementInfeasibleError(
            f"block edge {block_edge} exceeds grid {width}x{height}"
        )
    # blocked[ay, ax] marks anchors that would overlap an accepted block;
    # it is a view into a padded mask so a block's window needs no clipping.
    pad = block_edge - 1
    window = 2 * block_edge - 1
    padded = np.zeros((ay_max + 2 * pad, ax_max + 2 * pad), dtype=bool)
    blocked = padded[pad : pad + ay_max, pad : pad + ax_max]
    accepted: list[int] = []
    tries = 0  # candidates the current block saw in earlier batches
    while len(accepted) < block_count:
        size = 2 * (block_count - len(accepted)) + tries
        ys, xs = np.divmod(rng.integers(0, ax_max * ay_max, size=size), ax_max)
        xl, yl = xs.tolist(), ys.tolist()
        start = 0  # the current block's first candidate in this batch
        for i in np.flatnonzero(~blocked[ys, xs]).tolist():
            if tries + i - start >= max_tries_per_block:
                break
            x, y = xl[i], yl[i]
            if blocked[y, x]:
                continue
            accepted.append(y * ax_max + x)
            padded[y : y + window, x : x + window] = True
            tries, start = 0, i + 1
            if len(accepted) == block_count:
                break
        else:
            tries += size - start
            if tries < max_tries_per_block:
                continue
        if len(accepted) < block_count:
            raise PlacementInfeasibleError(
                f"could not place block {len(accepted) + 1} of {block_count} "
                f"after {max_tries_per_block} tries"
            )
    flat = np.array(accepted, dtype=np.int64)
    return flat % ax_max, flat // ax_max


def orthomeasure(area: NoiseArea) -> int:
    """Discrete width of an area: the shortest orthodiameter.

    The area is split into 4-connected components. Within a component,
    every maximal horizontal and vertical run of cells is an
    orthodiameter (its end cells touch the component boundary); the
    orthomeasure is the minimum run length over all components.

    >>> square = NoiseArea(frozenset((x, y) for x in range(10) for y in range(10)))
    >>> orthomeasure(square)
    10
    """
    cells = area.cells
    if not cells:
        raise ValueError("orthomeasure of an empty area is undefined")
    best = None
    for component in _components(cells):
        for run in _axis_runs(component):
            if best is None or run < best:
                best = run
    return best


def _components(cells: frozenset[Cell]) -> list[set[Cell]]:
    remaining = set(cells)
    out = []
    while remaining:
        seed_cell = remaining.pop()
        comp = {seed_cell}
        frontier = [seed_cell]
        while frontier:
            x, y = frontier.pop()
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb in remaining:
                    remaining.remove(nb)
                    comp.add(nb)
                    frontier.append(nb)
        out.append(comp)
    return out


def _axis_runs(component: set[Cell]):
    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for x, y in component:
        by_row.setdefault(y, []).append(x)
        by_col.setdefault(x, []).append(y)
    for coords in by_row.values():
        yield from _run_lengths(coords)
    for coords in by_col.values():
        yield from _run_lengths(coords)


def _run_lengths(coords: list[int]):
    coords.sort()
    start = prev = coords[0]
    for c in coords[1:]:
        if c == prev + 1:
            prev = c
            continue
        yield prev - start + 1
        start = prev = c
    yield prev - start + 1


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
