"""Contamination accounting and the partition shifting strategy.

A region is contaminated when it intersects any noise block, whether or
not the block flipped a vote inside it: contamination is a property of
the block geometry alone. Sweeping all shifts of the square partition
and keeping the one touching the fewest regions is the shifting
strategy; its reports plug directly into the ratio ceilings in
regionvote.bounds.

One kernel, touched_regions, says which regions every block touches
under a whole vector of shifts at once, for any block edge, from the
region lattice arithmetic alone. contaminated_counts counts them for
every shift, and its argmin is the one shift chooser: the sweep, the
best-shift scheme's tally (breakdown.scheme_winner) and the block
searches, which count many trials at once, all take the first shift
touching the fewest regions. A sweep costs O(shifts * blocks * K^2)
time, with K = grid._axis_pieces pieces per block and axis, and scans no
cells. It counts shifts in chunks under _SUB_BATCH_BYTES, so its working
memory is the larger of that cap and one shift's arrays, whatever the
shift count. It names each piece's region with grid._axis_regions, the
formula the block searches sum a block's flips by, so the regions a
block touches and the regions it flips votes in are counted alike. The
brute-force cell scan lives in the tests as the independent oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from regionvote.grid import GridDims, Partition, _axis_pieces, _axis_regions, enumerate_partitions
from regionvote.noise import BlockNoiseSpec

# Bytes of one chunk of contaminated_counts (touched-region ids and hit table),
# near cache size; breakdown.salt_pepper_threshold sizes its re-tally by it too.
_SUB_BATCH_BYTES = 1 << 19


@dataclass(frozen=True)
class ContaminationReport:
    """Contamination of one partition by one block spec.

    contaminated_area is the total area of touched regions (their count
    times the region area); ratio divides it by the concentrated block
    area and is None when the spec has no blocks; slack is their
    difference.
    """

    partition: Partition
    contaminated_regions: int
    contaminated_area: int
    concentrated_area: int
    ratio: Fraction | None
    slack: int


def touched_regions(
    dims: GridDims, region_width: int, region_height: int,
    dx: np.ndarray, dy: np.ndarray, ax: np.ndarray, ay: np.ndarray, block_edge: int,
) -> np.ndarray:
    """Region indices the blocks anchored at (ax, ay) touch under each of S
    shifts (dx[s], dy[s]): an (S, blocks * Kx * Ky) array, with repeats,
    Kx and Ky pieces per block as _axis_regions cuts them."""
    width, height = dims
    cols = _axis_regions(ax, block_edge, dx[:, None], width, region_width)
    rows = (width // region_width) * _axis_regions(
        ay, block_edge, dy[:, None], height, region_height
    )
    return np.concatenate([col + row for row in rows for col in cols], axis=1)


def contaminated_counts(
    dims: GridDims, region_edge: int, ax: np.ndarray, ay: np.ndarray, block_edge: int,
    trial: np.ndarray | None = None, n_trials: int = 1,
) -> np.ndarray:
    """Contaminated-region count of every shift of the square partition, in
    enumerate_partitions order (dx outer): (shifts,), or (n_trials, shifts)
    when block i belongs to trial trial[i]. Shifts are counted in chunks
    whose touched-region ids (8 * blocks * K^2 bytes a shift) and hit table
    (n_trials * regions bytes a shift) fit _SUB_BATCH_BYTES, at worst one
    shift at a time; the counts, and so their first minimum, do not depend
    on the chunking."""
    n_shifts = region_edge * region_edge
    n_regions = (dims[0] // region_edge) * (dims[1] // region_edge)
    pieces = _axis_pieces(block_edge, region_edge) ** 2
    step = max(1, _SUB_BATCH_BYTES // (8 * ax.size * pieces + n_trials * n_regions))
    tags = 0 if trial is None else np.tile(trial, pieces)  # each id's trial
    counts = np.empty((n_trials, n_shifts), dtype=np.int32)
    for start in range(0, n_shifts, step):
        dx, dy = divmod(np.arange(start, min(start + step, n_shifts), dtype=np.int32), region_edge)
        ids = touched_regions(dims, region_edge, region_edge, dx, dy, ax, ay, block_edge)
        rows = np.arange(dx.size)[:, None] + dx.size * tags  # of a (trials * shifts, regions) table
        hit = np.zeros((n_trials, dx.size, n_regions), dtype=bool)
        hit.ravel()[ids + n_regions * rows] = True
        counts[:, start:start + dx.size] = hit.sum(axis=2, dtype=np.int32)
    return counts if trial is not None else counts[0]


def _anchor_arrays(spec: BlockNoiseSpec) -> np.ndarray:
    """The anchors as two rows, x then y."""
    return np.array(spec.anchors, dtype=np.int64).reshape(-1, 2).T


def _report(partition: Partition, touched: int, spec: BlockNoiseSpec) -> ContaminationReport:
    contaminated_area = touched * partition.region_width * partition.region_height
    concentrated = spec.concentrated_area()
    ratio = Fraction(contaminated_area, concentrated) if concentrated else None
    return ContaminationReport(
        partition=partition,
        contaminated_regions=touched,
        contaminated_area=contaminated_area,
        concentrated_area=concentrated,
        ratio=ratio,
        slack=contaminated_area - concentrated,
    )


def sweep_partitions(
    dims: GridDims, region_edge: int, spec: BlockNoiseSpec
) -> tuple[ContaminationReport, ...]:
    """Contamination reports for every shift, in shift order (dx outer)."""
    Partition.square(region_edge).validate_for(dims)
    spec.validate_bounds(dims)
    counts = contaminated_counts(dims, region_edge, *_anchor_arrays(spec), spec.block_edge)
    return tuple(
        _report(partition, touched, spec)
        for partition, touched in zip(enumerate_partitions(region_edge), counts.tolist())
    )


def fewest_contaminated(reports: tuple[ContaminationReport, ...]) -> ContaminationReport:
    """The report touching the fewest regions; ties go to the first, which
    in sweep order is the lexicographically smallest (dx, dy)."""
    return min(reports, key=lambda r: r.contaminated_regions)


def shift_histogram(reports: tuple[ContaminationReport, ...]) -> dict[int, int]:
    """How many shifts touched k regions, for each observed k."""
    return dict(sorted(Counter(report.contaminated_regions for report in reports).items()))


def sweep_to_csv(reports: tuple[ContaminationReport, ...]) -> str:
    lines = ["dx,dy,contaminated_regions,contaminated_area,concentrated_area,ratio"]
    for rep in reports:
        ratio = "" if rep.ratio is None else repr(float(rep.ratio))
        lines.append(
            f"{rep.partition.dx},{rep.partition.dy},{rep.contaminated_regions},"
            f"{rep.contaminated_area},{rep.concentrated_area},{ratio}"
        )
    return "\n".join(lines) + "\n"
