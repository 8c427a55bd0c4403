"""Contamination accounting and the partition shifting strategy.

A region is contaminated when it intersects any noise block, whether or
not the block flipped a vote inside it: contamination is a property of
the block geometry alone. Sweeping all shifts of the square partition
and keeping the one touching the fewest regions is the shifting
strategy; its reports plug directly into the ratio ceilings in
regionvote.bounds.

Contaminated regions are computed from block rectangles and the region
lattice arithmetic, never by scanning cells, so a sweep over all shifts
costs O(shifts * blocks). The brute-force cell scan lives in the tests
as the independent oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from regionvote.grid import GridDims, Partition, enumerate_partitions
from regionvote.noise import BlockNoiseSpec


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


def contaminated_region_ids(
    dims: GridDims, partition: Partition, spec: BlockNoiseSpec
) -> frozenset[int]:
    """Indices of regions intersecting at least one noise block."""
    partition.validate_for(dims)
    spec.validate_bounds(dims)
    ax, ay = np.array(spec.anchors, dtype=np.int64).reshape(-1, 2).T
    x0, x1, y0, y1, regions = partition.block_pieces(dims, ax, ay, spec.block_edge)
    return frozenset(regions[(x1 > x0) & (y1 > y0)].tolist())


def contamination_report(
    dims: GridDims, partition: Partition, spec: BlockNoiseSpec
) -> ContaminationReport:
    touched = len(contaminated_region_ids(dims, partition, spec))
    region_area = partition.region_width * partition.region_height
    contaminated_area = touched * region_area
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
    return tuple(
        contamination_report(dims, partition, spec)
        for partition in enumerate_partitions(region_edge)
    )


def best_partition(
    dims: GridDims, region_edge: int, spec: BlockNoiseSpec
) -> ContaminationReport:
    """The shift touching the fewest regions; ties break toward the
    lexicographically smallest (dx, dy)."""
    return min(sweep_partitions(dims, region_edge, spec), key=lambda r: r.contaminated_regions)


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
