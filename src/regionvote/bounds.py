"""Analytic robustness bounds for national and regional voting.

All bounds count anti-A flips (votes moved from the leading candidate A
to the runner-up B) on a grid of n_cells cells where A holds fraction
a_frac of the votes. Noise is concentrated in disjoint square blocks of
edge noise_edge; regional voting uses square regions of edge
region_edge. Bounds accept exact fractions.Fraction inputs and then stay
exact; rounding happens only when tables are emitted, half up.

The two regional lower bounds assume the per-region vote distribution
keeps A ahead in every region (enforceable by the grid generator), and
that blocks carry the average vote mix. fixed_* names cover a single
agreed partition; best_shift_* names cover a defender who re-partitions
to minimize the number of noise-touched regions before tallying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Real = int | float | Fraction


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _check_edges(noise_edge: int, region_edge: int) -> None:
    if noise_edge <= 0 or region_edge <= 0:
        raise ValueError("edges must be positive")


def round_half_up(x: Real) -> int:
    """Round to the nearest integer, halves away from zero upward.

    Exact for Fraction inputs; 687.5 rounds to 688.
    """
    if isinstance(x, Fraction):
        return math.floor(x + Fraction(1, 2))
    return math.floor(x + 0.5)


def national_breakdown(n_cells: int, a_frac: Real, b_frac: Real) -> Real:
    """Flips beyond which the national winner changes: (a - b) / 2 * N.

    Exactly this many flips produce a national tie; the winner flips only
    strictly beyond it.
    """
    if n_cells < 0:
        raise ValueError("n_cells must be non-negative")
    return (a_frac - b_frac) * n_cells / 2


def fixed_partition_ratio_ceiling(noise_edge: int, region_edge: int) -> Fraction:
    """Worst-case contaminated-regions area per concentrated noise area.

    For any placement of disjoint noise blocks, the area of regions
    touching a block is at most (ceil(noise/region) + 1)^2 *
    region_edge^2 / noise_edge^2 times the block area.
    """
    _check_edges(noise_edge, region_edge)
    spread = _ceil_div(noise_edge, region_edge) + 1
    return Fraction(spread * spread * region_edge * region_edge, noise_edge * noise_edge)


def best_shift_ratio_ceiling(noise_edge: int, region_edge: int) -> Fraction:
    """Contamination ratio achievable by shifting the partition.

    Some shift of the region lattice touches at most
    ((region_edge + noise_edge - 1) / noise_edge)^2 times the block area.
    """
    _check_edges(noise_edge, region_edge)
    reach = region_edge + noise_edge - 1
    return Fraction(reach * reach, noise_edge * noise_edge)


def fixed_partition_area_threshold(n_cells: int, noise_edge: int, region_edge: int) -> Real:
    """Concentrated area below which any fixed partition retains the leader.

    Block area strictly under this keeps contaminated regions below half
    of all regions, so a leader ahead in every region survives.
    """
    return (n_cells / Fraction(2)) / fixed_partition_ratio_ceiling(noise_edge, region_edge)


def best_shift_area_threshold(n_cells: int, noise_edge: int, region_edge: int) -> Real:
    """Concentrated area below which the best shifted partition retains the leader."""
    return (n_cells / Fraction(2)) / best_shift_ratio_ceiling(noise_edge, region_edge)


def fixed_partition_lower_bound(
    n_cells: int,
    a_frac: Real,
    noise_edge: int,
    region_edge: int,
) -> Real:
    """Anti-A flips any fixed regional partition is guaranteed to absorb.

    Equals the area threshold times a_frac: blocks carrying the average
    vote mix convert area to flips at rate a_frac.
    """
    return a_frac * fixed_partition_area_threshold(n_cells, noise_edge, region_edge)


def best_shift_lower_bound(
    n_cells: int,
    a_frac: Real,
    noise_edge: int,
    region_edge: int,
) -> Real:
    """Anti-A flips absorbed when the defender re-partitions after seeing
    the noise blocks. Same caveats as fixed_partition_lower_bound."""
    return a_frac * best_shift_area_threshold(n_cells, noise_edge, region_edge)


def margin_fracs(margin_pct: int) -> tuple[Fraction, Fraction]:
    """Exact (a_frac, b_frac) for a two-candidate margin in percent."""
    if not (0 <= margin_pct <= 100):
        raise ValueError("margin_pct must lie in [0, 100]")
    margin = Fraction(margin_pct, 100)
    return (1 + margin) / 2, (1 - margin) / 2


@dataclass(frozen=True)
class BoundTable:
    """A rounded bound table with labeled rows and columns."""

    title: str
    column_names: tuple[str, ...]
    row_labels: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]

    def to_csv(self) -> str:
        lines = [",".join(("margin",) + self.column_names)]
        for label, row in zip(self.row_labels, self.cells):
            lines.append(",".join([label] + [str(v) for v in row]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        headers = ("margin",) + self.column_names
        rows = [
            [label] + [str(v) for v in row]
            for label, row in zip(self.row_labels, self.cells)
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))
        ]
        out = [self.title]
        out.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
        for r in rows:
            out.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        return "\n".join(out) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "columns": list(self.column_names),
            "rows": list(self.row_labels),
            "cells": [list(r) for r in self.cells],
        }


def table_stability_margins(
    n_cells: int = 10_000,
    margin_pcts: tuple[int, ...] = (5, 10, 20),
    edge_ratios: tuple[int, ...] = (1, 2),
) -> BoundTable:
    """Accommodated flips by margin: regional (per noise/region edge ratio)
    versus national. Values rounded half up at emission only."""
    columns = tuple(f"regional_ratio_{c}" for c in edge_ratios) + ("national",)
    rows = []
    labels = []
    for pct in margin_pcts:
        a_frac, b_frac = margin_fracs(pct)
        row = [
            round_half_up(fixed_partition_lower_bound(n_cells, a_frac, c, 1))
            for c in edge_ratios
        ]
        row.append(round_half_up(national_breakdown(n_cells, a_frac, b_frac)))
        rows.append(tuple(row))
        labels.append(f"{pct}%")
    return BoundTable(
        title=f"Accommodated anti-A flips, N={n_cells}",
        column_names=columns,
        row_labels=tuple(labels),
        cells=tuple(rows),
    )


def table_shifting_gain(
    n_cells: int = 10_000,
    margin_pcts: tuple[int, ...] = (5, 10, 15, 20),
    edge_pairs: tuple[tuple[int, int], ...] = ((3, 3), (4, 2)),
) -> BoundTable:
    """Fixed-partition versus best-shift accommodation for given
    (noise_edge, region_edge) pairs."""
    columns = []
    for noise_edge, region_edge in edge_pairs:
        columns.append(f"fixed_n{noise_edge}_r{region_edge}")
        columns.append(f"shifted_n{noise_edge}_r{region_edge}")
    rows = []
    labels = []
    for pct in margin_pcts:
        a_frac, _ = margin_fracs(pct)
        row = []
        for noise_edge, region_edge in edge_pairs:
            row.append(
                round_half_up(
                    fixed_partition_lower_bound(n_cells, a_frac, noise_edge, region_edge)
                )
            )
            row.append(
                round_half_up(
                    best_shift_lower_bound(n_cells, a_frac, noise_edge, region_edge)
                )
            )
        rows.append(tuple(row))
        labels.append(f"{pct}%")
    return BoundTable(
        title=f"Fixed vs best-shift accommodation, N={n_cells}",
        column_names=tuple(columns),
        row_labels=tuple(labels),
        cells=tuple(rows),
    )
