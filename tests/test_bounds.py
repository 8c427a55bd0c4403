import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from regionvote.bounds import (
    best_shift_area_threshold,
    best_shift_lower_bound,
    best_shift_ratio_ceiling,
    fixed_partition_area_threshold,
    fixed_partition_lower_bound,
    fixed_partition_ratio_ceiling,
    margin_fracs,
    national_breakdown,
    round_half_up,
    table_shifting_gain,
    table_stability_margins,
)

TABLE1 = (
    (656, 1167, 250),
    (688, 1222, 500),
    (750, 1333, 1000),
)
TABLE2 = (
    (656, 945, 1167, 1680),
    (688, 990, 1222, 1760),
    (719, 1035, 1278, 1840),
    (750, 1080, 1333, 1920),
)


def test_round_half_up_is_exact_on_halves():
    assert round_half_up(Fraction(1375, 2)) == 688  # 687.5
    assert round_half_up(Fraction(1, 2)) == 1
    assert round_half_up(Fraction(3, 2)) == 2
    assert round_half_up(0.4999) == 0
    assert round_half_up(Fraction(-1, 2)) == 0


def test_national_breakdown_examples():
    assert national_breakdown(10_000, Fraction(55, 100), Fraction(45, 100)) == 500
    assert national_breakdown(360, Fraction(207, 360), Fraction(153, 360)) == 27
    assert national_breakdown(100, Fraction(1, 2), Fraction(1, 2)) == 0


def test_ratio_ceilings_known_values():
    assert fixed_partition_ratio_ceiling(5, 8) == Fraction(256, 25)
    assert best_shift_ratio_ceiling(5, 8) == Fraction(144, 25)
    assert fixed_partition_ratio_ceiling(3, 3) == Fraction(4, 1)
    assert best_shift_ratio_ceiling(3, 3) == Fraction(25, 9)


def test_area_thresholds_are_half_n_over_ceiling():
    n = 10_000
    assert fixed_partition_area_threshold(n, 5, 8) == Fraction(n, 2) / Fraction(256, 25)
    assert best_shift_area_threshold(n, 5, 8) == Fraction(n, 2) / Fraction(144, 25)


def test_lower_bound_table1_digits():
    got = table_stability_margins()
    assert tuple(tuple(row) for row in got.cells) == TABLE1
    assert got.row_labels == ("5%", "10%", "20%")


def test_lower_bound_table2_digits():
    got = table_shifting_gain()
    assert tuple(tuple(row) for row in got.cells) == TABLE2


def test_table_renderings_agree():
    table = table_stability_margins()
    as_json = json.loads(json.dumps(table.to_json_dict()))
    assert as_json["cells"] == [list(r) for r in table.cells]
    csv_lines = table.to_csv().strip().splitlines()
    assert csv_lines[0].startswith("margin,")
    assert len(csv_lines) == 1 + len(table.cells)
    text = table.to_text()
    for row in table.cells:
        for cell in row:
            assert str(cell) in text


def test_zero_cells_gives_zero_tables():
    t1 = table_stability_margins(n_cells=0)
    assert all(cell == 0 for row in t1.cells for cell in row)


@given(st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=81)
def test_shifting_never_hurts(noise_edge, region_edge):
    # the best-shift ceiling is never above the fixed-partition ceiling,
    # so the guaranteed absorbed noise never decreases
    fixed = fixed_partition_ratio_ceiling(noise_edge, region_edge)
    shifted = best_shift_ratio_ceiling(noise_edge, region_edge)
    assert shifted <= fixed
    lb_fixed = fixed_partition_lower_bound(3600, Fraction(11, 20), noise_edge, region_edge)
    lb_shift = best_shift_lower_bound(3600, Fraction(11, 20), noise_edge, region_edge)
    assert lb_shift >= lb_fixed


@given(st.integers(1, 6), st.integers(2, 8), st.integers(51, 99))
@settings(max_examples=60)
def test_bounds_grow_with_margin(noise_edge, region_edge, a_pct):
    a_lo = Fraction(a_pct, 100)
    a_hi = Fraction(a_pct + 1, 100)
    assert fixed_partition_lower_bound(4800, a_hi, noise_edge, region_edge) >= (
        fixed_partition_lower_bound(4800, a_lo, noise_edge, region_edge)
    )


def test_margin_fracs():
    a, b = margin_fracs(10)
    assert a == Fraction(55, 100) and b == Fraction(45, 100)
    assert a + b == 1
