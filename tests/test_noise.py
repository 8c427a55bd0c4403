import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from regionvote.grid import Grid
from regionvote.noise import (
    BlockNoiseSpec,
    BlockOverlapError,
    NoiseArea,
    PlacementInfeasibleError,
    SaltPepperSpec,
    _sample_disjoint_anchors,
    apply_block_noise,
    apply_salt_pepper,
    orthomeasure,
    pack_blocks,
    random_anchor_placement,
)


def all_a_grid(w, h):
    return Grid(w, h, 2, (0,) * (w * h))


def test_block_spec_rejects_overlap():
    with pytest.raises(BlockOverlapError):
        BlockNoiseSpec(block_edge=3, anchors=((0, 0), (2, 2)), target=0, flip_to=1)
    # corner contact at distance exactly edge is fine
    BlockNoiseSpec(block_edge=3, anchors=((0, 0), (3, 3)), target=0, flip_to=1)


def test_block_spec_rejects_bad_fields():
    with pytest.raises(ValueError):
        BlockNoiseSpec(block_edge=0, anchors=(), target=0, flip_to=1)
    with pytest.raises(ValueError):
        BlockNoiseSpec(block_edge=2, anchors=(), target=1, flip_to=1)
    with pytest.raises(ValueError):
        BlockNoiseSpec(block_edge=2, anchors=(), target=0, flip_to=1, flip_probability=1.5)


def test_block_spec_bounds_check():
    spec = BlockNoiseSpec(block_edge=3, anchors=((4, 0),), target=0, flip_to=1)
    with pytest.raises(ValueError):
        spec.validate_bounds((6, 6))
    spec.validate_bounds((7, 6))


def test_certain_block_noise_flips_every_target_cell():
    g = all_a_grid(6, 6)
    spec = BlockNoiseSpec(block_edge=2, anchors=((1, 1), (4, 4)), target=0, flip_to=1)
    noisy, report = apply_block_noise(g, spec)
    assert report.flipped_cells == 8
    assert report.concentrated_area == 8
    assert report.residual == 0
    flipped = {
        (x, y)
        for y in range(6)
        for x in range(6)
        if noisy.vote_at(x, y) == 1
    }
    assert flipped == {(1, 1), (2, 1), (1, 2), (2, 2), (4, 4), (5, 4), (4, 5), (5, 5)}


def test_block_noise_skips_non_target_cells():
    votes = [0] * 36
    votes[7] = 1  # (1, 1) already belongs to the rival
    g = Grid(6, 6, 2, tuple(votes))
    spec = BlockNoiseSpec(block_edge=2, anchors=((1, 1),), target=0, flip_to=1)
    noisy, report = apply_block_noise(g, spec)
    assert report.flipped_cells == 3
    assert noisy.counts() == (32, 4)


def test_partial_noise_needs_a_seed():
    g = all_a_grid(4, 4)
    spec = BlockNoiseSpec(block_edge=2, anchors=((0, 0),), target=0, flip_to=1, flip_probability=0.5)
    with pytest.raises(ValueError):
        apply_block_noise(g, spec)


def test_partial_noise_is_reproducible_and_subset():
    g = all_a_grid(10, 10)
    spec = BlockNoiseSpec(
        block_edge=4, anchors=((0, 0), (5, 5)), target=0, flip_to=1, flip_probability=0.6
    )
    noisy1, rep1 = apply_block_noise(g, spec, seed=42)
    noisy2, rep2 = apply_block_noise(g, spec, seed=42)
    assert noisy1 == noisy2
    assert rep1.flipped_cells == rep2.flipped_cells
    block_cells = set(spec.cells())
    for y in range(10):
        for x in range(10):
            if noisy1.vote_at(x, y) == 1:
                assert (x, y) in block_cells
    # spec-level seed works the same way
    spec2 = BlockNoiseSpec(
        block_edge=4, anchors=((0, 0), (5, 5)), target=0, flip_to=1,
        flip_probability=0.6, seed=42,
    )
    noisy3, _ = apply_block_noise(g, spec2)
    assert noisy3 == noisy1


def test_partial_noise_flip_count_is_binomial_scale():
    # 0.3 of 128 block cells; a 6-sigma band keeps this deterministic test honest
    g = all_a_grid(32, 16)
    anchors = tuple((x * 8, 0) for x in range(4)) + tuple((x * 8, 8) for x in range(4))
    spec = BlockNoiseSpec(
        block_edge=4, anchors=anchors, target=0, flip_to=1, flip_probability=0.3
    )
    n = 16 * len(anchors)
    mean = 0.3 * n
    sigma = math.sqrt(n * 0.3 * 0.7)
    _, rep = apply_block_noise(g, spec, seed=7)
    assert abs(rep.flipped_cells - mean) < 6 * sigma


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_block_noise_conserves_total_votes(seed):
    g = Grid(8, 8, 2, tuple((i * 7 + 3) % 2 for i in range(64)))
    spec = BlockNoiseSpec(
        block_edge=3, anchors=((0, 0), (4, 4)), target=0, flip_to=1, flip_probability=0.5
    )
    noisy, rep = apply_block_noise(g, spec, seed=seed)
    a0, b0 = g.counts()
    a1, b1 = noisy.counts()
    assert a1 == a0 - rep.flipped_cells
    assert b1 == b0 + rep.flipped_cells


def test_salt_pepper_extremes():
    g = Grid(5, 5, 2, tuple([0] * 20 + [1] * 5))
    unchanged, rep0 = apply_salt_pepper(g, SaltPepperSpec(rate=0.0, target=0, flip_to=1, seed=1))
    assert unchanged == g and rep0.flipped_cells == 0
    flooded, rep1 = apply_salt_pepper(g, SaltPepperSpec(rate=1.0, target=0, flip_to=1, seed=1))
    assert flooded.counts() == (0, 25)
    assert rep1.flipped_cells == 20
    assert rep1.residual == rep1.flipped_cells  # dispersed noise has no concentration
    assert rep1.concentrated_area == 0


def test_salt_pepper_reproducible():
    g = all_a_grid(12, 12)
    spec = SaltPepperSpec(rate=0.25, target=0, flip_to=1, seed=9)
    n1, r1 = apply_salt_pepper(g, spec)
    n2, r2 = apply_salt_pepper(g, spec)
    assert n1 == n2 and r1 == r2


def test_random_anchor_placement_disjoint_and_in_bounds():
    spec = random_anchor_placement((20, 20), 4, 6, seed=3)
    assert len(spec.anchors) == 6
    spec.validate_bounds((20, 20))
    # disjointness is enforced by the spec constructor; re-run for determinism
    assert random_anchor_placement((20, 20), 4, 6, seed=3).anchors == spec.anchors


def test_random_anchor_placement_infeasible():
    with pytest.raises(PlacementInfeasibleError):
        random_anchor_placement((6, 6), 4, 3, seed=0)


def test_placement_follows_random_sequential_adsorption_law():
    # 4x4 anchor lattice, edge 2, two blocks: the first anchor is uniform
    # over 16 and the second uniform over the anchors it leaves free, so
    # P(a1, a2) = 1/16 * 1/free(a1).
    lattice = [(x, y) for y in range(4) for x in range(4)]
    cells = [
        (a, b)
        for a in lattice
        for b in lattice
        if abs(a[0] - b[0]) >= 2 or abs(a[1] - b[1]) >= 2
    ]
    free = {a: sum(1 for p, _ in cells if p == a) for a in lattice}
    expected = np.array([1 / (16 * free[a]) for a, _ in cells])
    assert expected.sum() == pytest.approx(1.0)
    index = {pair: i for i, pair in enumerate(cells)}
    rng = np.random.default_rng(2024)
    draws = 30_000
    observed = np.zeros(len(cells))
    for _ in range(draws):
        ax, ay = _sample_disjoint_anchors(rng, (5, 5), 2, 2)
        observed[index[((int(ax[0]), int(ay[0])), (int(ax[1]), int(ay[1])))]] += 1
    assert chisquare(observed, expected * draws).pvalue > 0.001


def _exact_success(n, free, blocks, tries, edge):
    """P(placing `blocks` more blocks on a row of n anchors), t tries each.

    A block is placed with probability 1 - (1 - |free| / n) ** t, then
    lands uniformly on a free anchor and blocks every anchor within edge.
    """
    if blocks == 0:
        return 1.0
    if not free:
        return 0.0
    placed = 1 - (1 - len(free) / n) ** tries
    rest = sum(
        _exact_success(n, frozenset(b for b in free if abs(b - a) >= edge), blocks - 1, tries, edge)
        for a in free
    )
    return placed * rest / len(free)


def test_retry_budget_is_per_block_and_sequential():
    # 9x2 grid, edge 2: eight anchors on one row and four blocks, which
    # fit in only five ways. The budget of t tries starts afresh for every
    # block, whichever batch its tries fall in.
    n = 4000
    rng = np.random.default_rng(7)
    for tries in (1, 2, 3, 5, 200):
        ok = 0
        for _ in range(n):
            try:
                _sample_disjoint_anchors(rng, (9, 2), 2, 4, max_tries_per_block=tries)
                ok += 1
            except PlacementInfeasibleError:
                pass
        p = _exact_success(8, frozenset(range(8)), 4, tries, 2)
        assert abs(ok - n * p) < 5 * math.sqrt(n * p * (1 - p)), (tries, ok, n * p)
    with pytest.raises(PlacementInfeasibleError, match="after 200 tries"):
        random_anchor_placement((3, 3), 2, 2, seed=0)


def test_noise_area_bounds():
    with pytest.raises(ValueError):
        NoiseArea(frozenset({(7, 0)}), dims=(6, 6))
    area = NoiseArea(frozenset({(0, 0), (1, 0)}), dims=(6, 6))
    assert len(area) == 2


def rect_area(w, h, x0=0, y0=0):
    return NoiseArea(frozenset((x0 + x, y0 + y) for x in range(w) for y in range(h)))


def test_orthomeasure_rectangles():
    assert orthomeasure(rect_area(10, 10)) == 10
    assert orthomeasure(rect_area(3, 7)) == 3
    assert orthomeasure(rect_area(1, 9)) == 1


def test_orthomeasure_scattered_cells():
    area = NoiseArea(frozenset({(0, 0), (5, 5), (2, 9)}))
    assert orthomeasure(area) == 1


def test_orthomeasure_l_shape():
    # a 2-wide L: vertical runs of 2 exist on the stem
    cells = {(x, 0) for x in range(6)} | {(x, 1) for x in range(6)} | {(0, y) for y in range(6)} | {(1, y) for y in range(6)}
    assert orthomeasure(NoiseArea(frozenset(cells))) == 2


def test_orthomeasure_empty_raises():
    with pytest.raises(ValueError):
        orthomeasure(NoiseArea(frozenset()))


@given(st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=25)
def test_orthomeasure_doubling_never_shrinks(w, h):
    small = orthomeasure(rect_area(w, h))
    doubled = orthomeasure(rect_area(2 * w, 2 * h))
    assert doubled == 2 * small


def test_pack_blocks_rectangle():
    result = pack_blocks(rect_area(10, 10), 3)
    assert result.packed_count == 9
    assert result.concentrated_area == 81
    assert result.residual == 19


def test_pack_blocks_exact_tiling():
    result = pack_blocks(rect_area(12, 9), 3)
    assert result.residual == 0
    assert result.packed_count == 12


def test_pack_blocks_edge_one_never_leaves_residue():
    area = NoiseArea(frozenset({(0, 0), (3, 1), (2, 2), (9, 9), (4, 7)}))
    result = pack_blocks(area, 1)
    assert result.residual == 0
    assert result.packed_count == len(area)


@given(st.integers(1, 4), st.integers(4, 12), st.integers(4, 12))
@settings(max_examples=30)
def test_pack_blocks_counts_are_consistent(edge, w, h):
    result = pack_blocks(rect_area(w, h), edge)
    assert result.concentrated_area + result.residual == w * h
    assert result.concentrated_area == result.packed_count * edge * edge
    assert result.packed_count == (w // edge) * (h // edge)
