"""The flag search's array code against the per-cell code it replaced.

The references below are the earlier implementations: the coordinate grid
of _flag_layout built with mgrid, window sums from sliding_window_view
and anchors drawn with rng.choice(p=...), and one rng.random() per masked
white cell in a raster loop. Fed identically seeded generators, the
array code must return the same grids, anchors and flips.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from cell_oracles import region_of
from regionvote.cli import (
    _apply_flag_noise,
    _flag_anchors,
    _flag_layout,
    _winner_cellmap,
    main,
)
from regionvote.grid import Grid, Partition


def reference_layout(rng, width, height, black):
    n_centers = int(rng.integers(2, 4))
    cx = rng.uniform(0, width, n_centers)
    cy = rng.uniform(0, height, n_centers)
    ys, xs = np.mgrid[0:height, 0:width]
    d2 = ((xs[..., None] - cx) ** 2 + (ys[..., None] - cy) ** 2).min(axis=2)
    d2 = d2 + rng.uniform(0, 0.35, d2.shape) * d2.max()
    votes = np.zeros(width * height, dtype=np.int64)
    votes[np.argsort(d2.ravel(), kind="stable")[:black]] = 1
    return Grid(width, height, 2, tuple(int(v) for v in votes))


def reference_anchors(rng, grid, edge, count, black_won):
    votes = np.array(grid.votes).reshape(grid.height, grid.width)
    white = votes == 0
    shape = (edge, edge)
    safe_w = sliding_window_view((white & black_won).astype(np.int64), shape).sum(axis=(2, 3))
    unsafe_w = sliding_window_view((white & ~black_won).astype(np.int64), shape).sum(axis=(2, 3))
    weights = (safe_w + 1.0) ** 2 / (unsafe_w + 1.0)
    n_rows, n_cols = weights.shape
    anchors = []
    for _ in range(count):
        total = weights.sum()
        if total <= 0:
            break
        idx = int(rng.choice(weights.size, p=(weights / total).ravel()))
        ay, ax = divmod(idx, n_cols)
        anchors.append((ax, ay))
        y0, y1 = max(0, ay - edge + 1), min(n_rows, ay + edge)
        x0, x1 = max(0, ax - edge + 1), min(n_cols, ax + edge)
        weights[y0:y1, x0:x1] *= 0.5
    return tuple(anchors)


def reference_noise(grid, anchors, edge, rate, rng):
    mask = np.zeros((grid.height, grid.width), dtype=bool)
    for ax, ay in anchors:
        mask[ay : ay + edge, ax : ax + edge] = True
    votes = list(grid.votes)
    flips = 0
    for y in range(grid.height):
        for x in range(grid.width):
            if mask[y, x] and votes[y * grid.width + x] == 0 and rng.random() < rate:
                votes[y * grid.width + x] = 1
                flips += 1
    return Grid(grid.width, grid.height, 2, tuple(votes)), flips


def twin_rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),
    st.integers(1, 20),
    st.integers(1, 6),
    st.integers(1, 9),
    st.sampled_from([0.0, 0.35, 0.7, 1.0]),
)
@settings(max_examples=150, deadline=None)
def test_flag_steps_match_per_cell_reference(seed, width, height, edge, count, rate):
    edge = min(edge, width, height)
    setup = np.random.default_rng(seed)
    black = int(setup.integers(0, width * height + 1))
    fast, slow = twin_rngs(seed)
    grid = _flag_layout(fast, width, height, black)
    assert grid == reference_layout(slow, width, height, black)
    black_won = setup.random((height, width)) < 0.5
    anchors = _flag_anchors(fast, grid, edge, count, black_won)
    assert anchors == reference_anchors(slow, grid, edge, count, black_won)
    assert fast.random() == slow.random()  # both streams advanced alike
    fast, slow = twin_rngs(seed + 1)
    assert _apply_flag_noise(grid, anchors, edge, rate, fast) == reference_noise(
        grid, anchors, edge, rate, slow
    )
    assert fast.random() == slow.random()


@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_winner_cellmap_follows_shifted_regions(seed, dx, dy):
    rng = np.random.default_rng(seed)
    grid = Grid(15, 24, 2, tuple(rng.integers(0, 2, 360).tolist()))
    partition = Partition(5, 4, dx, dy)
    black_won, tally = _winner_cellmap(grid, partition)
    dims = (grid.width, grid.height)
    for y in range(grid.height):
        for x in range(grid.width):
            region = region_of(partition, dims, (x, y))
            assert black_won[y, x] == (tally.region_winners[region] == 1)


# sha256 of `regionvote flag --seed s --format f` reports, written by the
# per-cell implementation; the array code must reproduce them byte for byte.
FLAG_REPORTS = {
    (0, "json"): "b7647ef99994a65666ee60418ed699795840d9949304812e7e165287031ff14a",
    (1, "json"): "60208b5948bc42f3747ee8af694d53cb35479db2c645dcfcf12c59431ef149c9",
    (0, "txt"): "3763537911141fa534d12a9265600d42c6a5cf0dcc91972144704a8ea0a42e94",
}


def test_flag_reports_are_unchanged(tmp_path):
    for (seed, fmt), digest in FLAG_REPORTS.items():
        out = tmp_path / f"{seed}_{fmt}"
        assert main(["flag", "--seed", str(seed), "--format", fmt, "--out", str(out)]) == 0
        body = (out / f"flag_report.{fmt}").read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest, (seed, fmt)
