"""Command line driver: bounds, flag, sweep, breakdown, eigen, dispersed.

Every subcommand reads an optional config file (JSON object or
key=value lines), applies --seed/--out/--format overrides, and writes
deterministic files under --out. Each output embeds the resolved
config, and a config_echo.json sidecar holds it verbatim, so any file
can be replayed byte for byte. Exit codes: 0 success (and, for bounds,
tables matching the built-in expected values), 1 mismatch or search
failure, 2 config errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import table_shifting_gain, table_stability_margins
from .breakdown import (
    BestShiftScheme,
    GlobalScheme,
    GridGenSpec,
    RegionalScheme,
    estimate_threshold,
    exhaustive_breakdown,
    generate_grid,
    greedy_block_breakdown,
    randomized_breakdown,
    salt_pepper_threshold,
    threshold_curve_to_csv,
)
from .eigenlab import PatternGallery, run_conjecture_experiment
from .grid import Grid, Partition, _summed_area, grid_to_text
from .noise import BlockNoiseSpec, PlacementInfeasibleError, random_anchor_placement
from .seeding import stream_rng, stream_seed
from .shifting import fewest_contaminated, shift_histogram, sweep_partitions, sweep_to_csv
from .voting import region_counts, tally_global, tally_regional, winners

# Stability-margin and shifting-gain tables for the default configuration,
# frozen from the closed-form bounds at N=10000. cmd_bounds recomputes the
# tables and exits nonzero if they drift from these.
EXPECTED_TABLE1 = (
    (656, 1167, 250),
    (688, 1222, 500),
    (750, 1333, 1000),
)
EXPECTED_TABLE2 = (
    (656, 945, 1167, 1680),
    (688, 990, 1222, 1760),
    (719, 1035, 1278, 1840),
    (750, 1080, 1333, 1920),
)

# Bytes any one 8-byte-per-entry array a config implies may take: a grid's
# int64 votes, and an eigen run's float64 Gram matrix and pattern gallery,
# are refused above this before any work starts.
ARRAY_CAP_BYTES = 1 << 30

# The regional schemes the flag instance must survive: 5x4 and 3x3 regions.
FLAG_PARTITIONS = (Partition(region_width=5, region_height=4), Partition.square(3))
# Flag attempts evaluated in lockstep. Attempts after a chunk's first
# success are wasted work; 32 balances that against per-chunk overhead.
FLAG_CHUNK = 32
# Anchor uniforms drawn from an attempt's stream at once, so that memory
# stays bounded for any block count.
FLAG_DRAW_CHUNK = 1024


class ConfigError(Exception):
    """Bad config file, key, or value; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config plumbing


def _parse_config_file(path: pathlib.Path) -> tuple[dict, dict[str, int]]:
    """Read a JSON object or key=value lines; returns (values, line map)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        return data, {}
    values: dict = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
        lines[key] = lineno
    return values, lines


def _pair(token) -> tuple[int, int]:
    parts = token if isinstance(token, (list, tuple)) else str(token).split("x")
    if len(parts) != 2:
        raise ValueError(f"expected a WxH pair, got {token!r}")
    return _coerce_like(0, parts[0]), _coerce_like(0, parts[1])


def _coerce_like(default, value):
    """Convert a raw config value to the type of the field default. A bool
    is no number, and an int field takes no fractional number."""
    if isinstance(default, (int, float)):
        if isinstance(value, bool) or (
            isinstance(default, int) and isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError(f"expected {type(default).__name__}, got {value!r}")
        return type(default)(value)
    if isinstance(default, str):
        return str(value)
    if isinstance(default, tuple):
        items = value
        if isinstance(value, str):
            items = [tok for tok in value.split(",") if tok.strip()]
        if not isinstance(items, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        if not default or isinstance(default[0], tuple):  # an empty default holds pairs
            return tuple(_pair(tok) for tok in items)
        return tuple(_coerce_like(default[0], tok) for tok in items)
    raise ValueError(f"unsupported config field type {type(default).__name__}")


def _build_config(cls, raw: dict, lines: dict[str, int], source):
    defaults = cls()
    known = {f.name for f in dataclasses.fields(cls)}
    updates = {}
    for key, value in raw.items():
        where = f"{source}:{lines[key]}: " if key in lines else (f"{source}: " if source else "")
        if key not in known:
            raise ConfigError(
                f"{where}unknown config key {key!r}; known keys: {', '.join(sorted(known))}"
            )
        try:
            updates[key] = _coerce_like(getattr(defaults, key), value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}bad value for {key!r}: {exc}") from exc
    cfg = dataclasses.replace(defaults, **updates)
    try:
        if not 0 <= cfg.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _echo_dict(subcommand: str, cfg, fmt: str) -> dict:
    data = dataclasses.asdict(cfg)
    data["subcommand"] = subcommand
    data["format"] = fmt
    return data


def _echo_json(echo: dict) -> str:
    return json.dumps(echo, sort_keys=True)


def _write(out_dir: pathlib.Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")


def _write_echo(out_dir: pathlib.Path, echo: dict) -> None:
    _write(out_dir, "config_echo.json", _echo_json(echo) + "\n")


# ---------------------------------------------------------------------------
# subcommand configs


def _check_geometry(width: int, height: int, block_edge: int, partitions) -> None:
    """Positive dimensions that every partition divides, and a block edge that fits."""
    if width < 1 or height < 1:
        raise ValueError("width and height must be positive")
    for partition in partitions:
        partition.validate_for((width, height))
    if not 1 <= block_edge <= min(width, height):
        raise ValueError(f"block_edge must lie in [1, {min(width, height)}]")


def _check_array_cap(name: str, entries: int) -> None:
    if 8 * entries > ARRAY_CAP_BYTES:
        raise ValueError(
            f"the {name} would take {entries / 2**27:.1f} GiB, over {ARRAY_CAP_BYTES >> 30} GiB")


@dataclass(frozen=True)
class BoundsConfig:
    n_cells: int = 10_000
    margin_pcts: tuple[int, ...] = (5, 10, 20)
    edge_ratios: tuple[int, ...] = (1, 2)
    shift_margin_pcts: tuple[int, ...] = (5, 10, 15, 20)
    edge_pairs: tuple[tuple[int, int], ...] = ((3, 3), (4, 2))
    seed: int = 0

    def validate(self) -> None:
        if self.n_cells < 0:
            raise ValueError("n_cells must be non-negative")
        if not all((self.margin_pcts, self.edge_ratios, self.shift_margin_pcts, self.edge_pairs)):
            raise ValueError("bounds config lists must be non-empty")
        if min(self.edge_ratios + sum(self.edge_pairs, ())) < 1:
            raise ValueError("edge ratios and edge pairs must be positive")
        for pct in self.margin_pcts + self.shift_margin_pcts:
            if not 0 < pct < 100:
                raise ValueError(f"margin percent {pct} out of range (0, 100)")


@dataclass(frozen=True)
class FlagConfig:
    width: int = 15
    height: int = 24
    white: int = 207
    black: int = 153
    blocks: int = 7
    block_edge: int = 5
    rate: float = 0.7
    attempts: int = 10_000
    seed: int = 0

    def validate(self) -> None:
        _check_geometry(self.width, self.height, self.block_edge, FLAG_PARTITIONS)
        if self.white < 0 or self.black < 0:
            raise ValueError("white and black must be non-negative")
        if self.white + self.black != self.width * self.height:
            raise ValueError("white + black must equal width * height")
        if self.blocks < 1:
            raise ValueError("blocks must be positive")
        if not 0 <= self.rate <= 1:
            raise ValueError("rate must lie in [0, 1]")
        if self.attempts < 1:
            raise ValueError("attempts must be positive")
        _check_array_cap("width x height noise array", self.width * self.height)


@dataclass(frozen=True)
class SweepConfig:
    width: int = 48
    height: int = 48
    region_edge: int = 8
    block_edge: int = 5
    blocks: int = 1
    anchors: tuple[tuple[int, int], ...] = ()
    seed: int = 0

    def validate(self) -> None:
        partition = Partition.square(self.region_edge)
        _check_geometry(self.width, self.height, self.block_edge, (partition,))
        if self.blocks < 1 and not self.anchors:
            raise ValueError("need a positive block count or explicit anchors")
        _check_array_cap("width x height vote array", self.width * self.height)


@dataclass(frozen=True)
class BreakdownConfig:
    width: int = 6
    height: int = 6
    a_frac: float = 0.55
    grid_mode: str = "uniform_random"
    region_edge: int = 3
    scheme: str = "global"
    search: str = "exhaustive"
    budget: int = 0  # 0 means the search default
    block_edge: int = 1
    blocks_lo: int = 1
    blocks_hi: int = 8
    trials: int = 1000
    seed: int = 0

    def validate(self) -> None:
        if self.region_edge < 1:
            raise ValueError("region_edge must be positive")
        if self.scheme not in ("global", "regional", "best_shift"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.search not in ("exhaustive", "randomized", "greedy"):
            raise ValueError(f"unknown search {self.search!r}")
        if self.search == "exhaustive" and self.scheme == "best_shift":
            raise ValueError("exhaustive search does not cover best_shift")
        if self.budget < 0:
            raise ValueError("budget must be non-negative (0 means the search default)")
        _check_array_cap("width x height vote array", self.width * self.height)


@dataclass(frozen=True)
class EigenConfig:
    patterns: int = 16
    width: int = 60
    height: int = 40
    gallery_seed: int = 11
    k: int = 8
    region_counts: tuple[int, ...] = (1, 4, 8, 24, 96, 600)
    noise_levels: tuple[float, ...] = (0.0, 0.5)
    trials: int = 12
    seed: int = 0

    def validate(self) -> None:
        if self.patterns < 2:
            raise ValueError("need at least 2 patterns")
        if min(self.width, self.height) < 1 or self.width * self.height < 2:
            raise ValueError("width and height must be positive, with at least 2 pixels")
        _check_array_cap("patterns x patterns Gram matrix", self.patterns * self.patterns)
        _check_array_cap("patterns x pixels gallery", self.patterns * self.width * self.height)
        if self.gallery_seed < 0:
            raise ValueError("gallery_seed must be non-negative")
        if not (self.region_counts and self.noise_levels):
            raise ValueError("region_counts and noise_levels must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        for level in self.noise_levels:
            if not 0 <= level <= 1:
                raise ValueError(f"noise level {level} out of range [0, 1]")


@dataclass(frozen=True)
class DispersedConfig:
    side: int = 50
    a_frac: float = 0.55
    region_edge: int = 5
    trials: int = 500
    rates: tuple[float, ...] = (0.06, 0.07, 0.08, 0.085, 0.09, 0.095, 0.10, 0.11, 0.12)
    seed: int = 0

    def validate(self) -> None:
        # the side, share, rates and trial count are checked where they are used
        if self.region_edge < 1 or self.side % self.region_edge != 0:
            raise ValueError("region edge must be positive and divide the grid side")
        if not self.rates:
            raise ValueError("rates must be non-empty")
        _check_array_cap("side x side vote array", self.side * self.side)


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(cfg: BoundsConfig, out_dir: pathlib.Path, fmt: str) -> int:
    echo = _echo_dict("bounds", cfg, fmt)
    table1 = table_stability_margins(cfg.n_cells, cfg.margin_pcts, cfg.edge_ratios)
    table2 = table_shifting_gain(cfg.n_cells, cfg.shift_margin_pcts, cfg.edge_pairs)
    for name, table in (("table1", table1), ("table2", table2)):
        if fmt == "json":
            body = json.dumps(
                {"config": echo, "table": table.to_json_dict()}, sort_keys=True
            ) + "\n"
        elif fmt == "csv":
            body = f"# config {_echo_json(echo)}\n" + table.to_csv()
        else:
            body = f"config: {_echo_json(echo)}\n\n" + table.to_text()
        _write(out_dir, f"{name}.{fmt}", body)
    _write_echo(out_dir, echo)

    if cfg.n_cells == 0:
        print("n_cells=0: zero tables written, nothing to compare")
        return 0
    if cfg != BoundsConfig(seed=cfg.seed):
        print("non-default bounds config: tables written, no expected values to compare")
        return 0
    if table1.cells == EXPECTED_TABLE1 and table2.cells == EXPECTED_TABLE2:
        print("bounds tables match the expected values")
        return 0
    print("bounds tables DIFFER from the expected values", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# flag


def _flag_layouts(rngs, width: int, height: int, black: int) -> np.ndarray:
    """Black votes clustered around two or three random centers, count
    exact: one flat row of 0/1 votes per generator. Each generator draws
    its center count, then the x centers, y centers and jitter with one
    random() call (uniform(0, s) is 0.0 + s * random(), the same double as
    s * random()); a missing third center sits at infinity."""
    n, n_cells = len(rngs), width * height
    cx = np.full((3, n, 1, 1), np.inf)
    cy = np.full((3, n, 1, 1), np.inf)
    jitter = np.empty((n, height, width))
    for row, rng in enumerate(rngs):
        k = int(rng.integers(2, 4))
        draws = rng.random(2 * k + n_cells)
        cx[:k, row, 0, 0] = draws[:k]
        cy[:k, row, 0, 0] = draws[k : 2 * k]
        jitter[row] = draws[2 * k :].reshape(height, width)
    dx2 = (np.arange(width) - width * cx) ** 2
    dy2 = (np.arange(height)[:, None] - height * cy) ** 2
    d2 = (dx2 + dy2).min(axis=0)
    d2 = d2 + 0.35 * jitter * d2.max(axis=(1, 2), keepdims=True)
    first = np.argsort(d2.reshape(n, n_cells), axis=1, kind="stable")[:, :black]
    votes = np.zeros((n, n_cells), dtype=np.int64)
    np.put_along_axis(votes, first, 1, axis=1)
    return votes


def _window_sums(mask: np.ndarray, edge: int) -> np.ndarray:
    """Sum of every edge x edge window of each (rows, H, W) mask, indexed
    by the window's top-left cell."""
    t = _summed_area(mask)
    return t[:, edge:, edge:] - t[:, :-edge, edge:] - t[:, edge:, :-edge] + t[:, :-edge, :-edge]


def _flag_anchors(rngs, white: np.ndarray, black_won: np.ndarray, edge: int, count: int):
    """Draw count block anchors for every row of the (rows, H, W) masks
    in lockstep, favouring white pockets inside regions Black already
    holds, where flips cannot cost White any region. Each draw halves the
    weights of the windows its block overlaps, so blocks may overlap but
    repeats are damped. A row whose weights all underflow to zero stops;
    the loop ends when every row has. Each row's generator gives its
    uniforms FLAG_DRAW_CHUNK at a time, as single draws would.

    Returns the (rows, draws, 2) anchors as (x, y), each row's union of
    blocks as a (rows, H, W) mask, and which rows drew all count anchors.
    """
    n, height, width = white.shape
    safe_w = _window_sums(white & black_won, edge)
    unsafe_w = _window_sums(white & ~black_won, edge)
    weights = ((safe_w + 1.0) ** 2 / (unsafe_w + 1.0)).reshape(n, -1)
    n_cols = width - edge + 1
    # near_y[a, y]: whether window row y lies within edge - 1 of row a; near_x alike
    near_y, near_x = (
        np.abs(np.subtract.outer(np.arange(k), np.arange(k))) < edge
        for k in (height - edge + 1, n_cols)
    )
    cdf = np.empty_like(weights)
    below = np.empty(weights.shape, dtype=bool)
    live = np.ones(n, dtype=bool)
    picks = []  # flat window indices, one (rows, FLAG_DRAW_CHUNK) block per refill
    drawn = count
    for step in range(count):
        j = step % FLAG_DRAW_CHUNK
        if j == 0:
            uniforms = np.zeros((n, min(FLAG_DRAW_CHUNK, count - step)))
            for row in np.flatnonzero(live):
                rngs[row].random(out=uniforms[row])
            picks.append(np.empty(uniforms.shape, dtype=np.intp))
        total = weights.sum(axis=1)
        dead = total <= 0
        if dead.any():
            live &= ~dead
            if not live.any():
                drawn = step
                break
            weights[dead] = 1.0  # placeholder draws for rows no longer read
            total[dead] = weights.shape[1]
        # rng.choice(p=weights / total)'s inverse-CDF draw, whose
        # searchsorted(cdf, u, "right") is the count of cdf <= u
        np.divide(weights, total[:, None], out=cdf)
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        np.less_equal(cdf, uniforms[:, j, None], out=below)
        pick = picks[-1][:, j] = below.sum(axis=1)
        ay, ax = np.divmod(pick, n_cols)
        near = near_y[ay][:, :, None] & near_x[ax][:, None, :]
        np.multiply(weights, 0.5, out=weights, where=near.reshape(n, -1))
    ay, ax = np.divmod(np.concatenate(picks, axis=1)[:, :drawn], n_cols)
    # A cell is covered when a block's anchor lies within edge - 1 above and
    # left of it: a window sum over the anchors, padded by edge - 1.
    anchored = np.zeros((n, height + edge - 1, width + edge - 1), dtype=bool)
    anchored[np.arange(n)[:, None], ay + edge - 1, ax + edge - 1] = True
    cover = _window_sums(anchored, edge) > 0
    return np.stack([ax, ay], axis=2), cover, live


def _flag_noise(votes: np.ndarray, cover: np.ndarray, rate: float, rngs):
    """Flip each white cell under a row's cover with the given probability,
    each row's generator drawing for its offered cells in raster order.
    Returns the noisy votes and each row's flip count."""
    offered = cover.reshape(votes.shape) & (votes == 0)
    sizes = offered.sum(axis=1).tolist()
    flipped = np.zeros_like(offered)
    flipped[offered] = np.concatenate([rng.random(k) for rng, k in zip(rngs, sizes)]) < rate
    return votes + flipped, flipped.sum(axis=1)


def _flag_search(cfg: FlagConfig):
    """Look for a clustered flag where block noise flips the national
    winner while both regional schemes keep White. Attempts are evaluated
    FLAG_CHUNK at a time, each from its own streams, and the first success
    is returned, so the result does not depend on the chunk size."""
    for start in range(0, cfg.attempts, FLAG_CHUNK):
        found = _flag_chunk(cfg, range(start, min(start + FLAG_CHUNK, cfg.attempts)))
        if found is not None:
            return found
    return None


def _flag_chunk(cfg: FlagConfig, attempts: range):
    """The first success among the given attempts, or None."""
    dims = (cfg.width, cfg.height)
    shape = (-1, cfg.height, cfg.width)
    rngs = [stream_rng(cfg.seed, f"flag.layout.{a}") for a in attempts]
    votes = _flag_layouts(rngs, cfg.width, cfg.height, cfg.black)
    counts = [region_counts(votes, p.labels(dims), p.region_count(dims), 2)
              for p in FLAG_PARTITIONS]
    rows = np.flatnonzero((winners(counts[0]) == 0) & (winners(counts[1]) == 0))
    if rows.size == 0:
        return None
    black_won = np.logical_and.reduce(
        [(c[1] > c[0])[rows][:, p.labels(dims)] for c, p in zip(counts, FLAG_PARTITIONS)]
    )
    anchors, cover, complete = _flag_anchors(
        [rngs[r] for r in rows],
        (votes[rows] == 0).reshape(shape),
        black_won.reshape(shape),
        cfg.block_edge,
        cfg.blocks,
    )
    rows, anchors, cover = rows[complete], anchors[complete], cover[complete]
    if rows.size == 0:
        return None
    noise_rngs = [stream_rng(cfg.seed, f"flag.noise.{attempts[r]}") for r in rows]
    noisy, flips = _flag_noise(votes[rows], cover, cfg.rate, noise_rngs)
    won = 2 * noisy.sum(axis=1) > noisy.shape[1]  # Black leads the national count
    for p in FLAG_PARTITIONS:  # White holds each regional scheme
        won &= winners(region_counts(noisy, p.labels(dims), p.region_count(dims), 2)) == 0
    if not won.any():
        return None
    hit = int(won.argmax())
    grid = Grid(cfg.width, cfg.height, 2, votes[rows[hit]])
    noisy_grid = grid.replace_votes(noisy[hit])
    return {
        "attempt": attempts[rows[hit]],
        "grid": grid,
        "noisy": noisy_grid,
        "anchors": tuple(map(tuple, anchors[hit].tolist())),
        "flips": int(flips[hit]),
        "before": (tally_global(grid), *(tally_regional(grid, p) for p in FLAG_PARTITIONS)),
        "after": (
            tally_global(noisy_grid),
            *(tally_regional(noisy_grid, p) for p in FLAG_PARTITIONS),
        ),
    }


def _flag_report_txt(cfg: FlagConfig, echo: dict, found: dict) -> str:
    g_before, a_before, b_before = found["before"]
    g_after, a_after, b_after = found["after"]
    flips = found["flips"]
    name = {0: "white", 1: "black", None: "tie"}
    lines = [
        f"config: {_echo_json(echo)}",
        "",
        f"grid {cfg.width}x{cfg.height}  white(0)={cfg.white}  black(1)={cfg.black}",
        f"found at attempt {found['attempt']} of {cfg.attempts}",
        f"blocks: {cfg.blocks} of {cfg.block_edge}x{cfg.block_edge} at r={cfg.rate!r}, "
        + "anchors " + " ".join(f"({x},{y})" for x, y in found["anchors"]),
        f"flips white->black: {flips}",
        "",
        f"national before: white {g_before.counts[0]}, black {g_before.counts[1]}"
        f" -> {name[g_before.winner]}",
        f"national after : white {g_after.counts[0]}, black {g_after.counts[1]}"
        f" -> {name[g_after.winner]}",
    ]
    dims = (cfg.width, cfg.height)
    for label, before, after in (
        ("regions 5x4", a_before, a_after),
        ("regions 3x3", b_before, b_after),
    ):
        total = before.partition.region_count(dims)
        lines.append(
            f"{label} before: white {before.regions_won[0]},"
            f" black {before.regions_won[1]} of {total}"
            f" -> {name[before.winner]}"
        )
        lines.append(
            f"{label} after : white {after.regions_won[0]},"
            f" black {after.regions_won[1]} of {total}"
            f" -> {name[after.winner]}"
        )
    lines += [
        "",
        f"conservation: {cfg.white} - {flips} = {g_after.counts[0]},"
        f" {cfg.black} + {flips} = {g_after.counts[1]}",
        "",
        "grid before noise:",
        grid_to_text(found["grid"]).rstrip("\n"),
        "",
        "grid after noise:",
        grid_to_text(found["noisy"]).rstrip("\n"),
        "",
    ]
    return "\n".join(lines)


def _flag_payload(cfg: FlagConfig, echo: dict, found: dict) -> dict:
    g_before, a_before, b_before = found["before"]
    g_after, a_after, b_after = found["after"]
    return {
        "config": echo,
        "attempt": found["attempt"],
        "flips": found["flips"],
        "noise": {
            "block_edge": cfg.block_edge,
            "anchors": [list(a) for a in found["anchors"]],
            "rate": cfg.rate,
        },
        "national": {
            "before": {"counts": list(g_before.counts), "winner": g_before.winner},
            "after": {"counts": list(g_after.counts), "winner": g_after.winner},
        },
        "regional_5x4": {
            "before": a_before.to_json_dict(),
            "after": a_after.to_json_dict(),
        },
        "regional_3x3": {
            "before": b_before.to_json_dict(),
            "after": b_after.to_json_dict(),
        },
        "grid_before": found["grid"].votes.tolist(),
        "grid_after": found["noisy"].votes.tolist(),
    }


def cmd_flag(cfg: FlagConfig, out_dir: pathlib.Path, fmt: str) -> int:
    echo = _echo_dict("flag", cfg, fmt)
    found = _flag_search(cfg)
    _write_echo(out_dir, echo)
    if found is None:
        _write(out_dir, f"flag_report.{fmt}", f"config: {_echo_json(echo)}\nno instance found\n")
        print(f"flag: no instance found in {cfg.attempts} attempts", file=sys.stderr)
        return 1
    if fmt == "json":
        body = json.dumps(_flag_payload(cfg, echo, found), sort_keys=True) + "\n"
    elif fmt == "csv":
        payload = _flag_payload(cfg, echo, found)
        rows = [f"# config {_echo_json(echo)}", "metric,value"]
        rows.append(f"attempt,{payload['attempt']}")
        rows.append(f"flips,{payload['flips']}")
        rows.append(f"national_before,{payload['national']['before']['winner']}")
        rows.append(f"national_after,{payload['national']['after']['winner']}")
        rows.append(f"regional_5x4_after,{payload['regional_5x4']['after']['winner']}")
        rows.append(f"regional_3x3_after,{payload['regional_3x3']['after']['winner']}")
        body = "\n".join(rows) + "\n"
    else:
        body = _flag_report_txt(cfg, echo, found)
    _write(out_dir, f"flag_report.{fmt}", body)
    print(f"flag: found at attempt {found['attempt']}, {found['flips']} flips")
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(cfg: SweepConfig, out_dir: pathlib.Path, fmt: str) -> int:
    echo = _echo_dict("sweep", cfg, fmt)
    dims = (cfg.width, cfg.height)
    try:
        if cfg.anchors:
            spec = BlockNoiseSpec(
                block_edge=cfg.block_edge, anchors=cfg.anchors, target=0, flip_to=1
            )
        else:
            spec = random_anchor_placement(
                dims, cfg.block_edge, cfg.blocks, seed=stream_seed(cfg.seed, "sweep.place")
            )
        spec.validate_bounds(dims)
    except (ValueError, PlacementInfeasibleError) as exc:
        raise ConfigError(str(exc)) from exc
    reports = sweep_partitions(dims, cfg.region_edge, spec)
    hist = shift_histogram(reports)
    best = fewest_contaminated(reports)
    best_info = {
        "dx": best.partition.dx,
        "dy": best.partition.dy,
        "contaminated_regions": best.contaminated_regions,
    }
    hist_items = sorted(hist.items())
    _write_echo(out_dir, echo)
    if fmt == "json":
        body = json.dumps(
            {
                "config": echo,
                "anchors": [list(a) for a in spec.anchors],
                "histogram": {str(k): v for k, v in hist_items},
                "best": best_info,
                "rows": [
                    {
                        "dx": r.partition.dx,
                        "dy": r.partition.dy,
                        "contaminated_regions": r.contaminated_regions,
                    }
                    for r in reports
                ],
            },
            sort_keys=True,
        ) + "\n"
        _write(out_dir, "sweep.json", body)
    elif fmt == "csv":
        _write(out_dir, "sweep.csv", f"# config {_echo_json(echo)}\n" + sweep_to_csv(reports))
        hist_body = f"# config {_echo_json(echo)}\ncontaminated_regions,count\n"
        hist_body += "".join(f"{k},{v}\n" for k, v in hist_items)
        _write(out_dir, "histogram.csv", hist_body)
    else:
        lines = [f"config: {_echo_json(echo)}", ""]
        lines.append("anchors: " + " ".join(f"({x},{y})" for x, y in spec.anchors))
        lines.append(
            "histogram (contaminated regions: shift count): "
            + ", ".join(f"{k}: {v}" for k, v in hist_items)
        )
        lines.append(
            f"best shift: ({best_info['dx']},{best_info['dy']})"
            f" touching {best_info['contaminated_regions']} regions"
        )
        _write(out_dir, "sweep.txt", "\n".join(lines) + "\n")
    print(
        "sweep histogram: "
        + ", ".join(f"{k}: {v}" for k, v in hist_items)
        + f"; best shift ({best_info['dx']},{best_info['dy']})"
    )
    return 0


# ---------------------------------------------------------------------------
# breakdown


def cmd_breakdown(cfg: BreakdownConfig, out_dir: pathlib.Path, fmt: str) -> int:
    echo = _echo_dict("breakdown", cfg, fmt)
    try:
        gen = GridGenSpec(
            width=cfg.width,
            height=cfg.height,
            a_frac=cfg.a_frac,
            mode=cfg.grid_mode,
            seed=stream_seed(cfg.seed, "breakdown.grid"),
            region_edge=cfg.region_edge if cfg.grid_mode == "per_region_margin" else None,
        )
        grid = generate_grid(gen)
        if cfg.scheme == "global":
            scheme = GlobalScheme()
        elif cfg.scheme == "regional":
            scheme = RegionalScheme(Partition.square(cfg.region_edge))
            scheme.partition.validate_for((grid.width, grid.height))
        else:
            scheme = BestShiftScheme(cfg.region_edge)
        if cfg.search == "exhaustive":
            result = exhaustive_breakdown(
                grid, scheme, flip_budget=cfg.budget if cfg.budget > 0 else None
            )
        elif cfg.search == "greedy":
            result = greedy_block_breakdown(grid, scheme, cfg.block_edge)
        else:
            result = randomized_breakdown(
                grid,
                scheme,
                cfg.block_edge,
                (cfg.blocks_lo, cfg.blocks_hi),
                trials=cfg.trials,
                seed=stream_seed(cfg.seed, "breakdown.search"),
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    counts = tally_global(grid).counts
    _write_echo(out_dir, echo)
    if fmt == "json":
        body = json.dumps(
            {"config": echo, "counts": list(counts), "result": result.to_json_dict()},
            sort_keys=True,
        ) + "\n"
    elif fmt == "csv":
        body = f"# config {_echo_json(echo)}\nmetric,value\n"
        body += f"count_a,{counts[0]}\ncount_b,{counts[1]}\n"
        body += f"scheme,{result.scheme}\nsearch_mode,{result.search_mode}\n"
        body += f"min_flips,{'' if result.min_flips is None else result.min_flips}\n"
        body += f"trials,{result.trials}\noverturns,{result.overturns}\n"
        body += f"skipped_infeasible,{result.skipped_infeasible}\n"
        body += f"skipped_zero_flip,{result.skipped_zero_flip}\n"
        for (dx, dy), n in result.chosen_shifts or ():
            body += f"chosen_shift_{dx}_{dy},{n}\n"
    else:
        body = f"config: {_echo_json(echo)}\n\n"
        body += f"grid {cfg.width}x{cfg.height}, counts {counts[0]}/{counts[1]}\n"
        body += f"scheme {result.scheme}, search {result.search_mode}\n"
        if result.min_flips is None:
            body += "no overturn found\n"
        else:
            body += f"minimum flips found: {result.min_flips}\n"
        if result.trials:
            body += (
                f"trials {result.trials}, overturns {result.overturns}, skipped"
                f" {result.skipped_infeasible} infeasible, {result.skipped_zero_flip} zero-flip\n"
            )
        if result.chosen_shifts is not None:
            shifts = ", ".join(f"({dx},{dy}): {n}" for (dx, dy), n in result.chosen_shifts)
            body += f"chosen shifts (dx,dy: trials): {shifts}\n"
    _write(out_dir, f"breakdown.{fmt}", body)
    if result.min_flips is None:
        print("breakdown: no overturn found")
    else:
        print(f"breakdown: minimum flips found {result.min_flips}")
    return 0


# ---------------------------------------------------------------------------
# eigen


def cmd_eigen(cfg: EigenConfig, out_dir: pathlib.Path, fmt: str) -> int:
    echo = _echo_dict("eigen", cfg, fmt)
    gallery = PatternGallery.synthetic(cfg.patterns, cfg.width, cfg.height, cfg.gallery_seed)
    try:
        experiment = run_conjecture_experiment(
            gallery,
            cfg.region_counts,
            cfg.noise_levels,
            cfg.trials,
            seed=stream_seed(cfg.seed, "eigen.trials"),
            k=cfg.k,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_echo(out_dir, echo)
    _write(out_dir, "eigen_rows.csv", f"# config {_echo_json(echo)}\n" + experiment.to_csv())
    rate_items = [
        (rc, lv, experiment.rates[(rc, lv)])
        for lv in cfg.noise_levels
        for rc in cfg.region_counts
    ]
    if fmt == "json":
        body = json.dumps(
            {
                "config": echo,
                "r1_matches_global": experiment.r1_matches_global,
                "rates": [
                    {"region_count": rc, "noise_level": lv, "rate": rate}
                    for rc, lv, rate in rate_items
                ],
            },
            sort_keys=True,
        ) + "\n"
        _write(out_dir, "eigen.json", body)
    elif fmt == "csv":
        body = f"# config {_echo_json(echo)}\nregion_count,noise_level,rate\n"
        body += "".join(f"{rc},{lv!r},{rate!r}\n" for rc, lv, rate in rate_items)
        _write(out_dir, "eigen.csv", body)
    else:
        lines = [f"config: {_echo_json(echo)}", ""]
        for lv in cfg.noise_levels:
            row = "  ".join(
                f"R={rc}: {experiment.rates[(rc, lv)]:.3f}" for rc in cfg.region_counts
            )
            lines.append(f"noise {lv!r}: {row}")
        lines.append(f"r1 matches global: {experiment.r1_matches_global}")
        _write(out_dir, "eigen.txt", "\n".join(lines) + "\n")
    print(f"eigen: {len(rate_items)} rate cells, r1 matches global: {experiment.r1_matches_global}")
    return 0


# ---------------------------------------------------------------------------
# dispersed


def cmd_dispersed(cfg: DispersedConfig, out_dir: pathlib.Path, fmt: str) -> int:
    """Global and regional overturn curves under the same dispersed flip
    draws, trial by trial, so any gap between them is the scheme's."""
    echo = _echo_dict("dispersed", cfg, fmt)
    noise_seed = stream_seed(cfg.seed, "saltpepper.noise")
    try:
        grid = generate_grid(GridGenSpec(
            cfg.side, cfg.side, cfg.a_frac, "uniform_random",
            seed=stream_seed(cfg.seed, "saltpepper.grid"),
        ))
        regional = RegionalScheme(Partition.square(cfg.region_edge))
        curves = {
            name: salt_pepper_threshold(grid, scheme, cfg.rates, trials=cfg.trials, seed=noise_seed)
            for name, scheme in (("global", GlobalScheme()), ("regional", regional))
        }
    except ValueError as exc:  # a bad side, share, rate or trial count, or a lost grid
        raise ConfigError(str(exc)) from exc
    thresholds = {name: estimate_threshold(curve) for name, curve in curves.items()}
    shown = {
        name: "never crossed 1/2" if value is None else f"{value:.4f}"
        for name, value in thresholds.items()
    }
    _write_echo(out_dir, echo)
    if fmt == "json":
        body = json.dumps(
            {
                "config": echo,
                "curves": {name: [dataclasses.asdict(p) for p in c] for name, c in curves.items()},
                "thresholds": thresholds,
            },
            sort_keys=True,
        ) + "\n"
        _write(out_dir, "dispersed.json", body)
    elif fmt == "csv":
        for name, curve in curves.items():
            body = f"# config {_echo_json(echo)}\n" + threshold_curve_to_csv(curve)
            _write(out_dir, f"dispersed_{name}.csv", body)
    else:
        lines = [f"config: {_echo_json(echo)}", "", f"{'rate':>8}  {'global':>8}  {'regional':>8}"]
        for pg, pr in zip(curves["global"], curves["regional"]):
            lines.append(
                f"{pg.rate:>8.4f}  {pg.overturn_frequency:>8.3f}  {pr.overturn_frequency:>8.3f}"
            )
        lines += [f"{name} threshold: {text}" for name, text in shown.items()]
        if None not in thresholds.values():
            lines.append(f"threshold gap: {abs(thresholds['global'] - thresholds['regional']):.4f}")
        _write(out_dir, "dispersed.txt", "\n".join(lines) + "\n")
    print(f"dispersed: global threshold {shown['global']}, regional threshold {shown['regional']}")
    return 0


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "bounds": (cmd_bounds, BoundsConfig),
    "flag": (cmd_flag, FlagConfig),
    "sweep": (cmd_sweep, SweepConfig),
    "breakdown": (cmd_breakdown, BreakdownConfig),
    "eigen": (cmd_eigen, EigenConfig),
    "dispersed": (cmd_dispersed, DispersedConfig),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionvote",
        description="Regional versus national winner-take-all voting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON object or key=value config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--format", choices=("csv", "json", "txt"), default="txt")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, cls = _COMMANDS[args.command]
    try:
        if args.config is None:
            raw, lines = {}, {}
        else:
            raw, lines = _parse_config_file(pathlib.Path(args.config))
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = _build_config(cls, raw, lines, args.config)
        return handler(cfg, pathlib.Path(args.out), args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
