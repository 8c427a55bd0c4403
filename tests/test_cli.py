import json
import subprocess
import sys
from dataclasses import fields

import pytest

from regionvote.cli import _COMMANDS, main


def run_cli(*args):
    return main(list(args))


def read(path):
    return path.read_text(encoding="utf-8")


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_bounds_default_matches_expected(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("bounds", "--out", str(out), "--format", "json") == 0
    assert "match" in capsys.readouterr().out
    payload = json.loads(read(out / "table1.json"))
    assert payload["table"]["cells"] == [
        [656, 1167, 250],
        [688, 1222, 500],
        [750, 1333, 1000],
    ]
    payload2 = json.loads(read(out / "table2.json"))
    assert payload2["table"]["cells"] == [
        [656, 945, 1167, 1680],
        [688, 990, 1222, 1760],
        [719, 1035, 1278, 1840],
        [750, 1080, 1333, 1920],
    ]
    echo = json.loads(read(out / "config_echo.json"))
    assert echo["subcommand"] == "bounds"
    assert echo["n_cells"] == 10_000


def test_bounds_zero_cells_exits_clean(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("n_cells=0\n")
    assert run_cli("bounds", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0


def test_bounds_nondefault_config_still_writes(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_cells=400\nmargin_pcts=10,20\n")
    out = tmp_path / "o"
    assert run_cli("bounds", "--config", str(cfg), "--out", str(out), "--format", "csv") == 0
    body = read(out / "table1.csv")
    assert body.startswith("# config ")
    assert "margin," in body


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# comment\nn_cells=100\ncells=3\n")
    code = run_cli("bounds", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "cells" in err and ":3:" in err  # key and line number


def test_bad_value_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_cells=ten\n")
    assert run_cli("bounds", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "n_cells" in capsys.readouterr().err


def test_invalid_json_config_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{broken")
    assert run_cli("bounds", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "JSON" in capsys.readouterr().err


def test_json_config_accepted(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_cells": 10_000}))
    assert run_cli("bounds", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    assert run_cli("bounds", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")) == 2
    assert "cannot read" in capsys.readouterr().err


def test_validation_error_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("rate=1.5\n")
    assert run_cli("flag", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "rate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines, message",
    [
        ("block_edge=30", "block_edge"),
        ("block_edge=0", "block_edge"),
        ("block_edge=-2", "block_edge"),
        ("blocks=0", "blocks"),
        ("blocks=-1", "blocks"),
        ("width=0\nheight=0\nwhite=0\nblack=0", "width and height"),
        ("width=-15\nwhite=-567\nblack=207", "width and height"),
        ("white=-1\nblack=361", "white and black"),
        ("width=10\nheight=12\nwhite=60\nblack=60", "does not divide"),
        ("width=30\nheight=24\nwhite=400\nblack=320\nblock_edge=25", "block_edge"),
    ],
)
def test_flag_bad_geometry_exits_2(tmp_path, capsys, lines, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(lines + "\n")
    assert run_cli("flag", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_sweep_single_block_histogram(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("anchors=13x22\nblock_edge=5\nregion_edge=8\n")
    out = tmp_path / "o"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out), "--format", "json") == 0
    payload = json.loads(read(out / "sweep.json"))
    assert payload["histogram"] == {"1": 16, "2": 32, "4": 16}
    assert len(payload["rows"]) == 64
    assert payload["config"]["region_edge"] == 8


def test_sweep_csv_format(tmp_path):
    out = tmp_path / "o"
    assert run_cli("sweep", "--out", str(out), "--format", "csv", "--seed", "4") == 0
    body = read(out / "sweep.csv")
    assert "dx,dy,contaminated_regions" in body
    hist = read(out / "histogram.csv")
    assert hist.splitlines()[1] == "contaminated_regions,count"


def test_breakdown_exhaustive_default(tmp_path):
    out = tmp_path / "o"
    assert run_cli("breakdown", "--out", str(out), "--format", "json", "--seed", "2") == 0
    payload = json.loads(read(out / "breakdown.json"))
    counts = payload["counts"]
    assert sum(counts) == 36
    expected = (counts[0] - counts[1]) // 2 + 1
    assert payload["result"]["min_flips"] == expected


def test_breakdown_best_shift_exhaustive_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("scheme=best_shift\nsearch=exhaustive\n")
    assert run_cli("breakdown", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2


def test_breakdown_randomized_runs(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "width=20\nheight=20\ngrid_mode=per_region_margin\nregion_edge=5\n"
        "scheme=regional\nsearch=randomized\nblock_edge=5\nblocks_lo=4\nblocks_hi=10\ntrials=150\n"
    )
    out = tmp_path / "o"
    assert run_cli("breakdown", "--config", str(cfg), "--out", str(out), "--format", "json", "--seed", "1") == 0
    payload = json.loads(read(out / "breakdown.json"))
    assert payload["result"]["trials"] == 150
    assert payload["result"]["skipped_infeasible"] >= 0
    assert payload["result"]["skipped_zero_flip"] >= 0
    assert run_cli("breakdown", "--config", str(cfg), "--out", str(out), "--format", "csv", "--seed", "1") == 0
    assert "skipped_infeasible," in read(out / "breakdown.csv")
    assert run_cli("breakdown", "--config", str(cfg), "--out", str(out), "--seed", "1") == 0
    assert "infeasible" in read(out / "breakdown.txt")


@pytest.mark.parametrize("line", ["block_edge=9", "trials=-5"])
def test_breakdown_randomized_bad_config_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"search=randomized\n{line}\n")
    assert run_cli("breakdown", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_eigen_zero_noise_recognizes_everything(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("patterns=6\nwidth=20\nheight=12\ntrials=3\nnoise_levels=0.0\nregion_counts=1,4\n")
    out = tmp_path / "o"
    assert run_cli("eigen", "--config", str(cfg), "--out", str(out), "--format", "json") == 0
    payload = json.loads(read(out / "eigen.json"))
    assert payload["r1_matches_global"] is True
    assert all(entry["rate"] == 1.0 for entry in payload["rates"])
    rows = read(out / "eigen_rows.csv").splitlines()
    assert rows[1] == "region_count,noise_level,trial,correct,fraction_regions_won"


def test_flag_finds_instance(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("flag", "--out", str(out), "--format", "json", "--seed", "1") == 0
    payload = json.loads(read(out / "flag_report.json"))
    nat = payload["national"]
    assert nat["before"]["counts"] == [207, 153]
    assert nat["before"]["winner"] == 0
    assert nat["after"]["winner"] == 1
    flips = payload["flips"]
    assert nat["after"]["counts"] == [207 - flips, 153 + flips]
    assert payload["regional_5x4"]["after"]["winner"] == 0
    assert payload["regional_3x3"]["after"]["winner"] == 0
    assert payload["attempt"] < 10_000


def test_flag_failure_exits_1(tmp_path):
    cfg = tmp_path / "c.cfg"
    # one attempt with a hostile seed: virtually certain not to find anything
    cfg.write_text("attempts=1\nseed=0\n")
    out = tmp_path / "o"
    code = run_cli("flag", "--config", str(cfg), "--out", str(out), "--format", "txt")
    assert code == 1
    assert "no instance" in read(out / "flag_report.txt")


def test_reruns_are_byte_identical(tmp_path):
    specs = [
        ("bounds", ["--format", "csv"]),
        ("sweep", ["--format", "json", "--seed", "3"]),
        ("breakdown", ["--format", "json", "--seed", "5"]),
    ]
    for name, extra in specs:
        d1, d2 = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        assert run_cli(name, "--out", str(d1), *extra) == 0
        assert run_cli(name, "--out", str(d2), *extra) == 0
        assert tree_bytes(d1) == tree_bytes(d2), name


def test_eigen_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("patterns=5\nwidth=20\nheight=12\ntrials=2\nnoise_levels=0.0,0.5\nregion_counts=1,4\n")
    d1, d2 = tmp_path / "e1", tmp_path / "e2"
    for d in (d1, d2):
        assert run_cli("eigen", "--config", str(cfg), "--out", str(d), "--format", "csv", "--seed", "9") == 0
    assert tree_bytes(d1) == tree_bytes(d2)


def test_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed=123\n")
    out = tmp_path / "o"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out), "--seed", "7", "--format", "json") == 0
    payload = json.loads(read(out / "sweep.json"))
    assert payload["config"]["seed"] == 7


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "regionvote", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "bounds" in proc.stdout and "eigen" in proc.stdout


# Every config key at boundary values. Small attempts, trials and images
# keep each case to milliseconds; the key under test overrides them.
_FAST = {
    "bounds": {},
    "flag": {"attempts": "20"},
    "sweep": {},
    "breakdown": {"trials": "20"},
    "eigen": {
        "patterns": "3", "width": "12", "height": "8", "k": "2",
        "region_counts": "1,4", "noise_levels": "0.0", "trials": "1",
    },
}


def _boundary_values(key, default):
    if key == "seed":
        return ("0", "-1", str(2**64))
    if isinstance(default, tuple) and (not default or isinstance(default[0], tuple)):
        return ("", "3", "0x3", "-1x2", "1000x1000", "0x0,1x1")
    if isinstance(default, tuple):
        return ("", "0", "-1", "1000")
    if isinstance(default, str):
        return ("", "bogus")
    if isinstance(default, float):
        return ("-1", "0", "2")
    return ("0", "-1", "1000")


# Each of these exits 2 with one config error line.
_MUST_EXIT_2 = [
    ("sweep", {"region_edge": "0"}),
    ("sweep", {"block_edge": "0"}),
    ("sweep", {"block_edge": "60"}),
    ("sweep", {"blocks": "5000"}),
    ("sweep", {"width": "0"}),
    # fits by area, but seed 0 places its first block where no tiling fits
    ("sweep", {"width": "10", "height": "10", "region_edge": "5", "blocks": "4"}),
    ("bounds", {"edge_ratios": "0"}),
    ("bounds", {"edge_pairs": "0x3"}),
    ("bounds", {"margin_pcts": ""}),
    ("breakdown", {"a_frac": "2"}),
    ("breakdown", {"grid_mode": "bogus"}),
    ("breakdown", {"search": "greedy", "block_edge": "0"}),
    ("breakdown", {"search": "greedy", "block_edge": "7"}),
    ("eigen", {"width": "1", "height": "1"}),
]


def _boundary_cases():
    for command, (_, cls) in _COMMANDS.items():
        for field in fields(cls):
            for value in _boundary_values(field.name, getattr(cls(), field.name)):
                yield command, {field.name: value}
    for search in ("greedy", "randomized"):
        for edge in ("0", "-1", "7"):
            yield "breakdown", {"search": search, "block_edge": edge}


def test_boundary_configs_never_raise(tmp_path, capsys):
    failures = []
    cases = [(c, o, False) for c, o in _boundary_cases()] + [(c, o, True) for c, o in _MUST_EXIT_2]
    for i, (command, overrides, must_exit_2) in enumerate(cases):
        cfg = tmp_path / f"c{i}.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in {**_FAST[command], **overrides}.items()))
        code = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / f"o{i}"))
        err = capsys.readouterr().err
        one_line = err.startswith("config error:") and err.count("\n") == 1
        if code not in (0, 1, 2) or (code == 2 and not one_line) or (must_exit_2 and code != 2):
            failures.append((command, overrides, code, err))
    assert failures == []
    assert run_cli("sweep", "--seed", str(2**64), "--out", str(tmp_path / "big")) == 2
    assert capsys.readouterr().err.startswith("config error: seed must fit")
