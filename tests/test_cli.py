import hashlib
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import fields

import pytest

import regionvote
from regionvote import shifting
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


@pytest.mark.parametrize("command, config", [
    ("flag", {"blocks": 7.9}),
    ("flag", {"blocks": True}),
    ("flag", {"rate": True}),
    ("bounds", {"margin_pcts": [5.7, 10]}),
])
def test_json_value_of_the_wrong_type_is_exit_2(tmp_path, capsys, command, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "bad value for" in err and not (tmp_path / "o").exists()


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


def test_default_sweep_makes_one_sweep(tmp_path, monkeypatch):
    # one kernel call over the 64 shifts of the 8-edge partition; the best
    # shift comes from the same reports
    shifts = []
    kernel = shifting.touched_regions

    def counting(dims, region_width, region_height, dx, dy, *rest):
        shifts.append(dx.size)
        return kernel(dims, region_width, region_height, dx, dy, *rest)

    monkeypatch.setattr(shifting, "touched_regions", counting)
    out = tmp_path / "o"
    assert run_cli("sweep", "--out", str(out), "--format", "json") == 0
    assert shifts == [64]
    payload = json.loads(read(out / "sweep.json"))
    fewest = min(row["contaminated_regions"] for row in payload["rows"])
    first = next(row for row in payload["rows"] if row["contaminated_regions"] == fewest)
    assert payload["best"] == first


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


RANDOMIZED_20X20 = (
    "width=20\nheight=20\ngrid_mode=per_region_margin\nregion_edge=5\n"
    "search=randomized\nblock_edge=5\nblocks_lo=4\nblocks_hi=10\ntrials=150\n"
)


def test_breakdown_best_shift_reports_chosen_shifts(tmp_path):
    for scheme in ("best_shift", "regional"):
        cfg = tmp_path / f"{scheme}.cfg"
        cfg.write_text(RANDOMIZED_20X20 + f"scheme={scheme}\n")
        bodies = {}
        for fmt in ("json", "csv", "txt"):
            out = tmp_path / f"{scheme}_{fmt}"
            assert run_cli("breakdown", "--config", str(cfg), "--out", str(out), "--format", fmt) == 0
            bodies[fmt] = read(out / f"breakdown.{fmt}")
        result = json.loads(bodies["json"])["result"]
        if scheme == "regional":
            assert "chosen_shifts" not in result and "chosen_shift" not in bodies["csv"]
            assert "chosen shifts" not in bodies["txt"]
            continue
        rows = result["chosen_shifts"]
        evaluated = 150 - result["skipped_infeasible"] - result["skipped_zero_flip"]
        assert sum(n for _, _, n in rows) == evaluated
        assert [f"chosen_shift_{dx}_{dy},{n}" for dx, dy, n in rows] == [
            line for line in bodies["csv"].splitlines() if line.startswith("chosen_shift_")
        ]
        assert "chosen shifts (dx,dy: trials): " + ", ".join(
            f"({dx},{dy}): {n}" for dx, dy, n in rows
        ) in bodies["txt"]


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
        ("dispersed", ["--format", "csv", "--config", str(_config(tmp_path, "dispersed"))]),
    ]
    for name, extra in specs:
        d1, d2 = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        assert run_cli(name, "--out", str(d1), *extra) == 0
        assert run_cli(name, "--out", str(d2), *extra) == 0
        assert tree_bytes(d1) == tree_bytes(d2), name


# Config files of the pinned runs that take one, as key=value text.
CLI_CONFIGS = {
    "best_shift": RANDOMIZED_20X20 + "scheme=best_shift\n",
    "dispersed": "side=20\ntrials=50\n",
}


def _config(tmp_path, name):
    path = tmp_path / f"{name}.cfg"
    path.write_text(CLI_CONFIGS[name])
    return path


# sha256 of every file the other subcommands write, per format; eigen's
# outputs are pinned the same way in test_eigenlab.py (EIGEN_OUTPUTS).
CLI_RUNS = {
    "bounds": ["bounds"],
    "sweep": ["sweep", "--seed", "3"],
    "breakdown": ["breakdown", "--seed", "5"],
    "best_shift": ["breakdown"],
    "flag": ["flag", "--seed", "1"],
    "dispersed": ["dispersed"],
}
CLI_OUTPUTS = {
    ("bounds", "csv"): {
        "config_echo.json": "695dd0ed57b69665fd524d240f19cb6466ad19de896358da48d0ec6eaf55eab5",
        "table1.csv": "c06c4c357e0aacd8183206e67a623d70b307df239958dbf03aff85efd3c0c568",
        "table2.csv": "971cc6b2caddde34af750b42c851a92197285562112d2974ba01cbd4a80e6a31",
    },
    ("bounds", "json"): {
        "config_echo.json": "5e1d4330f83ef724e1ef54258da25471e5e8e8e23329e5e4d3868db727f66cd7",
        "table1.json": "8ffa81438127915a2941e409989ca6a680a19bc03551829ee1ecefebfc10a4a2",
        "table2.json": "a0667441e5402ec47228b180487b017be53bc249ee941620de0d9ffebff595e9",
    },
    ("bounds", "txt"): {
        "config_echo.json": "dc769c14da13f5f1fc243ec9624489ce45b2b4fde7ade93175c19bb4c42593c6",
        "table1.txt": "75032e3b123d42ee838b2ea02348229799cee6f7563580936f102de950b89a86",
        "table2.txt": "610b50be4f37f8761bb705dc2455b76fd56dcc23be2aca32885e01b5101bb93e",
    },
    ("sweep", "csv"): {
        "config_echo.json": "d37a168dd117f93665f0a8146b6da2aaa6ea610c406b0f69cbfe38768622ff65",
        "histogram.csv": "80a265df6625a875ddc1162961eb5819e4716418c7e2681cc5c9220556da704b",
        "sweep.csv": "1e245be8e3751d36b76c4735e58139943d14910e09109ec1b7a781c78c406b4e",
    },
    ("sweep", "json"): {
        "config_echo.json": "e5563aaa91ba5526c5649f049b6a30d0d320272e91cd784ea942ac5e3ddf24c2",
        "sweep.json": "0801407d404b35c5bf027fcda1700f7c228791cae950cc337b8893ed10235e81",
    },
    ("sweep", "txt"): {
        "config_echo.json": "93ffac0816a0efd5ad7706ac4e5525d394badb22356b0c9af3adb63368c9185f",
        "sweep.txt": "487778da5457c31f6342ca8cdf08c7e7569aa7e9587e7d06edd2a4d4ce8c816c",
    },
    ("breakdown", "csv"): {
        "breakdown.csv": "052c710541a0f0689c41e025c9c4b88f51f821e0addec977fe9a001081065129",
        "config_echo.json": "148996bbbff32ac89f800dcb71b88d1751b2556361ea01a237b5a510d4f1c465",
    },
    ("breakdown", "json"): {
        "breakdown.json": "2ab0d0ec0ea9541c365c943935b8a1913fd081f212da94926c1ff5fb4e4ce26e",
        "config_echo.json": "e4ca842f184fad8a0af41c55c384dc3a8bc266a02df846d272780041deed75d8",
    },
    ("breakdown", "txt"): {
        "breakdown.txt": "512ed17cfa158f749841f814c500cadc143a7934457b7e4bfb7331b9d86b0171",
        "config_echo.json": "22b95df57adaec428cd264b407979a50000e2dd84d7be2d8b00f449e27c72ddc",
    },
    ("best_shift", "csv"): {
        "breakdown.csv": "26a209026ffee13ff35f61eb093c2768ed55015c303bd0d1f4bd933833e1472f",
        "config_echo.json": "9dbbaf6678d581ccca46b91e8505a9c301907f2590c21b44cef1be31354d029e",
    },
    ("best_shift", "json"): {
        "breakdown.json": "b801614d49ba828322e117c35ab42a80f81acb1539e8bfe50e3ced09ba53ed85",
        "config_echo.json": "66ff0b08493737ff45c82b53f51655d6cc84f3c4af82b071eea6c08103f4ff59",
    },
    ("best_shift", "txt"): {
        "breakdown.txt": "6033234f0def9f8276158f32f70c78f3c98a27c2ec3c2142269a7454c9bf7d38",
        "config_echo.json": "ede07dc35e2dbb22994c04eb0127bdbd1a7d1a7f19fed3d3a0ca36c1dc780c1b",
    },
    ("flag", "csv"): {
        "config_echo.json": "a04d9dbe365e6bf982ed4b66f4e9e675f07f6c12ec840de1640af7a73baf3f02",
        "flag_report.csv": "b61ac61e5e543f37c9f51237b25dbe55d16044c9d284cd86edd5dd4d48b9ee87",
    },
    ("flag", "json"): {
        "config_echo.json": "7afaf38e70fc07240cb6acdc8e47c5ec33021da2bcebdaef1a4290b7ac782133",
        "flag_report.json": "60208b5948bc42f3747ee8af694d53cb35479db2c645dcfcf12c59431ef149c9",
    },
    ("flag", "txt"): {
        "config_echo.json": "d5107c0752afac758af61a405485a5a7d5845640e8319877272cb6ca5a49e949",
        "flag_report.txt": "189ac47ba74a73f7bc72dea5b2881f1c5edfd1a5c98d3f8d9a5270db3fa11936",
    },
    ("dispersed", "csv"): {
        "config_echo.json": "b9392eb7b1d6eead6a9a2606ef4a86dac04dbd50cc3279154266b655a0f96a72",
        "dispersed_global.csv": "a59e2c756f2777f125611b04fd26e7109ab71d18165a7b1726983160b1a37fb9",
        "dispersed_regional.csv": "8a42ba4a9b4c34da41687112a4d6923452f5a14e5adc143e19afd0e3963cf631",
    },
    ("dispersed", "json"): {
        "config_echo.json": "361b988a5b1c10789157b270a06cfd0679c18b1352eb93f27e56e948b3cc0d4a",
        "dispersed.json": "704782c2295e266e47e6f34994d5dcd554db283799e2fa61da58304424b0630c",
    },
    ("dispersed", "txt"): {
        "config_echo.json": "87753040fa236e0c58b449f4d77ca935a8e96559d1baf0ed194722623830b3fa",
        "dispersed.txt": "1d34c39006a591b58e3fa477ebe617b350c00845f3053a63fa15e8f588aea546",
    },
}


def test_cli_outputs_are_unchanged(tmp_path):
    for (name, fmt), digests in CLI_OUTPUTS.items():
        out = tmp_path / f"{name}_{fmt}"
        args = CLI_RUNS[name]
        if name in CLI_CONFIGS:
            args = [*args, "--config", str(_config(tmp_path, name))]
        assert run_cli(*args, "--format", fmt, "--out", str(out)) == 0
        written = {path: hashlib.sha256(data).hexdigest() for path, data in tree_bytes(out).items()}
        assert written == digests, (name, fmt)


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
    "dispersed": {"trials": "10", "rates": "0.1"},
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
    ("sweep", {"width": "100000", "height": "100000"}),  # 74.5 GiB of int64 votes
    # fits by area, but seed 0 places its first block where no tiling fits
    ("sweep", {"width": "10", "height": "10", "region_edge": "5", "blocks": "4"}),
    ("bounds", {"edge_ratios": "0"}),
    ("bounds", {"edge_pairs": "0x3"}),
    ("bounds", {"margin_pcts": ""}),
    ("breakdown", {"a_frac": "2"}),
    ("breakdown", {"grid_mode": "bogus"}),
    ("breakdown", {"search": "greedy", "block_edge": "0"}),
    ("breakdown", {"search": "greedy", "block_edge": "7"}),
    ("breakdown", {"budget": "-7"}),
    # the target does not lead: the rival holds 22 of 36 cells, or a national tie
    ("breakdown", {"a_frac": "0.4", "search": "greedy"}),
    ("breakdown", {"a_frac": "0.4", "search": "greedy", "scheme": "best_shift"}),
    ("breakdown", {"a_frac": "0.5", "search": "greedy"}),
    # 6x6 holds 36 disjoint 1x1 blocks: 37 can never be placed
    ("breakdown", {"search": "randomized", "blocks_lo": "37", "blocks_hi": "40"}),
    # 6,400 regions: the exact regional search's table would take 655 MB
    ("breakdown", {"width": "400", "height": "400", "region_edge": "5", "scheme": "regional"}),
    # 10^10 cells: their int64 votes alone would take 74.5 GiB
    ("breakdown", {"width": "100000", "height": "100000", "search": "greedy"}),
    # a 74.5 GiB float64 noise array, on a grid both flag partitions divide
    ("flag", {"width": "99990", "height": "99960", "white": "4997500200",
              "black": "4997500200"}),
    ("eigen", {"width": "1", "height": "1"}),
    # 2x1 images give constant synthetic patterns (once NaN), and 4 regions do not fit
    ("eigen", {"width": "2", "height": "1"}),
    ("eigen", {"patterns": "2000000"}),  # a 1.4 GiB gallery of 12x8 images
    ("eigen", {"width": "100000", "height": "1000"}),  # a 2.2 GiB gallery of 3 patterns
]
# The dispersed refusals, each with the text of the check that raises it.
_DISPERSED_MUST_EXIT_2 = [
    ({"rates": "1.5"}, "rate must lie in [0, 1]"),
    ({"trials": "0"}, "trials must be positive"),
    ({"side": "0"}, "grid dimensions must be positive"),
    ({"a_frac": "2"}, "a_frac must lie in [0, 1]"),
    ({"region_edge": "0"}, "region edge must be positive"),
    ({"region_edge": "3"}, "region edge must be positive and divide the grid side"),
    ({"a_frac": "0.45"}, "grid winner is 1, expected target 0"),  # the rival leads
    ({"side": "100000"}, "the side x side vote array would take 74.5 GiB, over 1 GiB"),
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
    cases = (
        [(c, o, None) for c, o in _boundary_cases()]
        + [(c, o, "") for c, o in _MUST_EXIT_2]
        + [("dispersed", o, message) for o, message in _DISPERSED_MUST_EXIT_2]
    )
    for i, (command, overrides, message) in enumerate(cases):
        cfg = tmp_path / f"c{i}.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in {**_FAST[command], **overrides}.items()))
        code = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / f"o{i}"))
        err = capsys.readouterr().err
        one_line = err.startswith("config error:") and err.count("\n") == 1
        not_refused = message is not None and (code != 2 or message not in err)
        if code not in (0, 1, 2) or (code == 2 and not one_line) or not_refused:
            failures.append((command, overrides, code, err))
    assert failures == []
    assert run_cli("sweep", "--seed", str(2**64), "--out", str(tmp_path / "big")) == 2
    assert capsys.readouterr().err.startswith("config error: seed must fit")


def test_cli_import_loads_neither_scipy_nor_hypothesis():
    # `import scipy.stats` alone takes over a second, and scipy is only a
    # test dependency: the CLI and the package modules must not import it
    src = str(pathlib.Path(regionvote.__file__).resolve().parents[1])
    code = (
        "import sys, regionvote.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis'}))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
