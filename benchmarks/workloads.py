"""The four workloads: inputs made from the seed, the operations of one
pass, the checks of each operation's output, and the per-layer metrics.

An operation is one checked experiment call. A pass is the same list of
operations every time, on inputs derived from (workload seed, pass
index), so every pass does comparable work and no result can be reused
from an earlier pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
import regionvote
from regionvote import breakdown, cli, eigenlab, noise
from regionvote.grid import Partition

SRC = pathlib.Path(regionvote.__file__).resolve().parent.parent

# Every per-layer metric a traced run prints, with its unit. Each workload
# computes the metrics of the layers it is meant to stress and reports 0
# for the others (see the README's per-layer table).
SCHEMES = ("global", "regional", "best_shift")
SP_SCHEMES = ("global", "regional")
REGION_COUNTS = (1, 4, 8, 24, 96, 600)
# Output files and traces, under the checkout root.
OUT_DIR = SRC.parent / ".bench_out"
PER_LAYER = (
    [("breakdown.generate_grid.ms_per_call", "ms")]
    + [(f"breakdown.randomized_breakdown.{s}.setup_ms", "ms") for s in SCHEMES]
    + [(f"breakdown.randomized_breakdown.{s}.us_per_trial", "us") for s in SCHEMES]
    + [(f"breakdown.randomized_breakdown.{s}.overturns_per_trial", "ratio") for s in SCHEMES]
    + [(f"breakdown.randomized_breakdown.{s}.trials", "count") for s in SCHEMES]
    + [("noise.random_anchor_placement.us_per_call", "us")]
    + [(f"breakdown.salt_pepper_threshold.{s}.us_per_trial", "us") for s in SP_SCHEMES]
    + [("breakdown.salt_pepper_threshold.regional.setup_ms", "ms")]
    + [(f"breakdown.salt_pepper_threshold.{s}.peak_alloc_mb", "MB") for s in SP_SCHEMES]
    + [
        ("cli.flag.attempts", "count"),
        ("voting.tally_regional.calls", "count"),
        ("voting.tally_regional.us_per_call", "us"),
        ("voting.tally_global.calls", "count"),
        ("voting.tally_global.us_per_call", "us"),
        ("cli.flag.self_us_per_attempt", "us"),
        ("eigenlab.train_global.ms_per_call", "ms"),
    ]
    + [(f"eigenlab.train_regional.R{r}.ms_per_call", "ms") for r in REGION_COUNTS]
    + [("eigenlab.disk_noise.ms_per_call", "ms")]
    + [(f"eigenlab.recognize.R{r}.ms_per_call", "ms") for r in REGION_COUNTS]
    + [
        ("trace.untraced_trials_per_s", "1/s"),
        ("trace.traced_trials_per_s", "1/s"),
        ("trace.overhead_pct", "%"),
    ]
)


def derive(seed: int, *names) -> int:
    """A 63-bit seed for one named input of the workload seed."""
    words = [seed] + [zlib.crc32(str(n).encode()) for n in names]
    state = np.random.SeedSequence(words).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


@dataclass
class Op:
    """One checked experiment call. judge returns (trials, errors)."""

    label: str
    call: Callable[[], object]
    judge: Callable[[object], tuple[int, list[str]]]


class Workload:
    """What run.py needs of a workload.

    setup() builds the inputs and returns the seconds it took; ops(i) is
    the list of operations of pass i; trace_probes(tracer) makes the extra
    calls a traced run measures; layer_metrics(tracer, traced) derives the
    per-layer metrics from the spans and the traced passes' results.
    """

    name: str
    setup_repeats: int

    def trace_probes(self, tracer) -> None:
        pass


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _mean_ns(tracer, name, tag=None, scale=1e-6) -> float:
    """Mean span duration in ms (scale 1e-6) or us (scale 1e-3)."""
    return _mean(tracer.durations_ns(name, tag)) * scale


class BlockSearch(Workload):
    """randomized_breakdown on criterion-5 grids under three schemes."""

    name = "block_search"
    setup_repeats = 5
    EDGE = 5
    BLOCKS = (40, 105)
    TRIALS = 200

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = breakdown.GridGenSpec(
            100, 100, 0.525, "per_region_margin", seed=derive(seed, "grid"), region_edge=self.EDGE
        )
        self.schemes = {
            "global": breakdown.GlobalScheme(),
            "regional": breakdown.RegionalScheme(Partition.square(self.EDGE)),
            "best_shift": breakdown.BestShiftScheme(self.EDGE),
        }

    def setup(self) -> float:
        """Grid generation and the per-scheme baselines of a zero-trial search."""
        start = time.perf_counter()
        grid = breakdown.generate_grid(self.spec)
        for scheme in self.schemes.values():
            breakdown.randomized_breakdown(grid, scheme, self.EDGE, self.BLOCKS, trials=0)
        elapsed = time.perf_counter() - start
        self.grid = grid
        self.votes = np.asarray(grid.votes).reshape(grid.height, grid.width)
        return elapsed

    def ops(self, index: int) -> list[Op]:
        search_seed = derive(self.seed, "search", index)
        return [self._op(kind, scheme, search_seed) for kind, scheme in self.schemes.items()]

    def _op(self, kind, scheme, search_seed) -> Op:
        def call():
            return breakdown.randomized_breakdown(
                self.grid, scheme, self.EDGE, self.BLOCKS, trials=self.TRIALS, seed=search_seed
            )

        def judge(result):
            anchors = result.witness.anchors if result.witness is not None else ()
            return self.TRIALS, oracles.check_block_result(
                self.votes, kind, self.EDGE, self.EDGE, self.BLOCKS, self.TRIALS,
                result.min_flips, anchors, result.overturns,
            )

        return Op(kind, call, judge)

    def trace_probes(self, tracer) -> None:
        """Placement alone, at the workload's grid, block edge and counts."""
        with tracer.installed():
            for count in range(self.BLOCKS[0], self.BLOCKS[1] + 1):
                for rep in range(3):
                    noise.random_anchor_placement(
                        (self.spec.width, self.spec.height), self.EDGE, count,
                        seed=derive(self.seed, "place", count, rep),
                    )

    def layer_metrics(self, tracer, traced) -> dict[str, float]:
        out = {"breakdown.generate_grid.ms_per_call": _mean_ns(tracer, "breakdown.generate_grid")}
        name = "breakdown.randomized_breakdown"
        for kind in SCHEMES:
            setup_ns = float(np.median(tracer.durations_ns(name, [kind, 0])))
            trial_ns = tracer.durations_ns(name, [kind, self.TRIALS])
            results = [r for label, r in traced if label == kind]
            trials = self.TRIALS * len(results)
            prefix = f"{name}.{kind}"
            out[f"{prefix}.setup_ms"] = setup_ns * 1e-6
            # A search call pays its set-up once; the rest is per trial.
            out[f"{prefix}.us_per_trial"] = (
                (sum(trial_ns) - setup_ns * len(trial_ns)) * 1e-3 / trials if trials else 0.0
            )
            out[f"{prefix}.overturns_per_trial"] = (
                sum(r.overturns for r in results) / trials if trials else 0.0
            )
            out[f"{prefix}.trials"] = trials
        out["noise.random_anchor_placement.us_per_call"] = _mean_ns(
            tracer, "noise.random_anchor_placement", scale=1e-3
        )
        return out


class DispersedNoise(Workload):
    """salt_pepper_threshold, global and 5x5 regional, on paired noise."""

    name = "dispersed_noise"
    setup_repeats = 7
    EDGE = 5
    RATES = (0.088, 0.090, 0.092)
    TRIALS = 500

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = breakdown.GridGenSpec(200, 200, 0.55, "uniform_random", seed=derive(seed, "grid"))
        self.schemes = {
            "global": breakdown.GlobalScheme(),
            "regional": breakdown.RegionalScheme(Partition.square(self.EDGE)),
        }
        self._exact: dict[tuple[str, float], float] = {}

    def setup(self) -> float:
        """Grid generation and each scheme's target-cell index, via empty rates."""
        start = time.perf_counter()
        grid = breakdown.generate_grid(self.spec)
        for scheme in self.schemes.values():
            breakdown.salt_pepper_threshold(grid, scheme, (), trials=self.TRIALS)
        elapsed = time.perf_counter() - start
        self.grid = grid
        self.votes = np.asarray(grid.votes).reshape(grid.height, grid.width)
        return elapsed

    def exact(self, kind: str, rate: float) -> float:
        if (kind, rate) not in self._exact:
            if kind == "global":
                p = oracles.global_overturn_probability(self.votes, rate)
            else:
                p = oracles.regional_overturn_probability(self.votes, self.EDGE, rate)
            self._exact[(kind, rate)] = p
        return self._exact[(kind, rate)]

    def ops(self, index: int) -> list[Op]:
        noise_seed = derive(self.seed, "noise", index)
        return [self._op(kind, scheme, noise_seed) for kind, scheme in self.schemes.items()]

    def _op(self, kind, scheme, noise_seed) -> Op:
        rates = self.RATES

        def call():
            return breakdown.salt_pepper_threshold(
                self.grid, scheme, rates, trials=self.TRIALS, seed=noise_seed
            )

        def judge(points):
            errors = []
            if [p.rate for p in points] != list(rates):
                errors.append(f"{kind}: rates {[p.rate for p in points]}")
            for point, rate in zip(points, rates):
                if not point.ci_low <= point.overturn_frequency <= point.ci_high:
                    errors.append(f"{kind} at {rate}: interval misses the frequency")
                errors += oracles.check_overturn_frequency(
                    f"{kind} at {rate}", point.overturn_frequency, self.TRIALS,
                    self.exact(kind, rate),
                )
            return len(rates) * self.TRIALS, errors

        return Op(kind, call, judge)

    def trace_probes(self, tracer) -> None:
        """Peak traced allocation of one operation per scheme. No spans:
        tracemalloc slows the regional loop some fifteen times over, and
        these calls must not count toward the per-trial times."""
        self.peak_alloc_mb = {}
        for op in self.ops(0):
            tracemalloc.start()
            op.call()
            self.peak_alloc_mb[op.label] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()

    def layer_metrics(self, tracer, traced) -> dict[str, float]:
        out = {"breakdown.generate_grid.ms_per_call": _mean_ns(tracer, "breakdown.generate_grid")}
        name = "breakdown.salt_pepper_threshold"
        draws = len(self.RATES) * self.TRIALS
        for kind in SP_SCHEMES:
            out[f"{name}.{kind}.us_per_trial"] = _mean_ns(tracer, name, [kind, draws], 1e-3) / draws
            out[f"{name}.{kind}.peak_alloc_mb"] = self.peak_alloc_mb[kind]
        out[f"{name}.regional.setup_ms"] = _mean_ns(tracer, name, ["regional", 0])
        return out


# The package import, timed in a fresh interpreter: what `regionvote flag`
# pays before its first attempt.
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import regionvote.cli; "
    "print(repr(time.perf_counter() - t))"
)


class FlagSearch(Workload):
    """`regionvote flag` through cli.main over master seeds from the seed."""

    name = "flag_search"
    setup_repeats = 5
    SEEDS_PER_PASS = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.out_dir = OUT_DIR / "flag"

    def setup(self) -> float:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        )
        return float(done.stdout.strip())

    def ops(self, index: int) -> list[Op]:
        return [
            self._op(derive(self.seed, "flag", index, j)) for j in range(self.SEEDS_PER_PASS)
        ]

    def _op(self, master_seed: int) -> Op:
        argv = ["flag", "--seed", str(master_seed), "--format", "json", "--out", str(self.out_dir)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"regionvote {' '.join(argv)} exited {code}")
            return json.loads((self.out_dir / "flag_report.json").read_text(encoding="utf-8"))

        def judge(report):
            errors = oracles.check_flag_report(report)
            if report["config"]["seed"] != master_seed:
                errors.append(f"report is for seed {report['config']['seed']}")
            return report["attempt"] + 1, errors

        return Op(str(master_seed), call, judge)

    def layer_metrics(self, tracer, traced) -> dict[str, float]:
        attempts = sum(report["attempt"] + 1 for _, report in traced)
        out = {
            "cli.flag.attempts": attempts,
            "cli.flag.self_us_per_attempt": (
                tracer.self_ns_by_layer().get("cli", 0) * 1e-3 / attempts if attempts else 0.0
            ),
        }
        for name in ("voting.tally_regional", "voting.tally_global"):
            out[f"{name}.calls"] = len(tracer.durations_ns(name))
            out[f"{name}.us_per_call"] = _mean_ns(tracer, name, scale=1e-3)
        return out


class EigenRecognition(Workload):
    """run_conjecture_experiment on the criterion-9 gallery."""

    name = "eigen_recognition"
    setup_repeats = 3
    LEVELS = (0.0, 0.5)
    TRIALS = 32  # probes per noise level
    K = 8

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> float:
        """Gallery synthesis and training at every region count."""
        start = time.perf_counter()
        gallery = eigenlab.PatternGallery.synthetic(16, 60, 40, seed=11)
        eigenlab.train_global(gallery, self.K)
        for rc in REGION_COUNTS:
            eigenlab.train_regional(gallery, rc, self.K)
        elapsed = time.perf_counter() - start
        self.gallery = gallery
        return elapsed

    def ops(self, index: int) -> list[Op]:
        probe_seed = derive(self.seed, "probes", index)

        def call():
            return eigenlab.run_conjecture_experiment(
                self.gallery, REGION_COUNTS, self.LEVELS, self.TRIALS, seed=probe_seed, k=self.K
            )

        def judge(exp):
            return self.TRIALS * len(self.LEVELS), oracles.check_eigen_experiment(
                exp.rates, exp.rows, REGION_COUNTS, self.LEVELS, self.TRIALS,
                exp.r1_matches_global,
            )

        return [Op("experiment", call, judge)]

    def layer_metrics(self, tracer, traced) -> dict[str, float]:
        out = {
            "eigenlab.train_global.ms_per_call": _mean_ns(tracer, "eigenlab.train_global"),
            # noise level 0 returns a copy; only the occluded probes count
            "eigenlab.disk_noise.ms_per_call": _mean_ns(tracer, "eigenlab.disk_noise", self.LEVELS[1]),
        }
        for rc in REGION_COUNTS:
            out[f"eigenlab.train_regional.R{rc}.ms_per_call"] = _mean_ns(
                tracer, "eigenlab.train_regional", rc
            )
            out[f"eigenlab.recognize.R{rc}.ms_per_call"] = _mean_ns(tracer, "eigenlab.recognize", rc)
        return out


WORKLOADS = {
    "block_search": BlockSearch,
    "dispersed_noise": DispersedNoise,
    "flag_search": FlagSearch,
    "eigen_recognition": EigenRecognition,
}
