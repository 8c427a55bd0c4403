"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload block_search --seed 1 --seconds 15 --trace 0

The workload runs in this single-threaded process. Each run:

  1. times the workload's set-up several times and keeps the median;
  2. makes one untimed warm-up pass;
  3. repeats timed passes until --seconds of pass time have gone by and
     reports the median pass throughput;
  4. checks every operation's output against computations made apart
     from the program (oracles.py).

With --trace 0 the metrics are the end-to-end ones: trials_per_s,
setup_s and peak_rss_mb. With --trace 1 spans are recorded around the
package's public functions (tracing.py) and the metrics are the
per-layer ones; traced passes alternate with untraced ones so the
tracing overhead is measured in the same run. The last line of standard
output is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pathlib
import sys

# Pin every BLAS and OpenMP pool to one thread before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("block_search", "dispersed_noise", "flag_search", "eigen_recognition")

# The reference work's median time on the 2-CPU host the README's figures
# come from. Reported times are scaled to this speed (see
# reference_seconds).
REFERENCE_S = 0.030


def reference_seconds() -> float:
    """Time a fixed piece of work that does not touch the package.

    The host these figures come from drifts by up to half its speed over
    minutes, under load from outside the container. The reference work
    has the workloads' mix (interpreter loops over Python objects, many
    small numpy calls, one pass over a large array) and is timed around
    every operation and set-up, so each measured time can be scaled by
    REFERENCE_S / (reference time at that moment): the drift cancels and
    a change to the package still shows in full.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(40_000):
        key = (i * 7919) % 101
        counts[key] = counts.get(key, 0) + 1
    small = np.arange(64)
    total = 0
    for i in range(4_000):
        total += int((small * i).sum())
    big = np.random.default_rng(0).random(600_000)
    total += int((big < 0.5).sum())
    return time.perf_counter() - start


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Runner:
    """Times passes of one workload and judges every operation."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, index: int, traced: bool = False):
        """One pass on the inputs of pass `index`; returns (trials,
        seconds, mean reference seconds around its operations,
        [(label, result)])."""
        ops = self.workload.ops(index)
        results = []
        elapsed = 0.0
        with self.tracer.installed() if traced else contextlib.nullcontext():
            gc.collect()
            reference = [reference_seconds()]
            for op in ops:
                start = time.perf_counter()
                try:
                    with self.tracer.span("bench.op", op.label) if traced else contextlib.nullcontext():
                        results.append(op.call())
                except Exception:  # one failed operation must not end the run
                    traceback.print_exc(file=sys.stderr)
                    results.append(None)
                elapsed += time.perf_counter() - start
                reference.append(reference_seconds())
        trials = 0
        done = []
        for op, result in zip(ops, results):
            self.attempted += 1
            if result is None:
                self.failed += 1
                continue
            op_trials, errors = op.judge(result)
            trials += op_trials
            self.errors += [f"pass {index} {op.label}: {e}" for e in errors]
            done.append((op.label, result))
        return trials, elapsed, statistics.mean(reference), done

    def setup_seconds(self, traced: bool = False) -> list[tuple[float, float]]:
        """(seconds, mean reference seconds around them) per repeat."""
        out = []
        with self.tracer.installed() if traced else contextlib.nullcontext():
            for _ in range(self.workload.setup_repeats):
                before = reference_seconds()
                seconds = self.workload.setup()
                out.append((seconds, (before + reference_seconds()) / 2))
        return out


def measure(args, workload):
    runner = Runner(workload)
    setups = runner.setup_seconds()
    runner.run_pass(0)  # warm-up, judged but not timed
    rates = []  # (raw trials per second, reference seconds)
    timed = 0.0
    while timed < args.seconds:
        trials, elapsed, reference, _ = runner.run_pass(len(rates) + 1)
        rates.append((trials / elapsed, reference))
        timed += elapsed
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "trials_per_s": (statistics.median(r * ref / REFERENCE_S for r, ref in rates), "1/s"),
        "setup_s": (statistics.median(s * REFERENCE_S / ref for s, ref in setups), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    print(
        f"{workload.name}: {len(rates)} timed passes; as timed: trials/s "
        + " ".join(f"{r:.1f}" for r, _ in rates)
        + ", set-up s " + " ".join(f"{s:.4f}" for s, _ in setups)
        + "; reference ms " + " ".join(f"{1000 * ref:.1f}" for _, ref in rates + setups)
    )
    return runner, metrics


def measure_traced(args, workload):
    from tracing import Tracer
    from workloads import OUT_DIR, PER_LAYER

    tracer = Tracer()
    runner = Runner(workload, tracer)
    references = [ref for _, ref in runner.setup_seconds(traced=True)]
    runner.run_pass(0)  # warm-up
    # Each traced pass repeats the inputs of the untraced pass before it,
    # so the two throughputs differ only by the spans.
    untraced, traced_rates, traced_results = [], [], []
    timed = 0.0
    while timed < args.seconds:
        index = len(untraced) + 1
        trials, elapsed, reference, _ = runner.run_pass(index)
        untraced.append(trials / elapsed * reference / REFERENCE_S)
        trials, traced_elapsed, reference, done = runner.run_pass(index, traced=True)
        traced_rates.append(trials / traced_elapsed * reference / REFERENCE_S)
        references.append(reference)
        traced_results += done
        timed += elapsed + traced_elapsed
    workload.trace_probes(tracer)
    tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json")
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update(workload.layer_metrics(tracer, traced_results))
    # Span times are scaled once per run, by the median reference time of
    # the traced set-ups and passes.
    scale = REFERENCE_S / statistics.median(references)
    for name, unit in PER_LAYER:
        if unit in ("ms", "us"):
            values[name] *= scale
    values["trace.untraced_trials_per_s"] = statistics.median(untraced)
    values["trace.traced_trials_per_s"] = statistics.median(traced_rates)
    values["trace.overhead_pct"] = 100 * statistics.median(
        1 - with_spans / plain for plain, with_spans in zip(untraced, traced_rates)
    )
    return runner, {name: (values[name], unit) for name, unit in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "regionvote" / "__init__.py").is_file():
        print(f"benchmark: no regionvote sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    runner, metrics = (measure_traced if args.trace else measure)(args, workload)
    for line in runner.errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
