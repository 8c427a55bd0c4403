"""Run the benchmark once per seed and report each metric's spread.

    python3 benchmarks/spread.py --workloads block_search flag_search --seeds 1-10
    python3 benchmarks/spread.py --seeds 11-20 --save set2.json --against set1.json

Runs are sequential, one process at a time. For every workload and
end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json, and the same for the throughput as
timed, before scaling to the reference speed. With --against it also
compares each median with the median of an earlier saved set.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run's result, plus the median of its unscaled pass rates."""
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    *_, timed_line, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    rates = re.search(r"trials/s ([^,]*),", timed_line).group(1).split()
    result["unscaled_trials_per_s"] = statistics.median(float(r) for r in rates)
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--save", type=pathlib.Path, help="write the runs to this JSON file")
    parser.add_argument("--against", type=pathlib.Path, help="an earlier --save file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            runs[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)
    if args.save:
        args.save.write_text(json.dumps(runs))

    print(f"\n{'workload':18} {'metric':13} {'median':>10} {'q1':>10} {'q3':>10}"
          f" {'spread':>7} {'bound':>6}  vs earlier")
    for workload, results in runs.items():
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            line = (f"{workload:18} {name:13} {s['median']:10.4g} {s['q1']:10.4g}"
                    f" {s['q3']:10.4g} {s['spread']:7.3f} {bound:6.2f}")
            if workload in earlier:
                old = summarize([r["metrics"][name]["value"] for r in earlier[workload]])
                line += f"  {(s['median'] - old['median']) / old['median']:+.3f}"
            print(line)
        s = summarize([r["unscaled_trials_per_s"] for r in results])
        print(f"{workload:18} {'(unscaled)':13} {s['median']:10.4g} {s['q1']:10.4g}"
              f" {s['q3']:10.4g} {s['spread']:7.3f}")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload:18} failed {failed}/{attempted}, all correct: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
