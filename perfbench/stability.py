"""Check that the benchmark is steady enough to gate on.

    python3 perfbench/stability.py --workload all --runs 10

Runs ``run.py`` once per seed (1..runs) for each workload and prints,
for every end-to-end metric, the median over the runs and the spread:
the interquartile distance of the run values as a share of their
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles.
Each spread is compared with the metric's bound in ``BENCHMARK.json``
(the aim is a third of it), and the exact-repeat counters the runs
stored are compared with each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import load_spec, stats  # noqa: E402  (needs the root path)


def _run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit "
                         f"{completed.returncode}")
    record = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return json.loads(lines[-1]), record["counters"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        counters = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, counts = _run(workload, seed, seconds)
            counters.append(counts)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
        print(f"{workload}: {args.runs} runs of {seconds:g} s")
        print(f"  {'metric':<16}{'median':>12}{'spread':>9}{'bound':>8}")
        for name, series in values.items():
            median = statistics.median(series)
            share = stats.spread(series) if median else 0.0
            bound = bounds.get(name, 0.0)
            flag = "" if share <= bound / 3 else "  above a third of bound"
            if share > bound:
                flag = "  ABOVE BOUND"
                status = 1
            print(f"  {name:<16}{median:>12.4f}{share:>9.4f}{bound:>8.3f}"
                  f"{flag}")
        same = all(c == counters[0] for c in counters)
        print(f"  exact-repeat counters identical across runs: {same}")
        if not same:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
