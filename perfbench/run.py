"""Run the benchmark.

    python3 perfbench/run.py --workload qc_train_pgp --seed 1 \
        --seconds 20 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.  The
last line of the output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

``--workload all`` runs every workload in turn, each in its own
process, echoes each one's report and ends with one JSON object of the
same shape whose metric names carry the workload, as in
``qc_train_pgp/steps_per_s``.

The exit code is non-zero when an output check fails or the program
under test cannot be imported.  Records, counters and spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, load_spec  # noqa: E402  (needs the root path)

#: Set before numpy is imported, and inherited by worker processes, so
#: the calling shell cannot change what is measured: one BLAS thread per
#: process, and none of the program's behaviour toggles.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CLEARED_ENV = ("REPRO_WORKERS", "REPRO_FUSED", "REPRO_CHAOS")


def _parse(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv), names


def _run_all(args, names) -> int:
    """Each workload in its own process, then one combined result."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(completed.stdout)
        sys.stdout.flush()
        status |= completed.returncode
        lines = completed.stdout.strip().splitlines()
        if completed.returncode not in (0, 1) or not lines:
            return completed.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args, names = _parse(argv, load_spec())
    if args.workload == "all":
        return _run_all(args, names)

    os.environ.update(PINNED_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    from perfbench import bench

    return bench.run(args.workload, args.seed, args.seconds,
                     bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
