"""Host-calibrated benchmark of the QOC reproduction.

Entry point: ``python3 perfbench/run.py``.  Workloads live in
:mod:`perfbench.workloads`, the timed loop and reports in
:mod:`perfbench.bench`, calibration in :mod:`perfbench.calib`, span
tracing in :mod:`perfbench.trace`.  ``BENCHMARK.json`` at the root of
the repository is the one source of the workload names, the run length
and the metric names, units and bounds.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
