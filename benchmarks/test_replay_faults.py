"""Page faults and time of warm replays on recycled buffers.

The three replays of ``tests/replay_cases.py`` — the 576-row mnist4
``ibmq_jakarta`` shift sweep, the 128-row 10-qubit exact shift sweep
and the 4-row 10-qubit adjoint Jacobian — take their state-sized
arrays from ``repro.sim.compile``'s per-thread buffer pool.  Minor page
faults per call (``resource.getrusage``, median after warm-up) and
microseconds per call are printed; no wall-clock or fault bound is
asserted here (``tests/test_replay_buffers.py`` bounds the faults).
Every trie row must equal the same row run as a batch of one.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

import replay_cases
from harness import format_table, smoke_scaled

CALLS = smoke_scaled(20, 5)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="minor faults: Linux only"
)
def test_replay_faults():
    rows = []
    for case in replay_cases.cases():
        if case.engine is not None:
            (tensor,) = case.run()
            for index in range(case.sweep.size):
                assert np.array_equal(tensor[index], case.row(index))
            del tensor
        faults = replay_cases.minor_faults(case.run, CALLS)
        samples = []
        for _ in range(CALLS):
            start = time.perf_counter()
            case.run()
            samples.append(time.perf_counter() - start)
        rows.append([
            case.name,
            str(case.sweep.size),
            f"{np.median(faults):.0f}",
            f"{1e6 * np.median(samples):.0f}",
        ])
    print()
    print(format_table(["replay", "rows", "faults/call", "us/call"], rows))
