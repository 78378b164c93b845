"""Host calibration and the environment block.

A shared host's speed drifts (on the reference host by up to a third
over minutes, as other tenants come and go) and other hosts differ by
more.  After every timed step the harness runs one fixed calibration
kernel and reports the step in reference-host units,
``raw * REFERENCE_S / calibration``, with the calibration run right
after that step.  Pairing each step with its own calibration follows
drift within a run, which one run-wide median cannot: over ten runs it
cut the spread of the median 10-qubit step from 8 to 3 percent, and of
its p90 from 23 to 4 percent.

The kernel mixes the kinds of work the program does — a small GEMM,
an 8 MB elementwise pass, a pure-Python dict loop, small-object churn
(the circuit IR's pattern) and a gate sweep over a stack of 10-qubit
states (the simulator's) — and warms its own data with an untimed pass
first, so whatever the preceding step left in the caches cannot change
the timed pass, and runs with the garbage collector off, so the
number of objects the workload keeps alive cannot change it either.
The last two parts are there because, measured over
five minutes of drifting host speed, the 10-qubit step moved only 0.62
times as much (in log terms) as the first three parts alone, and 0.8
times as much as all five.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import platform
import statistics
import sys
import time

import numpy as np

#: Median of :meth:`Calibrator.run` on the reference host (2-core
#: Intel Xeon, 4 MiB L2, numpy 2.4 with OpenBLAS pinned to one thread).
REFERENCE_S = 0.0061

_GEMM_N = 128
_GEMM_REPEATS = 4
_STREAM_ELEMENTS = 1 << 19  # two 4 MB float64 operands: 8 MB per pass
_DICT_KEYS = 4096
_DICT_ROUNDS = 4
_OBJECTS = 3000
_SWEEP_STATES = 32
_SWEEP_QUBITS = 10


class _Node:
    """A small IR-like object for the churn part of the kernel."""

    __slots__ = ("index", "wires", "params")

    def __init__(self, index, wires, params):
        self.index = index
        self.wires = wires
        self.params = params


def _helper_main(conn) -> None:
    """Helper process: run the kernel whenever the parent asks."""
    calibrator = Calibrator()
    while conn.recv() is not None:
        conn.send(calibrator.run())
    conn.close()


class Calibrator:
    """The fixed calibration kernel and the samples it has taken.

    Args:
        processes: How many processes run the kernel at once.  A
            workload that keeps several cores busy is calibrated with
            as many concurrent copies, so the calibration sees the
            same contention for the host's cores; each sample is the
            mean over the copies.
    """

    def __init__(self, processes: int = 1):
        self._helpers = []
        context = multiprocessing.get_context("spawn")
        for _ in range(processes - 1):
            parent, child = context.Pipe()
            process = context.Process(
                target=_helper_main, args=(child,), daemon=True
            )
            process.start()
            child.close()
            self._helpers.append((process, parent))
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((_GEMM_N, _GEMM_N))
        self._b = rng.standard_normal((_GEMM_N, _GEMM_N))
        self._x = rng.standard_normal(_STREAM_ELEMENTS)
        self._y = rng.standard_normal(_STREAM_ELEMENTS)
        self._out = np.empty(_STREAM_ELEMENTS)
        self._keys = [f"k{i}" for i in range(_DICT_KEYS)]
        self._states = rng.standard_normal(
            (_SWEEP_STATES,) + (2,) * _SWEEP_QUBITS
        ).astype(np.complex128)
        self._gate = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=np.complex128)
        self.samples: list[float] = []

    def _kernel(self) -> float:
        product = self._a
        for _ in range(_GEMM_REPEATS):
            product = np.tanh(product @ self._b * 0.01)
        np.multiply(self._x, self._y, out=self._out)
        np.add(self._out, self._x, out=self._out)
        table: dict[str, int] = {}
        for round_ in range(_DICT_ROUNDS):
            for key in self._keys:
                table[key] = table.get(key, round_) + 1
        nodes = [_Node(i, (i, i + 1), [0.5 * i]) for i in range(_OBJECTS)]
        states = self._states
        for axis in range(1, _SWEEP_QUBITS + 1):
            states = np.moveaxis(
                np.tensordot(self._gate, states, axes=([1], [axis])), 0, axis
            )
        return (float(product[0, 0]) + self._out[-1] + len(table)
                + len(nodes) + abs(states.flat[0]))

    def _timed_pass(self) -> float:
        self._x.sum()
        self._y.sum()
        self._out.fill(0.0)
        self._states.sum()
        # A collection the kernel's allocations happen to trigger walks
        # every object the workload keeps alive and doubles the pass, so
        # the timed pass runs with the collector off.
        gc.disable()
        try:
            start = time.perf_counter()
            self._kernel()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def run(self) -> float:
        """Warm the kernel's data, then time one pass and record it."""
        for _, conn in self._helpers:
            conn.send(True)
        times = [self._timed_pass()]
        times.extend(conn.recv() for _, conn in self._helpers)
        elapsed = statistics.fmean(times)
        self.samples.append(elapsed)
        return elapsed

    def close(self) -> None:
        """Stop and join the helper processes."""
        for process, conn in self._helpers:
            conn.send(None)
            conn.close()
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join()
        self._helpers = []


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """Interpreter, numpy, BLAS and CPU facts recorded with every run."""
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # numpy without mode="dicts"
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
        .strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "reference_calibration_s": REFERENCE_S,
    }
