"""Measured-and-extrapolated runtime/memory curves (Fig. 8).

The paper measures classical simulation up to 22-24 qubits on a GPU and
extrapolates beyond; the quantum curve is measured on ibmq_toronto to 27
qubits and extrapolated.  We do the honest equivalent: *measure* our own
statevector simulator on small circuits, fit the exponential constant,
and extrapolate with the fitted model; the quantum curve comes from the
calibrated device timing model in :mod:`repro.hardware.runtime_model`.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.hardware.runtime_model import (
    quantum_memory_gb,
    quantum_runtime_seconds,
)
from repro.scaling.cost_model import CircuitWorkload
from repro.sim.compile import compile_circuit
from repro.sim.statevector import Statevector

BYTES_PER_AMPLITUDE = 16  # complex128


def build_benchmark_circuit(
    n_qubits: int, workload: CircuitWorkload = CircuitWorkload(), seed: int = 0
) -> QuantumCircuit:
    """A random instance of the Fig. 8 workload circuit.

    16 rotation gates and 32 RZZ gates spread round-robin across wires
    (ring-adjacent pairs for the RZZ), with random fixed angles.
    """
    if n_qubits < 2:
        raise ValueError("need at least two qubits")
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(n_qubits)
    gate_cycle = ["rx", "ry", "rz"]
    for index in range(workload.n_rotation_gates):
        circuit.add(
            gate_cycle[index % 3],
            index % n_qubits,
            float(rng.uniform(-np.pi, np.pi)),
        )
    for index in range(workload.n_rzz_gates):
        a = index % n_qubits
        b = (a + 1) % n_qubits
        circuit.add("rzz", (a, b), float(rng.uniform(-np.pi, np.pi)))
    return circuit


def measure_classical_seconds(
    n_qubits: int,
    workload: CircuitWorkload = CircuitWorkload(),
    n_circuits: int | None = None,
) -> float:
    """Actually run the workload on our statevector simulator and time it.

    The circuit's plan is compiled once before the timed loop, which
    then replays it — the steady state of a training sweep.

    ``n_circuits`` defaults to the workload's 50; pass fewer for quick
    calibration runs (the result is scaled up proportionally).
    """
    runs = n_circuits if n_circuits is not None else workload.n_circuits
    if runs < 1:
        raise ValueError("need at least one circuit")
    circuit = build_benchmark_circuit(n_qubits, workload)
    plan = compile_circuit(circuit)
    start = time.perf_counter()
    for _ in range(runs):
        Statevector(n_qubits).evolve(circuit, plan=plan)
    elapsed = time.perf_counter() - start
    return elapsed * (workload.n_circuits / runs)


def classical_memory_gb(
    n_qubits: int, workload: CircuitWorkload = CircuitWorkload()
) -> float:
    """Memory (GB) to hold the statevector working set.

    One state buffer plus one scratch buffer of ``2^n`` complex128
    amplitudes (gate application is out-of-place).
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    return 2.0 * BYTES_PER_AMPLITUDE * 2.0**n_qubits / 1e9


@dataclasses.dataclass(frozen=True)
class ExponentialFit:
    """``t(n) = coeff * 2^n + floor`` fitted on measured points."""

    coeff: float
    floor: float
    measured_qubits: tuple[int, ...]

    def __call__(self, n_qubits: int | np.ndarray) -> np.ndarray:
        return self.coeff * 2.0 ** np.asarray(n_qubits, dtype=np.float64) \
            + self.floor


def fit_classical_runtime(
    measure_qubits: list[int] | None = None,
    workload: CircuitWorkload = CircuitWorkload(),
    n_circuits: int = 3,
) -> ExponentialFit:
    """Calibrate the exponential runtime constant on real measurements.

    Args:
        measure_qubits: Qubit counts to actually run (defaults to
            6..14 step 2 — seconds of work, then extrapolated).
        n_circuits: Circuits per timing point (scaled to the workload's 50).
    """
    if measure_qubits is None:
        measure_qubits = [8, 10, 12, 14]
    measure_qubits = sorted(int(n) for n in measure_qubits)
    if len(measure_qubits) < 2:
        raise ValueError("need at least two measurement points")
    times = np.array(
        [
            measure_classical_seconds(n, workload, n_circuits)
            for n in measure_qubits
        ]
    )
    basis = 2.0 ** np.asarray(measure_qubits, dtype=np.float64)
    # At small qubit counts, per-gate interpreter overhead (the floor)
    # dominates and a plain least-squares fit underestimates the
    # exponential term badly.  Anchor the coefficient on the two largest
    # points — where the 2^n term is most visible — then back out the
    # floor from the remaining residuals.
    coeff = (times[-1] - times[-2]) / (basis[-1] - basis[-2])
    coeff = max(float(coeff), times[-1] / (2.0 * basis[-1]))
    floor = float(max(0.0, np.median(times - coeff * basis)))
    return ExponentialFit(
        coeff=coeff,
        floor=floor,
        measured_qubits=tuple(measure_qubits),
    )


def runtime_table(
    qubit_range: list[int] | None = None,
    fit: ExponentialFit | None = None,
    workload: CircuitWorkload = CircuitWorkload(),
) -> dict[str, np.ndarray]:
    """Fig. 8's four series: runtime and memory, classical vs quantum."""
    if qubit_range is None:
        qubit_range = list(range(4, 41, 2))
    if fit is None:
        fit = fit_classical_runtime(workload=workload)
    qubits = np.asarray(qubit_range, dtype=np.int64)
    return {
        "qubits": qubits,
        "classical_runtime_s": fit(qubits),
        "quantum_runtime_s": np.array(
            [
                quantum_runtime_seconds(
                    int(n),
                    n_circuits=workload.n_circuits,
                    n_rotation_gates=workload.n_rotation_gates,
                    n_rzz_gates=workload.n_rzz_gates,
                    shots=workload.shots,
                )
                for n in qubits
            ]
        ),
        "classical_memory_gb": np.array(
            [classical_memory_gb(int(n), workload) for n in qubits]
        ),
        "quantum_memory_gb": np.array(
            [quantum_memory_gb(int(n)) for n in qubits]
        ),
    }
