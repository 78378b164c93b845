"""Replays that take their state-sized arrays from the recycling pool.

Shared by ``tests/test_replay_buffers.py`` and
``benchmarks/test_replay_faults.py``.  Each case is a fresh-stack
replay the training workloads run every step:

* ``mnist4 shift`` - all 576 parameter-shift rows of 8 mnist4 examples
  (36 parameters) on the ``ibmq_jakarta`` density plan, a prefix trie;
* ``10q shift`` - 128 shift rows (16 parameters) of four 10-qubit
  layered circuits on the exact statevector plan, a prefix trie;
* ``10q adjoint`` - the adjoint Jacobian of those four circuits.

``Case.run()`` returns the replay's output arrays, and ``Case.row(i)``
(trie cases only) runs row ``i`` alone, as a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits import QuantumCircuit, get_architecture
from repro.circuits.batch import CircuitBatch
from repro.circuits.layers import build_layered_ansatz
from repro.circuits.sweep import Sweep
from repro.gradients.parameter_shift import shift_sweep
from repro.hardware import NoisyBackend
from repro.sim import BatchedDensityMatrix, BatchedStatevector, compile_circuit
from repro.sim.adjoint import adjoint_expectation_and_jacobian_batch


@dataclass
class Case:
    name: str
    sweep: object
    plan: object
    engine: type | None  # the state engine of a trie case

    def run(self) -> tuple[np.ndarray, ...]:
        if self.engine is None:
            return adjoint_expectation_and_jacobian_batch(
                self.sweep, plan=self.plan
            )
        state = self.engine(self.sweep.n_qubits, self.sweep.size)
        return (state.evolve(self.sweep, plan=self.plan).tensor,)

    def row(self, index: int) -> np.ndarray:
        """Row ``index`` run alone, as a batch of one."""
        alone = Sweep(
            self.sweep.template,
            self.sweep.literals[index : index + 1],
            self.sweep.params[index : index + 1],
        )
        state = self.engine(alone.n_qubits, 1)
        return state.evolve(alone, plan=self.plan).tensor[0]


def ten_qubit_circuits(seed: int = 0) -> list[QuantumCircuit]:
    """Four encoders composed with one bound 10-qubit layered ansatz."""
    rng = np.random.default_rng(seed)
    ansatz = build_layered_ansatz(10, ["ry", "rzz", "rz", "cz"] * 4)
    bound = ansatz.bound(rng.uniform(-1.0, 1.0, ansatz.num_parameters))
    circuits = []
    for _ in range(4):
        encoder = QuantumCircuit(10)
        for wire, angle in enumerate(rng.uniform(0.0, np.pi, 10)):
            encoder.add("ry", wire, float(angle))
        circuits.append(encoder.compose(bound))
    return circuits


def cases(seed: int = 0) -> list[Case]:
    rng = np.random.default_rng(seed)
    arch = get_architecture("mnist4")
    base = arch.sweep(
        rng.uniform(0.0, np.pi, (8, arch.n_features)),
        rng.uniform(-1.0, 1.0, arch.num_parameters),
    )
    noisy, _ = shift_sweep(base, range(arch.num_parameters))
    noise_model = NoisyBackend.from_device_name("ibmq_jakarta").noise_model
    circuits = ten_qubit_circuits(seed)
    exact, _ = shift_sweep(CircuitBatch(circuits), range(16))
    forward = CircuitBatch(circuits)
    return [
        Case(
            "mnist4 shift",
            noisy,
            compile_circuit(noisy, mode="density", noise_model=noise_model),
            BatchedDensityMatrix,
        ),
        Case("10q shift", exact, compile_circuit(exact), BatchedStatevector),
        Case("10q adjoint", forward, compile_circuit(forward), None),
    ]


def minor_faults(fn, calls: int, warmup: int = 3) -> list[int]:
    """Minor page faults of each of ``calls`` calls, after ``warmup``
    (``resource`` is Unix-only)."""
    import resource

    def minflt() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    for _ in range(warmup):
        fn()
    faults = []
    for _ in range(calls):
        before = minflt()
        fn()
        faults.append(minflt() - before)
    return faults
