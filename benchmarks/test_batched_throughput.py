"""Batched execution on the training-step benchmark workload.

One parameter-shift training step — forward pass plus the full
``2 x params x batch_size`` shifted-circuit Jacobian — on a scaled-up
Vowel-4-style model (8 qubits, 40 trainable parameters: the paper's
(RZZ, RXX) x 2 ring ansatz widened to 8 wires plus a closing RY layer).
The step's ~1000 circuits all share one structure signature, so
``IdealBackend`` evolves them as a handful of stacked-tensor plan
replays.  Checked against circuit-by-circuit submission (each circuit a
batch of one): bit-identical values and Jacobians, identical metered
work, and forward values within 1e-10 of the dense reference oracle.
End-to-end throughput of this path is tracked by the perfbench ledger.
"""

from __future__ import annotations

import numpy as np

import dense_reference as ref
from harness import CircuitByCircuit, smoke_scaled
from repro.circuits import QuantumCircuit
from repro.circuits.layers import build_layered_ansatz
from repro.gradients.parameter_shift import parameter_shift_jacobian_batch
from repro.hardware import IdealBackend

N_QUBITS = 8
BATCH_SIZE = smoke_scaled(12, 6)
LAYERS = ["rzz", "rxx", "rzz", "rxx", "ry"]  # 8+8+8+8+8 = 40 params


def build_training_batch() -> list[QuantumCircuit]:
    rng = np.random.default_rng(7)
    ansatz = build_layered_ansatz(N_QUBITS, LAYERS)
    assert ansatz.num_parameters == 40
    theta = rng.uniform(-1, 1, ansatz.num_parameters)
    circuits = []
    for _ in range(BATCH_SIZE):
        encoder = QuantumCircuit(N_QUBITS)
        for wire in range(N_QUBITS):
            encoder.add("ry", wire, float(rng.uniform(0, np.pi)))
        circuits.append(encoder.compose(ansatz.bound(theta)))
    return circuits


def training_step(backend, circuits) -> tuple:
    forward = backend.expectations(circuits, purpose="forward")
    jacobians = parameter_shift_jacobian_batch(circuits, backend)
    return forward, jacobians


def test_batched_results_match_sequential_on_benchmark_workload():
    circuits = build_training_batch()
    sequential = CircuitByCircuit(IdealBackend(exact=True))
    batched = IdealBackend(exact=True)
    f_seq, j_seq = training_step(sequential, circuits)
    f_bat, j_bat = training_step(batched, circuits)
    assert np.array_equal(f_seq, f_bat)
    for a, b in zip(j_seq, j_bat):
        assert np.array_equal(a, b)
    assert sequential.meter.snapshot() == batched.meter.snapshot()
    assert batched.meter.circuits == BATCH_SIZE * (1 + 2 * 40)
    for row, circuit in zip(f_bat[:2], circuits):
        want = ref.expectations_z(ref.probabilities(circuit))
        assert np.max(np.abs(row - want)) <= 1e-10
