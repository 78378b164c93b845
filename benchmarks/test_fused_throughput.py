"""Accuracy of compiled (fused) execution plans on the sweep workload.

Deep-circuit parameter-shift sweeps: 4 re-encoded examples of a
16-layer ``ry / rzz / rz / cz`` ansatz (the paper's layer vocabulary)
at the paper's 4-qubit scale.  Every circuit runs through a fused
:class:`~repro.sim.compile.ExecutionPlan`; this file checks the fused
results against the unfused dense reference oracle, which builds each
gate and noise channel as a full Kronecker-product operator: exact
expectations and noisy observed distributions within 1e-10, and sampled
counts deterministic per seed.  Throughput of the fused path is tracked
by the perfbench ledger.
"""

from __future__ import annotations

import numpy as np

import dense_reference as ref
from repro.circuits import QuantumCircuit
from repro.circuits.layers import build_layered_ansatz
from repro.hardware import IdealBackend, NoisyBackend

LAYERS = ["ry", "rzz", "rz", "cz"] * 4  # 16 layers
N_EXAMPLES = 4
N_QUBITS = 4
DEVICE = "ibmq_lima"
SHOTS = 1024


def build_sweep_circuits(n_qubits: int) -> list[QuantumCircuit]:
    """4 re-encoded examples of one deep layered model."""
    rng = np.random.default_rng(11)
    ansatz = build_layered_ansatz(n_qubits, LAYERS)
    theta = rng.uniform(-1, 1, ansatz.num_parameters)
    circuits = []
    for _ in range(N_EXAMPLES):
        encoder = QuantumCircuit(n_qubits)
        for wire in range(n_qubits):
            encoder.add("ry", wire, float(rng.uniform(0, np.pi)))
        circuits.append(encoder.compose(ansatz.bound(theta)))
    return circuits


def test_fused_distributions_match_unfused():
    """Fused results within 1e-10 of the unfused dense reference."""
    circuits = build_sweep_circuits(N_QUBITS)

    fused = IdealBackend(exact=True).expectations(circuits)
    for row, circuit in zip(fused, circuits):
        want = ref.expectations_z(ref.probabilities(circuit))
        assert np.max(np.abs(row - want)) <= 1e-10

    backend = NoisyBackend.from_device_name(DEVICE, seed=0)
    stacked = backend.observed_probabilities_batch(circuits)
    for row, circuit in zip(stacked, circuits):
        want = ref.observed_probabilities(circuit, backend.noise_model)
        assert np.max(np.abs(row - want)) <= 1e-10


def test_fused_counts_deterministic_per_seed():
    """Same plan + same seed -> bit-identical sampled counts."""
    circuits = build_sweep_circuits(N_QUBITS)
    runs = []
    for _ in range(2):
        backend = NoisyBackend.from_device_name(DEVICE, seed=7)
        runs.append(backend.run(circuits, shots=SHOTS))
    for a, b in zip(*runs):
        assert a.counts == b.counts
        assert np.array_equal(a.expectations, b.expectations)
