"""Fingerprints: persisted cache keys, and the batched row keys.

The golden digests below were produced by the original per-op
``circuit_fingerprint`` encoding; they pin the byte layout, so keys
persisted by one version keep matching the next.  The batched keys a
:class:`~repro.circuits.sweep.Sweep` computes from its angle matrix
must be hex-identical to fingerprinting each row's circuit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    ARCHITECTURES,
    QuantumCircuit,
    circuit_fingerprint,
)
from repro.circuits.fingerprint import FingerprintLayout
from repro.gradients.parameter_shift import shift_sweep

ANGLES = st.floats(
    min_value=-2 * np.pi, max_value=2 * np.pi,
    allow_nan=False, allow_infinity=False,
)


def fixed_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3)
    circuit.add("h", 0).add("ry", 1, 0.3).add_trainable("rx", 0, 0)
    circuit.add("cz", (0, 1)).add_trainable("rzz", (1, 2), 1)
    return circuit.bind([0.25, -1.5])


def shared_parameter_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3)
    circuit.add("ry", 0, 0.7).add_trainable("rx", 0, 0)
    circuit.add("cx", (0, 1)).add_trainable("rzz", (1, 2), 1)
    circuit.add_trainable("ry", 2, 0)
    return circuit.bind([0.4, 1.1])


def u3_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2)
    circuit.add("u3", 1, 0.1, -0.2, 0.3).add_trainable("ry", 0, 0)
    circuit.add("cx", (0, 1))
    return circuit.bind([0.9])


GOLDEN = {
    "fixed": (fixed_circuit, "cd7528e74308dca504243f1c3bdf1c95"),
    "shifted": (
        lambda: fixed_circuit().shifted(2, np.pi / 2),
        "9aa3a1ac45f9a185982e0406fd74893a",
    ),
    "shared_parameter": (
        shared_parameter_circuit, "eb2fd5d5c557035d95be1bfb57bd7c08"
    ),
    "u3": (u3_circuit, "6ce20ff822d23a7511ea85d065f97ebe"),
    "nan_angle": (
        lambda: QuantumCircuit(2).add("ry", 0, float("nan")).add(
            "cx", (0, 1)
        ),
        "c2038c66e668c3c09762f57ed35ad9bf",
    ),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest_is_stable(self, name):
        build, digest = GOLDEN[name]
        circuit = build()
        assert circuit_fingerprint(circuit) == digest
        assert circuit.fingerprint() == digest

    def test_fingerprint_is_total_on_non_finite_angles(self):
        """Only execution rejects NaN; fingerprinting never raises."""
        for angle in (float("nan"), float("inf"), -float("inf")):
            circuit = QuantumCircuit(1).add("ry", 0, angle)
            assert len(circuit_fingerprint(circuit)) == 32

    def test_layout_checks_the_angle_width(self):
        circuit = fixed_circuit()
        layout = FingerprintLayout(circuit.n_qubits, circuit.templates)
        assert layout.n_angles == 3
        with pytest.raises(ValueError, match="angles"):
            layout.digests(np.zeros((1, 2)))


class TestBatchedKeys:
    @pytest.mark.parametrize("task", sorted(ARCHITECTURES))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_row_keys_equal_circuit_fingerprints(self, task, data):
        arch = ARCHITECTURES[task]
        rows = data.draw(st.integers(min_value=1, max_value=4))
        features = np.array(
            data.draw(
                st.lists(
                    ANGLES,
                    min_size=rows * arch.n_features,
                    max_size=rows * arch.n_features,
                )
            )
        ).reshape(rows, arch.n_features)
        theta = np.array(
            data.draw(
                st.lists(
                    ANGLES,
                    min_size=arch.num_parameters,
                    max_size=arch.num_parameters,
                )
            )
        )
        sweep = arch.sweep(features, theta)
        assert sweep.fingerprints() == [
            circuit_fingerprint(c) for c in sweep.circuits()
        ]
        shifted, _ = shift_sweep(sweep, [0, arch.num_parameters - 1])
        assert shifted.fingerprints() == [
            circuit_fingerprint(c) for c in shifted.circuits()
        ]

    def test_u3_and_shared_parameter_rows(self):
        from repro.circuits import CircuitBatch

        for circuit in (u3_circuit(), shared_parameter_circuit()):
            clones = [circuit.shifted(p, 0.5) for p in range(len(circuit))
                      if circuit.templates[p].param_index is not None]
            batch = CircuitBatch([circuit, *clones])
            assert batch.fingerprints() == [
                circuit_fingerprint(c) for c in batch.circuits()
            ]
