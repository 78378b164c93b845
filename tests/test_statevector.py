"""Tests for the Statevector simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.sim import Statevector, run_statevector


class TestConstruction:
    def test_default_is_all_zeros_state(self):
        state = Statevector(3)
        vec = state.vector
        assert np.isclose(vec[0], 1.0)
        assert np.allclose(vec[1:], 0.0)

    def test_from_label(self):
        state = Statevector.from_label("01")
        # Qubit 0 = 0, qubit 1 = 1 -> flat index 0b01 = 1.
        assert np.isclose(state.vector[1], 1.0)

    def test_from_label_invalid(self):
        with pytest.raises(ValueError):
            Statevector.from_label("0a1")
        with pytest.raises(ValueError):
            Statevector.from_label("")

    def test_from_data(self):
        data = np.array([1, 0, 0, 1]) / np.sqrt(2)
        state = Statevector(2, data)
        assert np.isclose(state.norm(), 1.0)

    def test_wrong_size_data_rejected(self):
        with pytest.raises(ValueError, match="amplitudes"):
            Statevector(2, np.ones(3))

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            Statevector(0)

    def test_copy_is_independent(self):
        state = Statevector(2)
        clone = state.copy()
        clone.apply_gate("x", [0])
        assert np.isclose(state.vector[0], 1.0)
        assert not np.isclose(clone.vector[0], 1.0)


class TestEvolution:
    def test_x_flips(self):
        state = Statevector(2).apply_gate("x", [0])
        # |10> -> flat index 2.
        assert np.isclose(abs(state.vector[2]), 1.0)

    def test_h_creates_superposition(self):
        state = Statevector(1).apply_gate("h", [0])
        assert np.allclose(np.abs(state.vector) ** 2, [0.5, 0.5])

    def test_bell_state(self):
        state = (
            Statevector(2).apply_gate("h", [0]).apply_gate("cx", [0, 1])
        )
        probs = state.probabilities()
        assert np.allclose(probs, [0.5, 0, 0, 0.5])

    def test_evolve_circuit(self):
        circuit = QuantumCircuit(2)
        circuit.add("h", 0).add("cx", (0, 1))
        state = run_statevector(circuit)
        assert np.allclose(state.probabilities(), [0.5, 0, 0, 0.5])

    def test_evolve_width_mismatch(self):
        circuit = QuantumCircuit(3)
        circuit.add("h", 0)
        with pytest.raises(ValueError, match="qubits"):
            Statevector(2).evolve(circuit)

    @given(theta=st.floats(-np.pi, np.pi), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_norm_invariant_under_circuits(self, theta, seed):
        rng = np.random.default_rng(seed)
        state = Statevector(3)
        for _ in range(5):
            gate = rng.choice(["rx", "ry", "rz", "h"])
            state.apply_gate(gate, [int(rng.integers(3))],
                             *([theta] if gate != "h" else []))
        assert np.isclose(state.norm(), 1.0, atol=1e-10)


class TestReadout:
    def test_probabilities_sum_to_one(self):
        state = Statevector(3).apply_gate("h", [0]).apply_gate("ry", [2], 0.7)
        assert np.isclose(state.probabilities().sum(), 1.0)

    def test_expectation_z_basis_states(self):
        assert np.isclose(Statevector(1).expectation_z(0), 1.0)
        flipped = Statevector(1).apply_gate("x", [0])
        assert np.isclose(flipped.expectation_z(0), -1.0)

    def test_expectation_z_vector(self):
        state = Statevector(2).apply_gate("x", [1])
        assert np.allclose(state.expectation_z(), [1.0, -1.0])

    def test_expectation_z_ry_rotation(self):
        """<Z> after RY(theta) on |0> is cos(theta)."""
        theta = 0.9
        state = Statevector(1).apply_gate("ry", [0], theta)
        assert np.isclose(state.expectation_z(0), np.cos(theta))

    def test_expectation_pauli_matches_z(self):
        state = Statevector(2).apply_gate("ry", [0], 0.8)
        via_word = state.expectation_pauli("ZI")
        via_z = state.expectation_z(0)
        assert np.isclose(via_word, via_z)

    def test_expectation_pauli_wrong_length(self):
        with pytest.raises(ValueError):
            Statevector(2).expectation_pauli("Z")

    def test_expectation_pauli_unknown_letter(self):
        with pytest.raises(ValueError, match="'Q'"):
            Statevector(2).expectation_pauli("ZQ")

    @pytest.mark.parametrize("qubit", [2, 7, -1])
    def test_expectation_z_out_of_range(self, qubit):
        with pytest.raises(ValueError, match="out of range"):
            Statevector(2).expectation_z(qubit)

    def test_marginal_probability(self):
        state = Statevector(2).apply_gate("h", [0])
        assert np.isclose(state.marginal_probability(0), 0.5)
        assert np.isclose(state.marginal_probability(1), 0.0)

    def test_marginal_out_of_range(self):
        with pytest.raises(ValueError):
            Statevector(2).marginal_probability(5)

    def test_fidelity(self):
        a = Statevector(2)
        b = Statevector(2).apply_gate("x", [0])
        assert np.isclose(a.fidelity(a), 1.0)
        assert np.isclose(a.fidelity(b), 0.0)

    def test_fidelity_width_mismatch(self):
        with pytest.raises(ValueError):
            Statevector(2).fidelity(Statevector(3))


class TestSampling:
    def test_counts_total_equals_shots(self):
        state = Statevector(2).apply_gate("h", [0])
        counts = state.sample_counts(512, rng=np.random.default_rng(0))
        assert sum(counts.values()) == 512

    def test_deterministic_state_samples_one_outcome(self):
        counts = Statevector.from_label("10").sample_counts(
            100, rng=np.random.default_rng(1)
        )
        assert counts == {"10": 100}

    def test_sampling_statistics_match_probabilities(self):
        state = Statevector(1).apply_gate("ry", [0], 1.1)
        counts = state.sample_counts(20000, rng=np.random.default_rng(2))
        p1 = counts.get("1", 0) / 20000
        assert abs(p1 - np.sin(1.1 / 2) ** 2) < 0.02

    def test_seeded_sampling_reproducible(self):
        state = Statevector(2).apply_gate("h", [0]).apply_gate("h", [1])
        first = state.sample_counts(64, rng=np.random.default_rng(7))
        second = state.sample_counts(64, rng=np.random.default_rng(7))
        assert first == second

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            Statevector(1).sample_counts(0)
