"""Tests for the density-matrix simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.noise import depolarizing, noise_model_for
from repro.sim import DensityMatrix, Statevector


class TestConstruction:
    def test_default_is_pure_zero_state(self):
        rho = DensityMatrix(2)
        matrix = rho.matrix
        assert np.isclose(matrix[0, 0], 1.0)
        assert np.isclose(rho.trace(), 1.0)
        assert np.isclose(rho.purity(), 1.0)

    def test_from_statevector(self):
        state = Statevector(2).apply_gate("h", [0]).apply_gate("cx", [0, 1])
        rho = DensityMatrix.from_statevector(state)
        assert np.isclose(rho.purity(), 1.0)
        assert np.allclose(np.diag(rho.matrix), [0.5, 0, 0, 0.5])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix(2, np.eye(3))

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(0)

    def test_copy_independent(self):
        rho = DensityMatrix(1)
        clone = rho.copy()
        clone.apply_gate("x", [0])
        assert np.isclose(rho.matrix[0, 0], 1.0)


class TestUnitaryEvolution:
    def test_matches_statevector_for_pure_states(self):
        circuit = QuantumCircuit(3)
        circuit.add("h", 0).add("cx", (0, 1)).add("ry", 2, 0.7)
        circuit.add("rzz", (1, 2), 0.4)
        state = Statevector(3).evolve(circuit)
        rho = DensityMatrix(3).evolve(circuit)
        assert np.allclose(rho.probabilities(), state.probabilities())
        assert np.allclose(rho.expectation_z(), state.expectation_z())
        assert np.isclose(rho.purity(), 1.0, atol=1e-10)

    def test_trace_preserved(self):
        rho = DensityMatrix(2).apply_gate("rxx", [0, 1], 1.2)
        assert np.isclose(rho.trace(), 1.0)

    def test_width_mismatch_rejected(self):
        circuit = QuantumCircuit(2)
        circuit.add("h", 0)
        with pytest.raises(ValueError, match="qubits"):
            DensityMatrix(3).evolve(circuit)


class TestChannels:
    def test_full_depolarizing_gives_maximally_mixed(self):
        rho = DensityMatrix(1)
        rho.apply_channel(depolarizing(1.0), [0])
        # p=1 uniform Pauli error: rho -> (rho + XrhoX + YrhoY + ZrhoZ)/3
        # applied to |0><0| gives diag(1/3, 2/3)... check trace/purity only.
        assert np.isclose(rho.trace(), 1.0)
        assert rho.purity() < 1.0

    def test_depolarizing_reduces_purity(self):
        rho = DensityMatrix(1).apply_gate("h", [0])
        before = rho.purity()
        rho.apply_channel(depolarizing(0.2), [0])
        assert rho.purity() < before

    def test_evolve_with_noise_model_preserves_trace(self):
        circuit = QuantumCircuit(4)
        circuit.add("h", 0).add("rzz", (0, 1), 0.5).add("rxx", (2, 3), 0.8)
        model = noise_model_for("ibmq_jakarta")
        rho = DensityMatrix(4).evolve(circuit, model)
        assert np.isclose(rho.trace(), 1.0, atol=1e-9)
        assert rho.purity() < 1.0

    def test_noise_scale_zero_is_noise_free(self):
        circuit = QuantumCircuit(2)
        circuit.add("h", 0).add("cx", (0, 1))
        model = noise_model_for("ibmq_jakarta", scale=0.0)
        rho = DensityMatrix(2).evolve(circuit, model)
        assert np.isclose(rho.purity(), 1.0, atol=1e-10)

    def test_superop_path_equals_kraus_path(self):
        """A Kraus-only view of a model lowers to the model's own plan."""

        class KrausOnly:
            def __init__(self, model):
                self._model = model

            def channels_for(self, op):
                return self._model.channels_for(op)

        circuit = QuantumCircuit(3)
        circuit.add("ry", 0, 0.3).add("rzz", (0, 1), 0.9).add("cz", (1, 2))
        model = noise_model_for("ibmq_lima")
        fast = DensityMatrix(3).evolve(circuit, model)
        slow = DensityMatrix(3).evolve(circuit, KrausOnly(model))
        assert np.array_equal(fast.matrix, slow.matrix)


class TestReadout:
    def test_probabilities_normalized(self):
        circuit = QuantumCircuit(2)
        circuit.add("ry", 0, 0.4).add("rzz", (0, 1), 1.0)
        rho = DensityMatrix(2).evolve(circuit, noise_model_for("ibmq_manila"))
        probs = rho.probabilities()
        assert np.isclose(probs.sum(), 1.0)
        assert np.all(probs >= 0)

    def test_expectation_z_single_qubit(self):
        rho = DensityMatrix(2).apply_gate("x", [1])
        assert np.isclose(rho.expectation_z(0), 1.0)
        assert np.isclose(rho.expectation_z(1), -1.0)

    @pytest.mark.parametrize("qubit", [2, 7, -1])
    def test_expectation_z_out_of_range(self, qubit):
        # Used to escape as a raw IndexError from numpy.
        with pytest.raises(ValueError, match="out of range"):
            DensityMatrix(2).expectation_z(qubit)

    def test_sample_counts_reproducible(self):
        rho = DensityMatrix(2).apply_gate("h", [0])
        first = rho.sample_counts(128, rng=np.random.default_rng(3))
        second = rho.sample_counts(128, rng=np.random.default_rng(3))
        assert first == second

    def test_sample_counts_shots_validated(self):
        with pytest.raises(ValueError):
            DensityMatrix(1).sample_counts(0)
