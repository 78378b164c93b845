"""Tests for the VQE extension (Hamiltonians, measurement, engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware import IdealBackend, NoisyBackend
from repro.pruning import PruningHyperparams
from repro.sim import Statevector
from repro.vqe import (
    Hamiltonian,
    PauliTerm,
    VqeEngine,
    basis_rotation_circuit,
    circuits_per_energy,
    hardware_efficient_ansatz,
    heisenberg_xxz,
    measure_hamiltonian,
    pauli_product_expectation,
    transverse_field_ising,
)


class TestPauliTerm:
    def test_word_normalized(self):
        assert PauliTerm(1.0, "xyzi").word == "XYZI"

    def test_invalid_word(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, "XQ")
        with pytest.raises(ValueError):
            PauliTerm(1.0, "")

    def test_matrix(self):
        term = PauliTerm(-2.0, "ZZ")
        eigenvalues = np.linalg.eigvalsh(term.matrix())
        assert np.allclose(sorted(set(np.round(eigenvalues, 10))), [-2, 2])

    def test_measurement_basis(self):
        assert PauliTerm(1.0, "XIZY").measurement_basis == "XZZY"


class TestHamiltonian:
    def test_tfim_term_count(self):
        """Periodic 4-site TFIM: 4 ZZ + 4 X terms."""
        model = transverse_field_ising(4)
        assert len(model) == 8

    def test_tfim_open_chain(self):
        model = transverse_field_ising(4, periodic=False)
        assert len(model) == 7  # 3 ZZ + 4 X

    def test_tfim_exact_energy_known_value(self):
        """4-site periodic TFIM at J=h=1 has E0 ~ -5.226."""
        model = transverse_field_ising(4, 1.0, 1.0)
        assert np.isclose(model.ground_state_energy(), -5.2263, atol=1e-3)

    def test_hamiltonian_is_hermitian(self):
        for model in (transverse_field_ising(3), heisenberg_xxz(3)):
            matrix = model.matrix()
            assert np.allclose(matrix, matrix.conj().T)

    def test_expectation_on_basis_state(self):
        """<00|(-J ZZ)|00> = -J; <00|X_i|00> = 0."""
        model = transverse_field_ising(2, coupling=1.0, field=1.0)
        state = Statevector(2)
        assert np.isclose(model.expectation(state), -1.0)

    def test_measurement_groups_shared_basis(self):
        model = transverse_field_ising(4)
        groups = model.measurement_groups()
        # All ZZ terms share the all-Z basis; X terms need 4 bases.
        assert "ZZZZ" in groups
        assert len(groups["ZZZZ"]) == 4

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            Hamiltonian([PauliTerm(1.0, "Z"), PauliTerm(1.0, "ZZ")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Hamiltonian([])


class TestBasisRotation:
    def test_x_measurement_of_plus_state(self):
        """H|0> = |+> has <X> = +1; rotated circuit must read +1 in Z."""
        from repro.circuits import QuantumCircuit

        circuit = QuantumCircuit(1)
        circuit.add("h", 0)
        rotated = circuit.compose(basis_rotation_circuit("X"))
        state = Statevector(1).evolve(rotated)
        assert np.isclose(state.expectation_z(0), 1.0)

    def test_y_measurement_of_i_state(self):
        """S H |0> = (|0> + i|1>)/sqrt2 has <Y> = +1."""
        from repro.circuits import QuantumCircuit

        circuit = QuantumCircuit(1)
        circuit.add("h", 0).add("s", 0)
        rotated = circuit.compose(basis_rotation_circuit("Y"))
        state = Statevector(1).evolve(rotated)
        assert np.isclose(state.expectation_z(0), 1.0)

    def test_z_and_i_are_noop(self):
        circuit = basis_rotation_circuit("ZIZI")
        assert len(circuit) == 0

    def test_invalid_letter(self):
        with pytest.raises(ValueError):
            basis_rotation_circuit("W")


class TestPauliProductExpectation:
    def test_identity_word(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        assert pauli_product_expectation(probs, "II") == 1.0

    def test_single_qubit(self):
        probs = np.array([0.75, 0.25])  # P(0)=0.75
        assert np.isclose(pauli_product_expectation(probs, "Z"), 0.5)

    def test_parity_of_two_qubits(self):
        """|00> and |11> give +1; |01>, |10> give -1."""
        probs = np.array([0.5, 0.0, 0.0, 0.5])
        assert np.isclose(pauli_product_expectation(probs, "ZZ"), 1.0)
        probs = np.array([0.0, 0.5, 0.5, 0.0])
        assert np.isclose(pauli_product_expectation(probs, "ZZ"), -1.0)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            pauli_product_expectation(np.ones(4) / 4, "Z")


class TestMeasureHamiltonian:
    def test_exact_backend_matches_statevector(self):
        model = heisenberg_xxz(3)
        ansatz = hardware_efficient_ansatz(3, n_layers=1, seed=2)
        measured = measure_hamiltonian(
            ansatz, model, IdealBackend(exact=True), shots=1
        )
        exact = model.expectation(Statevector(3).evolve(ansatz))
        assert np.isclose(measured, exact, atol=1e-12)

    def test_sampled_backend_statistically_close(self):
        model = transverse_field_ising(3)
        ansatz = hardware_efficient_ansatz(3, n_layers=1, seed=3)
        sampled = measure_hamiltonian(
            ansatz, model, IdealBackend(exact=False, seed=0), shots=8192
        )
        exact = model.expectation(Statevector(3).evolve(ansatz))
        assert abs(sampled - exact) < 0.15

    def test_circuit_count_equals_measurement_groups(self):
        model = transverse_field_ising(4)
        ansatz = hardware_efficient_ansatz(4, seed=0)
        backend = IdealBackend(exact=True)
        measure_hamiltonian(ansatz, model, backend)
        assert backend.meter.circuits == circuits_per_energy(model)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            measure_hamiltonian(
                hardware_efficient_ansatz(3, seed=0),
                transverse_field_ising(4),
                IdealBackend(exact=True),
            )


class TestVqeEngine:
    def test_converges_towards_ground_state_noise_free(self):
        model = transverse_field_ising(3, 1.0, 0.5)
        ansatz = hardware_efficient_ansatz(3, n_layers=2, seed=1)
        engine = VqeEngine(
            model, ansatz, IdealBackend(exact=True),
            steps=30, lr_max=0.2, lr_min=0.02,
        )
        engine.run()
        assert engine.relative_error() < 0.15
        # Energy decreased substantially from the first step.
        assert engine.records[-1].energy < engine.records[0].energy

    def test_gradient_matches_numeric(self):
        model = transverse_field_ising(3)
        ansatz = hardware_efficient_ansatz(3, n_layers=1, seed=4)
        engine = VqeEngine(
            model, ansatz, IdealBackend(exact=True), steps=1
        )
        indices = np.arange(ansatz.num_parameters)
        analytic = engine.gradient(indices)
        eps = 1e-6
        for k in range(ansatz.num_parameters):
            theta_plus = engine.theta.copy()
            theta_plus[k] += eps
            theta_minus = engine.theta.copy()
            theta_minus[k] -= eps
            numeric = (
                engine.energy(theta_plus) - engine.energy(theta_minus)
            ) / (2 * eps)
            assert np.isclose(analytic[k], numeric, atol=1e-5), k

    def test_pruning_reduces_circuit_usage(self):
        model = transverse_field_ising(3)

        def run(pruning):
            backend = IdealBackend(exact=True)
            engine = VqeEngine(
                model, hardware_efficient_ansatz(3, seed=5), backend,
                steps=6, pruning=pruning, seed=5,
            )
            engine.run()
            return backend.meter.circuits

        full = run(None)
        pruned = run(PruningHyperparams(1, 2, 0.5))
        assert pruned < full

    def test_runs_on_noisy_backend(self):
        model = transverse_field_ising(3)
        backend = NoisyBackend.from_device_name("ibmq_santiago", seed=0)
        engine = VqeEngine(
            model, hardware_efficient_ansatz(3, seed=6), backend,
            steps=3, shots=512, pruning=PruningHyperparams(1, 1, 0.5),
        )
        records = engine.run()
        assert len(records) == 3
        assert all(np.isfinite(r.energy) for r in records)

    def test_validation(self):
        model = transverse_field_ising(3)
        with pytest.raises(ValueError, match="width"):
            VqeEngine(
                model, hardware_efficient_ansatz(4, seed=0),
                IdealBackend(exact=True),
            )
        from repro.circuits import QuantumCircuit

        frozen = QuantumCircuit(3)
        frozen.add("h", 0)
        with pytest.raises(ValueError, match="trainable"):
            VqeEngine(model, frozen, IdealBackend(exact=True))

    def test_adjoint_through_exact_service_executor(self):
        from repro.serving import ExecutionService

        model = transverse_field_ising(3)
        direct = VqeEngine(
            model, hardware_efficient_ansatz(3, seed=2),
            IdealBackend(exact=True), shots=0, steps=2,
            gradient_engine="adjoint",
        )
        with ExecutionService(IdealBackend(exact=True), workers=0) as svc:
            served = VqeEngine(
                model, hardware_efficient_ansatz(3, seed=2),
                svc.executor(), shots=0, steps=2,
                gradient_engine="adjoint",
            )
            served.run()
        direct.run()
        assert [r.energy for r in served.records] == [
            r.energy for r in direct.records
        ]

    def test_adjoint_rejects_sampled_service_executor(self):
        from repro.serving import ExecutionService

        with ExecutionService(
            IdealBackend(exact=False, seed=0), workers=0
        ) as svc:
            with pytest.raises(ValueError, match="exact backend"):
                VqeEngine(
                    transverse_field_ising(3),
                    hardware_efficient_ansatz(3, seed=2),
                    svc.executor(), gradient_engine="adjoint",
                )

    def test_circuits_per_step_accounting(self):
        model = transverse_field_ising(3)
        ansatz = hardware_efficient_ansatz(3, n_layers=1, seed=7)
        backend = IdealBackend(exact=True)
        engine = VqeEngine(model, ansatz, backend, steps=1)
        engine.step()
        assert backend.meter.circuits == engine.circuits_per_step_full()
