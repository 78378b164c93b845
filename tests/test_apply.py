"""Tests for the batched gate-application kernels.

A single state is a batch of one: the kernels are exercised on
``(1,) + (2,) * n`` tensors against dense matrices and
``tests/dense_reference.py``, and on larger stacks against each other.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitBatch, QuantumCircuit
from repro.sim import (
    BatchedDensityMatrix,
    BatchedStatevector,
    compile_circuit,
)
from repro.sim import apply as ap
from repro.sim import gates

import dense_reference as ref


def random_state(n_qubits: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    vec /= np.linalg.norm(vec)
    return vec.reshape((1,) + (2,) * n_qubits)


def random_density(n_qubits: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    rho /= np.trace(rho)
    return rho.reshape((1,) + (2,) * (2 * n_qubits))


class TestApplyMatrix:
    def test_single_qubit_matches_full_matrix(self):
        state = random_state(3)
        out = ap.apply_matrix_batched(state, gates.H, [1])
        full = np.kron(np.kron(gates.I2, gates.H), gates.I2)
        expected = (full @ state.reshape(-1)).reshape(state.shape)
        assert np.allclose(out, expected)

    def test_two_qubit_adjacent_matches_full_matrix(self):
        state = random_state(3)
        out = ap.apply_matrix_batched(state, gates.CX, [0, 1])
        full = np.kron(gates.CX, gates.I2)
        expected = (full @ state.reshape(-1)).reshape(state.shape)
        assert np.allclose(out, expected)

    def test_two_qubit_reversed_wires(self):
        """CX with control=1, target=0 differs from control=0, target=1."""
        state = random_state(2, seed=3)
        out_01 = ap.apply_matrix_batched(state, gates.CX, [0, 1])
        out_10 = ap.apply_matrix_batched(state, gates.CX, [1, 0])
        assert not np.allclose(out_01, out_10)
        # Explicit check: |01> with control=wire1 flips wire 0 -> |11>.
        basis = np.zeros((1, 2, 2), dtype=complex)
        basis[0, 0, 1] = 1.0
        flipped = ap.apply_matrix_batched(basis, gates.CX, [1, 0])
        assert np.isclose(abs(flipped[0, 1, 1]), 1.0)

    def test_norm_preserved(self):
        state = random_state(4, seed=7)
        out = ap.apply_matrix_batched(state, gates.rzz(1.3), [0, 3])
        assert np.isclose(np.linalg.norm(out), 1.0)

    def test_duplicate_wires_rejected(self):
        state = random_state(2)
        with pytest.raises(ValueError, match="duplicate"):
            ap.apply_matrix_batched(state, gates.CX, [1, 1])

    def test_wire_out_of_range_rejected(self):
        state = random_state(2)
        with pytest.raises(ValueError, match="out of range"):
            ap.apply_matrix_batched(state, gates.H, [2])

    def test_matrix_shape_mismatch_rejected(self):
        state = random_state(2)
        with pytest.raises(ValueError, match="does not match"):
            ap.apply_matrix_batched(state, gates.CX, [0])

    @given(wire=st.integers(min_value=0, max_value=3), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_inverse_round_trip(self, wire, seed):
        state = random_state(4, seed=seed)
        matrix = gates.ry(0.7)
        forward = ap.apply_matrix_batched(state, matrix, [wire])
        back = ap.apply_matrix_batched(forward, matrix.conj().T, [wire])
        assert np.allclose(back, state, atol=1e-12)


class TestDensityApply:
    def test_unitary_conjugation_matches_dense(self):
        rho = random_density(2, seed=1)
        out = ap.apply_matrix_to_density_batched(rho, gates.H, [0])
        dense = np.kron(gates.H, gates.I2)
        expected = dense @ rho.reshape(4, 4) @ dense.conj().T
        assert np.allclose(out.reshape(4, 4), expected)

    def test_two_qubit_conjugation_matches_dense(self):
        rho = random_density(3, seed=2)
        matrix = gates.rxx(0.9)
        out = ap.apply_matrix_to_density_batched(rho, matrix, [1, 2])
        dense = np.kron(gates.I2, matrix)
        expected = dense @ rho.reshape(8, 8) @ dense.conj().T
        assert np.allclose(out.reshape(8, 8), expected)

    def test_trace_preserved_by_unitary(self):
        rho = random_density(3, seed=3)
        out = ap.apply_matrix_to_density_batched(rho, gates.rzz(0.5), [0, 2])
        assert np.isclose(np.trace(out.reshape(8, 8)).real, 1.0)

    def test_kraus_channel_preserves_trace(self):
        from repro.noise.channels import depolarizing

        rho = random_density(2, seed=4)
        out = ap.apply_kraus_to_density_batched(rho, depolarizing(0.3), [1])
        assert np.isclose(np.trace(out.reshape(4, 4)).real, 1.0)

    def test_empty_channel_rejected(self):
        rho = random_density(1)
        with pytest.raises(ValueError, match="at least one"):
            ap.apply_kraus_to_density_batched(rho, [], [0])


class TestSuperop:
    def test_kraus_to_superop_identity(self):
        superop = ap.kraus_to_superop([np.eye(2, dtype=complex)])
        assert np.allclose(superop, np.eye(4))

    def test_superop_matches_kraus_application(self):
        from repro.noise.channels import amplitude_damping

        kraus = amplitude_damping(0.25)
        rho = random_density(3, seed=5)
        via_kraus = ap.apply_kraus_to_density_batched(rho, kraus, [1])
        superop = ap.kraus_to_superop(kraus)
        # S acts on the row-major (ket, bra) pair of wire 1: axes 2 and 5.
        via_superop = ap.matmul_on_axes(rho, superop, [2, 5])
        assert np.allclose(via_kraus, via_superop, atol=1e-12)


class TestExpandMatrix:
    """The dense oracle's gate embedding, which the kernels are checked
    against."""

    def test_expand_single_qubit(self):
        expanded = ref.embed(gates.X, [1], 2)
        assert np.allclose(expanded, np.kron(gates.I2, gates.X))

    def test_expand_two_qubit_non_adjacent(self):
        expanded = ref.embed(gates.CZ, [0, 2], 3)
        # CZ is symmetric and diagonal: phase -1 on |1?1>.
        diag = np.diag(expanded)
        expected = np.ones(8)
        expected[0b101] = -1
        expected[0b111] = -1
        assert np.allclose(diag, expected)

    def test_expand_is_unitary(self):
        expanded = ref.embed(gates.rzx(0.4), [2, 0], 3)
        assert gates.is_unitary(expanded)


class TestSpecializedKernels:
    """Diagonal / permutation plan steps match the generic matmul path.

    Each case compiles a circuit whose plan is a single ``diag`` or
    ``permutation`` step and replays it on random states.
    """

    def _random_states(self, n_qubits, batch, seed=0):
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(batch, 2**n_qubits)) + 1j * rng.normal(
            size=(batch, 2**n_qubits)
        )
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        return vecs.reshape((batch,) + (2,) * n_qubits)

    def _plan_replay(self, states, circuits, kind):
        """Replay ``circuits``' statevector plan, one step of ``kind``."""
        batch = CircuitBatch(circuits)
        plan = compile_circuit(batch, mode="statevector")
        assert plan.step_counts() == {kind: 1}
        n_qubits = states.ndim - 1
        return BatchedStatevector(n_qubits, len(states), data=states).evolve(
            batch, plan=plan
        ).tensor

    @pytest.mark.parametrize("wires", [(0,), (2,), (0, 2), (2, 0)])
    def test_diag_matches_matmul(self, wires):
        # Two parameterized diagonal gates per row fuse into one
        # per-row diagonal; CRZ is not wire-symmetric, so (0, 2) and
        # (2, 0) differ.
        states = self._random_states(3, 4)
        rng = np.random.default_rng(1)
        names = ("rz", "phase") if len(wires) == 1 else ("crz", "rzz")
        angles = rng.uniform(-np.pi, np.pi, (4, 2))
        circuits = []
        for row in angles:
            circuit = QuantumCircuit(3)
            for name, angle in zip(names, row):
                circuit.add(name, wires, float(angle))
            circuits.append(circuit)
        out = self._plan_replay(states, circuits, "diag")
        reference = states
        for name, column in zip(names, angles.T):
            reference = ap.apply_matrix_batched(
                reference,
                np.stack([gates.get_gate(name).matrix(a) for a in column]),
                wires,
            )
        assert np.allclose(out, reference, atol=1e-12)

    def test_diag_shared_batchwide(self):
        states = self._random_states(2, 3)
        out = self._plan_replay(
            states, [QuantumCircuit(2).add("cz", (0, 1))] * 3, "diag"
        )
        reference = ap.apply_matrix_batched(states, gates.CZ, (0, 1))
        assert np.allclose(out, reference, atol=1e-12)

    @pytest.mark.parametrize(
        "name,wires", [("x", (1,)), ("cx", (0, 2)), ("cx", (2, 0)), ("swap", (1, 2))]
    )
    def test_permutation_matches_matmul(self, name, wires):
        states = self._random_states(3, 4)
        out = self._plan_replay(
            states, [QuantumCircuit(3).add(name, wires)] * 4, "permutation"
        )
        matrix = gates.GATES[name].matrix()
        reference = ap.apply_matrix_batched(states, matrix, wires)
        assert np.array_equal(out, reference)

    def _density_plan_replay(self, circuits):
        """Replay ``circuits``' compiled density plan on random states.

        Returns the input stack, the evolved stack and the plan.
        """
        rhos = np.stack(
            [random_density(2, seed=s).reshape(4, 4) for s in range(3)]
        )
        batch = CircuitBatch(circuits)
        plan = compile_circuit(batch, mode="density")
        out = BatchedDensityMatrix(2, 3, data=rhos).evolve(batch, plan=plan)
        return rhos.reshape((3,) + (2,) * 4), out.tensor, plan

    def test_diag_density_matches_conjugation(self):
        # The density plan's diagonal step: per-row RZZ phases.
        angles = [0.3, -1.1, 2.0]
        rhos, out, plan = self._density_plan_replay(
            [QuantumCircuit(2).add("rzz", (0, 1), a) for a in angles]
        )
        assert plan.step_counts() == {"diag": 1}
        reference = ap.apply_matrix_to_density_batched(
            rhos, np.stack([gates.rzz(a) for a in angles]), (0, 1)
        )
        assert np.allclose(out, reference, atol=1e-12)

    def test_permutation_density_matches_conjugation(self):
        # The density plan's permutation step: an index take on both
        # the ket and the bra axes.
        rhos, out, plan = self._density_plan_replay(
            [QuantumCircuit(2).add("cx", (0, 1)) for _ in range(3)]
        )
        assert plan.step_counts() == {"permutation": 1}
        reference = ap.apply_matrix_to_density_batched(
            rhos, gates.CX, (0, 1)
        )
        assert np.array_equal(out, reference)

    def test_expand_matrix_matches_column_construction(self):
        # The dense oracle's embedding agrees with the kernel applied to
        # every basis column at once (the identity as a batch of states).
        matrix = gates.rzx(0.7)
        wires, n_qubits = [2, 0], 3
        dim = 2**n_qubits
        basis = np.eye(dim, dtype=np.complex128).reshape(
            (dim,) + (2,) * n_qubits
        )
        columns = ap.apply_matrix_batched(basis, matrix, wires)
        expanded = ref.embed(matrix, wires, n_qubits)
        assert np.array_equal(expanded, columns.reshape(dim, dim).T)
