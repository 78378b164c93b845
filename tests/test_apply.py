"""Single-state evolution and plan steps against the dense oracle.

``Statevector.apply_gate`` and ``DensityMatrix.apply_gate`` /
``apply_channel`` replay one-op compiled plans; the specialized plan
steps (diagonal, permutation) replay on random stacks.  Every result is
checked against ``tests/dense_reference.py``, which builds full
matrices from the gate registry and shares no code with the plans.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitBatch, QuantumCircuit
from repro.noise.channels import (
    amplitude_damping,
    depolarizing,
    thermal_relaxation,
)
from repro.sim import (
    BatchedDensityMatrix,
    BatchedStatevector,
    DensityMatrix,
    Statevector,
    compile_circuit,
)
from repro.sim import apply as ap
from repro.sim import gates

import dense_reference as ref


def random_vector(n_qubits: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return vec / np.linalg.norm(vec)


def random_matrix(n_qubits: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho)


def dense_channel(kraus_ops, wires, n_qubits, rho) -> np.ndarray:
    """``sum_k E_k rho E_k^dagger`` with each Kraus operator embedded."""
    out = np.zeros_like(rho)
    for kraus in kraus_ops:
        full = ref.embed(np.asarray(kraus, np.complex128), wires, n_qubits)
        out += full @ rho @ full.conj().T
    return out


class TestApplyMatrix:
    """``Statevector.apply_gate`` on random states."""

    def test_single_qubit_matches_full_matrix(self):
        vec = random_vector(3)
        out = Statevector(3, vec).apply_gate("h", [1]).vector
        expected = ref.embed(gates.H, [1], 3) @ vec
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_two_qubit_adjacent_matches_full_matrix(self):
        vec = random_vector(3)
        out = Statevector(3, vec).apply_gate("cx", [0, 1]).vector
        expected = ref.embed(gates.CX, [0, 1], 3) @ vec
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_two_qubit_reversed_wires(self):
        """CX with control=1, target=0 differs from control=0, target=1."""
        vec = random_vector(2, seed=3)
        out_01 = Statevector(2, vec).apply_gate("cx", [0, 1]).vector
        out_10 = Statevector(2, vec).apply_gate("cx", [1, 0]).vector
        assert not np.allclose(out_01, out_10)
        assert np.allclose(
            out_10, ref.embed(gates.CX, [1, 0], 2) @ vec, rtol=0, atol=1e-12
        )
        # Explicit check: |01> with control=wire1 flips wire 0 -> |11>.
        flipped = Statevector.from_label("01").apply_gate("cx", [1, 0])
        assert np.isclose(abs(flipped.tensor[1, 1]), 1.0)

    def test_norm_preserved(self):
        state = Statevector(4, random_vector(4, seed=7))
        state.apply_gate("rzz", [0, 3], 1.3)
        assert np.isclose(state.norm(), 1.0)
        expected = ref.embed(gates.rzz(1.3), [0, 3], 4) @ random_vector(4, 7)
        assert np.allclose(state.vector, expected, rtol=0, atol=1e-12)

    def test_duplicate_wires_rejected(self):
        with pytest.raises(ValueError, match="repeats a wire"):
            Statevector(2).apply_gate("cx", [1, 1])

    def test_wire_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Statevector(2).apply_gate("h", [2])

    def test_matrix_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="needs 2 wires"):
            Statevector(2).apply_gate("cx", [0])

    @given(wire=st.integers(min_value=0, max_value=3), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_inverse_round_trip(self, wire, seed):
        vec = random_vector(4, seed=seed)
        state = Statevector(4, vec).apply_gate("ry", [wire], 0.7)
        state.apply_gate("ry", [wire], -0.7)
        assert np.allclose(state.vector, vec, rtol=0, atol=1e-12)


class TestDensityApply:
    """``DensityMatrix.apply_gate`` / ``apply_channel`` on random states."""

    def test_unitary_conjugation_matches_dense(self):
        rho = random_matrix(2, seed=1)
        out = DensityMatrix(2, rho).apply_gate("h", [0]).matrix
        dense = ref.embed(gates.H, [0], 2)
        expected = dense @ rho @ dense.conj().T
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_two_qubit_conjugation_matches_dense(self):
        rho = random_matrix(3, seed=2)
        out = DensityMatrix(3, rho).apply_gate("rxx", [1, 2], 0.9).matrix
        dense = ref.embed(gates.rxx(0.9), [1, 2], 3)
        expected = dense @ rho @ dense.conj().T
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_trace_preserved_by_unitary(self):
        rho = DensityMatrix(3, random_matrix(3, seed=3))
        assert np.isclose(rho.apply_gate("rzz", [0, 2], 0.5).trace(), 1.0)

    def test_kraus_channel_preserves_trace(self):
        rho = DensityMatrix(2, random_matrix(2, seed=4))
        rho.apply_channel(depolarizing(0.3), [1])
        assert np.isclose(rho.trace(), 1.0)

    @pytest.mark.parametrize("wire", [0, 2])
    @pytest.mark.parametrize(
        "kraus",
        [
            amplitude_damping(0.25),
            depolarizing(0.3),
            thermal_relaxation(300e-9, 50e-6, 40e-6),
        ],
        ids=["amplitude_damping", "depolarizing", "thermal_relaxation"],
    )
    def test_channel_matches_dense(self, kraus, wire):
        rho = random_matrix(3, seed=6)
        out = DensityMatrix(3, rho).apply_channel(kraus, [wire]).matrix
        expected = dense_channel(kraus, [wire], 3, rho)
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DensityMatrix(1).apply_channel([], [0])

    def test_multi_wire_channel_rejected(self):
        with pytest.raises(ValueError, match="single-wire channels only"):
            DensityMatrix(2).apply_channel(depolarizing(0.1, 2), [0, 1])


class TestSuperop:
    def test_kraus_to_superop_identity(self):
        superop = ap.kraus_to_superop([np.eye(2, dtype=complex)])
        assert np.allclose(superop, np.eye(4))

    def test_superop_matches_kraus_application(self):
        kraus = amplitude_damping(0.25)
        rho = random_matrix(3, seed=5)
        superop = ap.kraus_to_superop(kraus)
        # S acts on the row-major (ket, bra) pair of wire 1: axes 2 and 5.
        via_superop = ap.matmul_on_axes(
            rho.reshape((1,) + (2,) * 6), superop, [2, 5]
        )
        expected = dense_channel(kraus, [1], 3, rho)
        assert np.allclose(
            via_superop.reshape(8, 8), expected, rtol=0, atol=1e-12
        )


class TestExpandMatrix:
    """The dense oracle's gate embedding, which the plans are checked
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
    """Diagonal / permutation plan steps match dense matrix products.

    Each case compiles a circuit whose plan is a single ``diag`` or
    ``permutation`` step and replays it on random states.
    """

    def _random_states(self, n_qubits, batch, seed=0):
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(batch, 2**n_qubits)) + 1j * rng.normal(
            size=(batch, 2**n_qubits)
        )
        return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)

    def _plan_replay(self, states, circuits, kind):
        """Replay ``circuits``' statevector plan, one step of ``kind``."""
        batch = CircuitBatch(circuits)
        plan = compile_circuit(batch, mode="statevector")
        assert plan.step_counts() == {kind: 1}
        return BatchedStatevector(
            batch.n_qubits, len(states), data=states
        ).evolve(batch, plan=plan).vectors

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
        for row, circuit, state in zip(out, circuits, states):
            expected = ref.unitary(circuit) @ state
            assert np.allclose(row, expected, rtol=0, atol=1e-12)

    def test_diag_shared_batchwide(self):
        states = self._random_states(2, 3)
        out = self._plan_replay(
            states, [QuantumCircuit(2).add("cz", (0, 1))] * 3, "diag"
        )
        expected = states @ ref.embed(gates.CZ, (0, 1), 2).T
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "name,wires", [("x", (1,)), ("cx", (0, 2)), ("cx", (2, 0)), ("swap", (1, 2))]
    )
    def test_permutation_matches_matmul(self, name, wires):
        # Products with a 0/1 matrix are exact, so the take must match
        # them bit for bit.
        states = self._random_states(3, 4)
        out = self._plan_replay(
            states, [QuantumCircuit(3).add(name, wires)] * 4, "permutation"
        )
        full = ref.embed(gates.GATES[name].matrix(), wires, 3)
        assert np.array_equal(out, states @ full.T)

    def _density_plan_replay(self, circuits):
        """Replay ``circuits``' compiled density plan on random states.

        Returns the input matrices, the evolved matrices and the plan.
        """
        rhos = np.stack([random_matrix(2, seed=s) for s in range(3)])
        batch = CircuitBatch(circuits)
        plan = compile_circuit(batch, mode="density")
        out = BatchedDensityMatrix(2, 3, data=rhos).evolve(batch, plan=plan)
        return rhos, out.matrices, plan

    def test_diag_density_matches_conjugation(self):
        # The density plan's diagonal step: per-row RZZ phases.
        angles = [0.3, -1.1, 2.0]
        circuits = [QuantumCircuit(2).add("rzz", (0, 1), a) for a in angles]
        rhos, out, plan = self._density_plan_replay(circuits)
        assert plan.step_counts() == {"diag": 1}
        for row, circuit, rho in zip(out, circuits, rhos):
            full = ref.unitary(circuit)
            expected = full @ rho @ full.conj().T
            assert np.allclose(row, expected, rtol=0, atol=1e-12)

    def test_permutation_density_matches_conjugation(self):
        # The density plan's permutation step: an index take on both
        # the ket and the bra axes.
        rhos, out, plan = self._density_plan_replay(
            [QuantumCircuit(2).add("cx", (0, 1)) for _ in range(3)]
        )
        assert plan.step_counts() == {"permutation": 1}
        full = ref.embed(gates.CX, (0, 1), 2)
        assert np.array_equal(out, full @ rhos @ full.T)

    def test_expand_matrix_matches_column_construction(self):
        # The dense oracle's embedding agrees with a one-op plan replayed
        # on every basis column at once (the identity as a batch of
        # states).
        wires, n_qubits = [2, 0], 3
        dim = 2**n_qubits
        circuit = QuantumCircuit(n_qubits).add("rzx", wires, 0.7)
        batch = CircuitBatch([circuit] * dim)
        columns = BatchedStatevector(
            n_qubits, dim, data=np.eye(dim, dtype=np.complex128)
        ).evolve(batch)
        expanded = ref.embed(gates.rzx(0.7), wires, n_qubits)
        assert np.array_equal(expanded, columns.vectors.T)
