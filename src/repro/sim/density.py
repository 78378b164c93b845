"""Density-matrix simulation with Kraus-channel noise.

The noisy-hardware substrate executes circuits by exact channel evolution of
the density matrix: every unitary is followed by the noise channels the
device's :class:`repro.noise.NoiseModel` attaches to it, precomposed into
the circuit's compiled plan (see :mod:`repro.sim.compile`).  For the paper's
4-qubit QNNs the density matrix is 16x16, so exact evolution is cheap and —
given a seed for the shot sampler — fully reproducible.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.sim import apply as _apply
from repro.sim import compile as _compile
from repro.sim import gates as _gates


class DensityMatrix:
    """Mixed state of ``n_qubits`` qubits stored as a ``(2,)*2n`` tensor."""

    def __init__(self, n_qubits: int, data: np.ndarray | None = None):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = int(n_qubits)
        dim = 2**self.n_qubits
        if data is None:
            matrix = np.zeros((dim, dim), dtype=np.complex128)
            matrix[0, 0] = 1.0
        else:
            matrix = np.asarray(data, dtype=np.complex128)
            if matrix.shape != (dim, dim):
                raise ValueError(
                    f"data shape {matrix.shape}, expected {(dim, dim)}"
                )
            matrix = matrix.copy()
        self._tensor = matrix.reshape((2,) * (2 * self.n_qubits))

    @classmethod
    def from_statevector(cls, state) -> "DensityMatrix":
        """Build the pure-state density matrix |psi><psi|."""
        vec = state.vector
        return cls(state.n_qubits, np.outer(vec, vec.conj()))

    def copy(self) -> "DensityMatrix":
        """Deep copy of the state."""
        out = DensityMatrix(self.n_qubits)
        out._tensor = self._tensor.copy()
        return out

    # -- raw views ------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The (2^n, 2^n) density matrix (copy)."""
        dim = 2**self.n_qubits
        return self._tensor.reshape(dim, dim).copy()

    def trace(self) -> float:
        """Tr(rho); 1 for normalized states."""
        dim = 2**self.n_qubits
        return float(np.real(np.trace(self._tensor.reshape(dim, dim))))

    def purity(self) -> float:
        """Tr(rho^2); 1 for pure states, 1/2^n for the maximally mixed."""
        dim = 2**self.n_qubits
        rho = self._tensor.reshape(dim, dim)
        return float(np.real(np.trace(rho @ rho)))

    # -- evolution ------------------------------------------------------

    def apply_gate(
        self, name: str, wires: Sequence[int], *params: float
    ) -> "DensityMatrix":
        """Apply a named unitary gate in place; returns self."""
        spec = _gates.get_gate(name)
        matrix = spec.matrix(*params)
        self._tensor = _apply.apply_matrix_to_density(
            self._tensor, matrix, wires
        )
        return self

    def apply_channel(
        self, kraus_ops: Sequence[np.ndarray], wires: Sequence[int]
    ) -> "DensityMatrix":
        """Apply a Kraus channel in place; returns self."""
        self._tensor = _apply.apply_kraus_to_density(
            self._tensor, kraus_ops, wires
        )
        return self

    def evolve(self, circuit, noise_model=None, plan=None) -> "DensityMatrix":
        """Run a circuit, optionally interleaving a noise model.

        The state replays the circuit's compiled density
        :class:`~repro.sim.compile.ExecutionPlan` as a batch of one, so
        the result is bit-identical to the circuit's row of any
        :class:`~repro.sim.batched_density.BatchedDensityMatrix`
        evolution under the same plan.

        Args:
            circuit: a :class:`repro.circuits.QuantumCircuit`.
            noise_model: optional :class:`repro.noise.NoiseModel` (or any
                object with ``channels_for``), compiled into the plan
                when ``plan`` is ``None``.
            plan: compiled density plan for the circuit's structure.  Its
                channel steps are baked in at compile time, so
                ``noise_model`` is ignored when a plan is given; ``None``
                compiles one (with ``noise_model``) for this call.
        """
        if circuit.n_qubits != self.n_qubits:
            raise ValueError(
                f"circuit acts on {circuit.n_qubits} qubits, state has "
                f"{self.n_qubits}"
            )
        if plan is None:
            plan = _compile.compile_circuit(
                circuit, mode="density", noise_model=noise_model
            )
        _compile.check_plan(
            plan, "density", self.n_qubits, len(circuit.templates)
        )
        params = _compile.SingleCircuitParams(circuit)
        self._tensor = plan.run(self._tensor[np.newaxis], params)[0]
        return self

    # -- readout --------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Diagonal of rho: basis-state probabilities (length 2^n)."""
        dim = 2**self.n_qubits
        probs = np.real(np.diag(self._tensor.reshape(dim, dim))).copy()
        probs[probs < 0] = 0.0  # numerical floor
        total = probs.sum()
        if total <= 0:
            raise ValueError("density matrix has vanished trace")
        return probs / total

    def expectation_z(self, qubit: int | None = None) -> np.ndarray | float:
        """Exact per-qubit Pauli-Z expectation(s) under this mixed state."""
        probs = self.probabilities().reshape((2,) * self.n_qubits)
        if qubit is not None:
            axes = tuple(a for a in range(self.n_qubits) if a != qubit)
            marginal = probs.sum(axis=axes)
            return float(marginal[0] - marginal[1])
        out = np.empty(self.n_qubits, dtype=np.float64)
        for k in range(self.n_qubits):
            axes = tuple(a for a in range(self.n_qubits) if a != k)
            marginal = probs.sum(axis=axes)
            out[k] = marginal[0] - marginal[1]
        return out

    def sample_counts(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> dict[str, int]:
        """Sample computational-basis outcomes from the diagonal."""
        if shots < 1:
            raise ValueError("shots must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        probs = self.probabilities()
        outcomes = rng.multinomial(shots, probs)
        counts: dict[str, int] = {}
        for index in np.nonzero(outcomes)[0]:
            bits = format(index, f"0{self.n_qubits}b")
            counts[bits] = int(outcomes[index])
        return counts

    def __repr__(self) -> str:
        return f"DensityMatrix(n_qubits={self.n_qubits})"
