"""Density-matrix simulation with Kraus-channel noise.

The noisy-hardware substrate executes circuits by exact channel evolution of
the density matrix: every unitary is followed by the noise channels the
device's :class:`repro.noise.NoiseModel` attaches to it, precomposed into
the circuit's compiled plan (see :mod:`repro.sim.compile`).  For the paper's
4-qubit QNNs the density matrix is 16x16, so exact evolution is cheap and —
given a seed for the shot sampler — fully reproducible.

``DensityMatrix`` is the single-state view of that engine: a
:class:`~repro.sim.batched_density.BatchedDensityMatrix` with
``batch_size=1`` whose methods speak in one state's shapes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.sim import apply as _apply
from repro.sim import gates as _gates
from repro.sim.batched import BatchOfOne
from repro.sim.batched_density import BatchedDensityMatrix


class DensityMatrix(BatchOfOne, BatchedDensityMatrix):
    """Mixed state of ``n_qubits`` qubits.

    Args:
        n_qubits: Qubit count.
        data: Optional ``(2^n, 2^n)`` density matrix; defaults to
            ``|0...0><0...0|``.
    """

    def __init__(self, n_qubits: int, data: np.ndarray | None = None):
        if data is not None:
            data = np.asarray(data)[np.newaxis]
        super().__init__(n_qubits, 1, data)

    @classmethod
    def from_statevector(cls, state) -> "DensityMatrix":
        """Build the pure-state density matrix |psi><psi|."""
        vec = state.vector
        return cls(state.n_qubits, np.outer(vec, vec.conj()))

    # -- raw views ------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The (2^n, 2^n) density matrix (copy)."""
        return self.matrices[0]

    def trace(self) -> float:
        """Tr(rho); 1 for normalized states."""
        return float(super().trace()[0])

    def purity(self) -> float:
        """Tr(rho^2); 1 for pure states, 1/2^n for the maximally mixed."""
        return float(super().purity()[0])

    # -- evolution ------------------------------------------------------

    def apply_gate(
        self, name: str, wires: Sequence[int], *params: float
    ) -> "DensityMatrix":
        """Apply a named unitary gate in place; returns self."""
        matrix = _gates.get_gate(name).matrix(*params)
        self._tensor = _apply.apply_matrix_to_density_batched(
            self._tensor, matrix, wires
        )
        self._fresh = False
        return self

    def apply_channel(
        self, kraus_ops: Sequence[np.ndarray], wires: Sequence[int]
    ) -> "DensityMatrix":
        """Apply a Kraus channel in place; returns self."""
        self._tensor = _apply.apply_kraus_to_density_batched(
            self._tensor, kraus_ops, wires
        )
        self._fresh = False
        return self

    def evolve(self, circuit, noise_model=None, plan=None) -> "DensityMatrix":
        """Run a circuit, optionally interleaving a noise model.

        The circuit runs as a one-row :class:`~repro.circuits.batch.
        CircuitBatch` through :meth:`BatchedDensityMatrix.evolve`.

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
        from repro.circuits.batch import CircuitBatch

        return super().evolve(CircuitBatch([circuit]), noise_model, plan)

    def __repr__(self) -> str:
        return f"DensityMatrix(n_qubits={self.n_qubits})"
