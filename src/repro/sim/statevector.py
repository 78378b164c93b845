"""Exact statevector simulation.

``Statevector`` is the single-state view of the plan-replay engine: a
:class:`~repro.sim.batched.BatchedStatevector` with ``batch_size=1``
whose methods speak in one state's shapes.  Evolution, readout and
sampling all run through the batched engine on its ``(1, 2, ..., 2)``
tensor, so a single state is bit-identical to its row of any batch.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.sim import apply as _apply
from repro.sim import gates as _gates
from repro.sim.batched import BatchedStatevector, BatchOfOne


class Statevector(BatchOfOne, BatchedStatevector):
    """A pure quantum state of ``n_qubits`` qubits.

    ``.tensor`` is the rank-``n`` amplitude tensor; ``.vector`` the
    flattened 2^n amplitude array with qubit 0 as the most-significant
    index bit.
    """

    def __init__(self, n_qubits: int, data: np.ndarray | None = None):
        super().__init__(n_qubits, 1, data)

    # -- construction --------------------------------------------------

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a computational basis state from a bitstring label.

        ``Statevector.from_label("01")`` is ``|01>`` (qubit 0 in 0,
        qubit 1 in 1).
        """
        if not label or set(label) - {"0", "1"}:
            raise ValueError(f"invalid basis label {label!r}")
        data = np.zeros(2 ** len(label), dtype=np.complex128)
        data[int(label, 2)] = 1.0
        return cls(len(label), data)

    # -- raw views ------------------------------------------------------

    @property
    def tensor(self) -> np.ndarray:
        """Rank-n amplitude tensor (a view; treat as read-only)."""
        return self._tensor[0]

    @property
    def vector(self) -> np.ndarray:
        """Flat 2^n amplitude array (copy)."""
        return self.vectors[0]

    def norm(self) -> float:
        """L2 norm of the amplitudes (1 for physical states)."""
        return float(np.sqrt(np.sum(np.abs(self._tensor) ** 2)))

    # -- evolution ------------------------------------------------------

    def apply_gate(
        self, name: str, wires: Sequence[int], *params: float
    ) -> "Statevector":
        """Apply a named gate in place and return self (for chaining)."""
        matrix = _gates.get_gate(name).matrix(*params)
        self._tensor = _apply.apply_matrix_batched(self._tensor, matrix, wires)
        self._fresh = False
        return self

    def evolve(self, circuit, plan=None) -> "Statevector":
        """Run a :class:`repro.circuits.QuantumCircuit` on this state.

        The circuit runs as a one-row :class:`~repro.circuits.batch.
        CircuitBatch` through :meth:`BatchedStatevector.evolve`.

        Args:
            circuit: The circuit to run.
            plan: Compiled statevector plan for the circuit's structure;
                ``None`` compiles one for this call.
        """
        from repro.circuits.batch import CircuitBatch

        return super().evolve(CircuitBatch([circuit]), plan)

    # -- readout --------------------------------------------------------

    def marginal_probability(self, qubit: int) -> float:
        """P(qubit measured as |1>)."""
        return (1.0 - self.expectation_z(qubit)) / 2.0

    def expectation_pauli(self, word: str) -> float:
        """Exact expectation of an n-qubit Pauli word (e.g. ``"ZIZI"``)."""
        if len(word) != self.n_qubits:
            raise ValueError(
                f"Pauli word length {len(word)} != {self.n_qubits} qubits"
            )
        ket = self._tensor
        for wire, char in enumerate(word.upper()):
            if char not in _gates.PAULIS:
                raise ValueError(
                    f"unknown Pauli letter {char!r} in word {word!r}"
                )
            if char != "I":
                ket = _apply.apply_matrix_batched(
                    ket, _gates.PAULIS[char], [wire]
                )
        return float(np.real(np.vdot(self._tensor, ket)))

    def fidelity(self, other: "Statevector") -> float:
        """|<self|other>|^2."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        return float(np.abs(np.vdot(self._tensor, other._tensor)) ** 2)

    def __repr__(self) -> str:
        return f"Statevector(n_qubits={self.n_qubits})"


def run_statevector(circuit, initial: Statevector | None = None) -> Statevector:
    """Evolve ``|0...0>`` (or ``initial``) through a circuit."""
    state = (
        initial.copy() if initial is not None else Statevector(circuit.n_qubits)
    )
    return state.evolve(circuit)
