"""Exact statevector simulation.

``Statevector`` is the single-state view of the plan-replay engine: it
evolves a ``(2,)*n`` complex tensor through a circuit's compiled plan as
a batch of one, and exposes exact probabilities, Pauli-Z expectations,
and finite-shot sampling.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.sim import apply as _apply
from repro.sim import compile as _compile
from repro.sim import gates as _gates
from repro.sim import measurement as _measurement


class Statevector:
    """A pure quantum state of ``n_qubits`` qubits.

    The amplitudes are stored as a rank-``n`` tensor; ``.vector`` exposes
    the flattened 2^n amplitude array with qubit 0 as the most-significant
    index bit.
    """

    def __init__(self, n_qubits: int, data: np.ndarray | None = None):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = int(n_qubits)
        if data is None:
            tensor = np.zeros((2,) * self.n_qubits, dtype=np.complex128)
            tensor[(0,) * self.n_qubits] = 1.0
        else:
            data = np.asarray(data, dtype=np.complex128)
            if data.size != 2**self.n_qubits:
                raise ValueError(
                    f"data has {data.size} amplitudes, expected "
                    f"{2 ** self.n_qubits}"
                )
            tensor = data.reshape((2,) * self.n_qubits).copy()
        self._tensor = tensor

    # -- construction --------------------------------------------------

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a computational basis state from a bitstring label.

        ``Statevector.from_label("01")`` is ``|01>`` (qubit 0 in 0,
        qubit 1 in 1).
        """
        if not label or set(label) - {"0", "1"}:
            raise ValueError(f"invalid basis label {label!r}")
        state = cls(len(label))
        state._tensor[(0,) * len(label)] = 0.0
        state._tensor[tuple(int(ch) for ch in label)] = 1.0
        return state

    def copy(self) -> "Statevector":
        """Deep copy of the state."""
        out = Statevector(self.n_qubits)
        out._tensor = self._tensor.copy()
        return out

    # -- raw views ------------------------------------------------------

    @property
    def tensor(self) -> np.ndarray:
        """Rank-n amplitude tensor (a view; treat as read-only)."""
        return self._tensor

    @property
    def vector(self) -> np.ndarray:
        """Flat 2^n amplitude array (copy)."""
        return self._tensor.reshape(-1).copy()

    def norm(self) -> float:
        """L2 norm of the amplitudes (1 for physical states)."""
        return float(np.sqrt(np.sum(np.abs(self._tensor) ** 2)))

    # -- evolution ------------------------------------------------------

    def apply_gate(
        self, name: str, wires: Sequence[int], *params: float
    ) -> "Statevector":
        """Apply a named gate in place and return self (for chaining)."""
        spec = _gates.get_gate(name)
        matrix = spec.matrix(*params)
        self._tensor = _apply.apply_matrix(self._tensor, matrix, wires)
        return self

    def evolve(self, circuit, plan=None) -> "Statevector":
        """Run a :class:`repro.circuits.QuantumCircuit` on this state.

        The state replays the circuit's compiled :class:`~repro.sim.
        compile.ExecutionPlan` as a batch of one, so the result is
        bit-identical to the circuit's row of any
        :class:`~repro.sim.batched.BatchedStatevector` evolution under
        the same plan.

        Args:
            circuit: The circuit to run.
            plan: Compiled statevector plan for the circuit's structure;
                ``None`` compiles one for this call.
        """
        if circuit.n_qubits != self.n_qubits:
            raise ValueError(
                f"circuit acts on {circuit.n_qubits} qubits, state has "
                f"{self.n_qubits}"
            )
        if plan is None:
            plan = _compile.compile_circuit(circuit, mode="statevector")
        _compile.check_plan(
            plan, "statevector", self.n_qubits, len(circuit.templates)
        )
        params = _compile.SingleCircuitParams(circuit)
        self._tensor = plan.run(self._tensor[np.newaxis], params)[0]
        return self

    # -- readout --------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Exact basis-state probabilities, flat array of length 2^n."""
        return np.abs(self._tensor.reshape(-1)) ** 2

    def marginal_probability(self, qubit: int) -> float:
        """P(qubit measured as |1>)."""
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        probs = np.abs(self._tensor) ** 2
        axes = tuple(a for a in range(self.n_qubits) if a != qubit)
        marginal = probs.sum(axis=axes)
        return float(marginal[1])

    def expectation_z(self, qubit: int | None = None) -> np.ndarray | float:
        """Exact Pauli-Z expectation(s).

        With ``qubit=None``, returns the length-n array of per-qubit
        expectations ``<Z_k> = P(0) - P(1)`` — the measurement layer of
        the paper's QNN (Fig. 3).
        """
        if qubit is not None:
            return 1.0 - 2.0 * self.marginal_probability(qubit)
        probs = np.abs(self._tensor.reshape(1, -1)) ** 2
        return _measurement.expectation_z_from_prob_matrix(probs)[0]

    def expectation_pauli(self, word: str) -> float:
        """Exact expectation of an n-qubit Pauli word (e.g. ``"ZIZI"``)."""
        if len(word) != self.n_qubits:
            raise ValueError(
                f"Pauli word length {len(word)} != {self.n_qubits} qubits"
            )
        bra = self._tensor
        ket = self._tensor
        for wire, char in enumerate(word):
            if char.upper() == "I":
                continue
            ket = _apply.apply_matrix(
                ket, _gates.PAULIS[char.upper()], [wire]
            )
        return float(np.real(np.vdot(bra, ket)))

    def sample_counts(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> dict[str, int]:
        """Sample measurement outcomes in the computational basis.

        Returns:
            Mapping of bitstring (qubit 0 first) to observed count.
        """
        if shots < 1:
            raise ValueError("shots must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        probs = self.probabilities()
        probs = probs / probs.sum()
        outcomes = rng.multinomial(shots, probs)
        counts: dict[str, int] = {}
        for index in np.nonzero(outcomes)[0]:
            bits = format(index, f"0{self.n_qubits}b")
            counts[bits] = int(outcomes[index])
        return counts

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
