"""Structure-grouped batched statevector simulation.

The training loop's hot path is thousands of *structurally identical*
circuits — parameter-shifted clones and re-encoded mini-batch examples
differ only in angles.  ``BatchedStatevector`` stacks ``B`` such states
into one ``(B, 2, ..., 2)`` tensor and replays the structure's compiled
:class:`~repro.sim.compile.ExecutionPlan` over all of them at once.

Numerical contract: every per-circuit slice of the batched evolution
and readout is **bit-identical** to the same circuit run as a batch of
one under the same plan — each slice reduces to the same GEMMs and
reductions in the same order — and agrees with a dense-unitary
reference within 1e-10.  :class:`~repro.sim.statevector.Statevector`
*is* that batch of one: a :class:`BatchOfOne` view of this engine.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.sim import compile as _compile
from repro.sim import measurement as _measurement


class BatchedStatevector:
    """``B`` stacked pure states of ``n_qubits`` qubits.

    Args:
        n_qubits: Qubit count of every state in the stack.
        batch_size: Number of states ``B``.
        data: Optional ``(B, 2^n)`` (or ``(B,) + (2,)*n``) amplitudes;
            defaults to ``B`` copies of ``|0...0>``.
    """

    def __init__(
        self,
        n_qubits: int,
        batch_size: int,
        data: np.ndarray | None = None,
    ):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        if batch_size < 1:
            raise ValueError("need at least one state in the batch")
        self.n_qubits = int(n_qubits)
        self.batch_size = int(batch_size)
        shape = (self.batch_size,) + (2,) * self.n_qubits
        if data is None:
            tensor = np.zeros(shape, dtype=np.complex128)
            tensor[(slice(None),) + (0,) * self.n_qubits] = 1.0
        else:
            data = np.asarray(data, dtype=np.complex128)
            if not np.all(np.isfinite(data)):
                raise ValueError("data has non-finite amplitudes")
            if data.size != self.batch_size * 2**self.n_qubits:
                raise ValueError(
                    f"data has {data.size} amplitudes, expected "
                    f"{self.batch_size} x {2 ** self.n_qubits}"
                )
            tensor = data.reshape(shape).copy()
        self._tensor = tensor
        #: Every row still holds the same fresh state — the promise
        #: that lets a plan replay a sweep from one starting row.
        self._fresh = data is None

    # -- raw views ------------------------------------------------------

    @property
    def tensor(self) -> np.ndarray:
        """Stacked amplitude tensor ``(B,) + (2,)*n`` (read-only view)."""
        return self._tensor

    @property
    def vectors(self) -> np.ndarray:
        """Flat ``(B, 2^n)`` amplitude matrix (copy)."""
        return self._tensor.reshape(self.batch_size, -1).copy()

    # -- evolution ------------------------------------------------------

    def evolve(self, batch, plan=None, matrices=None) -> "BatchedStatevector":
        """Run a :class:`~repro.circuits.batch.CircuitBatch` on the stack.

        Replays the batch structure's compiled :class:`~repro.sim.
        compile.ExecutionPlan`: the plan prepares the parameterized
        gate matrices in one vectorized build per gate type, then runs
        its fused steps over the stack.  A stack still at its default
        ``|0...0>`` rows lets a sweep whose rows share angle prefixes
        replay as a prefix trie; results are bit-identical either way.

        Args:
            batch: The stacked circuits to run.
            plan: Compiled statevector plan for the batch's structure;
                ``None`` compiles one for this call.
            matrices: ``plan.prepare(batch)``, for a caller that hands
                the same prepared stacks on (the adjoint sweep's
                backward pass); ``None`` prepares them in the replay.
        """
        if batch.n_qubits != self.n_qubits:
            raise ValueError(
                f"batch acts on {batch.n_qubits} qubits, states have "
                f"{self.n_qubits}"
            )
        if batch.size != self.batch_size:
            raise ValueError(
                f"batch has {batch.size} circuits, stack has "
                f"{self.batch_size} states"
            )
        if plan is None:
            plan = _compile.compile_circuit(batch, mode="statevector")
        _compile.check_plan(
            plan, "statevector", self.n_qubits, len(batch.templates)
        )
        self._tensor = plan.run(
            self._tensor, batch, fresh=self._fresh, matrices=matrices
        )
        self._fresh = False
        return self

    # -- readout --------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Exact basis-state probabilities, ``(B, 2^n)``."""
        return np.abs(self._tensor.reshape(self.batch_size, -1)) ** 2

    def expectation_z(self) -> np.ndarray:
        """Exact per-qubit ``<Z>`` for every state, ``(B, n)``."""
        # The engine's own (B, 2^n) rows, also under a batch-of-one view.
        return _measurement.expectation_z_from_prob_matrix(
            BatchedStatevector.probabilities(self)
        )

    def sample_counts(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> list[dict[str, int]]:
        """Finite-shot counts per state, one vectorized multinomial draw.

        The RNG stream is consumed row by row in batch order, matching
        ``B`` sequential batch-of-one draws.
        """
        rng = rng if rng is not None else np.random.default_rng()
        return _measurement.sample_counts_batch(
            BatchedStatevector.probabilities(self), shots, rng
        )

    def __repr__(self) -> str:
        return (
            f"BatchedStatevector(B={self.batch_size}, "
            f"n_qubits={self.n_qubits})"
        )


class BatchOfOne:
    """Row-0 readout and one-gate evolution shared by the single-state views.

    Mixed in ahead of a batched engine built with ``batch_size=1``
    (:class:`~repro.sim.statevector.Statevector`,
    :class:`~repro.sim.density.DensityMatrix`): every readout returns
    row 0 of the engine's own result, and every evolution is the
    engine's plan replay, so a view and its batched twin cannot
    disagree.
    """

    def copy(self):
        """Deep copy of the state."""
        return copy.deepcopy(self)

    def apply_gate(self, name: str, wires, *params: float):
        """Apply a named gate in place; returns self (for chaining).

        The gate runs as a validated one-op circuit through the view's
        ``evolve``: plan replay, like every other evolution.
        """
        return self.evolve(one_op_circuit(self.n_qubits, name, wires, params))

    def probabilities(self) -> np.ndarray:
        """Exact basis-state probabilities, flat array of length 2^n."""
        return super().probabilities()[0]

    def expectation_z(self, qubit: int | None = None) -> np.ndarray | float:
        """Exact Pauli-Z expectation(s) ``<Z_k> = P(0) - P(1)``.

        With ``qubit=None``, returns the length-n array of per-qubit
        expectations — the measurement layer of the paper's QNN
        (Fig. 3).
        """
        values = super().expectation_z()[0]
        if qubit is None:
            return values
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        return float(values[qubit])

    def sample_counts(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> dict[str, int]:
        """Sampled computational-basis counts (bitstrings qubit 0 first)."""
        return super().sample_counts(shots, rng)[0]


def one_op_circuit(n_qubits: int, name: str, wires, params=()):
    """A validated :class:`~repro.circuits.QuantumCircuit` of one gate."""
    from repro.circuits import QuantumCircuit

    circuit = QuantumCircuit(n_qubits).add(name, wires, *params)
    circuit.validate()
    return circuit


def run_circuit_batch(batch) -> BatchedStatevector:
    """Evolve ``B`` copies of ``|0...0>`` through a circuit batch."""
    state = BatchedStatevector(batch.n_qubits, batch.size)
    return state.evolve(batch)
