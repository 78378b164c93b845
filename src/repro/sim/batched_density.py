"""Structure-grouped batched density-matrix simulation.

The noisy device emulator's hot path is the same as the ideal one's:
thousands of *structurally identical* circuits — parameter-shifted
clones and re-encoded mini-batch examples — that differ only in
angles.  ``BatchedDensityMatrix`` stacks ``B`` such
mixed states into one ``(B, 2, ..., 2, 2, ..., 2)`` tensor (ket axes
first, then bra axes) and replays the structure's compiled density
plan — gates and noise channels together — over all of them at once.

Numerical contract: every per-circuit slice of the batched evolution
and readout is **bit-identical** to the same circuit run as a batch of
one under the same plan, and agrees with a dense-superoperator
reference within 1e-10.  :class:`~repro.sim.density.DensityMatrix`
*is* that batch of one: a :class:`~repro.sim.batched.BatchOfOne` view
of this engine.
"""

from __future__ import annotations

import numpy as np

from repro.sim import compile as _compile
from repro.sim import measurement as _measurement


class BatchedDensityMatrix:
    """``B`` stacked mixed states of ``n_qubits`` qubits.

    Args:
        n_qubits: Qubit count of every state in the stack.
        batch_size: Number of states ``B``.
        data: Optional ``(B, 2^n, 2^n)`` density matrices; defaults to
            ``B`` copies of ``|0...0><0...0|``.
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
        dim = 2**self.n_qubits
        shape = (self.batch_size,) + (2,) * (2 * self.n_qubits)
        if data is None:
            tensor = np.zeros(shape, dtype=np.complex128)
            tensor[(slice(None),) + (0,) * (2 * self.n_qubits)] = 1.0
        else:
            data = np.asarray(data, dtype=np.complex128)
            if not np.all(np.isfinite(data)):
                raise ValueError("data has non-finite entries")
            if data.shape != (self.batch_size, dim, dim):
                raise ValueError(
                    f"data shape {data.shape}, expected "
                    f"{(self.batch_size, dim, dim)}"
                )
            tensor = data.reshape(shape).copy()
        self._tensor = tensor
        #: Every row still holds the same fresh state — the promise
        #: that lets a plan replay a sweep from one starting row.
        self._fresh = data is None

    # -- raw views ------------------------------------------------------

    @property
    def tensor(self) -> np.ndarray:
        """Stacked density tensor ``(B,) + (2,)*2n`` (read-only view)."""
        return self._tensor

    @property
    def matrices(self) -> np.ndarray:
        """Flat ``(B, 2^n, 2^n)`` density matrices (copy)."""
        dim = 2**self.n_qubits
        return self._tensor.reshape(self.batch_size, dim, dim).copy()

    def trace(self) -> np.ndarray:
        """Per-state ``Tr(rho)``, shape ``(B,)``; 1 for normalized states."""
        dim = 2**self.n_qubits
        flat = self._tensor.reshape(self.batch_size, dim, dim)
        return np.real(np.trace(flat, axis1=1, axis2=2))

    def purity(self) -> np.ndarray:
        """Per-state ``Tr(rho^2)``, shape ``(B,)``."""
        dim = 2**self.n_qubits
        flat = self._tensor.reshape(self.batch_size, dim, dim)
        return np.real(
            np.einsum("bij,bji->b", flat, flat)
        )

    # -- evolution ------------------------------------------------------

    def evolve(
        self, batch, noise_model=None, plan=None
    ) -> "BatchedDensityMatrix":
        """Run a :class:`~repro.circuits.batch.CircuitBatch` on the stack.

        Replays the batch structure's compiled density :class:`~repro.
        sim.compile.ExecutionPlan`, whose steps interleave the gates
        with the noise model's channels (precomposed per-wire
        superoperators, or generic Kraus steps for models without the
        ``superop_for`` fast path).  A stack still at its default
        ``|0...0><0...0|`` rows lets a sweep whose rows share angle
        prefixes replay as a prefix trie; results are bit-identical
        either way.

        Args:
            batch: The stacked circuits to run.
            noise_model: Optional noise model, compiled into the plan
                when ``plan`` is ``None``.
            plan: Compiled density plan for the batch's structure,
                built against the *same* noise model (``noise_model``
                is ignored when a plan is given); ``None`` compiles one
                for this call.
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
            plan = _compile.compile_circuit(
                batch, mode="density", noise_model=noise_model
            )
        _compile.check_plan(
            plan, "density", self.n_qubits, len(batch.templates)
        )
        self._tensor = plan.run(self._tensor, batch, fresh=self._fresh)
        self._fresh = False
        return self

    # -- readout --------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Per-state diagonal of rho: ``(B, 2^n)`` basis probabilities."""
        dim = 2**self.n_qubits
        flat = self._tensor.reshape(self.batch_size, dim, dim)
        probs = np.real(
            np.diagonal(flat, axis1=1, axis2=2)
        ).copy()
        probs[probs < 0] = 0.0  # numerical floor
        totals = probs.sum(axis=1, keepdims=True)
        if np.any(totals <= 0):
            raise ValueError("density matrix has vanished trace")
        return probs / totals

    def expectation_z(self) -> np.ndarray:
        """Exact per-qubit ``<Z>`` for every state, ``(B, n)``."""
        # The engine's own (B, 2^n) rows, also under a batch-of-one view.
        return _measurement.expectation_z_from_prob_matrix(
            BatchedDensityMatrix.probabilities(self)
        )

    def sample_counts(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> list[dict[str, int]]:
        """Finite-shot counts per state, one vectorized multinomial draw.

        The RNG stream is consumed row by row in batch order, matching
        ``B`` sequential batch-of-one draws — the same contract
        :meth:`~repro.sim.batched.BatchedStatevector.sample_counts`
        documents.
        """
        rng = rng if rng is not None else np.random.default_rng()
        return _measurement.sample_counts_batch(
            BatchedDensityMatrix.probabilities(self), shots, rng
        )

    def __repr__(self) -> str:
        return (
            f"BatchedDensityMatrix(B={self.batch_size}, "
            f"n_qubits={self.n_qubits})"
        )


def run_density_batch(batch, noise_model=None) -> BatchedDensityMatrix:
    """Evolve ``B`` copies of ``|0...0><0...0|`` through a circuit batch."""
    state = BatchedDensityMatrix(batch.n_qubits, batch.size)
    return state.evolve(batch, noise_model=noise_model)
