"""Backend abstraction: where circuits run and how usage is metered.

The paper's pipeline submits circuits to IBM machines through the qiskit
API ("created, validated, queued, and finally run", Sec. 3.2) and counts
every execution — Fig. 6's x-axis is *#inferences*, i.e. circuits run.
``Backend`` reproduces that contract:

* :meth:`Backend.run` takes circuits and a shot count, returns one
  :class:`ExecutionResult` per circuit — a row view over the run's
  expectation and outcome matrices, its counts dict formatted on first
  access;
* every call is metered by a :class:`CircuitRunMeter`, so experiments can
  report inference budgets exactly like the paper does.

Batched execution
-----------------
Every backend implements one hook, :meth:`Backend._execute_sweep`: it
receives a :class:`~repro.circuits.sweep.Sweep` — one structure
template plus a ``(B, n_columns)`` angle matrix — and returns the rows'
expectations (and sampled outcomes).  :meth:`Backend.run` is the
circuit adapter onto it: it partitions a submission into
same-structure groups via :meth:`QuantumCircuit.structure_signature`
and stacks each group into a :class:`~repro.circuits.CircuitBatch`.
:meth:`Backend.run_sweep` hands callers that already hold a sweep (the
training loop, the gradient engines) to the same hook with no circuit
objects and no counts dicts.

Both simulator backends execute every circuit the same way: each
structure compiles once into a fused :class:`~repro.sim.compile.
ExecutionPlan` — gate fusion, constant folding, diagonal/permutation
kernels, precomposed per-wire noise superoperators — cached per
structure signature in ``backend.plan_cache``, and every group replays
it on a stacked tensor.  ``IdealBackend`` stacks pure states into a
:class:`~repro.sim.batched.BatchedStatevector`; the noisy device
emulator (:class:`~repro.hardware.noisy_backend.NoisyBackend`) stacks
mixed states into a :class:`~repro.sim.batched_density.
BatchedDensityMatrix`, then applies readout batch-wide.  A single
circuit is a batch of one, so a circuit's exact distribution is
bit-identical whichever group it rides in; sampled counts consume the
seeded RNG stream per circuit in group order (identical to one-by-one
submission for single-structure submissions).  See
:mod:`repro.sim.compile`.

Multi-process execution
-----------------------
Both backends are single-process; :mod:`repro.parallel` scales past one
core.  :class:`~repro.parallel.ShardedBackend` is a drop-in ``Backend``
that shards every structure group across a persistent pool of worker
processes, each hosting its own replica of one of the backends above
(rebuilt from a picklable :class:`~repro.parallel.BackendSpec`).  It
meters like every backend here: :meth:`Backend.run` and
:meth:`Backend.run_sweep` record each submission once, on the facade.
"""

from __future__ import annotations

import abc
import dataclasses
import threading
from collections.abc import Sequence

import numpy as np

from repro.circuits.batch import CircuitBatch, group_by_structure
from repro.circuits.sweep import Sweep
from repro.resilience import faults as _faults
from repro.sim import compile as _compile
from repro.sim import measurement as _measurement
from repro.sim.batched import BatchedStatevector


@dataclasses.dataclass
class CircuitRunMeter:
    """Counts circuits and shots executed on a backend.

    Attributes:
        circuits: Total circuits executed (the paper's "#inferences").
        shots: Total shots across all executions.
        by_purpose: Circuit-count breakdown, keyed by the ``purpose`` tag
            the caller passes to :meth:`Backend.run` (e.g. ``"gradient"``
            vs ``"forward"`` vs ``"validation"``).
        shots_by_purpose: Consumed-shot breakdown under the same keys,
            so callers can attribute shot budgets (not just circuit
            counts) to each purpose.

    All mutators and readers synchronize on an internal lock, so a
    monitoring thread snapshotting a meter mid-``record`` (the serving
    router reports per-backend meters while flushes are in flight)
    always sees a consistent multi-field state.
    """

    circuits: int = 0
    shots: int = 0
    by_purpose: dict[str, int] = dataclasses.field(default_factory=dict)
    shots_by_purpose: dict[str, int] = dataclasses.field(
        default_factory=dict
    )
    _lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, n_circuits: int, total_shots: int, purpose: str) -> None:
        """Account for one batch submission.

        Args:
            n_circuits: Circuits executed in the submission.
            total_shots: Shots *actually consumed* across the whole
                submission — 0 for exact-expectation execution, matching
                each result's ``ExecutionResult.shots``.
            purpose: The caller's usage tag.
        """
        with self._lock:
            self.circuits += n_circuits
            self.shots += total_shots
            self.by_purpose[purpose] = (
                self.by_purpose.get(purpose, 0) + n_circuits
            )
            self.shots_by_purpose[purpose] = (
                self.shots_by_purpose.get(purpose, 0) + total_shots
            )

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.circuits = 0
            self.shots = 0
            self.by_purpose.clear()
            self.shots_by_purpose.clear()

    def snapshot(self) -> dict:
        """Detached copy of the counters (the unit :meth:`diff` consumes)."""
        with self._lock:
            return {
                "circuits": self.circuits,
                "shots": self.shots,
                "by_purpose": dict(self.by_purpose),
                "shots_by_purpose": dict(self.shots_by_purpose),
            }

    def diff(self, since: dict) -> dict:
        """Delta between the current counters and an earlier snapshot.

        Lets a caller report per-window usage (e.g. a benchmark's
        circuits per round).  Purposes whose delta is zero are omitted
        from the breakdowns.

        Contract: every delta is **non-negative**.  Counters only grow
        between snapshots, but a :meth:`reset` inside the window makes
        the current counters smaller than the snapshot; rather than
        reporting negative usage (which confused downstream telemetry),
        each field — the totals and each purpose entry — is
        *independently* clamped at zero.  A mid-window reset therefore
        makes the window undercount (post-reset usage is absorbed by
        the clamp until a counter regrows past its snapshot value, and
        totals may disagree with the purpose breakdowns); callers that
        need exact windows must not reset the meter mid-window.

        Args:
            since: A dict previously returned by :meth:`snapshot`.

        Returns:
            A snapshot-shaped dict of ``max(0, current - since)``.
        """
        current = self.snapshot()
        by_purpose = {
            purpose: count - since["by_purpose"].get(purpose, 0)
            for purpose, count in current["by_purpose"].items()
            if count - since["by_purpose"].get(purpose, 0) > 0
        }
        shots_by_purpose = {
            purpose: count - since["shots_by_purpose"].get(purpose, 0)
            for purpose, count in current["shots_by_purpose"].items()
            if count - since["shots_by_purpose"].get(purpose, 0) > 0
        }
        return {
            "circuits": max(0, current["circuits"] - since["circuits"]),
            "shots": max(0, current["shots"] - since["shots"]),
            "by_purpose": by_purpose,
            "shots_by_purpose": shots_by_purpose,
        }


class ExecutionResult:
    """Outcome of running one circuit: a row of its run's result matrices.

    Attributes:
        expectations: Per-qubit Pauli-Z expectation estimates — a row
            view of the run's ``(B, n_qubits)`` matrix.
        shots: Shots used (0 for exact evaluation).
        outcomes: The ``(2^n,)`` row of the run's sampled outcome
            counts, or ``None`` for exact evaluation.
        counts: Bitstring -> count mapping (empty for exact
            evaluation), formatted from ``outcomes`` on first access.
    """

    __slots__ = ("expectations", "shots", "outcomes", "_counts")

    def __init__(
        self,
        expectations: np.ndarray,
        shots: int = 0,
        outcomes: np.ndarray | None = None,
        counts: dict[str, int] | None = None,
    ):
        self.expectations = expectations
        self.shots = shots
        self.outcomes = outcomes
        self._counts = counts

    @property
    def counts(self) -> dict[str, int]:
        if self._counts is None:
            self._counts = (
                {}
                if self.outcomes is None
                else _measurement.outcome_matrix_to_counts(
                    self.outcomes[np.newaxis]
                )[0]
            )
        return self._counts

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(expectations={self.expectations!r}, "
            f"shots={self.shots})"
        )


class RunResults(list):
    """One :class:`ExecutionResult` per circuit, in submission order.

    What :meth:`Backend.run` and the serving tier's jobs return.  A
    single structure group's rows view its result matrices, kept here
    (``None`` for submissions of several groups):

    Attributes:
        expectations: The ``(B, n_qubits)`` matrix the rows view.
        outcomes: The ``(B, 2^n)`` sampled outcome matrix (``None``
            when any row is exact).
        shots: Shots consumed across all rows.
    """

    __slots__ = ("expectations", "outcomes", "shots")

    def __init__(self, rows=(), expectations=None, outcomes=None, shots=0):
        super().__init__(rows)
        self.expectations = expectations
        self.outcomes = outcomes
        self.shots = shots

    def expectation_matrix(self) -> np.ndarray:
        """The ``(B, n_qubits)`` expectations: the group's matrix itself,
        or stacked from the rows of several groups.

        Raises:
            ValueError: The circuits differ in width.
        """
        if self.expectations is not None:
            return self.expectations
        return np.stack([result.expectations for result in self])


def assemble_results(n_rows: int, blocks) -> RunResults:
    """Row views over per-group result matrices, in submission order.

    Args:
        n_rows: Circuits in the submission.
        blocks: ``(positions, expectations, outcomes, shots)`` per
            structure group — the group's submission positions, its
            ``(g, n_qubits)`` and ``(g, 2^n)``-or-``None`` matrices,
            and the shots each row consumed (a scalar, or one per row;
            a row with 0 shots is exact and has no outcome row).
    """
    rows = [None] * n_rows
    for positions, expectations, outcomes, shots in blocks:
        shots = (
            shots.tolist() if isinstance(shots, np.ndarray)
            else [shots] * len(expectations)
        )
        if outcomes is None:
            views = [ExecutionResult(row) for row in expectations]
        else:
            views = [
                ExecutionResult(row, used, outcome if used else None)
                for row, used, outcome in zip(expectations, shots, outcomes)
            ]
        if len(blocks) == 1:
            return RunResults(
                views,
                expectations,
                outcomes if all(shots) else None,
                sum(shots),
            )
        for position, view in zip(positions, views):
            rows[position] = view
    return RunResults(rows, shots=sum(row.shots for row in rows))


class Backend(abc.ABC):
    """Common interface of all execution targets."""

    #: Human-readable backend name.
    name: str = "backend"

    def __init__(self, seed: int | None = None):
        self._rng = np.random.default_rng(seed)
        # The seed itself is kept (not just the Generator) so a
        # BackendSpec can capture this backend for rebuilding inside a
        # worker process — a Generator's stream position cannot cross
        # the process boundary, its originating seed can.
        self._seed = seed
        self.meter = CircuitRunMeter()

    @abc.abstractmethod
    def _execute_sweep(
        self, sweep: Sweep, shots: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Run every row of a sweep — the one execution hook.

        :meth:`run` (circuits or a sweep) and :meth:`run_sweep` both
        land here after validation and the fault site, and meter the
        rows once it returns.

        Returns:
            ``(expectations, outcomes)`` — ``(B, n_qubits)`` per-row Z
            expectations and the ``(B, 2^n)`` sampled outcome matrix,
            or ``None`` for exact execution (no shots drawn).
        """

    def _run_group(
        self, sweep: Sweep, shots: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Execute one structure group: fault site, then the kernel."""
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire(_faults.SITE_EXECUTE_BATCH, backend=self.name)
        return self._execute_sweep(sweep, shots)

    def results_deterministic(self) -> bool:
        """Whether repeated runs of one circuit give bit-identical results.

        True only for exact-expectation execution with no stochastic
        element (no shot sampling, no noise realization) — the legality
        condition for serving a result from the serving layer's cache
        instead of re-executing.  Default False; backends that qualify
        (e.g. :class:`IdealBackend` in exact mode) override.
        """
        return False

    def exact_execution(self) -> bool:
        """Whether execution ignores ``shots`` and returns exact values.

        True when :meth:`_execute_sweep` computes exact expectations
        and never draws samples (results report ``shots=0`` regardless
        of the requested count).  :meth:`run` uses this to accept
        ``shots=0`` submissions — rejecting them on an exact backend
        contradicted the backend's own accounting.  Default False;
        exact backends (e.g. :class:`IdealBackend` with ``exact=True``)
        override.
        """
        return False

    @property
    def run_slots(self) -> int:
        """How many :meth:`run` calls may execute at once (derived).

        1 unless a subclass says otherwise: a sampled run draws from
        the backend's sampler, whose stream must follow run order.  An
        exact :class:`~repro.parallel.ShardedBackend` runs one call per
        worker process.  The serving router admits this many flushes
        per backend at a time.
        """
        return 1

    def run(
        self,
        circuits: Sequence,
        shots: int = 1024,
        purpose: str = "run",
        validate: bool = True,
    ) -> RunResults:
        """Validate, execute, and meter a batch of circuits.

        The submission is partitioned into same-structure groups (in
        first-appearance order); each group is stacked into a
        :class:`~repro.circuits.CircuitBatch` and executed as one
        sweep, and results are row views over the groups' result
        matrices, in submission order (:func:`assemble_results`).  The
        meter records the shots each execution actually consumed.

        Args:
            circuits: ``QuantumCircuit`` objects, or a
                :class:`~repro.circuits.sweep.Sweep` — one already
                grouped structure group, one result per row (the
                serving tier's flushes).
            shots: Measurement shots per circuit (the paper uses 1024).
            purpose: Free-form tag for the usage meter.
            validate: Set False only for circuits already validated
                upstream (the serving layer validates at submit time),
                so the hot path does not pay the structural checks
                twice.

        Validation runs **once per structure group** rather than once
        per circuit: every structural check (gate names, wire ranges,
        parameter-slot usage) is a function of the structure signature
        and the parameter-vector length, so a group representative plus
        a per-member length comparison covers the whole group — a
        parameter-shift sweep validates its thousands of clones at the
        cost of one.  A sweep's rows all have its template's parameter
        count, so validating the template covers them.

        ``shots=0`` is accepted exactly when the backend's execution is
        exact (:meth:`exact_execution`) — such backends ignore the shot
        count and report ``shots=0`` results anyway, so rejecting an
        explicit 0 was a contradiction.  Sampling backends still reject
        any ``shots < 1``.
        """
        self._check_shots(shots)
        if isinstance(circuits, Sweep):
            if validate:
                circuits.template.validate()
            n_rows = circuits.size
            groups = [(range(n_rows), circuits)]
        else:
            circuits = list(circuits)
            n_rows = len(circuits)
            groups = group_by_structure(circuits)
            if validate:
                for _, members in groups:
                    representative = members[0]
                    representative.validate()
                    for member in members[1:]:
                        # A valid circuit's parameter count is fixed by
                        # its structure; a mismatch means this member
                        # has unused parameters — let its own
                        # validation report it.
                        if (
                            member.num_parameters
                            != representative.num_parameters
                        ):
                            member.validate()
            groups = [
                (positions, CircuitBatch(members))
                for positions, members in groups
            ]
        blocks = []
        for positions, sweep in groups:
            expectations, outcomes = self._run_group(sweep, shots)
            blocks.append((
                positions,
                expectations,
                outcomes,
                0 if outcomes is None else shots,
            ))
        results = assemble_results(n_rows, blocks)
        self.meter.record(len(results), results.shots, purpose)
        return results

    def run_sweep(
        self, sweep: Sweep, shots: int = 1024, purpose: str = "run"
    ) -> np.ndarray:
        """Per-row Z expectations of a sweep, ``(B, n_qubits)``.

        The angle-matrix twin of :meth:`expectations`: the same shots
        rule, fault site, metering and results, but no
        ``ExecutionResult`` or counts dict per row.  The template is
        validated once (not once per row).
        """
        self._check_shots(shots)
        sweep.template.validate()
        expectations, outcomes = self._run_group(sweep, shots)
        self.meter.record(
            sweep.size, 0 if outcomes is None else shots * sweep.size, purpose
        )
        return expectations

    def _check_shots(self, shots: int) -> None:
        if shots < 0 or (shots == 0 and not self.exact_execution()):
            raise ValueError(
                "shots must be positive (shots=0 is allowed only on "
                "backends whose execution is exact)"
            )

    def expectations(
        self,
        circuits: Sequence,
        shots: int = 1024,
        purpose: str = "run",
    ) -> np.ndarray:
        """Per-qubit Z expectations for each circuit, stacked.

        Returns:
            Array of shape ``(len(circuits), n_qubits)`` (see
            :meth:`RunResults.expectation_matrix`).

        Raises:
            ValueError: ``circuits`` is empty (nothing runs or meters),
                or the circuits differ in width.
        """
        if not isinstance(circuits, Sweep):
            circuits = list(circuits)
            if not circuits:
                raise ValueError("need at least one circuit")
        return self.run(
            circuits, shots=shots, purpose=purpose
        ).expectation_matrix()

    def seed(self, seed: int | None) -> None:
        """Reseed the backend's sampler (for reproducible experiments)."""
        self._rng = np.random.default_rng(seed)
        self._seed = seed


class IdealBackend(Backend):
    """Noise-free statevector execution.

    Every structure group replays its cached compiled plan on one
    stacked :class:`~repro.sim.batched.BatchedStatevector`, with exact
    readout (and shot sampling) computed batch-wide; a single circuit is
    a batch of one.  Exact-mode results are bit-identical for any
    grouping of a submission.  Sampled mode is deterministic per seed
    and consumes the RNG stream per circuit in submission order *within
    each structure group* — bit-identical to one-by-one submission for
    single-structure submissions; mixed-structure sampled submissions
    draw the same per-circuit distributions in group order instead.

    Args:
        exact: When True, ``run`` returns exact expectations and empty
            counts regardless of ``shots`` — this is the "Classical-Train
            Simu." setting of Table 1.  When False, finite-shot sampling
            still applies (shot noise without device noise).
        seed: Sampler seed.
        plan_cache_size: LRU capacity of :attr:`plan_cache`.
    """

    def __init__(
        self,
        exact: bool = True,
        seed: int | None = None,
        plan_cache_size: int = 128,
    ):
        super().__init__(seed=seed)
        self.exact = bool(exact)
        #: Structure-keyed LRU of compiled statevector plans.
        self.plan_cache = _compile.PlanCache(plan_cache_size)
        self.name = "ideal" if exact else "ideal_sampled"

    def _plan_for(self, circuit) -> "_compile.ExecutionPlan":
        """The cached compiled plan for a circuit's structure."""
        return self.plan_cache.get_or_compile(
            circuit.structure_signature(),
            lambda: _compile.compile_circuit(circuit, mode="statevector"),
        )

    def results_deterministic(self) -> bool:
        return self.exact

    def exact_execution(self) -> bool:
        return self.exact

    def _evolve(self, sweep: Sweep) -> BatchedStatevector:
        return BatchedStatevector(sweep.n_qubits, sweep.size).evolve(
            sweep, plan=self._plan_for(sweep)
        )

    def observed_probabilities_batch(self, circuits) -> np.ndarray:
        """Stacked outcome distributions for same-structure circuits.

        On a noise-free device these are the exact Born-rule
        distributions — what sampled mode draws its shots from.  The
        twin of :meth:`~repro.hardware.noisy_backend.NoisyBackend.
        observed_probabilities_batch`.

        Args:
            circuits: Same-structure circuits, or a
                :class:`~repro.circuits.sweep.Sweep` of rows.

        Returns:
            ``(len(circuits), 2^n)`` distributions, in submission order.
        """
        if not isinstance(circuits, Sweep):
            circuits = CircuitBatch(circuits)
        return self._evolve(circuits).probabilities()

    def _execute_sweep(self, sweep: Sweep, shots: int):
        state = self._evolve(sweep)
        if self.exact:
            return state.expectation_z(), None
        # Read out from the outcome matrix directly: one vectorized
        # pass, bit-identical to expectation_z_from_counts on each
        # row's counts dict (see expectation_z_from_outcome_matrix).
        outcomes = _measurement.sample_outcome_matrix(
            state.probabilities(), shots, self._rng
        )
        return (
            _measurement.expectation_z_from_outcome_matrix(outcomes),
            outcomes,
        )
