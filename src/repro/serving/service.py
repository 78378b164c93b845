"""The async execution service: futures-based intake over batched backends.

``ExecutionService`` is the serving front door the ROADMAP's
"heavy traffic from many concurrent clients" scenario needs.  Any
number of threads call :meth:`ExecutionService.submit`; each call
returns immediately with a :class:`ServiceJob` (a future), and the
pipeline behind it is::

    clients ── submit() ──> JobQueue ──> CoalescingScheduler ──> Router
                  │ (item per   (priority,  (bucket rows by         │
                  │  group;      unbounded)  template across        ▼
                  │  row bound)              clients, flush on  Backend pool
                  └── ResultCache ◄──────── size or deadline)  (one Sweep)

Submissions walk the same lifecycle as :class:`repro.hardware.Job`
(``created -> validated -> queued -> running -> done`` — Sec. 3.2's
provider pipeline), but asynchronously: admission is synchronous at
submit time (bad circuits fail fast, before they consume queue
capacity), everything after happens on service threads.

Admission turns a job into angle-matrix rows: its circuits are grouped
by structure, and each group is stacked into one
:class:`~repro.circuits.sweep.Sweep` over a
:class:`~repro.circuits.sweep.SweepTemplate` the service caches per
structure — validated once per structure, not once per circuit.  A
submitted sweep already is one group; its rows move onto the cached
template of its structure.  A NaN or infinite angle fails the
submission there
(:class:`~repro.resilience.InvalidCircuitError`).  Each work item is
the uncached rows of one group, so a job makes one ``JobQueue.put``
per structure group.  The stacked matrices are a snapshot, so a client
rebinding its circuit after ``submit`` cannot change what runs.  A
flush concatenates its items' rows into one sweep, which the router
hands to ``Backend.run`` as one structure group.  The intake queue is
unbounded: ``queue_capacity``, counted in rows, is the only bound.

Caching: when *every* routed backend reports
``results_deterministic()`` (exact expectations, no sampling, no
noise), results are memoized by structure and resolved angles, and
repeat submissions are served from the cache without touching a
backend.  Admission keys every row of a group at once
(:meth:`~repro.circuits.sweep.Sweep.row_keys`: the row's angle bits
hashed with a salt naming the template's structure), so a circuit and
the equal sweep row share a key.  It looks each key up, so a partly
cached sweep queues only its missing rows.  Stochastic backends
never cache — each run must be a fresh random realization.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence

import numpy as np

from repro.circuits.batch import group_by_structure
from repro.circuits.sweep import Sweep, SweepTemplate
from repro.hardware.backend import Backend, RunResults, assemble_results
from repro.hardware.job import LIFECYCLE, JobError, JobIdAllocator, JobStatus
from repro.resilience.errors import DeadlineExceeded, JobCancelled
from repro.resilience.retry import Deadline, RetryPolicy
from repro.serving.cache import ResultCache
from repro.serving.queue import JobQueue, QueueClosed, QueueFull
from repro.serving.router import Router
from repro.serving.scheduler import CoalescingScheduler, WorkItem

#: Structure keys whose templates admission keeps (oldest evicted first).
TEMPLATE_CACHE_SIZE = 256


def _shard_backends(
    backends: Sequence[Backend], workers: int | None
) -> tuple[list[Backend], list]:
    """Wrap spec-able backends in ShardedBackend when workers are asked.

    Returns the (possibly wrapped) pool plus the list of wrappers the
    service now owns and must close on :meth:`ExecutionService.stop`.
    ``workers=None`` defers to ``REPRO_WORKERS`` (see
    :func:`repro.parallel.default_workers`); 0 disables sharding.
    """
    from repro.parallel import ShardedBackend, default_workers

    if workers is None:
        workers = default_workers()
    # Clamp like the CLI does: anything below one worker means
    # single-process, never a constructor error.
    if max(0, int(workers)) == 0:
        return list(backends), []
    wrapped: list[Backend] = []
    owned: list[ShardedBackend] = []
    for backend in backends:
        try:
            sharded = ShardedBackend(backend, workers=workers)
        except TypeError:
            # Not a rebuildable simulator backend; route it unchanged.
            wrapped.append(backend)
        else:
            wrapped.append(sharded)
            owned.append(sharded)
    return wrapped, owned


class _GroupRows:
    """One structure group's result matrices inside a job.

    Filled row range by row range as the group's work items (or its
    cache hits) resolve; ``shots`` records what each row consumed.
    """

    __slots__ = ("positions", "expectations", "outcomes", "shots")

    def __init__(self, positions, sweep: Sweep):
        self.positions = positions
        self.expectations = np.empty((sweep.size, sweep.n_qubits))
        self.outcomes: np.ndarray | None = None
        self.shots = np.zeros(sweep.size, dtype=np.int64)

    def write(self, rows, expectations, outcomes, shots: int) -> None:
        self.expectations[rows] = expectations
        if outcomes is not None:
            if self.outcomes is None:
                self.outcomes = np.zeros(
                    (len(self.expectations), outcomes.shape[1]),
                    dtype=outcomes.dtype,
                )
            self.outcomes[rows] = outcomes
        self.shots[rows] = shots


class ServiceJob:
    """A client's asynchronous submission; resolves to execution results.

    Walks the :class:`~repro.hardware.JobStatus` lifecycle.  Obtain the
    results with :meth:`result` (blocking) or poll :meth:`done`.

    Resilience: an optional per-job **deadline** bounds end-to-end
    latency — work not finished when it expires fails with
    :class:`~repro.resilience.DeadlineExceeded` (the scheduler drops
    expired items before execution; :meth:`result` enforces it while
    waiting).  :meth:`cancel` withdraws a pending job: unstarted items
    are dropped at flush time, in-flight results are discarded.  When
    a job fails, :attr:`error` carries the failure context — for flush
    failures a :class:`~repro.resilience.FlushError` naming the
    backend, flush key, attempt count, and worker slot involved.
    """

    def __init__(
        self,
        job_id: str,
        circuits: Sequence,
        shots: int,
        purpose: str,
        priority: int,
        deadline_s: float | None = None,
    ):
        self.job_id = job_id
        #: The submitted circuits, or the submitted :class:`Sweep`.
        self.circuits = (
            circuits if isinstance(circuits, Sweep) else list(circuits)
        )
        self.shots = int(shots)
        self.purpose = purpose
        self.priority = int(priority)
        self.deadline = Deadline(deadline_s)
        self.cancelled = False
        self.status = JobStatus.CREATED
        self.error: BaseException | None = None
        self.cache_hits = 0
        self._groups: list[_GroupRows] = []
        self._remaining = len(self.circuits)
        self._lock = threading.Lock()
        self._done = threading.Event()

    # -- lifecycle (service-internal) -----------------------------------

    def _advance_to(self, target: JobStatus) -> None:
        """Walk the shared lifecycle forward to ``target`` (idempotent)."""
        with self._lock:
            if self.status is JobStatus.ERROR:
                return
            current = LIFECYCLE.index(self.status)
            wanted = LIFECYCLE.index(target)
            if wanted > current:
                self.status = target

    def _mark_running(self) -> None:
        self._advance_to(JobStatus.RUNNING)

    def _allocate(self, groups) -> None:
        """Result matrices for admission's ``(positions, sweep)`` groups."""
        self._groups = [
            _GroupRows(positions, sweep) for positions, sweep in groups
        ]

    def _fulfill(
        self, group: int, rows, expectations, outcomes=None, shots: int = 0
    ) -> None:
        """Write result rows ``rows`` of structure group ``group``.

        ``expectations`` (and ``outcomes``, when sampled) hold the rows
        in order; each lands in the job's matrices in one assignment.
        """
        with self._lock:
            self._groups[group].write(rows, expectations, outcomes, shots)
            self._remaining -= len(expectations)
            finished = self._remaining == 0
        if finished:
            self._advance_to(JobStatus.DONE)
            self._done.set()

    def _fail(self, exc: BaseException) -> None:
        with self._lock:
            self.error = exc
            self.status = JobStatus.ERROR
        self._done.set()

    # -- client API ------------------------------------------------------

    def done(self) -> bool:
        """True once results (or a failure) are available."""
        return self._done.is_set()

    def cancel(self) -> bool:
        """Withdraw a pending job; returns whether it was cancelled.

        A finished job cannot be cancelled (``False``).  Otherwise the
        job fails with :class:`~repro.resilience.JobCancelled`;
        unstarted work items are dropped (and their backpressure
        reservations released) when the scheduler next sees them, and
        results from flushes already in flight are discarded.
        """
        if self._done.is_set():
            return False
        self.cancelled = True
        self._fail(JobCancelled(f"{self.job_id} cancelled by client"))
        return True

    def result(self, timeout: float | None = None) -> RunResults:
        """Block until finished; one result per submitted circuit.

        The results are row views over the job's result matrices (see
        :class:`~repro.hardware.backend.RunResults`), in submission
        order.

        Waits no longer than the job's own deadline, when it has one —
        a deadline that expires mid-wait fails the job with
        :class:`~repro.resilience.DeadlineExceeded`.

        Raises:
            TimeoutError: Not finished within ``timeout`` seconds.
            JobError: The submission failed (or missed its deadline);
                the original exception is chained as the cause.
        """
        remaining = self.deadline.remaining()
        wait = timeout
        if remaining is not None and (wait is None or remaining < wait):
            wait = remaining
        if not self._done.wait(wait):
            if self.deadline.expired():
                self._fail(
                    DeadlineExceeded(
                        f"{self.job_id} missed its deadline"
                    )
                )
            else:
                raise TimeoutError(
                    f"{self.job_id} not finished within {timeout}s"
                )
        if self.error is not None:
            raise JobError(
                f"{self.job_id} failed: {self.error}"
            ) from self.error
        return assemble_results(
            len(self.circuits),
            [
                (g.positions, g.expectations, g.outcomes, g.shots)
                for g in self._groups
            ],
        )

    def __repr__(self) -> str:
        return (
            f"ServiceJob({self.job_id}, {len(self.circuits)} circuits, "
            f"{self.status.value})"
        )


class ExecutionService:
    """Aggregates async submissions into batched, routed, cached execution.

    Args:
        backends: One backend or a pool; a pool is load-balanced by the
            router ``policy`` (``"round_robin"`` / ``"least_outstanding"``).
        policy: Router policy.
        max_batch_size: Coalescer size-flush threshold.
        max_delay_s: Coalescer deadline-flush bound — the worst-case
            extra latency a lone submission pays for batching.
        queue_capacity: The service's only backpressure bound: rows
            pending anywhere in the service (intake queue, coalescing
            buckets, or executing).  Submitters block when it is
            reached, so burst traffic degrades to the drain rate
            instead of growing memory without bound.  ``0`` =
            unbounded.  A single submission larger than the bound is
            admitted alone (it could otherwise never run).
        cache_capacity: LRU entries for the exact-result cache.
        enable_cache: Master switch; the cache additionally requires
            every backend to be deterministic (exact mode).
        name: Service name (job-id prefix).
        workers: Multi-process convenience: wrap every routed simulator
            backend in a :class:`~repro.parallel.ShardedBackend` with
            this many worker processes, so flushes execute sharded
            across cores.  ``None`` (the default) reads
            ``REPRO_WORKERS`` from the environment; ``0`` (or any
            smaller value) keeps everything single-process.  Backends a worker replica
            cannot be rebuilt from (custom ``Backend`` subclasses) are
            routed unchanged.  A sharded wrapper adopts the wrapped
            backend's meter, so callers keep observing usage on the
            backend object they handed in; the service closes the
            wrappers' pools in :meth:`stop`.
        retry_policy: Flush retry policy handed to the scheduler
            (``None`` = the :class:`~repro.resilience.RetryPolicy`
            default: 3 attempts, exponential backoff with jitter,
            transient failures only).
        failure_threshold: Consecutive flush failures that open a
            backend's circuit breaker in the router.
        reset_timeout_s: Open-breaker cooldown before a half-open
            probe.
    """

    def __init__(
        self,
        backends: Backend | Sequence[Backend],
        policy: str = "round_robin",
        max_batch_size: int = 256,
        max_delay_s: float = 0.005,
        queue_capacity: int = 10_000,
        cache_capacity: int = 4096,
        enable_cache: bool = True,
        name: str = "svc",
        workers: int | None = None,
        retry_policy: RetryPolicy | None = None,
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
    ):
        if isinstance(backends, Backend):
            backends = [backends]
        self.name = name
        backends, self._sharded = _shard_backends(backends, workers)
        self.router = Router(
            backends,
            policy=policy,
            failure_threshold=failure_threshold,
            reset_timeout_s=reset_timeout_s,
        )
        # The intake queue itself is unbounded: _admit() already bounds
        # every row in the pipeline, queue included.
        self.queue = JobQueue()
        self.cache: ResultCache | None = None
        if enable_cache and self.router.results_deterministic():
            self.cache = ResultCache(capacity=cache_capacity)
        self.scheduler = CoalescingScheduler(
            self.queue,
            self.router,
            cache=self.cache,
            max_batch_size=max_batch_size,
            max_delay_s=max_delay_s,
            retry_policy=retry_policy,
        )
        self._job_ids = JobIdAllocator(prefix=name)
        self._lock = threading.Lock()
        #: ``{structure key: [SweepTemplate, ...]}`` (see _template_for).
        self._templates: dict[int, list[SweepTemplate]] = {}
        self._templates_lock = threading.Lock()
        self._started = False
        self._stopped = False
        self.queue_capacity = int(queue_capacity)
        self._pending = 0  # circuits admitted but not yet resolved
        self._pending_cond = threading.Condition()
        self.submissions = 0
        self.circuits_submitted = 0
        self.circuits_from_cache = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ExecutionService":
        """Start the scheduler; idempotent.  ``submit`` auto-starts."""
        with self._lock:
            if self._stopped:
                raise RuntimeError("service already stopped")
            if not self._started:
                self.scheduler.start()
                self._started = True
        return self

    def stop(self) -> None:
        """Drain: close intake, flush pending work, join all threads.

        Every already-accepted submission completes; new ``submit``
        calls raise.  Idempotent.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            started = self._started
        self.queue.close()
        with self._pending_cond:
            self._pending_cond.notify_all()
        if started:
            self.scheduler.join()
        for backend in self._sharded:
            backend.close()

    def __enter__(self) -> "ExecutionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- backpressure ----------------------------------------------------

    def _admit(self, n_circuits: int, timeout: float | None) -> None:
        """Block until ``n_circuits`` fit under the pending bound.

        The bound covers the whole pipeline — queued, coalescing, and
        executing circuits — so it is real end-to-end backpressure, not
        just an intake-buffer limit.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._pending_cond:
            # An oversized submission is admitted once the pipeline is
            # empty; refusing it forever would deadlock the client.
            while (
                self.queue_capacity
                and self._pending
                and self._pending + n_circuits > self.queue_capacity
            ):
                if self._stopped:
                    raise QueueClosed("service is stopped")
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise QueueFull(
                            f"{self._pending} circuits pending against a "
                            f"capacity of {self.queue_capacity}"
                        )
                self._pending_cond.wait(remaining)
            self._pending += n_circuits

    def _release(self, n_circuits: int) -> None:
        """``n_circuits`` pending rows resolved (results or failure)."""
        with self._pending_cond:
            self._pending -= n_circuits
            self._pending_cond.notify_all()

    @property
    def pending_circuits(self) -> int:
        """Circuits currently admitted but unresolved (load signal)."""
        with self._pending_cond:
            return self._pending

    # -- submission ------------------------------------------------------

    def submit(
        self,
        circuits: Sequence,
        shots: int = 1024,
        purpose: str = "run",
        priority: int = 0,
        timeout: float | None = None,
        deadline_s: float | None = None,
    ) -> ServiceJob:
        """Asynchronously execute ``circuits``; returns a future.

        Mirrors :meth:`repro.hardware.Backend.run` semantics (same
        validation, same metering purposes, one result per circuit, in
        submission order) but returns immediately.  Cache-eligible
        circuits already memoized are served without execution.

        Args:
            circuits: ``QuantumCircuit`` objects, or a
                :class:`~repro.circuits.sweep.Sweep` — one already
                grouped job, one result per row.
            shots: Shots per circuit; part of the coalescing key, so
                only same-shot work shares a batch.
            purpose: Usage-meter tag (also part of the coalescing key —
                keeps per-purpose accounting exact).
            priority: Queue priority; lower runs first.
            timeout: Seconds to wait for ``queue_capacity`` room before
                raising :class:`~repro.serving.QueueFull` (backpressure).
            deadline_s: End-to-end latency bound for this job; work
                not finished within it fails with
                :class:`~repro.resilience.DeadlineExceeded` instead of
                waiting forever.  ``None`` = no deadline.

        Raises:
            JobError: A circuit failed validation (synchronously, like
                :meth:`repro.hardware.Job.validate`), or carries a NaN
                or infinite angle; the cause is the ``ValueError`` /
                :class:`~repro.resilience.InvalidCircuitError`.
        """
        # Mirror Backend.run's shots rule: 0 is legal exactly when every
        # routed backend ignores the shot count (exact execution).
        if shots < 0 or (shots == 0 and not self.router.exact_execution()):
            raise ValueError(
                "shots must be positive (shots=0 is allowed only when "
                "every routed backend's execution is exact)"
            )
        self.start()
        job = ServiceJob(
            self._job_ids.next_id(),
            circuits,
            shots,
            purpose,
            priority,
            deadline_s=deadline_s,
        )
        try:
            groups = self._rows(job.circuits)
        except ValueError as exc:
            job._fail(exc)
            raise JobError(str(exc)) from exc
        job._advance_to(JobStatus.VALIDATED)

        with self._lock:
            self.submissions += 1
            self.circuits_submitted += len(job.circuits)

        job._allocate(groups)
        pending: list[WorkItem] = []
        for group, (_, sweep) in enumerate(groups):
            rows = np.arange(sweep.size)
            keys = None
            if self.cache is not None:
                keys = sweep.row_keys()
                hit, cached = self.cache.get_many(keys)
                if cached is not None:
                    hits = len(cached)
                    job.cache_hits += hits
                    with self._lock:
                        self.circuits_from_cache += hits
                    job._fulfill(group, np.flatnonzero(hit), cached)
                    rows = np.flatnonzero(~hit)
                    keys = [keys[row] for row in rows]
            if rows.size:
                pending.append(
                    WorkItem(
                        sweep=sweep,
                        rows=rows,
                        shots=shots,
                        purpose=purpose,
                        job=job,
                        group=group,
                        keys=keys,
                        release=self._release,
                    )
                )

        if not job.circuits:
            job._advance_to(JobStatus.DONE)
            job._done.set()
            return job
        if not pending:
            # Fully served from cache; the last _fulfill completed it.
            return job

        try:
            self._admit(sum(item.size for item in pending), timeout)
        except Exception as exc:
            job._fail(exc)
            raise
        job._advance_to(JobStatus.QUEUED)
        enqueued = 0
        try:
            # Unbounded queue: this only raises QueueClosed when stop()
            # races the submission.
            for item in pending:
                self.queue.put(item, priority=priority)
                enqueued += 1
        except Exception as exc:
            # Items already enqueued resolve against a failed job (their
            # late _fulfill calls are absorbed and release themselves);
            # un-enqueued reservations are returned here.  The client
            # sees the shutdown error both here and via the future.
            self._release(sum(item.size for item in pending[enqueued:]))
            job._fail(exc)
            raise
        return job

    def _template_for(self, circuit) -> SweepTemplate:
        """The cached, validated template of a circuit's structure.

        Keyed like :func:`~repro.circuits.group_by_structure` buckets:
        the cached integer structure key, confirmed on the signature
        (usually by identity — clones and
        :meth:`~repro.circuits.QnnArchitecture.full_circuit` rows share
        the signature tuple).  Only templates that validated are
        cached, so a structure validates once, not once per circuit.

        Raises:
            ValueError: The circuit's structure is invalid.
        """
        key = circuit.structure_key()
        signature = circuit.structure_signature()
        with self._templates_lock:
            for template in self._templates.get(key, ()):
                cached = template.structure_signature()
                if cached is signature or cached == signature:
                    return template
            template = SweepTemplate(circuit)
            template.validate()
            if len(self._templates) >= TEMPLATE_CACHE_SIZE:
                del self._templates[next(iter(self._templates))]
            self._templates.setdefault(key, []).append(template)
            return template

    def _rows(self, circuits) -> list[tuple[list[int], Sweep]]:
        """Admission: each structure group of a job as one validated sweep.

        Returns ``(positions, sweep)`` per group, ``positions`` being
        the group's indices into ``circuits``.  A member whose
        parameter count differs from its (valid) template's has unused
        or missing parameters — its own validation reports which.  A
        submitted sweep is one group: its rows are copied onto the
        cached template of its structure, so they coalesce with every
        other job of that structure.

        Raises:
            ValueError: A circuit failed validation.
            InvalidCircuitError: A resolved angle is NaN or infinite.
        """
        if isinstance(circuits, Sweep):
            template = self._template_for(circuits.template.reference)
            if circuits.num_parameters != template.num_parameters:
                circuits.template.validate()
            return [(
                range(circuits.size),
                Sweep(
                    template,
                    circuits.literals.copy(),
                    circuits.params.copy(),
                ),
            )]
        groups = []
        for positions, members in group_by_structure(circuits):
            template = self._template_for(members[0])
            for member in members:
                if member.num_parameters != template.num_parameters:
                    member.validate()
            groups.append(
                (positions, Sweep(template, *template.stack(members)))
            )
        return groups

    def run(
        self,
        circuits: Sequence,
        shots: int = 1024,
        purpose: str = "run",
        priority: int = 0,
    ) -> RunResults:
        """Synchronous convenience: ``submit(...).result()``."""
        return self.submit(
            circuits, shots=shots, purpose=purpose, priority=priority
        ).result()

    def executor(
        self,
        priority: int = 0,
        name: str | None = None,
        deadline_s: float | None = None,
    ):
        """A :class:`~repro.serving.ServiceExecutor` bound to this service.

        The executor quacks like a :class:`~repro.hardware.Backend`, so
        the TrainingEngine, the gradient engines, and the evaluator can
        run through the service unchanged.
        """
        from repro.serving.executor import ServiceExecutor

        return ServiceExecutor(
            self, priority=priority, name=name, deadline_s=deadline_s
        )

    # -- telemetry -------------------------------------------------------

    def resilience_stats(self) -> dict:
        """One-stop roll-up of every resilience signal in the service.

        Aggregates scheduler retries/bisections, pool restarts and
        degradations from every sharded backend in the routing pool,
        and the router's breaker states — the line ``repro
        serve-bench`` prints.
        """
        restarts = 0
        hangs = 0
        fallbacks = 0
        degraded = 0
        for backend in self.router.backends:
            pool = getattr(backend, "pool", None)
            if pool is not None:
                restarts += pool.restarts
                hangs += pool.hangs
            fallbacks += getattr(backend, "fallbacks", 0)
            degraded += int(getattr(backend, "degraded", False))
        router_stats = self.router.stats()
        scheduler_stats = self.scheduler.stats()
        return {
            "retries": scheduler_stats["retries"],
            "bisections": scheduler_stats["bisections"],
            "flush_failures": scheduler_stats["flush_failures"],
            "deadline_failures": scheduler_stats["deadline_failures"],
            "restarts": restarts,
            "hangs": hangs,
            "fallbacks": fallbacks,
            "degraded_backends": degraded,
            "breaker_states": router_stats["breaker_states"],
            "breaker_trips": router_stats["breaker_trips"],
        }

    def stats(self) -> dict:
        """Service-level roll-up: intake, cache, scheduler, router."""
        with self._lock:
            submissions = self.submissions
            circuits_submitted = self.circuits_submitted
            circuits_from_cache = self.circuits_from_cache
        return {
            "name": self.name,
            "submissions": submissions,
            "circuits_submitted": circuits_submitted,
            "circuits_from_cache": circuits_from_cache,
            "pending_circuits": self.pending_circuits,
            "queue_capacity": self.queue_capacity,
            "cache": self.cache.stats() if self.cache else None,
            "queue": self.queue.stats(),
            "scheduler": self.scheduler.stats(),
            "router": self.router.stats(),
            "resilience": self.resilience_stats(),
        }
