"""The persistent worker pool: spawn, scatter, gather, survive crashes.

``WorkerPool`` owns ``n_workers`` long-lived **spawned** processes
(spawn, not fork: workers must not inherit the parent's NumPy/BLAS
state, locks, or open pipes — and spawn behaves identically on every
platform).  Each worker builds its own backend replica from the pool's
:class:`~repro.parallel.BackendSpec` once, then serves shard requests
over a dedicated duplex pipe until told to stop — so the per-process
startup cost (interpreter + NumPy import + noise-model construction) is
paid once per pool, not once per submission.

Work crosses the pipe as angle arrays, not circuits.  A shard request
is ``("sweep", (digest, literals, params, seeds, shots))``:
the rows' slices of a :class:`~repro.circuits.sweep.Sweep`'s value
matrices plus the name of its :class:`~repro.circuits.sweep.
SweepTemplate`.  The template itself travels once per worker
generation: the pool records which template digests each slot holds,
sends a ``("template", (digest, template))`` message ahead of the first
request that needs one (the worker stores it and does not answer), and
forgets the slot's templates when it respawns the worker, so a replay
after a crash resends them.

Execution of one shard inside a worker (:func:`execute_shard`):

* exact backends run the rows through the replica's
  ``Backend._execute_sweep`` hook (no randomness involved, results are
  bit-identical to the parent's own batched path);
* sampling backends split the work: the *expensive* part — the stacked
  statevector / density evolution and readout post-processing — is
  computed batch-wide via the replica's vectorized path, then each
  row's outcomes are drawn from its own
  :class:`~numpy.random.SeedSequence` substream carried by the shard
  into one outcome matrix, read out in one vectorized pass.  Sampled
  results are keyed to the row, not to the worker that happened to
  execute it.

The answer is the ``(expectations, outcomes)`` arrays — ``outcomes``
is ``None`` for exact execution, and the facade builds any counts
dicts from the outcome matrix.  Nothing about metering crosses the
pipe: the facade's ``Backend.run`` meters the submission once.

Failure handling (the resilience tier)
--------------------------------------
Workers **heartbeat**: before executing each request they send an
``("hb", ...)`` progress message, and the parent's gather loop treats
any message — heartbeat or answer — as proof of life.  On top of that
signal the pool detects and survives three distinct failures:

* **crash** — a worker that dies mid-shard (OOM kill, segfault in a
  native extension, injected ``kill``) is detected by its broken pipe;
  the pool spawns a fresh worker in the same slot and re-sends the
  unacknowledged shards.  Because shard seeds are position-keyed, a
  retried shard reproduces exactly the results the dead worker would
  have produced.
* **hang** — a worker that stops making progress (deadlock, runaway
  native call, injected ``hang``) cannot break its own pipe, so the
  gather loop enforces a per-shard **timeout** (derived from the
  :mod:`repro.scaling` cost model by the facade); silence past the
  timeout kills the worker and recovers exactly like a crash, raising
  :class:`WorkerHangError` once the per-shard budget is exhausted.
* **respawn storms** — every restart backs off exponentially per slot
  (a machine thrashing near its memory limit gets breathing room, not
  a fork bomb) and draws from a pool-lifetime ``restart_budget``;
  exhausting the budget raises :class:`RestartBudgetExhausted`, the
  signal on which :class:`~repro.parallel.ShardedBackend` degrades to
  in-process execution instead of failing the caller.

A shard that *keeps* killing workers raises :class:`WorkerCrashError`
after ``max_retries`` respawns instead of looping forever.  Worker-side
Python exceptions are not retried — they are deterministic — and
re-raise in the parent with the worker traceback attached.  All three
escalation types subclass :class:`~repro.resilience.TransientError`,
so upstream retry policies classify them correctly.

Chaos hooks: the worker loop fires the ``worker.shard`` injection site
before executing each shard, and the parent fires ``pool.pipe`` before
each pipe send — see :mod:`repro.resilience.faults`.  Spawned workers
install the parent's :class:`~repro.resilience.FaultPlan` (shipped as
a spawn argument) tagged with their spawn index, so plans can target
"first-generation workers only" and let replacements survive.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
import weakref
from time import monotonic as _monotonic

import numpy as np

from repro.circuits.sweep import Sweep, SweepTemplate
from repro.hardware.backend import Backend
from repro.parallel.spec import BackendSpec
from repro.resilience import faults as _faults
from repro.resilience.errors import InvalidCircuitError, TransientError
from repro.sim import measurement as _measurement


class WorkerCrashError(TransientError):
    """A shard repeatedly killed the workers executing it.

    Attributes:
        slot: The pool slot whose workers kept dying (``None`` when
            unknown).
    """

    def __init__(self, message: str, slot: int | None = None):
        super().__init__(message)
        self.slot = slot


class WorkerHangError(WorkerCrashError):
    """A shard repeatedly hung the workers executing it.

    Raised when a worker stays silent past its per-shard timeout more
    than ``max_retries`` times; the unresponsive processes were killed
    and replaced on each attempt.
    """


class RestartBudgetExhausted(WorkerCrashError):
    """The pool spent its lifetime respawn budget.

    The escalation signal for graceful degradation: the facade catches
    this and falls back to in-process execution instead of raising to
    the caller.
    """


class WorkerError(RuntimeError):
    """A worker-side exception, re-raised in the parent process."""


# -- internal gather-loop signals -------------------------------------------


class _WorkerGone(Exception):
    """Gather-internal: the worker's pipe broke (process death)."""


class _WorkerHung(Exception):
    """Gather-internal: no message within the per-shard timeout."""


# -- worker-side execution ---------------------------------------------------


#: Templates a worker keeps per generation.  Parent and worker evict
#: the oldest registration first, in the same order, so the parent's
#: record of a slot's templates always matches what the worker holds.
TEMPLATES_PER_WORKER = 64


def _register(held: dict, digest: str, template) -> None:
    """Record one template registration, evicting the oldest at capacity."""
    if len(held) >= TEMPLATES_PER_WORKER:
        del held[next(iter(held))]
    held[digest] = template


def execute_shard(
    backend: Backend,
    template: SweepTemplate,
    literals: np.ndarray,
    params: np.ndarray,
    seeds: list | None,
    shots: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run one shard's rows on a backend replica.

    Returns ``(expectations, outcomes)``: the rows' ``(B, n_qubits)`` Z
    expectations and their ``(B, 2^n)`` sampled outcome matrix
    (``None`` for exact execution).  Exact backends run the sweep on
    the replica's ``_execute_sweep`` hook (the facade validates, fires
    the fault site and meters); sampling backends compute the rows'
    distributions batch-wide (the replica's
    ``observed_probabilities_batch``: what its own sampler draws from,
    bit-identical to the same rows in any other grouping) and then
    sample each row from its own seed substream (see module
    docstring).  Also the in-process **fallback kernel**: when the
    facade degrades after pool exhaustion it runs the very same
    function on a local replica, so degraded results stay
    bit-identical to pooled ones.
    """
    sweep = Sweep(template, literals, params)
    if backend.exact_execution():
        return backend._execute_sweep(sweep, shots)
    if seeds is None:
        raise ValueError("sampling execution needs per-row seed substreams")
    probs = backend.observed_probabilities_batch(sweep)
    # Every row draws from its own substream into one outcome matrix,
    # which is read out in one vectorized pass.
    outcomes = np.stack(
        [
            np.random.default_rng(seed).multinomial(shots, row / row.sum())
            for row, seed in zip(probs, seeds)
        ]
    )
    expectations = _measurement.expectation_z_from_outcome_matrix(outcomes)
    return expectations, outcomes


def serve_rows(
    backend: Backend, kind: str, template, rows
) -> tuple | np.ndarray:
    """Answer one ``"sweep"`` or ``"probs"`` request's rows.

    What a worker does with a request, and what the facade's
    in-process fallback does with the same rows: ``"sweep"`` rows are
    ``(literals, params, seeds, shots)`` for :func:`execute_shard`;
    ``"probs"`` rows are ``(literals, params)`` and answer the
    distributions array.
    """
    if kind == "sweep":
        return execute_shard(backend, template, *rows)
    return backend.observed_probabilities_batch(Sweep(template, *rows))


def _worker_main(
    conn,
    spec: BackendSpec,
    fault_plan=None,
    slot: int = 0,
    spawn: int = 0,
) -> None:
    """Entry point of one worker process: serve requests until stopped.

    Args:
        conn: The worker's end of the duplex pipe.
        spec: Recipe for the backend replica.
        fault_plan: The parent's installed
            :class:`~repro.resilience.FaultPlan`, if any — installed
            here tagged with ``spawn`` so worker-side injection sites
            fire deterministically per worker generation.
        slot: Pool slot (context for injected-fault messages).
        spawn: Pool-wide spawn index of this worker process.
    """
    if fault_plan is not None:
        _faults.install(fault_plan, worker_spawn=spawn)
    backend = spec.build()
    templates: dict = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        kind, payload = message
        if kind == "template":
            # Registration only: no heartbeat, no answer.
            _register(templates, *payload)
            continue
        try:
            # Progress signal: the parent's hung-shard detector treats
            # any message as proof of life, so a worker that *starts*
            # a long shard is distinguishable from one that is stuck.
            conn.send(("hb", kind))
        except (BrokenPipeError, OSError):
            break
        try:
            if kind in ("sweep", "probs"):
                if _faults.ACTIVE is not None:
                    _faults.ACTIVE.fire(
                        _faults.SITE_WORKER_SHARD, slot=slot, spawn=spawn
                    )
                digest, *rows = payload
                response = (
                    "ok",
                    serve_rows(backend, kind, templates[digest], rows),
                )
            elif kind == "ping":
                response = ("ok", backend.name)
            else:
                raise ValueError(f"unknown request kind {kind!r}")
        except Exception as exc:
            response = (
                "error",
                (type(exc).__name__, str(exc), traceback.format_exc()),
            )
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# -- parent side -------------------------------------------------------------


def _stop_process(process) -> None:
    """Join one worker, escalating terminate → kill → abandon.

    ``terminate`` (SIGTERM) is the polite request; a worker stuck in a
    native call or masked-signal section ignores it, so an
    unterminated process escalates to ``kill`` (SIGKILL, cannot be
    ignored).  Without the escalation, shutdown left zombies behind on
    every hung worker.
    """
    process.join(timeout=2.0)
    if process.is_alive():
        process.terminate()
        process.join(timeout=2.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=2.0)


def _shutdown(processes: list, connections: list) -> None:
    """Finalizer body: stop workers without touching the pool object."""
    for conn in connections:
        try:
            conn.send(None)
        except (BrokenPipeError, OSError, ValueError):
            pass
    for conn in connections:
        try:
            conn.close()
        except OSError:
            pass
    for process in processes:
        _stop_process(process)


class _WorkerHandle:
    """One pool slot: a spawned process plus its parent-side pipe end."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn

    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """``n_workers`` persistent backend replicas behind request pipes.

    Args:
        spec: Recipe every worker builds its replica from.
        n_workers: Pool size.
        max_retries: Respawn-and-retry budget per shard before a crash
            (or hang) is escalated as :class:`WorkerCrashError` /
            :class:`WorkerHangError`.
        restart_budget: Pool-lifetime cap on worker respawns; spending
            it raises :class:`RestartBudgetExhausted` (the facade's
            degrade signal).  ``None`` defaults to ``4 * n_workers``;
            ``0`` disables respawning entirely.
        backoff_base_s: First respawn delay per slot; doubles with each
            consecutive respawn of the same slot (reset when the slot
            answers), capped at ``backoff_cap_s``.
        backoff_cap_s: Upper bound on any single respawn delay.

    Workers are spawned lazily on first use (:meth:`ensure_started`),
    so constructing a pool — e.g. inside a backend that may never
    execute — costs nothing.  The pool is a context manager; it also
    registers a finalizer, so abandoned pools are reaped at garbage
    collection and worker processes are daemonic besides (they can
    never outlive the parent).  Not thread-safe: one scatter/gather at
    a time, which matches the per-backend run lock the serving router
    already imposes.
    """

    def __init__(
        self,
        spec: BackendSpec,
        n_workers: int,
        max_retries: int = 2,
        restart_budget: int | None = None,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
    ):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if restart_budget is not None and restart_budget < 0:
            raise ValueError("restart_budget cannot be negative")
        if backoff_base_s < 0 or backoff_cap_s < 0:
            raise ValueError("backoff delays cannot be negative")
        self.spec = spec
        self.n_workers = int(n_workers)
        self.max_retries = int(max_retries)
        self.restart_budget = (
            4 * self.n_workers if restart_budget is None else int(restart_budget)
        )
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self._context = multiprocessing.get_context("spawn")
        self._workers: list[_WorkerHandle | None] = [None] * self.n_workers
        #: Per slot: the template digests its current worker holds.
        self._held: list[dict] = [{} for _ in range(self.n_workers)]
        self._started = False
        self._closed = False
        self.restarts = 0
        self.hangs = 0
        self.shards_executed = 0
        self._spawn_count = 0
        self._slot_streaks = [0] * self.n_workers
        self._finalizer = weakref.finalize(self, _shutdown, [], [])

    # -- lifecycle -------------------------------------------------------

    def _spawn(self, slot: int) -> _WorkerHandle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.spec,
                _faults.current_plan(),
                slot,
                self._spawn_count,
            ),
            name=f"repro-worker-{slot}",
            daemon=True,
        )
        self._spawn_count += 1
        process.start()
        child_conn.close()  # the parent keeps only its own end
        handle = _WorkerHandle(process, parent_conn)
        self._workers[slot] = handle
        # A fresh worker holds no templates: requests resend them.
        self._held[slot] = {}
        self._refresh_finalizer()
        return handle

    def _refresh_finalizer(self) -> None:
        """Point the GC finalizer at the *current* worker set.

        Re-registered on every spawn — startup and crash replacement
        alike — so an abandoned pool's reaper always covers the
        processes that actually exist, not the ones it started with.
        """
        self._finalizer.detach()
        live = [w for w in self._workers if w is not None]
        self._finalizer = weakref.finalize(
            self,
            _shutdown,
            [w.process for w in live],
            [w.conn for w in live],
        )

    def ensure_started(self) -> None:
        """Spawn all workers (idempotent; called on first execution)."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if self._started:
            return
        for slot in range(self.n_workers):
            if self._workers[slot] is None:
                self._spawn(slot)
        self._started = True

    def close(self) -> None:
        """Stop every worker and join it; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        live = [w for w in self._workers if w is not None]
        _shutdown([w.process for w in live], [w.conn for w in live])
        self._workers = [None] * self.n_workers

    @property
    def closed(self) -> bool:
        return self._closed

    def alive_workers(self) -> int:
        """How many worker processes are currently running."""
        return sum(
            1 for w in self._workers if w is not None and w.alive()
        )

    def __enter__(self) -> "WorkerPool":
        self.ensure_started()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- crash plumbing (also the test hook) -----------------------------

    def _restart(self, slot: int) -> _WorkerHandle:
        """Replace the worker in ``slot``: reap, back off, respawn.

        The parent-side pipe end is closed *before* the process is
        reaped (a respawn that leaked fds eventually exhausted the
        parent's descriptor table under a crash storm), termination
        escalates SIGTERM → SIGKILL (a hung worker ignores SIGTERM),
        and the respawn is delayed by the slot's exponential backoff.
        Every restart draws from the pool-lifetime budget.

        Raises:
            RestartBudgetExhausted: The budget hit zero — the caller
                (ultimately the facade) should degrade, not loop.
        """
        if self.restarts >= self.restart_budget:
            raise RestartBudgetExhausted(
                f"worker pool spent its restart budget "
                f"({self.restart_budget}); degrading instead of "
                f"respawning further",
                slot=slot,
            )
        handle = self._workers[slot]
        if handle is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            _stop_process(handle.process)
        self.restarts += 1
        self._slot_streaks[slot] += 1
        delay = min(
            self.backoff_cap_s,
            self.backoff_base_s * 2.0 ** (self._slot_streaks[slot] - 1),
        )
        if delay > 0:
            time.sleep(delay)
        return self._spawn(slot)

    def kill_worker(self, slot: int) -> None:
        """Hard-kill one worker (crash-recovery testing aid)."""
        handle = self._workers[slot]
        if handle is not None and handle.alive():
            handle.process.kill()
            handle.process.join(timeout=5.0)

    # -- scatter / gather ------------------------------------------------

    def run_shards(
        self,
        requests: list[tuple[int, tuple]],
        timeouts: list[float | None] | float | None = None,
        templates: dict | None = None,
    ) -> list:
        """Execute ``(worker_slot, request)`` pairs; gather in order.

        Each request is a ``(kind, payload)`` tuple as understood by
        the worker loop: ``("sweep", (digest, literals, params, seeds,
        shots))``, ``("probs", (digest, literals, params))`` or
        ``("ping", None)``.  Requests for one worker execute in the
        order given; distinct workers execute concurrently.  Returns
        one response payload per request, aligned with the input order.

        Args:
            requests: The scatter plan.
            timeouts: Per-request progress timeouts in seconds — a
                scalar applies to every request, a list aligns with
                ``requests``, ``None`` disables hung-shard detection.
                The clock resets on every message from the worker
                (heartbeats included), so the timeout bounds *silence*,
                not total shard runtime.
            templates: ``{digest: SweepTemplate}`` for the requests'
                digests; each is sent to a worker only when its slot
                does not hold it yet.

        Raises:
            WorkerError: A worker raised; its traceback is included.
            WorkerCrashError: A shard exceeded its respawn budget.
            WorkerHangError: A shard repeatedly hung its workers.
            RestartBudgetExhausted: The pool-lifetime respawn budget
                ran out mid-recovery.
        """
        if not requests:
            return []
        self.ensure_started()
        if timeouts is None or isinstance(timeouts, (int, float)):
            timeouts = [timeouts] * len(requests)
        elif len(timeouts) != len(requests):
            raise ValueError(
                f"got {len(timeouts)} timeouts for {len(requests)} "
                f"requests"
            )
        per_worker: dict[int, list[int]] = {}
        for index, (slot, _) in enumerate(requests):
            per_worker.setdefault(slot % self.n_workers, []).append(index)

        # Scatter: every worker gets its whole queue up front, so all
        # workers compute concurrently while we gather sequentially.
        templates = templates or {}
        for slot, indices in per_worker.items():
            self._send_all(
                slot, [requests[i][1] for i in indices], templates
            )

        responses: list = [None] * len(requests)
        failure: tuple | None = None
        for slot, indices in per_worker.items():
            answered = 0
            attempts = 0
            while answered < len(indices):
                handle = self._workers[slot]
                timeout = timeouts[indices[answered]]
                try:
                    status, payload = self._recv(handle, timeout, slot)
                except (_WorkerGone, _WorkerHung) as why:
                    hung = isinstance(why, _WorkerHung)
                    if hung:
                        self.hangs += 1
                    attempts += 1
                    if hung:
                        # The process is alive but silent; it cannot
                        # break its own pipe, so reap it explicitly.
                        self.kill_worker(slot)
                    if attempts > self.max_retries:
                        error = (
                            WorkerHangError if hung else WorkerCrashError
                        )
                        verb = "hung" if hung else "killed"
                        raise error(
                            f"shard {verb} worker slot {slot} "
                            f"{attempts} times (request "
                            f"{indices[answered]}); giving up",
                            slot=slot,
                        ) from None
                    self._restart(slot)
                    self._send_all(
                        slot,
                        [requests[i][1] for i in indices[answered:]],
                        templates,
                    )
                    continue
                if status == "error" and failure is None:
                    failure = payload
                responses[indices[answered]] = (
                    payload if status == "ok" else None
                )
                answered += 1
                attempts = 0
                self._slot_streaks[slot] = 0
                self.shards_executed += 1
        if failure is not None:
            name, message, worker_traceback = failure
            error = WorkerError(
                f"worker raised {name}: {message}\n"
                f"--- worker traceback ---\n{worker_traceback}"
            )
            if name == InvalidCircuitError.__name__:
                # Keep the admission error's type across the pipe, so
                # callers see the same error as in-process execution.
                raise InvalidCircuitError(message) from error
            raise error
        return responses

    def _recv(
        self, handle: _WorkerHandle, timeout: float | None, slot: int
    ):
        """One answer from a worker, absorbing heartbeats.

        Blocks until a non-heartbeat message arrives.  With a timeout,
        every received message — heartbeat included — restarts the
        silence clock; a gap longer than ``timeout`` raises
        :class:`_WorkerHung`.

        Raises:
            _WorkerGone: The pipe broke (worker process died).
            _WorkerHung: No message within ``timeout`` seconds.
        """
        while True:
            if timeout is not None:
                deadline = _monotonic() + timeout
                try:
                    ready = handle.conn.poll(timeout)
                except (EOFError, OSError):
                    raise _WorkerGone() from None
                if not ready and _monotonic() >= deadline:
                    raise _WorkerHung()
                if not ready:
                    continue
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                raise _WorkerGone() from None
            status, payload = message
            if status == "hb":
                self._slot_streaks[slot] = 0
                continue
            return status, payload

    def _send_all(
        self, slot: int, messages: list, templates: dict, attempts: int = 0
    ) -> None:
        """Deliver a batch of unanswered messages to one worker.

        A request naming a template digest the slot does not hold yet
        is preceded by that template (see the module docstring).

        Crash recovery must replay the **whole** batch, not the tail:
        none of this batch's responses have been consumed yet, so work
        the dead worker received is simply lost — and any responses it
        buffered die with its pipe when :meth:`_restart` replaces it.
        Replaying only the unsent suffix would desynchronize the
        gather loop's response/request alignment (and hang it waiting
        for replies that can never come).  Replays are bounded by
        ``max_retries``, so a message that reliably kills workers on
        delivery escalates instead of respawning forever.
        """
        handle = self._workers[slot]
        if handle is None or not handle.alive():
            handle = self._restart(slot)
        held = self._held[slot]
        for message in messages:
            kind, payload = message
            try:
                if _faults.ACTIVE is not None:
                    _faults.ACTIVE.fire(_faults.SITE_POOL_PIPE, slot=slot)
                if kind in ("sweep", "probs") and payload[0] not in held:
                    digest = payload[0]
                    handle.conn.send(("template", (digest, templates[digest])))
                    _register(held, digest, None)
                handle.conn.send(message)
            except (BrokenPipeError, OSError):
                if attempts >= self.max_retries:
                    raise WorkerCrashError(
                        f"worker slot {slot} died {attempts + 1} times "
                        f"during message delivery; giving up",
                        slot=slot,
                    ) from None
                self._restart(slot)
                self._send_all(slot, messages, templates, attempts + 1)
                return

    # -- telemetry -------------------------------------------------------

    def stats(self) -> dict:
        """Pool telemetry snapshot."""
        return {
            "workers": self.n_workers,
            "alive": self.alive_workers(),
            "restarts": self.restarts,
            "hangs": self.hangs,
            "restart_budget": self.restart_budget,
            "shards_executed": self.shards_executed,
            "closed": self._closed,
            "backend": self.spec.describe(),
        }

    def __repr__(self) -> str:
        return (
            f"WorkerPool({self.spec.describe()}, "
            f"workers={self.n_workers}, alive={self.alive_workers()})"
        )
