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
A worker executes its requests in the order they arrive and answers
each one, so the parent always knows which request a worker is
running: the head of that slot's FIFO, started when its predecessor's
answer went out.  The silence clock for a request therefore starts
when the previous answer is read, and the pool detects and survives
three distinct failures:

* **crash** — a worker that dies mid-shard (OOM kill, segfault in a
  native extension, injected ``kill``) is detected by its broken pipe;
  the pool spawns a fresh worker in the same slot and replays the
  slot's unanswered requests, every caller's, in order.  Because shard
  seeds are position-keyed, a retried shard reproduces exactly the
  results the dead worker would have produced.
* **hang** — a worker that stops making progress (deadlock, runaway
  native call, injected ``hang``) cannot break its own pipe, so the
  slot's reader enforces a per-shard **timeout** (derived from the
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

Concurrent calls
----------------
Several threads may call :meth:`WorkerPool.run_shards` at once, so one
call's scatter overlaps another's compute.  Each slot keeps a FIFO of
requests sent but not yet answered; a worker answers in send order, so
every answer belongs to the FIFO's head, whichever call happens to be
reading the pipe.  A call that gives up (an escalation) leaves its
other requests queued, and their answers are consumed in turn rather
than read by the next call as its own.

Chaos hooks: the worker loop fires the ``worker.shard`` injection site
before executing each shard, and the parent fires ``pool.pipe`` before
each pipe send — see :mod:`repro.resilience.faults`.  Spawned workers
install the parent's :class:`~repro.resilience.FaultPlan` (shipped as
a spawn argument) tagged with their spawn index, so plans can target
"first-generation workers only" and let replacements survive.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
import weakref
from collections import deque

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
            # Registration only: no answer.
            _register(templates, *payload)
            continue
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
    """One pool slot: a spawned process plus its parent-side pipe end.

    ``broken`` marks a handle whose pipe failed a send: nothing more
    may reach that worker, since a later message would overtake the
    lost one.
    """

    __slots__ = ("process", "conn", "broken")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.broken = False

    def alive(self) -> bool:
        return self.process.is_alive()


class _Request:
    """One request sent to a slot and not yet answered.

    A slot's worker answers its requests in the order they were sent,
    so every answer belongs to the head of the slot's FIFO of these.
    """

    __slots__ = (
        "slot", "message", "template", "timeout", "attempts", "status",
        "payload",
    )

    def __init__(self, slot: int, message: tuple, template, timeout):
        self.slot = slot
        self.message = message
        self.template = template
        self.timeout = timeout
        #: Worker deaths while this request was the slot's head.
        self.attempts = 0
        #: ``None`` until answered: ``"ok"``, ``"error"`` (a worker-side
        #: exception) or ``"raise"`` (an escalation class and message).
        self.status: str | None = None
        self.payload = None

    def finish(self, status: str, payload) -> None:
        self.payload = payload
        self.status = status


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
    never outlive the parent).

    :meth:`run_shards` is safe to call from several threads at once:
    each slot keeps a FIFO of requests sent but not yet answered, and
    whichever caller is reading a slot hands each answer to the head of
    that FIFO, so calls overlap in the workers without ever taking one
    another's answers.  :meth:`close` must not race a call in flight.
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
        #: Per slot: requests sent but not yet answered, in send order.
        self._pending = [deque() for _ in range(self.n_workers)]
        #: Per slot: held to send, and to respawn and replay.
        self._send_locks = [threading.Lock() for _ in range(self.n_workers)]
        #: Per slot: at most one caller reads its pipe; waiters sleep here.
        self._turns = [threading.Condition() for _ in range(self.n_workers)]
        self._reading = [False] * self.n_workers
        #: Spawn bookkeeping, the restart budget and the counters.
        self._lock = threading.RLock()
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
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
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
        with self._lock:
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
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._finalizer.detach()
            live = [w for w in self._workers if w is not None]
            self._workers = [None] * self.n_workers
        _shutdown([w.process for w in live], [w.conn for w in live])

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

    def _retire(self, slot: int) -> None:
        """Take ``slot``'s worker down for good: close, then reap.

        The parent-side pipe end is closed *before* the process is
        reaped (a respawn that leaked fds eventually exhausted the
        parent's descriptor table under a crash storm), and nothing is
        ever read from it again — answers the old worker buffered die
        with it.  Termination escalates SIGTERM → SIGKILL (a hung
        worker ignores SIGTERM).  The next request respawns the slot.
        """
        handle = self._workers[slot]
        if handle is None:
            return
        self._workers[slot] = None
        try:
            handle.conn.close()
        except OSError:
            pass
        _stop_process(handle.process)

    def _restart(self, slot: int) -> _WorkerHandle:
        """Replace the worker in ``slot``: retire, back off, respawn.

        The respawn is delayed by the slot's exponential backoff, and
        every restart draws from the pool-lifetime budget.

        Raises:
            RestartBudgetExhausted: The budget hit zero — the caller
                (ultimately the facade) should degrade, not loop.
        """
        self._retire(slot)
        with self._lock:
            if self.restarts >= self.restart_budget:
                raise RestartBudgetExhausted(
                    f"worker pool spent its restart budget "
                    f"({self.restart_budget}); degrading instead of "
                    f"respawning further",
                    slot=slot,
                )
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
        order given, after any that other calls sent it first; distinct
        workers execute concurrently.  Returns one response payload per
        request, aligned with the input order.

        Args:
            requests: The scatter plan.
            timeouts: Per-request progress timeouts in seconds — a
                scalar applies to every request, a list aligns with
                ``requests``, ``None`` disables hung-shard detection.
                The clock starts when the worker's previous answer is
                read, so the timeout bounds one request's *silence*,
                not the wait behind requests queued ahead of it.
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
        templates = templates or {}
        pending = [
            _Request(
                slot % self.n_workers,
                message,
                templates[message[1][0]]
                if message[0] in ("sweep", "probs") else None,
                timeout,
            )
            for (slot, message), timeout in zip(requests, timeouts)
        ]
        per_worker: dict[int, list[_Request]] = {}
        for request in pending:
            per_worker.setdefault(request.slot, []).append(request)

        # Scatter: every worker gets this call's whole queue up front,
        # behind whatever other calls already sent it.
        for slot, batch in per_worker.items():
            with self._send_locks[slot]:
                self._pending[slot].extend(batch)
                for request in batch:
                    self._deliver(request)

        failure: tuple | None = None
        for request in pending:
            self._await(request)
            if request.status == "raise":
                error, message = request.payload
                raise error(message, slot=request.slot) from None
            if request.status == "error" and failure is None:
                failure = request.payload
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
        return [
            request.payload if request.status == "ok" else None
            for request in pending
        ]

    def _deliver(self, request: _Request) -> None:
        """Send one request to its slot's worker (send lock held).

        A request naming a template digest the slot does not hold yet
        is preceded by that template (see the module docstring), and a
        retired slot is respawned first.  A failed send leaves the
        request in the FIFO, marks the handle broken and kills its
        process: the slot's reader then sees EOF after any answers
        already buffered, and :meth:`_recover` replays the FIFO on a
        fresh worker.
        """
        slot = request.slot
        handle = self._workers[slot]
        if handle is None:
            # Retired with nothing queued: no caller is reading it.
            try:
                handle = self._restart(slot)
            except RestartBudgetExhausted as exc:
                self._fail_all(slot, exc)
                return
        if handle.broken or request.status is not None:
            return
        try:
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire(_faults.SITE_POOL_PIPE, slot=slot)
            held = self._held[slot]
            if request.template is not None:
                digest = request.message[1][0]
                if digest not in held:
                    handle.conn.send(("template", (digest, request.template)))
                    _register(held, digest, None)
            handle.conn.send(request.message)
        except (BrokenPipeError, OSError):
            handle.broken = True
            handle.process.kill()

    def _await(self, request: _Request) -> None:
        """Block until ``request`` is answered.

        At most one caller reads a slot's pipe at a time; it reads one
        message, hands it to the FIFO's head — its own request or
        another call's — and wakes the slot's waiters, which check
        their own requests before one of them reads on.
        """
        slot = request.slot
        turn = self._turns[slot]
        with turn:
            while request.status is None:
                if self._reading[slot]:
                    turn.wait()
                    continue
                self._reading[slot] = True
                turn.release()
                try:
                    self._read_one(slot)
                finally:
                    turn.acquire()
                    self._reading[slot] = False
                    turn.notify_all()

    def _read_one(self, slot: int) -> None:
        """Answer the head of ``slot``'s FIFO, or recover the slot."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        fifo = self._pending[slot]
        head = fifo[0]
        handle = self._workers[slot]
        try:
            if handle is None:
                # A recovery whose respawn raised left the slot empty.
                raise _WorkerGone()
            status, payload = self._recv(handle, head.timeout)
        except (_WorkerGone, _WorkerHung) as why:
            self._recover(slot, isinstance(why, _WorkerHung))
            return
        fifo.popleft()
        head.finish(status, payload)
        self._slot_streaks[slot] = 0
        with self._lock:
            self.shards_executed += 1

    def _recover(self, slot: int, hung: bool) -> None:
        """Respawn ``slot``'s worker and replay its whole FIFO.

        The death is charged to the FIFO's head: the worker executes
        requests in order, so the head is what it was running.  A head
        charged more than ``max_retries`` times is answered with the
        escalation instead of replayed.  Every other request of every
        caller is replayed in order — none of their answers has been
        read, and any the dead worker buffered died with its pipe — so
        the FIFO and the fresh worker's answers stay aligned.  An empty
        FIFO leaves the slot retired until its next request.  When the
        restart budget runs out, every request in the FIFO is answered
        with :class:`RestartBudgetExhausted`.
        """
        fifo = self._pending[slot]
        head = fifo[0]
        head.attempts += 1
        if hung:
            with self._lock:
                self.hangs += 1
            # The process is alive but silent; it cannot break its own
            # pipe, so reap it explicitly (this also unblocks a sender
            # stuck on its full pipe).
            self.kill_worker(slot)
        with self._send_locks[slot]:
            if head.attempts > self.max_retries:
                fifo.popleft()
                verb = "hung" if hung else "killed"
                head.finish("raise", (
                    WorkerHangError if hung else WorkerCrashError,
                    f"shard {verb} worker slot {slot} {head.attempts} "
                    f"times; giving up",
                ))
            if not fifo:
                self._retire(slot)
                return
            try:
                self._restart(slot)
            except RestartBudgetExhausted as exc:
                self._fail_all(slot, exc)
                return
            for request in fifo:
                self._deliver(request)

    def _fail_all(self, slot: int, exc: RestartBudgetExhausted) -> None:
        """Answer every request queued on ``slot`` with ``exc``."""
        fifo = self._pending[slot]
        while fifo:
            fifo.popleft().finish("raise", (type(exc), str(exc)))

    def _recv(self, handle: _WorkerHandle, timeout: float | None):
        """One answer from a worker.

        With a timeout, silence longer than ``timeout`` raises
        :class:`_WorkerHung`.

        Raises:
            _WorkerGone: The pipe broke (worker process died).
            _WorkerHung: No answer within ``timeout`` seconds.
        """
        try:
            if timeout is not None and not handle.conn.poll(timeout):
                raise _WorkerHung()
            return handle.conn.recv()
        except (EOFError, OSError):
            raise _WorkerGone() from None

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
