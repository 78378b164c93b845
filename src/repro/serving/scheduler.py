"""Coalescing scheduler: turn many small submissions into few big batches.

The batched engine is fastest when a backend receives *many*
same-structure rows at once — but individual clients each submit only
a handful.  The scheduler closes that gap: it drains the service's
:class:`~repro.serving.JobQueue` and coalesces work items — the
admitted angle-matrix rows of one structure group of one job — into
**buckets** keyed by

    ``(sweep template, shots, purpose)``

so rows from independent clients that share a structural template
(the normal case: every parameter-shift clone, every re-encoded data
row of one task) accumulate into a single bucket.  A bucket is flushed
to the :class:`~repro.serving.Router` when either

* it reaches ``max_batch_size`` rows (**size flush**) — an item larger
  than the bucket's room is split, and its remainder opens the next
  bucket, or
* its oldest item has waited ``max_delay_s`` seconds (**deadline
  flush**) — the latency bound a single idle client pays.

Each flush concatenates its items' rows into one
:class:`~repro.circuits.sweep.Sweep` and makes one ``Backend.run``
call with it on one routed backend — one vectorized execution of one
structure group; shots and purpose are part of the bucket key
precisely so the whole bucket is a legal single submission (one shot
setting, one meter tag).  The flush's result matrices are then
handed out by row ranges: each item's rows go into its job's result
matrices in one assignment, and the whole flush into the result cache
in one call.  Flushes are handed to a small dispatch pool with one
thread per backend run slot (:attr:`~repro.hardware.Backend.run_slots`:
one per backend, or one per worker process of an exact sharded
backend), so a slow backend never stalls coalescing for the others and
a sharded backend's workers each have a flush to run.

Failure handling (the resilience tier)
--------------------------------------
Before a flush executes, items whose job is already resolved
(cancelled, failed) or past its deadline are dropped — a dead job must
not consume backend time.  The flush itself then runs under a
:class:`~repro.resilience.RetryPolicy`: transient failures (worker
crashes, injected chaos) are retried with exponential backoff and
jitter, each attempt re-routed — the breaker-aware router naturally
steers retries away from the backend that just failed.  When retries
are exhausted — or the failure is deterministic and retrying would be
pointless — a multi-item flush is **bisected** by work items: each half
retries independently, recursively, until the poisoned item is
isolated to a single-item flush whose job alone fails (with a
:class:`~repro.resilience.FlushError` carrying the backend name, flush
key, attempt count, and worker slot).  Healthy items riding in the
same bucket as a poison pill still get their results.
"""

from __future__ import annotations

import _thread
import dataclasses
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.circuits.sweep import Sweep
from repro.resilience import faults as _faults
from repro.resilience.errors import DeadlineExceeded, FlushError
from repro.resilience.retry import RetryPolicy
from repro.serving.cache import ResultCache
from repro.serving.queue import JobQueue
from repro.serving.router import Router


@dataclasses.dataclass
class WorkItem:
    """The admitted rows of one structure group of one job.

    Attributes:
        sweep: The admitted :class:`~repro.circuits.sweep.Sweep` of the
            group (its angle matrices are a snapshot taken at submit).
        rows: Index array of this item's rows in ``sweep`` — also their
            rows in the job's result matrices for the group.
        shots: Requested shots.
        purpose: Usage-meter tag.
        job: The originating :class:`~repro.serving.ServiceJob`.
        group: Which of the job's structure groups ``sweep`` is.
        keys: Result-cache keys, one per row, pre-computed at submit
            time (``None`` when the cache is disabled).
        release: Called exactly once, with the row count, when the
            item resolves (results or failure); the service's
            backpressure accounting.
    """

    sweep: Sweep
    rows: np.ndarray
    shots: int
    purpose: str
    job: object
    group: int = 0
    keys: list[bytes] | None = None
    release: object | None = None

    @property
    def size(self) -> int:
        return len(self.rows)

    def split(self, k: int) -> tuple["WorkItem", "WorkItem"]:
        """The first ``k`` rows and the rest, as two items of the job."""
        keys = self.keys
        return tuple(
            dataclasses.replace(
                self,
                rows=self.rows[part],
                keys=None if keys is None else keys[part],
            )
            for part in (slice(None, k), slice(k, None))
        )

    def resolve(self) -> None:
        """Return the item's rows to the service's pending count."""
        if self.release is not None:
            self.release(self.size)


def stack_rows(items: list[WorkItem]) -> Sweep:
    """The rows of same-template items, in item order, as one sweep.

    Carries the admitted angle rows along (admission already resolved
    and checked them); an item holding all of its sweep's rows adds
    its matrices as they are, and a lone one flushes its sweep.
    """
    first = items[0]
    whole = [item.size == item.sweep.size for item in items]
    if len(items) == 1 and whole[0]:
        return first.sweep
    return Sweep.admitted(
        first.sweep.template,
        *(
            np.concatenate([
                getattr(item.sweep, name) if full
                else getattr(item.sweep, name)[item.rows]
                for item, full in zip(items, whole)
            ])
            for name in ("literals", "params", "angles")
        ),
    )


class _Bucket:
    """Accumulating same-key work items plus their flush deadline."""

    __slots__ = ("items", "rows", "deadline")

    def __init__(self, deadline: float):
        self.items: list[WorkItem] = []
        self.rows = 0
        self.deadline = deadline


def _surface_interrupt(future) -> None:
    """Deliver a dispatch worker's process-level interrupt to the user.

    ``_run_batch`` re-raises non-``Exception`` exceptions after failing
    the affected jobs, but the pool stores them on a Future nobody
    reads.  This done-callback forwards them to the main thread as a
    ``KeyboardInterrupt`` (the standard "stop the process" signal), so
    a Ctrl-C or ``SystemExit`` raised mid-flush cannot die silently in
    a worker.
    """
    exc = future.exception()
    if exc is not None and not isinstance(exc, Exception):
        _thread.interrupt_main()


class CoalescingScheduler:
    """Background consumer that batches queue items and dispatches them.

    Args:
        queue: Intake queue (closed by the owning service on stop).
        router: Backend pool executing flushed batches.
        cache: Optional result cache to fill after execution.
        max_batch_size: Size-flush threshold per bucket.
        max_delay_s: Deadline-flush bound per bucket.
        retry_policy: Transient-failure policy for flushes (``None`` =
            default :class:`RetryPolicy`).
    """

    def __init__(
        self,
        queue: JobQueue,
        router: Router,
        cache: ResultCache | None = None,
        max_batch_size: int = 256,
        max_delay_s: float = 0.005,
        retry_policy: RetryPolicy | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_delay_s < 0:
            raise ValueError("max_delay_s cannot be negative")
        self._queue = queue
        self._router = router
        self._cache = cache
        self.max_batch_size = int(max_batch_size)
        self.max_delay_s = float(max_delay_s)
        self.retry_policy = retry_policy or RetryPolicy()
        # Jitter source for retry backoff; seeded so test timings are
        # stable (jitter never touches results, only sleep lengths).
        self._retry_rng = random.Random(0)
        self._buckets: dict[tuple, _Bucket] = {}
        self._thread: threading.Thread | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._stats_lock = threading.Lock()
        self.flushes = 0
        self.size_flushes = 0
        self.deadline_flushes = 0
        self.drain_flushes = 0
        self.circuits_dispatched = 0
        self.largest_batch = 0
        self.last_flush: dict | None = None
        # Resilience telemetry.
        self.retries = 0
        self.bisections = 0
        self.flush_failures = 0
        self.deadline_failures = 0
        self.dropped_resolved = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Spawn the consumer thread and the dispatch pool."""
        if self._thread is not None:
            return
        self._pool = ThreadPoolExecutor(
            max_workers=sum(b.run_slots for b in self._router.backends),
            thread_name_prefix="repro-serving-dispatch",
        )
        self._thread = threading.Thread(
            target=self._loop, name="repro-serving-scheduler", daemon=True
        )
        self._thread.start()

    def join(self) -> None:
        """Wait for the consumer to drain after the queue closes."""
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- consumer loop ---------------------------------------------------

    def _next_deadline(self) -> float | None:
        if not self._buckets:
            return None
        return min(bucket.deadline for bucket in self._buckets.values())

    def _loop(self) -> None:
        while True:
            deadline = self._next_deadline()
            if deadline is None:
                # No bucket waiting: block until work arrives or the
                # queue closes (both notify) — an idle service costs
                # zero wakeups.
                timeout = None
            else:
                timeout = max(0.0, deadline - time.monotonic())
            # Every queued item per wakeup: a size flush depends only on
            # the order items arrive in, so taking them together forms
            # the flushes taking them one at a time would.
            items = self._queue.get_all(timeout=timeout)
            if not items and self._queue.closed:
                self._flush_all("drain")
                return
            for item in items:
                self._add(item)
            self._flush_expired()

    def _add(self, item: WorkItem) -> None:
        # Admission shares one template object per structure, so the
        # template itself keys the bucket — by identity, no signature
        # hashing.
        key = (item.sweep.template, item.shots, item.purpose)
        while item is not None:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = _Bucket(time.monotonic() + self.max_delay_s)
                self._buckets[key] = bucket
            # An item larger than the bucket's room fills it and opens
            # the next bucket with the rest, so each flush holds the
            # rows it would if they had arrived one at a time.
            room = self.max_batch_size - bucket.rows
            if item.size > room:
                head, item = item.split(room)
            else:
                head, item = item, None
            bucket.items.append(head)
            bucket.rows += head.size
            if bucket.rows >= self.max_batch_size:
                del self._buckets[key]
                self._dispatch(bucket, "size")

    def _flush_expired(self) -> None:
        now = time.monotonic()
        for key in [
            k for k, b in self._buckets.items() if b.deadline <= now
        ]:
            self._dispatch(self._buckets.pop(key), "deadline")

    def _flush_all(self, reason: str) -> None:
        for key in list(self._buckets):
            self._dispatch(self._buckets.pop(key), reason)

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, bucket: _Bucket, reason: str) -> None:
        with self._stats_lock:
            self.flushes += 1
            if reason == "size":
                self.size_flushes += 1
            elif reason == "deadline":
                self.deadline_flushes += 1
            else:
                self.drain_flushes += 1
            self.circuits_dispatched += bucket.rows
            self.largest_batch = max(self.largest_batch, bucket.rows)
        for item in bucket.items:
            item.job._mark_running()
        assert self._pool is not None
        future = self._pool.submit(self._run_batch, bucket.items, reason)
        # The future is otherwise discarded, which would swallow a
        # re-raised KeyboardInterrupt/SystemExit from the worker.
        future.add_done_callback(_surface_interrupt)

    def _screen(self, items: list[WorkItem]) -> list[WorkItem]:
        """Drop items whose job no longer wants a result.

        Cancelled and already-failed jobs are released silently; jobs
        past their deadline are failed with :class:`DeadlineExceeded`
        here, *before* the flush burns backend time on them.
        """
        live: list[WorkItem] = []
        for item in items:
            job = item.job
            if getattr(job, "error", None) is not None:
                item.resolve()
                with self._stats_lock:
                    self.dropped_resolved += item.size
                continue
            deadline = getattr(job, "deadline", None)
            if deadline is not None and deadline.expired():
                job._fail(
                    DeadlineExceeded(
                        f"{getattr(job, 'job_id', 'job')} missed its "
                        f"deadline before execution"
                    )
                )
                item.resolve()
                with self._stats_lock:
                    self.deadline_failures += item.size
                continue
            live.append(item)
        return live

    def _run_batch(self, items: list[WorkItem], reason: str) -> None:
        items = self._screen(items)
        if items:
            self._run_slice(items, reason)

    def _run_slice(self, items: list[WorkItem], reason: str) -> None:
        """Execute one flush slice: retry transients, bisect poison.

        The recursion bottoms out at single-item slices — the rows of
        one job — so a deterministic failure is always quarantined to
        exactly the jobs that caused it.
        """
        sweep = stack_rows(items)
        shots = items[0].shots
        purpose = items[0].purpose
        attempts = 0

        def attempt():
            nonlocal attempts
            attempts += 1
            if _faults.ACTIVE is not None:
                # Fired per *attempt*, so `at=1` poisons only the first
                # try (a retry succeeds) while `every=1` poisons all of
                # them (bisection takes over).
                _faults.ACTIVE.fire(
                    _faults.SITE_SERVING_FLUSH,
                    shots=shots,
                    purpose=purpose,
                )
            # validate=False: every row's template was validated at
            # submit time; re-checking per flush would double the cost.
            return self._router.execute(
                sweep, shots=shots, purpose=purpose, validate=False
            )

        def count_retry(attempt_no, exc):
            with self._stats_lock:
                self.retries += 1

        try:
            results, backend, window = self.retry_policy.run(
                attempt, rng=self._retry_rng, on_retry=count_retry
            )
        except BaseException as exc:
            if not isinstance(exc, Exception):
                # KeyboardInterrupt / SystemExit must not be swallowed
                # by a dispatch worker: fail the waiting jobs so their
                # clients unblock, then let the exception surface.
                for item in items:
                    item.job._fail(exc)
                    item.resolve()
                raise
            if len(items) > 1:
                # The poison could be any member: bisect, letting each
                # half retry independently until it is isolated.
                with self._stats_lock:
                    self.bisections += 1
                mid = len(items) // 2
                self._run_slice(items[:mid], reason)
                self._run_slice(items[mid:], reason)
                return
            with self._stats_lock:
                self.flush_failures += 1
            failure = FlushError(
                f"flush failed after {attempts} attempt(s): {exc}",
                backend=getattr(exc, "backend_name", None),
                flush_key=(sweep.structure_signature(), shots, purpose),
                attempts=attempts,
                worker=getattr(exc, "slot", None),
            )
            failure.__cause__ = exc
            for item in items:
                item.job._fail(failure)
                item.resolve()
            return
        with self._stats_lock:
            self.last_flush = {
                "reason": reason,
                "batch_size": sweep.size,
                "backend": backend.name,
                "meter": window,
            }
        expectations, outcomes = results.expectations, results.outcomes
        if self._cache is not None and items[0].keys is not None:
            # The flush's rows are its items' rows in order: one call
            # caches them all.
            self._cache.put_many(
                [key for item in items for key in item.keys],
                expectations,
            )
        used = 0 if outcomes is None else shots
        start = 0
        for item in items:
            stop = start + item.size
            item.job._fulfill(
                item.group,
                item.rows,
                expectations[start:stop],
                None if outcomes is None else outcomes[start:stop],
                used,
            )
            item.resolve()
            start = stop

    def stats(self) -> dict:
        """Telemetry snapshot."""
        with self._stats_lock:
            return {
                "flushes": self.flushes,
                "size_flushes": self.size_flushes,
                "deadline_flushes": self.deadline_flushes,
                "drain_flushes": self.drain_flushes,
                "circuits_dispatched": self.circuits_dispatched,
                "largest_batch": self.largest_batch,
                "retries": self.retries,
                "bisections": self.bisections,
                "flush_failures": self.flush_failures,
                "deadline_failures": self.deadline_failures,
                "dropped_resolved": self.dropped_resolved,
                "pending_buckets": len(self._buckets),
                "max_batch_size": self.max_batch_size,
                "max_delay_s": self.max_delay_s,
                "last_flush": dict(self.last_flush)
                if self.last_flush
                else None,
            }
