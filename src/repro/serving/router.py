"""Multi-backend router: spread flushed batches across execution targets.

One simulator (or one device) saturates; a fleet of them serves more.
The router owns a pool of :class:`~repro.hardware.Backend` objects and
picks which one executes each flushed batch:

* ``"round_robin"`` — rotate through the pool in order; fair when all
  backends are equally fast and batches are equally sized;
* ``"least_outstanding"`` — pick the backend with the fewest batches
  currently in flight; adapts when backends differ in speed or batches
  differ in cost (the classic load-balancer heuristic).

Each backend executes at most :attr:`~repro.hardware.Backend.run_slots`
batches at a time (a per-backend semaphore): one on a single-process
backend, whose sampled runs must draw from its RNG in flush order, and
one per worker process on an exact
:class:`~repro.parallel.ShardedBackend`, whose pool overlaps them.
``least_outstanding`` doubles as a queue-depth signal.  Per-backend
meters stay the source of truth for usage; :meth:`Router.stats` rolls
them up for service-level reporting.

Health-aware routing: every backend sits behind a
:class:`~repro.resilience.CircuitBreaker`.  A backend that fails
``failure_threshold`` consecutive flushes stops receiving traffic
until its cooldown elapses, then gets a half-open probe (naturally
bounded by its run slots); selection only considers available
backends, so a dead node degrades the pool's capacity instead of
poisoning a fixed fraction of flushes.  When *every* breaker is open,
the router routes to the one closest to probe time rather than
refusing outright — an all-open pool usually means a shared transient,
and refusing would turn it into total unavailability.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence

from repro.hardware.backend import Backend, RunResults
from repro.resilience.breaker import CircuitBreaker

#: Selection policies understood by :class:`Router`.
POLICIES = ("round_robin", "least_outstanding")


class Router:
    """Dispatch batches over a pool of backends under one policy.

    Args:
        backends: Non-empty backend pool.
        policy: One of :data:`POLICIES`.
        failure_threshold: Consecutive flush failures that open a
            backend's breaker.
        reset_timeout_s: Open-breaker cooldown before a probe.
        clock: Monotonic time source for the breakers (injectable for
            tests).
    """

    def __init__(
        self,
        backends: Sequence[Backend],
        policy: str = "round_robin",
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        clock=time.monotonic,
    ):
        backends = list(backends)
        if not backends:
            raise ValueError("Router needs at least one backend")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; expected one of "
                f"{POLICIES}"
            )
        self.backends = backends
        self.policy = policy
        self.breakers = [
            CircuitBreaker(
                failure_threshold=failure_threshold,
                reset_timeout_s=reset_timeout_s,
                clock=clock,
            )
            for _ in backends
        ]
        self._lock = threading.Lock()
        self._next = 0
        self._outstanding = [0] * len(backends)
        self._dispatched = [0] * len(backends)
        self._circuits = [0] * len(backends)
        self._run_slots = [
            threading.Semaphore(backend.run_slots) for backend in backends
        ]

    def results_deterministic(self) -> bool:
        """True when every backend in the pool is deterministic."""
        return all(b.results_deterministic() for b in self.backends)

    def exact_execution(self) -> bool:
        """True when every backend in the pool executes exactly.

        The pool-level form of :meth:`repro.hardware.Backend.
        exact_execution`: a flush could land on any backend, so
        ``shots=0`` submissions are legal only when all of them ignore
        the shot count.
        """
        return all(b.exact_execution() for b in self.backends)

    def _select(self) -> int:
        healthy = [
            i
            for i in range(len(self.backends))
            if self.breakers[i].available()
        ]
        if not healthy:
            # Every breaker is open: route to the backend closest to
            # its probe window instead of refusing the flush outright.
            return min(
                range(len(self.backends)),
                key=lambda i: self.breakers[i].cooldown_remaining(),
            )
        if self.policy == "round_robin":
            # First healthy backend at or after the rotation cursor.
            for offset in range(len(self.backends)):
                index = (self._next + offset) % len(self.backends)
                if index in healthy:
                    self._next = (index + 1) % len(self.backends)
                    return index
        # least_outstanding: healthy backend with the fewest in-flight
        # batches; stable tie-break keeps single-backend pools trivial.
        return min(healthy, key=lambda i: self._outstanding[i])

    def execute(
        self,
        circuits: Sequence,
        shots: int,
        purpose: str,
        validate: bool = True,
    ) -> tuple[RunResults, Backend, dict]:
        """Route one batch to a backend and run it.

        ``circuits`` is whatever :meth:`Backend.run` takes — the
        scheduler's flushes hand it one stacked
        :class:`~repro.circuits.sweep.Sweep`.  Selection and in-flight
        accounting happen under the router lock;
        execution itself holds one of the chosen backend's run slots,
        so distinct backends — and the slots of one sharded backend —
        execute concurrently.

        Returns:
            ``(results, backend, window)`` — ``window`` is the usage
            this batch alone added to the backend's meter, shaped like
            :meth:`~repro.hardware.CircuitRunMeter.snapshot`: the rows
            and shots it ran, under its purpose.
        """
        with self._lock:
            index = self._select()
            self._outstanding[index] += 1
            self._dispatched[index] += 1
            self._circuits[index] += len(circuits)
        backend = self.backends[index]
        breaker = self.breakers[index]
        breaker.on_dispatch()
        try:
            with self._run_slots[index]:
                results = backend.run(
                    circuits, shots=shots, purpose=purpose,
                    validate=validate,
                )
            breaker.record_success()
            return results, backend, _window(results, purpose)
        except Exception as exc:
            breaker.record_failure()
            # Failure context for the scheduler's FlushError: which
            # backend this flush died on (the exception type alone
            # cannot say — the same error can come from any node).
            exc.backend_name = backend.name
            raise
        finally:
            with self._lock:
                self._outstanding[index] -= 1

    def meter_totals(self) -> dict:
        """Pool-wide roll-up of every backend's usage meter."""
        totals = {
            "circuits": 0,
            "shots": 0,
            "by_purpose": {},
            "shots_by_purpose": {},
        }
        for backend in self.backends:
            snapshot = backend.meter.snapshot()
            totals["circuits"] += snapshot["circuits"]
            totals["shots"] += snapshot["shots"]
            for purpose, count in snapshot["by_purpose"].items():
                totals["by_purpose"][purpose] = (
                    totals["by_purpose"].get(purpose, 0) + count
                )
            for purpose, count in snapshot["shots_by_purpose"].items():
                totals["shots_by_purpose"][purpose] = (
                    totals["shots_by_purpose"].get(purpose, 0) + count
                )
        return totals

    def stats(self) -> dict:
        """Per-backend dispatch counters plus meter snapshots."""
        with self._lock:
            outstanding = list(self._outstanding)
            dispatched = list(self._dispatched)
            circuits = list(self._circuits)
        breaker_stats = [b.stats() for b in self.breakers]
        return {
            "policy": self.policy,
            "backends": [
                {
                    "name": backend.name,
                    "dispatched_batches": dispatched[i],
                    "dispatched_circuits": circuits[i],
                    "outstanding": outstanding[i],
                    "meter": backend.meter.snapshot(),
                    "breaker": breaker_stats[i],
                }
                for i, backend in enumerate(self.backends)
            ],
            "breaker_states": [b["state"] for b in breaker_stats],
            "breaker_trips": sum(b["trips"] for b in breaker_stats),
            "meter_totals": self.meter_totals(),
        }


def _window(results: RunResults, purpose: str) -> dict:
    """The meter usage of one run: its rows and the shots they used.

    Zero entries are left out of the per-purpose breakdowns, as in
    :meth:`~repro.hardware.CircuitRunMeter.diff`.
    """
    n, shots = len(results), results.shots
    return {
        "circuits": n,
        "shots": shots,
        "by_purpose": {purpose: n} if n else {},
        "shots_by_purpose": {purpose: shots} if shots else {},
    }
