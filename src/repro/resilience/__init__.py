"""Resilience tier: deterministic chaos, retries, breakers, deadlines.

The failure-behavior subsystem the rest of the stack wires through
(ROADMAP item 4 — the prerequisite for trusting multi-node serving
under real traffic)::

    FaultPlan ──install()──> faults.ACTIVE ──fire(site)──> kill / hang /
         (seeded, picklable,       │                       raise / delay
          ships to workers)        └─ None when disabled: zero overhead

    RetryPolicy     — exponential backoff + jitter; retries only
                      TransientError subclasses (worker crashes,
                      injected chaos), never deterministic failures
    CircuitBreaker  — closed → open → half-open, per routed backend
    Deadline        — monotonic deadline arithmetic for job futures

Consumers: :mod:`repro.parallel` (hung-shard detection, respawn
backoff, restart budgets, in-process fallback), :mod:`repro.serving`
(flush retry, poisoned-flush bisection, per-job deadlines, breaker
routing), and :meth:`repro.hardware.Backend.run` (the
``backend.execute_batch`` injection point).  The guarantees are pinned
by ``tests/test_resilience.py`` (always on) and ``tests/test_chaos.py``
(process-killing suite, gated by ``REPRO_CHAOS=1``).
"""

from repro.resilience import faults
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.errors import (
    DeadlineExceeded,
    FlushError,
    InjectedFault,
    InvalidCircuitError,
    JobCancelled,
    ResilienceWarning,
    TransientError,
)
from repro.resilience.faults import (
    CHAOS_ENV,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    chaos_enabled,
)
from repro.resilience.retry import Deadline, RetryPolicy

__all__ = [
    "CHAOS_ENV",
    "CLOSED",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FlushError",
    "HALF_OPEN",
    "InjectedFault",
    "InvalidCircuitError",
    "JobCancelled",
    "OPEN",
    "ResilienceWarning",
    "RetryPolicy",
    "TransientError",
    "chaos_enabled",
    "faults",
]
