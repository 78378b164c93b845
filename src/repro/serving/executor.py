"""Backend-compatible facade over an :class:`ExecutionService`.

Everything above the hardware layer — the TrainingEngine, the
parameter-shift / finite-difference / SPSA gradient engines, the
evaluator — talks to a backend through four members: ``run``,
``run_sweep``, ``expectations``, and ``meter``.  ``ServiceExecutor``
implements exactly that surface on top of a shared service, so a
training loop switches from direct execution to service-backed
execution by swapping one object, and *many* training loops (threads)
pointed at one service have their traffic coalesced into shared
vectorized batches.  ``run_sweep`` submits the sweep itself — its
rows are admitted as one already-grouped job, no circuit per row.

The executor's meter is a **client-side** view: it records every
circuit this client submitted — including ones the service answered
from cache — which is what inference-budget accounting (Fig. 6's
x-axis) means from the client's perspective.  The service's backend
meters record what was physically executed; the difference is the
cache's savings.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuits.sweep import Sweep
from repro.hardware.backend import CircuitRunMeter, RunResults


class ServiceExecutor:
    """Run circuits through a service, with a Backend-shaped interface.

    Args:
        service: The shared :class:`~repro.serving.ExecutionService`.
        priority: Queue priority for this client's submissions (lower
            runs first — e.g. give validation sweeps a back seat).
        name: Client name for logs; defaults to the service's name.
        deadline_s: Per-submission latency bound applied to every job
            this client creates (``None`` = unbounded).  A missed
            deadline surfaces as a
            :class:`~repro.hardware.JobError` caused by
            :class:`~repro.resilience.DeadlineExceeded`, like any
            other failed run.
    """

    def __init__(
        self,
        service,
        priority: int = 0,
        name: str | None = None,
        deadline_s: float | None = None,
    ):
        self._service = service
        self.priority = int(priority)
        self.name = name or f"{service.name}-client"
        self.deadline_s = deadline_s
        self.meter = CircuitRunMeter()

    def run(
        self,
        circuits: Sequence,
        shots: int = 1024,
        purpose: str = "run",
    ) -> RunResults:
        """Submit and wait; same contract as :meth:`Backend.run`."""
        job = self._service.submit(
            circuits,
            shots=shots,
            purpose=purpose,
            priority=self.priority,
            deadline_s=self.deadline_s,
        )
        results = job.result()
        self.meter.record(len(results), results.shots, purpose)
        return results

    def run_sweep(
        self, sweep: Sweep, shots: int = 1024, purpose: str = "run"
    ) -> np.ndarray:
        """Per-row Z expectations of a sweep; see :meth:`Backend.run_sweep`."""
        return self.expectations(sweep, shots=shots, purpose=purpose)

    def expectations(
        self,
        circuits: Sequence,
        shots: int = 1024,
        purpose: str = "run",
    ) -> np.ndarray:
        """Per-qubit Z expectations, ``(len(circuits), n_qubits)`` (see
        :meth:`~repro.hardware.backend.RunResults.expectation_matrix`).

        Raises:
            ValueError: ``circuits`` is empty (nothing is submitted), or
                the circuits differ in width.
        """
        if not isinstance(circuits, Sweep):
            circuits = list(circuits)
            if not circuits:
                raise ValueError("need at least one circuit")
        return self.run(
            circuits, shots=shots, purpose=purpose
        ).expectation_matrix()

    def results_deterministic(self) -> bool:
        """Deterministic iff the whole routed pool is."""
        return self._service.router.results_deterministic()

    def exact_execution(self) -> bool:
        """Exact iff every routed backend ignores the shot count."""
        return self._service.router.exact_execution()

    def seed(self, seed) -> None:
        """No-op: sampling randomness lives in the routed backends.

        Seed those (or build the pool seeded) before starting the
        service; a shared service cannot be reseeded per client.
        """

    def __repr__(self) -> str:
        return f"ServiceExecutor({self.name}, priority={self.priority})"
