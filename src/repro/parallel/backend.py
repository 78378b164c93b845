"""``ShardedBackend``: the worker pool behind a plain ``Backend`` face.

Drop-in means drop-in: everything that accepts a
:class:`~repro.hardware.Backend` — the TrainingEngine, the gradient
engines, the serving :class:`~repro.serving.Router` — can be handed a
``ShardedBackend`` instead and transparently executes across a pool of
worker processes.  The facade keeps the base class's whole contract:

* ``run`` validates, groups by structure signature, and reassembles
  results in submission order (all inherited from ``Backend.run``,
  which also takes a :class:`~repro.circuits.sweep.Sweep` as one
  group, and ``run_sweep``);
* ``_execute_sweep`` is where the sharding happens: the sweep's rows
  are chunked by the :class:`~repro.parallel.ShardPlanner`, each
  chunk's slices of the value matrices are scattered over the
  :class:`~repro.parallel.WorkerPool` (the template goes to each
  worker once), and the answered expectation and outcome arrays are
  gathered back into row order;
* metering is the base class's too: ``Backend.run`` / ``run_sweep``
  record each submission once on the facade
  :class:`~repro.hardware.CircuitRunMeter`, under the caller's
  purpose, so inference accounting reads exactly as if the facade had
  executed every circuit itself.  Workers ship back arrays only.

Determinism: exact-mode results are bit-identical to the
single-process batched path for *any* worker count (exact execution
consumes no randomness and the batched kernels are chunk-invariant);
sampled counts come from per-row ``SeedSequence`` substreams
spawned in submission order from the facade's root seed, so they are
reproducible for a fixed seed — and invariant to the worker count too.

Resilience: the pool already absorbs individual worker crashes and
hangs (respawn + replay, see :mod:`repro.parallel.pool`); the facade
adds the *last* line of defense — **graceful degradation**.  When a
shard exhausts its respawn budget, or the pool burns through its
lifetime restart budget, the facade warns once
(:class:`~repro.resilience.ResilienceWarning`), rebuilds a local
replica from its spec, and executes the *same planned shards with the
same seeds* in-process.  Because shard seeds are position-keyed and
the in-process kernel is the very ``serve_rows`` workers run,
degraded results are bit-identical (exact) / seed-identical (sampled)
to what the pool would have produced — slower, never wrong.  The
submission is metered once whichever path answered it.  Hung-shard
detection is on by default, with per-shard timeouts derived from the
:mod:`repro.scaling` cost model (see
:func:`~repro.parallel.shard.shard_timeout_s`).
"""

from __future__ import annotations

import itertools
import threading
import warnings

import numpy as np

from repro.circuits.batch import CircuitBatch
from repro.circuits.sweep import Sweep
from repro.hardware.backend import Backend
from repro.parallel.pool import (
    RestartBudgetExhausted,
    WorkerCrashError,
    WorkerPool,
    serve_rows,
)
from repro.parallel.shard import ShardPlanner, shard_timeout_s
from repro.parallel.spec import BackendSpec
from repro.resilience.errors import ResilienceWarning


class ShardedBackend(Backend):
    """Multi-process sharded execution of a simulator backend.

    Args:
        backend: What to replicate in the workers — a live
            ``IdealBackend`` / ``NoisyBackend`` (captured via
            :meth:`BackendSpec.from_backend`) or a ``BackendSpec``.
            When a live backend is given, the facade **adopts its
            meter**: callers that handed their backend to a service
            keep observing usage on the object they own, which is the
            metering contract the serving layer documents.
        workers: Worker process count (>= 1).
        seed: Root seed for the sampling substreams; defaults to the
            wrapped backend's seed, so wrapping a seeded backend stays
            reproducible without extra plumbing.
        min_shard_cost: Split floor forwarded to the
            :class:`ShardPlanner` (``None`` = its default; ``0`` =
            always split to ``workers`` chunks).
        max_retries: Crash-respawn budget per shard.
        hang_timeout_s: Hung-shard detection: ``"auto"`` (default)
            derives a per-shard progress timeout from the cost model,
            a float fixes one timeout for every shard, ``None``
            disables detection.
        restart_budget: Pool-lifetime respawn cap (``None`` = the
            pool's default of ``4 * workers``).
        fallback: Degrade to in-process execution when the pool gives
            up (default).  ``False`` re-raises pool escalations to the
            caller instead — for callers that would rather fail fast
            than run slow.

    The pool spawns lazily on first execution and is stopped by
    :meth:`close` (also a context manager, also reaped at garbage
    collection).  With deterministic results, up to :attr:`run_slots`
    (``workers``) threads may call :meth:`run` at once, and their
    shards overlap in the pool.  A sampled backend spawns its seed
    substreams in call order, so its runs stay one at a time
    (``run_slots`` is 1), as on the single-process backends.
    """

    def __init__(
        self,
        backend: Backend | BackendSpec,
        workers: int,
        seed: int | None = None,
        min_shard_cost: float | None = None,
        max_retries: int = 2,
        hang_timeout_s: float | str | None = "auto",
        restart_budget: int | None = None,
        fallback: bool = True,
    ):
        if isinstance(hang_timeout_s, str) and hang_timeout_s != "auto":
            raise ValueError(
                "hang_timeout_s must be 'auto', a float, or None"
            )
        if isinstance(backend, BackendSpec):
            spec = backend
            adopted_meter = None
        else:
            spec = BackendSpec.from_backend(backend)
            adopted_meter = backend.meter
        if workers < 1:
            raise ValueError("need at least one worker")
        super().__init__(
            seed=spec.seed if seed is None else seed
        )
        self.spec = spec
        self.workers = int(workers)
        if adopted_meter is not None:
            # Wrapping a live backend adopts its meter (class docstring).
            self.meter = adopted_meter
        self.name = f"{spec.describe()}[x{self.workers}]"
        self.planner = ShardPlanner(
            self.workers,
            min_shard_cost=min_shard_cost,
            density=spec.kind == "noisy",
        )
        self.pool = WorkerPool(
            spec,
            self.workers,
            max_retries=max_retries,
            restart_budget=restart_budget,
        )
        self.hang_timeout_s = hang_timeout_s
        self.fallback_enabled = bool(fallback)
        self.fallbacks = 0
        self._degraded = False
        self._warned_fallback = False
        self._local_replica: Backend | None = None
        self._seed_seq = np.random.SeedSequence(self._seed)
        #: Scatter counter: rotates which slot a group's first shard
        #: lands on, so single-shard groups spread over the pool.
        self._rotation = itertools.count()
        self._fallback_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Stop the worker pool; idempotent."""
        self.pool.close()

    def __enter__(self) -> "ShardedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- capability queries (answered by the spec) ------------------------

    def results_deterministic(self) -> bool:
        # Mirrors the replicas: only an exact IdealBackend qualifies.
        return self.spec.kind == "ideal" and self.spec.exact

    def exact_execution(self) -> bool:
        return not self.spec.samples

    @property
    def run_slots(self) -> int:
        """``workers`` when results are deterministic, else 1."""
        return self.workers if self.results_deterministic() else 1

    def seed(self, seed: int | None) -> None:
        """Reset the root of the sampling substream tree."""
        super().seed(seed)
        self._seed_seq = np.random.SeedSequence(seed)

    # -- execution -------------------------------------------------------

    run = Backend.run  # class-own: perfbench/trace.py wraps __dict__["run"]

    def _spawn_seeds(self, n: int) -> list | None:
        """Per-row substreams for a sampled group (None if exact).

        ``SeedSequence.spawn`` is stateful: successive groups of one
        submission (and successive submissions) consume successive
        children, so a fixed root seed and submission sequence always
        yields the same per-row streams, no matter how the planner
        chunks them or which worker executes each chunk.
        """
        if self.exact_execution():
            return None
        return list(self._seed_seq.spawn(n))

    # -- resilience ------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether the facade has permanently left the pool behind."""
        return self._degraded

    def _timeouts(self, sweep, shards) -> list[float] | None:
        """Per-shard progress timeouts for the pool.

        The cost model prices one row of the group's structure once;
        each shard's allowance scales with its row count.
        """
        if self.hang_timeout_s is None:
            return None
        if self.hang_timeout_s == "auto":
            row_cost = self.planner.row_cost(sweep)
            return [shard_timeout_s(shard, row_cost) for shard in shards]
        return [float(self.hang_timeout_s)] * len(shards)

    def _local_backend(self) -> Backend:
        """The lazily built in-process replica degraded runs execute on."""
        with self._fallback_lock:
            if self._local_replica is None:
                self._local_replica = self.spec.build()
            return self._local_replica

    def _degrade(self, exc: WorkerCrashError) -> None:
        """Account for one pool give-up; re-raise if fallback is off.

        :class:`RestartBudgetExhausted` flips the facade to
        *permanently* degraded — the pool has proven it cannot hold
        workers alive, so further submissions skip it entirely rather
        than re-spending shard retries to rediscover that.
        """
        if not self.fallback_enabled:
            raise exc
        with self._fallback_lock:
            self.fallbacks += 1
            if isinstance(exc, RestartBudgetExhausted):
                self._degraded = True
            warn, self._warned_fallback = not self._warned_fallback, True
        if warn:
            warnings.warn(
                f"{self.name}: worker pool gave up "
                f"({type(exc).__name__}: {exc}); degrading to "
                f"in-process execution — results are unchanged, "
                f"throughput is not",
                ResilienceWarning,
                stacklevel=4,
            )

    def _scatter(self, sweep: Sweep, kind: str, shards, extra) -> list:
        """Run each shard's rows as one ``kind`` request; gather.

        A request carries the template digest, the shard's rows of the
        value matrices and ``extra(shard)``.  Shard ``k`` goes to slot
        ``(k + offset) % workers``, the offset advancing by one per
        scatter: the planner binds a group's first shard to slot 0, and
        results never depend on the slot.  When the pool gives up,
        the *same* shards (same seeds, same chunking) re-execute
        in-process through :func:`~repro.parallel.pool.serve_rows`,
        the function workers answer requests with, so degraded output
        is indistinguishable from pooled output.
        """
        template = sweep.template
        rows = [
            (
                sweep.literals[shard.positions],
                sweep.params[shard.positions],
                *extra(shard),
            )
            for shard in shards
        ]
        if not self._degraded:
            offset = next(self._rotation)
            requests = [
                (
                    (shard.worker + offset) % self.workers,
                    (kind, (template.digest, *shard_rows)),
                )
                for shard, shard_rows in zip(shards, rows)
            ]
            try:
                return self.pool.run_shards(
                    requests,
                    timeouts=self._timeouts(sweep, shards),
                    templates={template.digest: template},
                )
            except WorkerCrashError as exc:
                self._degrade(exc)
        local = self._local_backend()
        return [
            serve_rows(local, kind, template, shard_rows)
            for shard_rows in rows
        ]

    def _execute_sweep(self, sweep: Sweep, shots: int):
        """Shard one sweep's rows across the pool and reassemble."""
        shards = self.planner.plan(
            sweep, seeds=self._spawn_seeds(sweep.size)
        )
        responses = self._scatter(
            sweep,
            "sweep",
            shards,
            lambda shard: (shard.seeds, shots),
        )
        expectations = np.empty((sweep.size, sweep.n_qubits))
        outcomes = None
        for shard, (shard_expectations, shard_outcomes) in zip(
            shards, responses
        ):
            expectations[shard.positions] = shard_expectations
            if shard_outcomes is not None:
                if outcomes is None:
                    outcomes = np.empty(
                        (sweep.size, shard_outcomes.shape[1]),
                        dtype=shard_outcomes.dtype,
                    )
                outcomes[shard.positions] = shard_outcomes
        return expectations, outcomes

    # -- distribution passthrough (noisy parity) -------------------------

    def observed_probabilities_batch(self, circuits) -> np.ndarray:
        """Sharded :meth:`NoisyBackend.observed_probabilities_batch`.

        For noisy specs, rows are the observed (noise + readout error)
        distributions; for ideal specs, the exact Born-rule
        distributions.  Either way row ``i`` is bit-identical to the
        single-process computation for ``circuits[i]`` — the noisy
        half of the exact-mode equivalence contract.

        Args:
            circuits: Same-structure circuits, or a
                :class:`~repro.circuits.sweep.Sweep` of rows.
        """
        if isinstance(circuits, Sweep):
            sweep = circuits
        else:
            circuits = list(circuits)
            if not circuits:
                raise ValueError("need at least one circuit")
            sweep = CircuitBatch(circuits)
        shards = self.planner.plan(sweep)
        responses = self._scatter(sweep, "probs", shards, lambda shard: ())
        rows = np.empty((sweep.size, 2**sweep.n_qubits), dtype=np.float64)
        for shard, shard_rows in zip(shards, responses):
            rows[shard.positions] = shard_rows
        return rows

    def observed_probabilities(self, circuit) -> np.ndarray:
        """Single-circuit convenience over the sharded batch form."""
        return self.observed_probabilities_batch([circuit])[0]

    # -- telemetry -------------------------------------------------------

    def stats(self) -> dict:
        """Pool + meter roll-up."""
        return {
            "name": self.name,
            "workers": self.workers,
            "pool": self.pool.stats(),
            "meter": self.meter.snapshot(),
            "fallbacks": self.fallbacks,
            "degraded": self._degraded,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedBackend({self.spec.describe()}, "
            f"workers={self.workers})"
        )
