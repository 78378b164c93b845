"""``ShardedBackend``: the worker pool behind a plain ``Backend`` face.

Drop-in means drop-in: everything that accepts a
:class:`~repro.hardware.Backend` — the TrainingEngine, the gradient
engines, the serving :class:`~repro.serving.Router` — can be handed a
``ShardedBackend`` instead and transparently executes across a pool of
worker processes.  The facade keeps the base class's whole contract:

* ``run`` validates, groups by structure signature, and reassembles
  results in submission order (all inherited from ``Backend.run``);
* ``_execute_batch`` is where the sharding happens: the group is
  chunked by the :class:`~repro.parallel.ShardPlanner`, scattered over
  the :class:`~repro.parallel.WorkerPool`, and gathered back into
  group order;
* the facade :class:`~repro.hardware.CircuitRunMeter` is fed by
  merging each worker's per-shard meter window — totals *and* the
  ``by_purpose`` / ``shots_by_purpose`` breakdowns — so inference
  accounting reads exactly as if the facade had executed every circuit
  itself (see the README's serving architecture notes; the
  ``Backend.run`` facade-side record is suppressed via
  ``_record_run`` to avoid double counting).

Determinism: exact-mode results are bit-identical to the
single-process batched path for *any* worker count (exact execution
consumes no randomness and the batched kernels are chunk-invariant);
sampled counts come from per-circuit ``SeedSequence`` substreams
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
the in-process kernel is the very ``execute_shard`` workers run,
degraded results are bit-identical (exact) / seed-identical (sampled)
to what the pool would have produced — slower, never wrong.  Meter
windows from the failed pool attempt are discarded before the replay,
so no shard is double-counted.  Hung-shard detection is on by default,
with per-shard timeouts derived from the :mod:`repro.scaling` cost
model (see :func:`~repro.parallel.shard.shard_timeout_s`).
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.hardware.backend import Backend, ExecutionResult
from repro.parallel.pool import (
    RestartBudgetExhausted,
    WorkerCrashError,
    WorkerPool,
    batch_probabilities,
    execute_shard,
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
    collection).  Like the single-process backends, a ShardedBackend
    is not thread-safe; the serving router already serializes per-
    backend runs.
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
        self._active_purpose = "run"

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Stop the worker pool; idempotent."""
        self.pool.close()

    def __enter__(self) -> "ShardedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- capability queries (answered by the spec) ------------------------

    def supports_batching(self) -> bool:
        return True

    def results_deterministic(self) -> bool:
        # Mirrors the replicas: only an exact IdealBackend qualifies.
        return self.spec.kind == "ideal" and self.spec.exact

    def exact_execution(self) -> bool:
        return not self.spec.samples

    def seed(self, seed: int | None) -> None:
        """Reset the root of the sampling substream tree."""
        super().seed(seed)
        self._seed_seq = np.random.SeedSequence(seed)

    # -- execution -------------------------------------------------------

    def run(self, circuits, shots=1024, purpose="run", validate=True):
        """See :meth:`Backend.run`; the purpose rides along to workers."""
        self._active_purpose = purpose
        try:
            return super().run(
                circuits, shots=shots, purpose=purpose, validate=validate
            )
        finally:
            self._active_purpose = "run"

    def _record_run(self, n_circuits, total_shots, purpose) -> None:
        """No-op: worker meter windows were already merged."""

    def _spawn_seeds(self, n: int) -> list | None:
        """Per-circuit substreams for a sampled group (None if exact).

        ``SeedSequence.spawn`` is stateful: successive groups of one
        submission (and successive submissions) consume successive
        children, so a fixed root seed and submission sequence always
        yields the same per-circuit streams, no matter how the planner
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

    def _timeouts(self, shards) -> list[float] | None:
        """Per-shard progress timeouts for the gather loop."""
        if self.hang_timeout_s is None:
            return None
        if self.hang_timeout_s == "auto":
            density = self.spec.kind == "noisy"
            return [
                shard_timeout_s(
                    shard,
                    density=density,
                    plan=self.planner._costing_plan(shard.circuits[0]),
                )
                for shard in shards
            ]
        return [float(self.hang_timeout_s)] * len(shards)

    def _local_backend(self) -> Backend:
        """The lazily built in-process replica degraded runs execute on."""
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
        self.fallbacks += 1
        if isinstance(exc, RestartBudgetExhausted):
            self._degraded = True
        if not self._warned_fallback:
            self._warned_fallback = True
            warnings.warn(
                f"{self.name}: worker pool gave up "
                f"({type(exc).__name__}: {exc}); degrading to "
                f"in-process execution — results are unchanged, "
                f"throughput is not",
                ResilienceWarning,
                stacklevel=4,
            )

    def _execute(self, circuit, shots: int) -> ExecutionResult:
        """Single-circuit path: one one-circuit shard through the pool."""
        return self._execute_batch([circuit], shots)[0]

    def _execute_batch(
        self, circuits, shots: int
    ) -> list[ExecutionResult]:
        """Shard one structure group across the pool and reassemble.

        On pool escalation the *same* shards (same seeds, same
        chunking) re-execute in-process, so degraded output is
        indistinguishable from pooled output.  Meter windows travel
        inside the responses and are merged only after the executing
        path succeeded end to end — a failed pool attempt contributes
        nothing, so the replay cannot double-count.
        """
        circuits = list(circuits)
        purpose = self._active_purpose
        shards = self.planner.plan(
            circuits, seeds=self._spawn_seeds(len(circuits))
        )
        responses = None
        if not self._degraded:
            requests = [
                (shard.worker, ("run", (shard, shots, purpose)))
                for shard in shards
            ]
            try:
                responses = self.pool.run_shards(
                    requests, timeouts=self._timeouts(shards)
                )
            except WorkerCrashError as exc:
                self._degrade(exc)
        if responses is None:
            local = self._local_backend()
            responses = [
                execute_shard(local, shard, shots, purpose)
                for shard in shards
            ]
        results: list[ExecutionResult | None] = [None] * len(circuits)
        for shard, (shard_results, window) in zip(shards, responses):
            for position, result in zip(shard.positions, shard_results):
                results[position] = result
            self.meter.merge(window)
        return results

    # -- distribution passthrough (noisy parity) -------------------------

    def observed_probabilities_batch(self, circuits) -> np.ndarray:
        """Sharded :meth:`NoisyBackend.observed_probabilities_batch`.

        For noisy specs, rows are the observed (noise + readout error)
        distributions; for ideal specs, the exact Born-rule
        distributions.  Either way row ``i`` is bit-identical to the
        single-process computation for ``circuits[i]`` — the noisy
        half of the exact-mode equivalence contract.
        """
        circuits = list(circuits)
        if not circuits:
            raise ValueError("need at least one circuit")
        shards = self.planner.plan(circuits)
        responses = None
        if not self._degraded:
            requests = [
                (shard.worker, ("probs", (shard,))) for shard in shards
            ]
            try:
                responses = self.pool.run_shards(
                    requests, timeouts=self._timeouts(shards)
                )
            except WorkerCrashError as exc:
                self._degrade(exc)
        if responses is None:
            local = self._local_backend()
            responses = [
                (batch_probabilities(local, shard.circuits), None)
                for shard in shards
            ]
        rows = np.empty(
            (len(circuits), 2 ** circuits[0].n_qubits), dtype=np.float64
        )
        for shard, (shard_rows, _) in zip(shards, responses):
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
