"""Tests for ``repro.resilience``: the fault plane and the guarantees.

Always-on suite: everything here is in-process and fast — fault-plan
determinism, retry/backoff arithmetic, breaker state machines, queue
shutdown, and the serving tier's deadline / cancellation / retry /
bisection behavior driven through injected (but process-local) faults.
The process-killing scenarios live in ``tests/test_chaos.py`` behind
``REPRO_CHAOS=1``.
"""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.hardware import IdealBackend
from repro.hardware.job import JobError
from repro.parallel.shard import Shard, circuit_cost, shard_timeout_s
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    FlushError,
    InjectedFault,
    JobCancelled,
    ResilienceWarning,
    RetryPolicy,
    TransientError,
    faults,
)
from repro.serving import ExecutionService, JobQueue, Router
from repro.serving.service import ServiceJob
from repro.sim import compile_circuit


def ry_circuit(angle: float, n_qubits: int = 2) -> QuantumCircuit:
    circuit = QuantumCircuit(n_qubits)
    circuit.add_trainable("ry", 0, 0)
    for wire in range(n_qubits - 1):
        circuit.add("cx", (wire, wire + 1))
    return circuit.bound([angle])


# -- fault plans -------------------------------------------------------------


class TestFaultPlan:
    def test_parse_grammar(self):
        plan = FaultPlan.parse(
            "worker.shard:kill:at=1+3,max_spawn=2;"
            "serving.flush:exception:every=2,backend=ideal;"
            "seed=7"
        )
        assert plan.seed == 7
        kill, flush = plan.specs
        assert kill.site == "worker.shard"
        assert kill.mode == "kill"
        assert kill.at == (1, 3)
        assert kill.max_spawn == 2
        assert flush.every == 2
        assert flush.backend == "ideal"
        assert plan.sites() == ("worker.shard", "serving.flush")

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="expected site:mode"):
            FaultPlan.parse("worker.shard")
        with pytest.raises(ValueError, match="unknown chaos spec option"):
            FaultPlan.parse("worker.shard:kill:bogus=1")
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultPlan.parse("worker.shard:vaporize")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="x", mode="exception", p=1.5)
        with pytest.raises(ValueError):
            FaultSpec(site="x", mode="exception", every=-1)

    def test_plan_pickles(self):
        # Plans cross the spawn-context pipe into workers.
        plan = FaultPlan.parse("worker.shard:kill:at=1;seed=3")
        restored = pickle.loads(pickle.dumps(plan))
        assert restored == plan


class TestFaultInjector:
    def test_disabled_by_default(self):
        assert faults.ACTIVE is None

    def test_at_counter_fires_deterministically(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="s", mode="exception", at=(2,)),)
        )
        with faults.installed(plan) as injector:
            injector.fire("s")  # hit 1: silent
            with pytest.raises(InjectedFault, match="hit 2"):
                injector.fire("s")
            injector.fire("s")  # hit 3: silent again
            assert injector.stats()["fired"] == {"s": 1}

    def test_every_counter(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="s", mode="exception", every=2),)
        )
        with faults.installed(plan) as injector:
            injector.fire("s")
            with pytest.raises(InjectedFault):
                injector.fire("s")
            injector.fire("s")
            with pytest.raises(InjectedFault):
                injector.fire("s")

    def test_seeded_probability_replays_identically(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="s", mode="exception", p=0.5),),
            seed=11,
        )

        def firing_pattern():
            pattern = []
            with faults.installed(plan) as injector:
                for _ in range(32):
                    try:
                        injector.fire("s")
                        pattern.append(0)
                    except InjectedFault:
                        pattern.append(1)
            return pattern

        first = firing_pattern()
        assert firing_pattern() == first
        assert 0 < sum(first) < 32  # actually probabilistic

    def test_max_fires_budget(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="s", mode="exception", every=1, max_fires=2),
            )
        )
        with faults.installed(plan) as injector:
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    injector.fire("s")
            injector.fire("s")  # budget spent: silent forever after

    def test_max_spawn_filters_by_worker_generation(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="s", mode="exception", at=(1,), max_spawn=2),
            )
        )
        # Parent process (no spawn index): never fires.
        with faults.installed(plan) as injector:
            injector.fire("s")
        # Second-generation worker (spawn index past the cap): spared.
        with faults.installed(plan, worker_spawn=2) as injector:
            injector.fire("s")
        # First-generation worker: dies.
        with faults.installed(plan, worker_spawn=0) as injector:
            with pytest.raises(InjectedFault):
                injector.fire("s")

    def test_backend_filter(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="s", mode="exception", every=1, backend="noisy"
                ),
            )
        )
        with faults.installed(plan) as injector:
            injector.fire("s", backend="ideal")
            with pytest.raises(InjectedFault):
                injector.fire("s", backend="noisy")

    def test_pipe_loss_mode(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="s", mode="pipe_loss", at=(1,)),)
        )
        with faults.installed(plan) as injector:
            with pytest.raises(BrokenPipeError):
                injector.fire("s")

    def test_delay_mode_continues(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="s", mode="delay", at=(1,), delay_s=0.01),
            )
        )
        with faults.installed(plan) as injector:
            start = time.monotonic()
            injector.fire("s")  # sleeps, then returns
            assert time.monotonic() - start >= 0.01

    def test_installed_restores_previous(self):
        plan = FaultPlan(specs=(FaultSpec(site="s", mode="exception"),))
        assert faults.ACTIVE is None
        with faults.installed(plan):
            assert faults.ACTIVE is not None
            assert faults.current_plan() is plan
        assert faults.ACTIVE is None

    def test_backend_run_injection_site(self):
        backend = IdealBackend(exact=True)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site=faults.SITE_EXECUTE_BATCH,
                    mode="exception",
                    every=1,
                ),
            )
        )
        circuits = [ry_circuit(0.1), ry_circuit(0.2)]
        with faults.installed(plan):
            with pytest.raises(InjectedFault):
                backend.run(circuits, shots=0)
        # Uninstalled: zero interference.
        assert len(backend.run(circuits, shots=0)) == 2

    def test_chaos_env_gate(self, monkeypatch):
        monkeypatch.delenv(faults.CHAOS_ENV, raising=False)
        assert not faults.chaos_enabled()
        monkeypatch.setenv(faults.CHAOS_ENV, "0")
        assert not faults.chaos_enabled()
        monkeypatch.setenv(faults.CHAOS_ENV, "1")
        assert faults.chaos_enabled()


# -- retry policy and deadlines ----------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_cap_s=0.5, jitter=0.0
        )
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.4)
        assert policy.delay_s(4) == pytest.approx(0.5)  # capped
        assert policy.delay_s(10) == pytest.approx(0.5)

    def test_jitter_stays_in_band(self):
        import random

        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_cap_s=10.0, jitter=0.25
        )
        rng = random.Random(0)
        for _ in range(64):
            delay = policy.delay_s(1, rng=rng)
            assert 0.1 <= delay <= 0.1 * 1.25

    def test_retries_transient_until_success(self):
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        calls = []
        retried = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("blip")
            return "ok"

        assert (
            policy.run(flaky, on_retry=lambda a, e: retried.append(a))
            == "ok"
        )
        assert len(calls) == 3
        assert retried == [1, 2]

    def test_deterministic_failures_are_not_retried(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=0.0)
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("always wrong")

        with pytest.raises(ValueError):
            policy.run(broken)
        assert len(calls) == 1

    def test_exhaustion_raises_last_error(self):
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        with pytest.raises(TransientError):
            policy.run(lambda: (_ for _ in ()).throw(TransientError("x")))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestDeadline:
    def test_unbounded(self):
        deadline = Deadline(None)
        assert not deadline.expired()
        assert deadline.remaining() is None

    def test_expiry_with_fake_clock(self):
        now = [100.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        assert not deadline.expired(clock=lambda: now[0])
        assert deadline.remaining(clock=lambda: now[0]) == pytest.approx(
            5.0
        )
        now[0] = 106.0
        assert deadline.expired(clock=lambda: now[0])
        assert deadline.remaining(clock=lambda: now[0]) == 0.0


# -- circuit breaker ---------------------------------------------------------


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=threshold,
            reset_timeout_s=cooldown,
            clock=lambda: now[0],
        )
        return breaker, now

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        assert breaker.state == CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # not yet
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.available()
        assert breaker.trips == 1

    def test_success_resets_the_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # streak was broken

    def test_half_open_probe_success_closes(self):
        breaker, now = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.cooldown_remaining() == pytest.approx(10.0)
        now[0] = 11.0
        assert breaker.state == HALF_OPEN
        assert breaker.available()
        breaker.on_dispatch()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker, now = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        now[0] = 11.0
        breaker.on_dispatch()
        breaker.record_failure()
        assert breaker.state == OPEN
        # Fresh cooldown from the probe failure, not the original trip.
        assert breaker.cooldown_remaining() == pytest.approx(10.0)
        assert breaker.trips == 2

    def test_stats(self):
        breaker, _ = self.make(threshold=1)
        breaker.record_failure()
        stats = breaker.stats()
        assert stats["state"] == OPEN
        assert stats["failures_total"] == 1
        assert stats["trips"] == 1


class TestRouterBreakers:
    def test_routing_steers_around_open_breaker(self):
        class Doomed(IdealBackend):
            def _execute_sweep(self, sweep, shots):
                raise TransientError("node down")

        good = IdealBackend(exact=True)
        bad = Doomed(exact=True)
        bad.name = "doomed"
        now = [0.0]
        router = Router(
            [bad, good],
            policy="round_robin",
            failure_threshold=2,
            reset_timeout_s=30.0,
            clock=lambda: now[0],
        )
        circuits = [ry_circuit(0.3), ry_circuit(0.4)]
        failures = 0
        for _ in range(4):
            try:
                router.execute(circuits, shots=0, purpose="run")
            except TransientError as exc:
                failures += 1
                # Failure context attached for FlushError reporting.
                assert exc.backend_name == "doomed"
        assert failures == 2  # threshold trips the breaker
        assert router.breakers[0].state == OPEN
        # All further traffic lands on the healthy backend.
        for _ in range(4):
            _, backend, _ = router.execute(circuits, shots=0, purpose="run")
            assert backend is good
        stats = router.stats()
        assert stats["breaker_states"] == [OPEN, CLOSED]
        assert stats["breaker_trips"] == 1

    def test_all_open_routes_to_soonest_probe(self):
        class Doomed(IdealBackend):
            def _execute_sweep(self, sweep, shots):
                raise TransientError("down")

        now = [0.0]
        router = Router(
            [Doomed(exact=True)],
            failure_threshold=1,
            reset_timeout_s=30.0,
            clock=lambda: now[0],
        )
        circuits = [ry_circuit(0.1), ry_circuit(0.2)]
        with pytest.raises(TransientError):
            router.execute(circuits, shots=0, purpose="run")
        assert router.breakers[0].state == OPEN
        # A single-backend pool never refuses outright.
        with pytest.raises(TransientError):
            router.execute(circuits, shots=0, purpose="run")


# -- job queue shutdown ------------------------------------------------------


class TestJobQueueShutdown:
    def test_blocked_consumers_all_wake_on_close(self):
        queue = JobQueue()
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(queue.get_all()))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let all four block on the empty queue
        queue.close()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "consumer stranded at shutdown"
        assert got == [[]] * 4

    def test_leftover_items_drain_after_close(self):
        # Work queued before close() still comes out, in one call, and
        # the closed signal follows.
        queue = JobQueue()
        for i in range(8):
            queue.put(i, priority=i % 2)
        queue.close()
        assert queue.get_all() == [0, 2, 4, 6, 1, 3, 5, 7]
        assert queue.get_all() == []


# -- serving-tier resilience -------------------------------------------------


class FlakyBackend(IdealBackend):
    """Raises a transient error on the first N batch executions."""

    def __init__(self, failures: int, **kwargs):
        super().__init__(**kwargs)
        self.failures_left = failures
        self.calls = 0

    def _execute_sweep(self, sweep, shots):
        self.calls += 1
        if self.failures_left > 0:
            self.failures_left -= 1
            raise TransientError("transient blip")
        return super()._execute_sweep(sweep, shots)


POISON_ANGLE = 9.25


class PoisonBackend(IdealBackend):
    """Deterministically rejects any batch containing the poison angle."""

    def _execute_sweep(self, sweep, shots):
        if np.any(np.abs(sweep.params[:, 0] - POISON_ANGLE) < 1e-12):
            raise ValueError("poisoned circuit in batch")
        return super()._execute_sweep(sweep, shots)


class TestServingResilience:
    def test_flush_retry_recovers_and_matches_fault_free(self):
        circuits = [ry_circuit(a) for a in (0.1, 0.2, 0.3)]
        reference = IdealBackend(exact=True).run(circuits, shots=0)
        with ExecutionService(
            FlakyBackend(failures=1, exact=True),
            enable_cache=False,
            workers=0,
            retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.001),
        ) as service:
            results = service.run(circuits, shots=0)
            stats = service.stats()
        assert stats["scheduler"]["retries"] == 1
        assert stats["resilience"]["retries"] == 1
        for got, want in zip(results, reference):
            assert np.array_equal(got.expectations, want.expectations)

    def test_bisection_quarantines_poison_and_serves_the_rest(self):
        backend = PoisonBackend(exact=True)
        with ExecutionService(
            backend,
            enable_cache=False,
            workers=0,
            max_delay_s=0.2,  # let all submissions coalesce first
            retry_policy=RetryPolicy(max_attempts=1),
        ) as service:
            healthy = [
                service.submit([ry_circuit(a)], shots=0)
                for a in (0.1, 0.2, 0.3)
            ]
            poisoned = service.submit([ry_circuit(POISON_ANGLE)], shots=0)
            # Healthy jobs riding the same bucket still resolve.
            for job, angle in zip(healthy, (0.1, 0.2, 0.3)):
                (result,) = job.result(timeout=30)
                want = IdealBackend(exact=True).run(
                    [ry_circuit(angle)], shots=0
                )[0]
                assert np.array_equal(
                    result.expectations, want.expectations
                )
            with pytest.raises(JobError) as excinfo:
                poisoned.result(timeout=30)
            stats = service.stats()
        failure = excinfo.value.__cause__
        assert isinstance(failure, FlushError)
        context = failure.context()
        assert context["attempts"] >= 1
        assert context["flush_key"] is not None
        assert isinstance(failure.__cause__, ValueError)
        assert stats["scheduler"]["bisections"] >= 1
        assert stats["scheduler"]["flush_failures"] == 1
        assert service.pending_circuits == 0  # nothing leaked

    def test_poisoned_job_split_across_flushes_fails_alone(self):
        # Two single-row jobs leave room for two of the poisoned job's
        # three rows, so its rows ride two 4-row flushes, and the
        # 6-row healthy job spans two more.
        with ExecutionService(
            PoisonBackend(exact=True),
            enable_cache=False,
            workers=0,
            max_batch_size=4,
            max_delay_s=0.2,
            retry_policy=RetryPolicy(max_attempts=1),
        ) as service:
            singles = [
                service.submit([ry_circuit(a)], shots=0) for a in (0.1, 0.2)
            ]
            poisoned = service.submit(
                [ry_circuit(a) for a in (0.3, POISON_ANGLE, 0.4)], shots=0
            )
            bulk = [ry_circuit(0.5 + 0.1 * k) for k in range(6)]
            healthy = service.submit(bulk, shots=0)
            singles += [
                service.submit([ry_circuit(a)], shots=0) for a in (1.5, 1.6)
            ]
            served = healthy.result(timeout=30) + [
                job.result(timeout=30)[0] for job in singles
            ]
            with pytest.raises(JobError) as excinfo:
                poisoned.result(timeout=30)
        want = IdealBackend(exact=True).run(
            bulk + [ry_circuit(a) for a in (0.1, 0.2, 1.5, 1.6)], shots=0
        )
        for got, expected in zip(served, want, strict=True):
            assert np.array_equal(got.expectations, expected.expectations)
        assert isinstance(excinfo.value.__cause__, FlushError)
        assert service.stats()["scheduler"]["flush_failures"] == 1
        assert service.pending_circuits == 0

    def test_injected_flush_fault_is_retried_transparently(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site=faults.SITE_SERVING_FLUSH,
                    mode="exception",
                    at=(1,),
                ),
            )
        )
        circuits = [ry_circuit(0.4), ry_circuit(0.5)]
        reference = IdealBackend(exact=True).run(circuits, shots=0)
        with faults.installed(plan):
            with ExecutionService(
                IdealBackend(exact=True),
                enable_cache=False,
                workers=0,
                retry_policy=RetryPolicy(
                    max_attempts=3, backoff_base_s=0.001
                ),
            ) as service:
                results = service.run(circuits, shots=0)
                retries = service.stats()["scheduler"]["retries"]
        assert retries == 1
        for got, want in zip(results, reference):
            assert np.array_equal(got.expectations, want.expectations)

    def test_job_deadline_fails_instead_of_waiting_forever(self):
        started = threading.Event()
        release = threading.Event()

        class StuckBackend(IdealBackend):
            def _execute_sweep(self, sweep, shots):
                started.set()
                release.wait(30.0)
                return super()._execute_sweep(sweep, shots)

        with ExecutionService(
            StuckBackend(exact=True), enable_cache=False, workers=0
        ) as service:
            job = service.submit(
                [ry_circuit(0.1)], shots=0, deadline_s=0.1
            )
            with pytest.raises(JobError) as excinfo:
                job.result(timeout=30)
            assert isinstance(excinfo.value.__cause__, DeadlineExceeded)
            release.set()
        assert service.pending_circuits == 0

    def test_expired_job_is_dropped_before_execution(self):
        executed = []

        class Recording(IdealBackend):
            def _execute_sweep(self, sweep, shots):
                executed.extend(range(sweep.size))
                return super()._execute_sweep(sweep, shots)

        with ExecutionService(
            Recording(exact=True),
            enable_cache=False,
            workers=0,
            max_delay_s=0.2,
        ) as service:
            job = service.submit(
                [ry_circuit(0.1)], shots=0, deadline_s=0.0
            )
            with pytest.raises(JobError) as excinfo:
                job.result(timeout=30)
            assert isinstance(excinfo.value.__cause__, DeadlineExceeded)
            live = service.submit([ry_circuit(0.2)], shots=0)
            live.result(timeout=30)
            stats = service.stats()
        # Depending on who notices first (the waiting client or the
        # flush screen), the dead item counts as a deadline failure or
        # an already-resolved drop — either way it never executes.
        dropped = (
            stats["scheduler"]["deadline_failures"]
            + stats["scheduler"]["dropped_resolved"]
        )
        assert dropped >= 1
        assert len(executed) == 1  # only the live job touched a backend
        assert service.pending_circuits == 0

    def test_cancel_withdraws_pending_job(self):
        with ExecutionService(
            IdealBackend(exact=True),
            enable_cache=False,
            workers=0,
            max_delay_s=0.2,
        ) as service:
            job = service.submit([ry_circuit(0.1)], shots=0)
            assert job.cancel()
            assert job.cancelled
            assert not job.cancel()  # second cancel is a no-op
            with pytest.raises(JobError) as excinfo:
                job.result(timeout=30)
            assert isinstance(excinfo.value.__cause__, JobCancelled)
            # The service keeps serving afterwards.
            service.run([ry_circuit(0.2)], shots=0)
        assert service.pending_circuits == 0

    def test_service_deadline_passthrough_on_executor(self):
        with ExecutionService(
            IdealBackend(exact=True), enable_cache=False, workers=0
        ) as service:
            executor = service.executor(deadline_s=30.0)
            assert executor.deadline_s == 30.0
            results = executor.run([ry_circuit(0.3)], shots=0)
            assert len(results) == 1

    def test_resilience_stats_shape(self):
        with ExecutionService(
            IdealBackend(exact=True), enable_cache=False, workers=0
        ) as service:
            service.run([ry_circuit(0.1)], shots=0)
            resilience = service.stats()["resilience"]
        assert resilience["retries"] == 0
        assert resilience["restarts"] == 0
        assert resilience["fallbacks"] == 0
        assert resilience["breaker_states"] == [CLOSED]
        assert resilience["breaker_trips"] == 0


# -- error taxonomy and helpers ----------------------------------------------


class TestErrorTaxonomy:
    def test_transient_roots(self):
        from repro.parallel import (
            RestartBudgetExhausted,
            WorkerCrashError,
            WorkerHangError,
        )

        assert issubclass(InjectedFault, TransientError)
        assert issubclass(WorkerCrashError, TransientError)
        assert issubclass(WorkerHangError, WorkerCrashError)
        assert issubclass(RestartBudgetExhausted, WorkerCrashError)

    def test_flush_error_context(self):
        error = FlushError(
            "boom",
            backend="ideal[x2]",
            flush_key=("sig", 128, "grad"),
            attempts=3,
            worker=1,
        )
        assert error.context() == {
            "backend": "ideal[x2]",
            "flush_key": ("sig", 128, "grad"),
            "attempts": 3,
            "worker": 1,
        }

    def test_resilience_warning_is_a_user_warning(self):
        assert issubclass(ResilienceWarning, UserWarning)


def planned_cost(circuit, density=False):
    """The planner's per-row cost: the compiled plan's, as workers replay."""
    return circuit_cost(circuit, compile_circuit(circuit), density=density)


class TestShardTimeouts:
    def test_timeout_scales_with_cost_above_floor(self):
        small = Shard(worker=0, positions=[0])
        big = Shard(worker=0, positions=list(range(64)))
        t_small = shard_timeout_s(small, planned_cost(ry_circuit(0.1, 2)))
        t_big = shard_timeout_s(big, planned_cost(ry_circuit(0.1, 8)))
        from repro.parallel.shard import TIMEOUT_FLOOR_S

        assert t_small >= TIMEOUT_FLOOR_S
        assert t_big > t_small

    def test_density_costs_more(self):
        shard = Shard(worker=0, positions=list(range(32)))
        circuit = ry_circuit(0.1, 8)
        assert shard_timeout_s(
            shard, planned_cost(circuit, density=True)
        ) > shard_timeout_s(shard, planned_cost(circuit))


class TestServiceJobDeadline:
    def test_result_enforces_deadline_without_service(self):
        job = ServiceJob("j-1", [ry_circuit(0.1)], 0, "run", 0,
                         deadline_s=0.05)
        with pytest.raises(JobError) as excinfo:
            job.result()  # no timeout given: the deadline bounds it
        assert isinstance(excinfo.value.__cause__, DeadlineExceeded)

    def test_timeout_still_wins_when_shorter(self):
        job = ServiceJob("j-2", [ry_circuit(0.1)], 0, "run", 0,
                         deadline_s=30.0)
        with pytest.raises(TimeoutError):
            job.result(timeout=0.05)
