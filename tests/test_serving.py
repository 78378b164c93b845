"""Tests for the serving subsystem: queue, cache, router, service."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.circuits import CircuitBatch, QuantumCircuit, circuit_fingerprint
from repro.hardware import (
    IdealBackend,
    JobError,
    JobStatus,
    NoisyBackend,
)
from repro.serving import (
    ExecutionService,
    JobQueue,
    QueueClosed,
    QueueFull,
    ResultCache,
    Router,
)


class SlowBackend(IdealBackend):
    """Exact backend whose batches take a controllable wall time."""

    def __init__(self, delay_s: float = 0.1, **kwargs):
        super().__init__(exact=True, **kwargs)
        self.delay_s = delay_s

    def _execute_sweep(self, sweep, shots):
        import time

        time.sleep(self.delay_s)
        return super()._execute_sweep(sweep, shots)


def ry_circuit(theta: float, n_qubits: int = 2) -> QuantumCircuit:
    circuit = QuantumCircuit(n_qubits)
    for wire in range(n_qubits):
        circuit.add("ry", wire, theta + wire)
    circuit.add("cx", (0, 1))
    return circuit


def ghz_circuit(n_qubits: int = 3) -> QuantumCircuit:
    circuit = QuantumCircuit(n_qubits)
    circuit.add("h", 0)
    for wire in range(n_qubits - 1):
        circuit.add("cx", (wire, wire + 1))
    return circuit


class TestFingerprint:
    def test_equal_circuits_equal_fingerprints(self):
        assert ry_circuit(0.3).fingerprint() == ry_circuit(0.3).fingerprint()

    def test_angle_value_changes_fingerprint(self):
        assert ry_circuit(0.3).fingerprint() != ry_circuit(0.4).fingerprint()

    def test_structure_changes_fingerprint(self):
        a = QuantumCircuit(1).add("rx", 0, 0.5)
        b = QuantumCircuit(1).add("ry", 0, 0.5)
        assert a.fingerprint() != b.fingerprint()

    def test_wire_placement_changes_fingerprint(self):
        a = QuantumCircuit(2).add("ry", 0, 0.5)
        b = QuantumCircuit(2).add("ry", 1, 0.5)
        assert a.fingerprint() != b.fingerprint()

    def test_qubit_count_changes_fingerprint(self):
        a = QuantumCircuit(1).add("ry", 0, 0.5)
        b = QuantumCircuit(2).add("ry", 0, 0.5)
        assert a.fingerprint() != b.fingerprint()

    def test_bound_theta_included(self):
        base = QuantumCircuit(1)
        base.add_trainable("ry", 0, 0)
        assert (
            base.bound([0.1]).fingerprint() != base.bound([0.2]).fingerprint()
        )

    def test_shift_offset_included(self):
        base = QuantumCircuit(1)
        base.add_trainable("ry", 0, 0)
        base.bind([0.1])
        assert base.fingerprint() != base.shifted(0, np.pi / 2).fingerprint()

    def test_copy_preserves_fingerprint(self):
        circuit = ry_circuit(1.2)
        assert circuit.copy().fingerprint() == circuit.fingerprint()

    def test_same_structure_different_values_share_signature_not_print(self):
        a, b = ry_circuit(0.1), ry_circuit(0.9)
        assert a.structure_signature() == b.structure_signature()
        assert a.fingerprint() != b.fingerprint()

    def test_module_function_matches_method(self):
        circuit = ghz_circuit()
        assert circuit_fingerprint(circuit) == circuit.fingerprint()


class TestJobQueue:
    def test_priority_order(self):
        queue = JobQueue()
        queue.put("bulk", priority=5)
        queue.put("interactive", priority=0)
        queue.put("batch", priority=2)
        assert queue.get_all() == ["interactive", "batch", "bulk"]

    def test_fifo_within_priority(self):
        queue = JobQueue()
        for label in "abc":
            queue.put(label, priority=1)
        assert queue.get_all() == ["a", "b", "c"]

    def test_get_all_timeout_returns_empty(self):
        assert JobQueue().get_all(timeout=0.01) == []

    def test_close_rejects_new_work_and_wakes_consumers(self):
        queue = JobQueue()
        queue.put("last")
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put("rejected")
        assert queue.get_all() == ["last"]  # already-queued work drains
        assert queue.get_all() == []  # then the closed signal

    def test_depth_telemetry(self):
        queue = JobQueue()
        for i in range(4):
            queue.put(i)
        queue.get_all()
        queue.put(4)
        stats = queue.stats()
        assert stats["max_depth"] == 4
        assert stats["depth"] == 1
        assert stats["puts"] == 5
        assert stats["gets"] == 4


def _row(value: float) -> np.ndarray:
    return np.array([[value]])


class TestResultCache:
    def test_hit_and_miss_telemetry(self):
        cache = ResultCache(capacity=4)
        assert cache.get_many(["a"])[1] is None
        cache.put_many(["a"], _row(1.0))
        hit, rows = cache.get_many(["a"])
        assert hit.tolist() == [True] and rows[0, 0] == 1.0
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate() == 0.5

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put_many(["a"], _row(1.0))
        cache.put_many(["b"], _row(2.0))
        cache.get_many(["a"])  # refresh a; b becomes LRU
        cache.put_many(["c"], _row(3.0))
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_hits_are_defensive_copies(self):
        cache = ResultCache()
        cache.put_many(["a"], _row(1.0))
        cache.get_many(["a"])[1][0, 0] = 99.0
        assert cache.get_many(["a"])[1][0, 0] == 1.0

    def test_stored_entry_detached_from_caller(self):
        cache = ResultCache()
        rows = _row(1.0)
        cache.put_many(["a"], rows)
        rows[0, 0] = 99.0
        assert cache.get_many(["a"])[1][0, 0] == 1.0

    def test_stats_snapshot_is_internally_consistent(self):
        cache = ResultCache(capacity=4)
        cache.put_many(["a"], _row(1.0))
        cache.get_many(["a", "b", "a"])
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["hit_rate"] == stats["hits"] / (
            stats["hits"] + stats["misses"]
        )

    def test_telemetry_consistent_under_concurrent_lookups(self):
        # Regression: hit_rate()/stats() used to read hits/misses
        # outside the lock, so a reader racing lookups could see a
        # torn ratio (fresh hits over a stale total, hit_rate > 1).
        cache = ResultCache(capacity=8)
        cache.put_many(["hot"], _row(1.0))
        stop = threading.Event()
        anomalies: list[dict] = []

        def hammer():
            while not stop.is_set():
                cache.get_many(["hot"])
                cache.get_many(["cold"])

        def watch():
            while not stop.is_set():
                stats = cache.stats()
                rate = cache.hit_rate()
                if not 0.0 <= stats["hit_rate"] <= 1.0:
                    anomalies.append(stats)
                if not 0.0 <= rate <= 1.0:
                    anomalies.append({"hit_rate": rate})

        workers = [threading.Thread(target=hammer) for _ in range(3)]
        watcher = threading.Thread(target=watch)
        for thread in workers + [watcher]:
            thread.start()
        stop.wait(0.2)
        stop.set()
        for thread in workers + [watcher]:
            thread.join()
        assert anomalies == []
        # Quiesced counters add up exactly.
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] > 0
        assert stats["hit_rate"] == stats["hits"] / (
            stats["hits"] + stats["misses"]
        )


class TestRouter:
    def test_round_robin_cycles(self):
        backends = [IdealBackend(exact=True) for _ in range(3)]
        router = Router(backends, policy="round_robin")
        for i in range(6):
            _, backend, _ = router.execute([ghz_circuit()], 1024, "run")
            assert backend is backends[i % 3]

    def test_least_outstanding_prefers_idle(self):
        backends = [IdealBackend(exact=True) for _ in range(2)]
        router = Router(backends, policy="least_outstanding")
        with router._lock:
            router._outstanding[0] = 5
        _, backend, _ = router.execute([ghz_circuit()], 1024, "run")
        assert backend is backends[1]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            Router([IdealBackend()], policy="random")

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Router([])

    def test_execute_reports_flush_window_meter_diff(self):
        router = Router([IdealBackend(exact=False, seed=0)])
        router.execute([ghz_circuit()] * 2, 64, "forward")
        _, _, window = router.execute([ghz_circuit()] * 3, 32, "gradient")
        assert window == {
            "circuits": 3,
            "shots": 96,
            "by_purpose": {"gradient": 3},
            "shots_by_purpose": {"gradient": 96},
        }

    def test_meter_totals_roll_up(self):
        backends = [IdealBackend(exact=False, seed=s) for s in (0, 1)]
        router = Router(backends)
        router.execute([ghz_circuit()], 10, "a")
        router.execute([ghz_circuit()], 20, "b")
        totals = router.meter_totals()
        assert totals["circuits"] == 2
        assert totals["shots"] == 30
        assert totals["shots_by_purpose"] == {"a": 10, "b": 20}

    def test_deterministic_only_when_all_backends_are(self):
        assert Router([IdealBackend(exact=True)]).results_deterministic()
        assert not Router(
            [IdealBackend(exact=True), IdealBackend(exact=False)]
        ).results_deterministic()


class TestExecutionService:
    def test_submit_returns_future_resolving_to_backend_results(self):
        direct = IdealBackend(exact=True)
        circuits = [ry_circuit(0.1 * i) for i in range(5)]
        expected = direct.run(circuits)
        with ExecutionService(IdealBackend(exact=True)) as service:
            job = service.submit(circuits)
            results = job.result(timeout=10)
        assert job.status is JobStatus.DONE
        for got, want in zip(results, expected):
            assert np.array_equal(got.expectations, want.expectations)

    def test_mixed_structures_reassembled_in_submission_order(self):
        direct = IdealBackend(exact=True)
        circuits = [
            ry_circuit(0.1), ghz_circuit(2), ry_circuit(0.7), ghz_circuit(2)
        ]
        expected = direct.run(circuits)
        with ExecutionService(IdealBackend(exact=True)) as service:
            results = service.run(circuits)
        for got, want in zip(results, expected):
            assert np.array_equal(got.expectations, want.expectations)

    def test_validation_fails_synchronously(self):
        bad = QuantumCircuit(1, num_parameters=1)  # unused parameter
        with ExecutionService(IdealBackend(exact=True)) as service:
            with pytest.raises(JobError, match="never used"):
                service.submit([bad])

    def test_zero_shots_rejected_for_sampling_backends(self):
        with ExecutionService(IdealBackend(exact=False, seed=0)) as service:
            with pytest.raises(ValueError, match="shots"):
                service.submit([ghz_circuit()], shots=0)
        # A mixed pool is only as exact as its least exact member.
        mixed = [IdealBackend(exact=True), IdealBackend(exact=False, seed=0)]
        with ExecutionService(mixed, enable_cache=False) as service:
            with pytest.raises(ValueError, match="shots"):
                service.submit([ghz_circuit()], shots=0)

    def test_zero_shots_accepted_for_exact_pools(self):
        # Mirrors Backend.run: exact execution ignores shots and reports
        # shots=0 results, so an explicit shots=0 submission is legal.
        with ExecutionService(IdealBackend(exact=True)) as service:
            job = service.submit([ghz_circuit()], shots=0)
            results = job.result(timeout=10)
            assert results[0].shots == 0

    def test_negative_shots_rejected(self):
        with ExecutionService(IdealBackend(exact=True)) as service:
            with pytest.raises(ValueError, match="shots"):
                service.submit([ghz_circuit()], shots=-5)

    def test_empty_submission_completes_immediately(self):
        with ExecutionService(IdealBackend(exact=True)) as service:
            job = service.submit([])
            assert job.result(timeout=1) == []
            assert job.status is JobStatus.DONE

    def test_cache_serves_repeat_submissions_without_execution(self):
        backend = IdealBackend(exact=True)
        with ExecutionService(backend) as service:
            circuits = [ry_circuit(0.2), ry_circuit(0.4)]
            first = service.run(circuits)
            executed = backend.meter.circuits
            second = service.run([c.copy() for c in circuits])
            assert backend.meter.circuits == executed  # no new runs
            stats = service.stats()
        assert stats["cache"]["hits"] == 2
        assert stats["circuits_from_cache"] == 2
        for a, b in zip(first, second):
            assert np.array_equal(a.expectations, b.expectations)

    def test_cache_disabled_for_stochastic_backends(self):
        sampled = IdealBackend(exact=False, seed=0)
        with ExecutionService(sampled) as service:
            assert service.cache is None
            service.run([ghz_circuit()], shots=32)
            assert service.stats()["cache"] is None

    def test_cache_disabled_for_noisy_backend(self):
        noisy = NoisyBackend.from_device_name("ibmq_santiago", seed=0)
        service = ExecutionService(noisy)
        assert service.cache is None
        service.stop()

    def test_sampled_execution_still_works_uncached(self):
        sampled = IdealBackend(exact=False, seed=0)
        with ExecutionService(sampled) as service:
            results = service.run([ghz_circuit()] * 3, shots=50)
        assert all(r.shots == 50 for r in results)
        assert sampled.meter.shots == 150

    def test_job_lifecycle_reuses_hardware_states(self):
        with ExecutionService(IdealBackend(exact=True)) as service:
            job = service.submit([ghz_circuit()])
            job.result(timeout=10)
            assert job.status is JobStatus.DONE
        # The states are literally the hardware Job lifecycle enum.
        assert job.status is JobStatus.DONE

    def test_job_ids_are_sequential_per_service(self):
        with ExecutionService(IdealBackend(exact=True), name="svc") as s:
            a = s.submit([ghz_circuit()])
            b = s.submit([ghz_circuit()])
        assert a.job_id == "svc-000001"
        assert b.job_id == "svc-000002"

    def test_submit_after_stop_raises(self):
        service = ExecutionService(IdealBackend(exact=True))
        service.start()
        service.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            service.submit([ghz_circuit()])

    def test_stop_drains_pending_work(self):
        service = ExecutionService(
            IdealBackend(exact=True),
            max_batch_size=10_000,
            max_delay_s=60.0,  # deadline never fires on its own
        )
        job = service.submit([ghz_circuit()])
        service.stop()  # must flush the parked bucket
        assert job.result(timeout=1)[0].expectations.shape == (3,)

    def test_backpressure_surfaces_as_queue_full(self):
        """The pending bound covers the whole pipeline, not just intake."""
        service = ExecutionService(
            SlowBackend(delay_s=0.3),
            queue_capacity=1,
            enable_cache=False,
            max_batch_size=1,
            max_delay_s=0.0,
        )
        service.start()
        try:
            slow = service.submit([ghz_circuit()])  # occupies the pipeline
            with pytest.raises(QueueFull):
                service.submit([ghz_circuit()], timeout=0.01)
            assert len(slow.result(timeout=10)) == 1
        finally:
            service.stop()

    def test_service_survives_backpressure_rejection(self):
        service = ExecutionService(
            SlowBackend(delay_s=0.3),
            queue_capacity=1,
            enable_cache=False,
            max_batch_size=1,
            max_delay_s=0.0,
        )
        service.start()
        try:
            slow = service.submit([ghz_circuit()])
            with pytest.raises(QueueFull):
                service.submit([ry_circuit(0.5)], timeout=0.01)
            # A later submission succeeds once the pipeline drains.
            retry = service.submit([ghz_circuit()], timeout=10)
            assert len(retry.result(timeout=10)) == 1
            assert len(slow.result(timeout=10)) == 1
        finally:
            service.stop()

    def test_backend_failure_propagates_to_future(self):
        class ExplodingBackend(IdealBackend):
            def _execute_sweep(self, sweep, shots):
                raise RuntimeError("device offline")

        service = ExecutionService(
            ExplodingBackend(exact=True), enable_cache=False
        )
        try:
            job = service.submit([ghz_circuit()])
            with pytest.raises(JobError, match="device offline"):
                job.result(timeout=10)
            assert job.status is JobStatus.ERROR
            assert service.pending_circuits == 0  # reservation released
        finally:
            service.stop()

    def test_dispatch_worker_reraises_keyboard_interrupt(self):
        # Regression: _run_batch caught BaseException and returned,
        # swallowing KeyboardInterrupt/SystemExit inside the dispatch
        # pool.  The jobs must still fail (clients unblock), but the
        # exception has to surface.
        from repro.serving import CoalescingScheduler, WorkItem

        class FakeJob:
            def __init__(self):
                self.failure = None

            def _mark_running(self):
                pass

            def _fail(self, exc):
                self.failure = exc

            def _fulfill(self, group, rows, expectations, *rest):
                pass

        class InterruptRouter:
            backends = [IdealBackend(exact=True)]

            def execute(self, circuits, **kwargs):
                raise KeyboardInterrupt()

        released = []
        job = FakeJob()
        scheduler = CoalescingScheduler(JobQueue(), InterruptRouter())
        items = [
            WorkItem(
                sweep=CircuitBatch([ghz_circuit()]),
                rows=np.array([0]),
                shots=16,
                purpose="run",
                job=job,
                release=released.append,
            )
        ]
        with pytest.raises(KeyboardInterrupt):
            scheduler._run_batch(items, "size")
        assert isinstance(job.failure, KeyboardInterrupt)
        assert released == [1]

    def test_pool_dispatched_interrupt_reaches_main_thread(self, monkeypatch):
        # The dispatch pool stores a worker's re-raised exception on a
        # Future nobody reads; the done-callback must forward
        # process-level interrupts to the main thread instead of
        # letting them vanish there.
        from repro.serving import scheduler as scheduler_module

        delivered = []
        monkeypatch.setattr(
            scheduler_module._thread,
            "interrupt_main",
            lambda: delivered.append(True),
        )

        class DoneFuture:
            def __init__(self, exc):
                self._exc = exc

            def exception(self):
                return self._exc

        scheduler_module._surface_interrupt(DoneFuture(KeyboardInterrupt()))
        scheduler_module._surface_interrupt(DoneFuture(SystemExit()))
        assert delivered == [True, True]
        # Ordinary failures and clean completions are not escalated.
        scheduler_module._surface_interrupt(DoneFuture(RuntimeError("x")))
        scheduler_module._surface_interrupt(DoneFuture(None))
        assert delivered == [True, True]

    def test_dispatch_worker_contains_ordinary_exceptions(self):
        from repro.serving import CoalescingScheduler, WorkItem

        class FakeJob:
            def __init__(self):
                self.failure = None

            def _mark_running(self):
                pass

            def _fail(self, exc):
                self.failure = exc

        class BrokenRouter:
            backends = [IdealBackend(exact=True)]

            def execute(self, circuits, **kwargs):
                raise RuntimeError("device offline")

        job = FakeJob()
        scheduler = CoalescingScheduler(JobQueue(), BrokenRouter())
        items = [
            WorkItem(
                sweep=CircuitBatch([ghz_circuit()]),
                rows=np.array([0]),
                shots=16,
                purpose="run",
                job=job,
            )
        ]
        scheduler._run_batch(items, "size")  # must not raise
        assert isinstance(job.failure, RuntimeError)

    def test_rebind_after_submit_does_not_corrupt_result_or_cache(self):
        """Submitted work is detached from the caller's mutable circuit."""
        base = QuantumCircuit(1)
        base.add_trainable("ry", 0, 0)
        circuit = base.bound([0.4])
        with ExecutionService(
            IdealBackend(exact=True),
            max_batch_size=10_000,
            max_delay_s=0.1,  # flush well after the rebind below
        ) as service:
            job = service.submit([circuit])
            circuit.bind([2.0])  # client pipelines its next step
            got = job.result(timeout=10)[0].expectations[0]
            assert np.isclose(got, np.cos(0.4))
            # And the cache holds the value the fingerprint promises.
            cached = service.run([base.bound([0.4])])[0].expectations[0]
            assert np.isclose(cached, np.cos(0.4))
            assert service.cache.hits == 1

    def test_oversized_submission_admitted_when_idle(self):
        with ExecutionService(
            IdealBackend(exact=True), queue_capacity=2
        ) as service:
            results = service.run([ry_circuit(0.1 * i) for i in range(8)])
        assert len(results) == 8

    def test_service_level_stats_shape(self):
        with ExecutionService(
            [IdealBackend(exact=True), IdealBackend(exact=True)],
            policy="least_outstanding",
        ) as service:
            service.run([ry_circuit(0.1 * i) for i in range(6)])
            stats = service.stats()
        assert stats["submissions"] == 1
        assert stats["circuits_submitted"] == 6
        assert stats["scheduler"]["circuits_dispatched"] == 6
        assert stats["scheduler"]["flushes"] >= 1
        assert stats["scheduler"]["last_flush"]["meter"]["circuits"] > 0
        assert len(stats["router"]["backends"]) == 2
        # One structure group: one queue put, however many rows.
        assert stats["queue"]["puts"] == 1


class TestCrossClientCoalescing:
    """Satellite: N threads through the service == sequential direct runs."""

    N_CLIENTS = 6
    PER_CLIENT = 8

    def _client_workloads(self):
        rng = np.random.default_rng(42)
        workloads = []
        for _ in range(self.N_CLIENTS):
            circuits = []
            for k in range(self.PER_CLIENT):
                if k % 2:
                    circuits.append(ghz_circuit(2))
                else:
                    circuits.append(ry_circuit(float(rng.uniform(0, np.pi))))
            workloads.append(circuits)
        return workloads

    def test_threaded_service_results_bit_identical_to_direct(self):
        workloads = self._client_workloads()

        direct_backend = IdealBackend(exact=True)
        direct_results = [
            direct_backend.run(circuits, shots=128, purpose="serve")
            for circuits in workloads
        ]

        service_backend = IdealBackend(exact=True)
        service_results = [None] * self.N_CLIENTS
        errors = []
        with ExecutionService(
            service_backend,
            enable_cache=False,  # meters must match the direct path exactly
            max_batch_size=16,
            max_delay_s=0.01,
        ) as service:
            def client(index):
                try:
                    service_results[index] = service.run(
                        workloads[index], shots=128, purpose="serve"
                    )
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(self.N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            scheduler_stats = service.scheduler.stats()

        assert not errors
        for want_list, got_list in zip(direct_results, service_results):
            for want, got in zip(want_list, got_list):
                assert np.array_equal(want.expectations, got.expectations)
                assert want.counts == got.counts
                assert want.shots == got.shots

        # Identical meter totals: same circuits, same purposes, same shots.
        assert (
            service_backend.meter.snapshot()
            == direct_backend.meter.snapshot()
        )
        # And the traffic actually coalesced across clients: at least one
        # executed batch bundled more circuits than any single client's
        # largest same-structure group.
        per_client_group_max = self.PER_CLIENT - self.PER_CLIENT // 2
        assert scheduler_stats["largest_batch"] > per_client_group_max

    def test_coalesced_exact_jacobians_match_direct(self):
        """The gradient engines ride the service path unchanged."""
        from repro.gradients.parameter_shift import (
            parameter_shift_jacobian_batch,
        )

        base = QuantumCircuit(2)
        base.add("h", 0)
        base.add_trainable("ry", 0, 0)
        base.add_trainable("rz", 1, 1)
        base.add("cx", (0, 1))
        circuits = [base.bound([0.3 * i, 0.1 + i]) for i in range(3)]

        direct = parameter_shift_jacobian_batch(
            circuits, IdealBackend(exact=True)
        )
        with ExecutionService(IdealBackend(exact=True)) as service:
            served = parameter_shift_jacobian_batch(
                circuits, service.executor()
            )
        for a, b in zip(direct, served):
            assert np.array_equal(a, b)


class TestServiceExecutor:
    def test_executor_meters_client_side_traffic(self):
        with ExecutionService(IdealBackend(exact=True)) as service:
            executor = service.executor()
            executor.run([ghz_circuit()] * 3, purpose="forward")
            executor.run([ghz_circuit()], purpose="gradient")
            assert executor.meter.circuits == 4
            assert executor.meter.by_purpose == {"forward": 3, "gradient": 1}

    def test_executor_meter_counts_cache_served_circuits(self):
        backend = IdealBackend(exact=True)
        with ExecutionService(backend) as service:
            executor = service.executor()
            executor.run([ghz_circuit()])
            executor.run([ghz_circuit()])  # cache-served
            assert executor.meter.circuits == 2  # client-side view
            assert backend.meter.circuits == 1  # physical view

    def test_expectations_shape_matches_backend(self):
        with ExecutionService(IdealBackend(exact=True)) as service:
            stacked = service.executor().expectations(
                [ghz_circuit(), ghz_circuit()]
            )
        assert stacked.shape == (2, 3)

    def test_expectations_of_nothing_raise_before_submitting(self):
        with ExecutionService(IdealBackend(exact=True)) as service:
            executor = service.executor()
            with pytest.raises(ValueError, match="need at least one circuit"):
                executor.expectations([])
            assert executor.meter.circuits == 0
            assert service.submissions == 0

    def test_training_engine_service_path_matches_direct(self):
        from repro.training import TrainingConfig, TrainingEngine

        for engine in ("parameter_shift", "finite_difference", "spsa"):
            config = TrainingConfig(
                task="mnist2",
                steps=2,
                batch_size=3,
                gradient_engine=engine,
                eval_every=0,
                eval_size=8,
                seed=11,
            )
            direct = TrainingEngine(config, IdealBackend(exact=True, seed=0))
            direct_history = direct.train()

            with ExecutionService(
                IdealBackend(exact=True, seed=0)
            ) as service:
                served = TrainingEngine(config, service=service)
                served_history = served.train()

            assert np.array_equal(direct.theta, served.theta), engine
            assert [r.loss for r in direct_history.steps] == [
                r.loss for r in served_history.steps
            ]
            assert (
                direct.training_inferences()
                == served.training_inferences()
            )

    @pytest.mark.parametrize("max_batch_size", [256, 7])
    def test_noisy_pgp_training_service_path_matches_direct(
        self, max_batch_size
    ):
        # QC-Train-PGP on the noisy emulator: each step's sweep is one
        # job whose rows the coalescer splits into whole flushes (or
        # many 7-row ones), and the sampled results must not notice.
        from repro.pruning import PruningHyperparams
        from repro.training import TrainingConfig, TrainingEngine

        config = TrainingConfig(
            task="mnist4",
            steps=4,
            batch_size=8,
            shots=1024,
            pruning=PruningHyperparams(
                accumulation_window=1, pruning_window=2, ratio=0.5
            ),
            eval_every=0,
            eval_size=8,
            seed=0,
        )
        direct = TrainingEngine(
            config, NoisyBackend.from_device_name("ibmq_jakarta", seed=0)
        )
        direct.train()
        with ExecutionService(
            NoisyBackend.from_device_name("ibmq_jakarta", seed=0),
            workers=0,
            max_batch_size=max_batch_size,
        ) as service:
            served = TrainingEngine(config, service=service)
            served.train()
        assert np.array_equal(direct.theta, served.theta)

    def test_training_engine_requires_backend_or_service(self):
        from repro.training import TrainingConfig, TrainingEngine

        with pytest.raises(ValueError, match="train_backend or a service"):
            TrainingEngine(TrainingConfig(task="mnist2", steps=1))


class TestSweepAdmission:
    """Admission stacks each job into angle-matrix rows; what runs and
    what the cache stores must be what the circuits stand for."""

    @staticmethod
    def mixed_jobs():
        from repro.circuits import get_architecture
        from repro.gradients.parameter_shift import build_shifted_circuits

        rng = np.random.default_rng(11)
        jobs = []
        for task in ("mnist4", "vowel4"):
            arch = get_architecture(task)
            theta = rng.uniform(-1, 1, arch.num_parameters)
            rows = [
                arch.full_circuit(rng.uniform(0, np.pi, arch.n_features),
                                  theta)
                for _ in range(3)
            ]
            jobs.append(rows)
            jobs.append(build_shifted_circuits(rows[0], [0, 2, 5])[0])
        # Mixed structures inside one job, and a repeat of a row.
        jobs.append([ry_circuit(0.3), ghz_circuit(), ry_circuit(0.7)])
        jobs.append([jobs[0][1]])
        return jobs

    @pytest.mark.parametrize("workers", [0, 2])
    def test_served_results_bit_identical_to_direct_run(self, workers):
        jobs = self.mixed_jobs()
        with ExecutionService(
            IdealBackend(exact=True), workers=workers, max_batch_size=7
        ) as service:
            futures = [service.submit(job, shots=0) for job in jobs]
            served = [future.result(timeout=60) for future in futures]
        direct = IdealBackend(exact=True)
        for job, results in zip(jobs, served):
            for want, got in zip(direct.run(job, shots=0), results):
                assert np.array_equal(got.expectations, want.expectations)
                assert got.counts == want.counts == {}
                assert got.shots == want.shots == 0

    def test_cache_keys_are_row_keys(self):
        """Every served circuit is cached under its salted angle-bit
        key, the one a per-circuit oracle computes — not under its
        persisted hex fingerprint."""
        import admission_reference as ref

        jobs = self.mixed_jobs()
        with ExecutionService(IdealBackend(exact=True), workers=0) as service:
            for job in jobs:
                service.run(job, shots=0)
            for job in jobs:
                for circuit in job:
                    batch = CircuitBatch([circuit])
                    (key,) = ref.row_keys(batch.template, [circuit])
                    assert batch.row_keys() == [key]
                    assert key in service.cache
                    assert circuit_fingerprint(circuit) not in service.cache

    def test_circuit_list_and_sweep_hit_each_others_entries(self):
        from repro.circuits import get_architecture

        arch = get_architecture("mnist4")
        rng = np.random.default_rng(5)
        theta = rng.uniform(-1, 1, arch.num_parameters)
        features = rng.uniform(0, np.pi, (6, arch.n_features))
        with ExecutionService(IdealBackend(exact=True), workers=0) as service:
            # Rows 0-2 go in as a sweep first, rows 3-5 as circuits.
            first = service.submit(arch.sweep(features[:3], theta), shots=0)
            second = service.submit(
                [arch.full_circuit(x, theta) for x in features[3:]], shots=0
            )
            first.result(timeout=30)
            second.result(timeout=30)
            assert first.cache_hits == second.cache_hits == 0
            # Then each half in the other form: every row is a hit.
            circuits = service.submit(
                [arch.full_circuit(x, theta) for x in features[:3]], shots=0
            )
            sweep = service.submit(arch.sweep(features[3:], theta), shots=0)
            circuits.result(timeout=30)
            sweep.result(timeout=30)
            assert circuits.cache_hits == sweep.cache_hits == 3
            assert service.cache.stats()["size"] == 6

    def test_structure_validates_once_not_per_circuit(self, monkeypatch):
        calls = []
        original = QuantumCircuit.validate

        def counting(self):
            calls.append(self.structure_signature())
            return original(self)

        monkeypatch.setattr(QuantumCircuit, "validate", counting)
        with ExecutionService(IdealBackend(exact=True), workers=0) as service:
            for job in range(4):
                service.run(
                    [ry_circuit(0.1 * job + 0.01 * k) for k in range(5)],
                    shots=0,
                )
        assert len(calls) == 1

    def test_submitted_sweep_coalesces_with_circuit_job(self):
        from repro.circuits import get_architecture

        arch = get_architecture("mnist4")
        rng = np.random.default_rng(5)
        theta = rng.uniform(-1, 1, arch.num_parameters)
        features = rng.uniform(0, np.pi, (5, arch.n_features))
        circuits = [arch.full_circuit(x, theta) for x in features[:2]]
        sweep = arch.sweep(features[2:], theta)
        with ExecutionService(
            IdealBackend(exact=True),
            workers=0,
            max_batch_size=5,
            max_delay_s=30.0,
        ) as service:
            circuit_job = service.submit(circuits, shots=0)
            sweep_job = service.submit(sweep, shots=0)
            served = circuit_job.result(timeout=30) + sweep_job.result(
                timeout=30
            )
            stats = service.scheduler.stats()
            # The sweep's rows keyed the cache as the circuits they
            # stand for.
            again = service.submit(sweep.circuits(), shots=0)
            again.result(timeout=30)
        assert stats["flushes"] == 1
        assert stats["largest_batch"] == 5
        assert again.cache_hits == sweep.size
        want = IdealBackend(exact=True).run_sweep(
            arch.sweep(features, theta), shots=0
        )
        assert np.array_equal(
            np.stack([r.expectations for r in served]), want
        )

    def test_non_finite_sweep_row_fails_submit(self):
        from repro.circuits import get_architecture

        arch = get_architecture("mnist2")
        sweep = arch.sweep(
            np.full((3, arch.n_features), 0.5),
            np.zeros(arch.num_parameters),
        )
        sweep.params[1, 0] = np.inf  # mutated after construction
        with ExecutionService(IdealBackend(exact=True), workers=0) as service:
            with pytest.raises(JobError, match="non-finite"):
                service.submit(sweep, shots=0)
            assert service.pending_circuits == 0

    def test_parameter_count_mismatch_still_rejected(self):
        base = QuantumCircuit(1).add_trainable("ry", 0, 0)
        base.bind([0.2])
        extra = QuantumCircuit(1, num_parameters=2).add_trainable("ry", 0, 0)
        with ExecutionService(IdealBackend(exact=True), workers=0) as service:
            service.run([base], shots=0)  # caches the valid template
            with pytest.raises(JobError, match="never used"):
                service.submit([base, extra], shots=0)
            with pytest.raises(JobError, match="never used"):
                service.submit([extra], shots=0)
            assert service.pending_circuits == 0

    def test_oversized_job_splits_across_flushes_with_single_row_jobs(self):
        rng = np.random.default_rng(3)
        big = [ry_circuit(a) for a in rng.uniform(0, np.pi, 60)]
        singles = [ry_circuit(a) for a in rng.uniform(0, np.pi, 20)]
        single_jobs = []
        with ExecutionService(
            IdealBackend(exact=True),
            workers=0,
            max_batch_size=24,
            max_delay_s=0.01,
        ) as service:
            def client():
                for circuit in singles:
                    single_jobs.append(service.submit([circuit], shots=0))

            thread = threading.Thread(target=client)
            thread.start()
            big_job = service.submit(big, shots=0)
            thread.join()
            served = big_job.result(timeout=30) + [
                job.result(timeout=30)[0] for job in single_jobs
            ]
            stats = service.scheduler.stats()
            puts = service.queue.stats()["puts"]
        direct = IdealBackend(exact=True).run(big + singles, shots=0)
        for got, want in zip(served, direct, strict=True):
            assert np.array_equal(got.expectations, want.expectations)
        assert stats["largest_batch"] == 24
        assert stats["circuits_dispatched"] == len(big) + len(singles)
        assert puts == 1 + len(singles)

    def test_partly_cached_sweep_queues_only_missing_rows(self):
        from repro.circuits import get_architecture

        arch = get_architecture("mnist4")
        rng = np.random.default_rng(8)
        theta = rng.uniform(-1, 1, arch.num_parameters)
        sweep = arch.sweep(rng.uniform(0, np.pi, (10, arch.n_features)), theta)
        with ExecutionService(
            IdealBackend(exact=True), workers=0, max_batch_size=4
        ) as service:
            service.run(sweep.circuits()[::2], shots=0)  # every other row
            before = service.scheduler.stats()["circuits_dispatched"]
            job = service.submit(sweep, shots=0)
            served = job.result(timeout=30)
            dispatched = (
                service.scheduler.stats()["circuits_dispatched"] - before
            )
        assert job.cache_hits == 5
        assert dispatched == 5
        want = IdealBackend(exact=True).run_sweep(sweep, shots=0)
        assert np.array_equal(
            np.stack([result.expectations for result in served]), want
        )
