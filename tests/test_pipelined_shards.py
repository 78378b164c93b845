"""Pipelined sharded execution: several flushes in one worker pool at once.

``WorkerPool.run_shards`` may be called from several threads: each slot
keeps a FIFO of requests sent but not yet answered, and every answer
goes to the head of that FIFO, whichever call reads it.  An exact
``ShardedBackend`` therefore reports ``run_slots == workers``, and the
serving router and scheduler run that many flushes on it at once.

The worker-kill and worker-hang cases destroy real processes and run
only under ``REPRO_CHAOS=1`` (the CI chaos job)::

    REPRO_CHAOS=1 PYTHONPATH=src python -m pytest tests/test_pipelined_shards.py
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.circuits import CircuitBatch, get_architecture
from repro.hardware import Backend, IdealBackend
from repro.parallel import BackendSpec, ShardedBackend, WorkerPool
from repro.parallel.pool import _WorkerGone
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ResilienceWarning,
    chaos_enabled,
    faults,
)
from repro.serving import ExecutionService

chaos = pytest.mark.skipif(
    not chaos_enabled(), reason="chaos cases run only under REPRO_CHAOS=1"
)


def mnist4_batches(n_batches, rows, seed=0):
    """``n_batches`` lists of ``rows`` distinct mnist4 circuits."""
    arch = get_architecture("mnist4")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-1.0, 1.0, arch.num_parameters)
    return [
        [
            arch.full_circuit(rng.uniform(0.0, np.pi, arch.n_features), theta)
            for _ in range(rows)
        ]
        for _ in range(n_batches)
    ]


def exact_rows(circuits):
    return IdealBackend(exact=True).run(circuits, shots=0).expectations


def run_concurrently(calls):
    """Start every call at once on its own thread; return their results."""
    barrier = threading.Barrier(len(calls))
    results = [None] * len(calls)
    errors = []

    def target(index, call):
        barrier.wait()
        try:
            results[index] = call()
        except Exception as exc:  # surfaced below, on the test thread
            errors.append(exc)

    threads = [
        threading.Thread(target=target, args=(index, call))
        for index, call in enumerate(calls)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results


def sweep_request(sweep, slot):
    """One ``"sweep"`` request carrying every row of ``sweep``."""
    return (
        slot,
        (
            "sweep",
            (sweep.template.digest, sweep.literals, sweep.params, None, 0),
        ),
    )


class TestRunSlots:
    def test_single_process_backends_run_one_at_a_time(self):
        assert IdealBackend(exact=True).run_slots == 1
        assert IdealBackend(exact=False).run_slots == 1

    def test_exact_sharded_backend_runs_one_call_per_worker(self):
        # Construction spawns nothing: the pool starts on first use.
        sharded = ShardedBackend(IdealBackend(exact=True), workers=3)
        assert sharded.run_slots == 3
        assert sharded.pool.alive_workers() == 0

    def test_sampled_sharded_backend_keeps_flush_order(self):
        sharded = ShardedBackend(IdealBackend(exact=False, seed=1), workers=3)
        assert sharded.run_slots == 1

    def test_run_slots_is_read_only(self):
        with pytest.raises(AttributeError):
            IdealBackend().run_slots = 2


class _CountingBackend(Backend):
    """Exact backend that records how many runs overlap."""

    name = "counting"

    def __init__(self, slots):
        super().__init__()
        self.slots = slots
        self.active = 0
        self.peak = 0
        self.lock = threading.Lock()
        self.overlapped = threading.Event()

    @property
    def run_slots(self):
        return self.slots

    def exact_execution(self):
        return True

    def _execute_sweep(self, sweep, shots):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
            if self.active >= 2:
                self.overlapped.set()
        # Hold the flush until a second one overlaps (or give up).
        self.overlapped.wait(timeout=0.5)
        with self.lock:
            self.active -= 1
        return np.zeros((sweep.size, sweep.n_qubits)), None


class TestServiceDispatch:
    @pytest.mark.parametrize("slots", [1, 2])
    def test_flushes_in_flight_follow_run_slots(self, slots):
        backend = _CountingBackend(slots)
        (circuits,) = mnist4_batches(1, 8)
        with ExecutionService(
            backend, workers=0, max_batch_size=2, max_delay_s=10.0
        ) as service:
            service.submit(circuits, shots=0).result(timeout=30)
        assert backend.peak == slots
        assert service.scheduler.stats()["flushes"] == 4


class TestConcurrentRuns:
    def test_concurrent_runs_match_in_process_and_meter_once(self):
        batches = mnist4_batches(4, 8)
        with ShardedBackend(
            IdealBackend(exact=True), workers=2, min_shard_cost=0
        ) as sharded:
            sharded.run(batches[0], shots=0, purpose="warm")
            results = run_concurrently(
                [
                    lambda batch=batch, k=k: sharded.run(
                        batch, shots=0, purpose=f"t{k}"
                    )
                    for k, batch in enumerate(batches)
                ]
            )
            meter = sharded.meter.snapshot()
            assert sharded.pool.restarts == 0
        for batch, got in zip(batches, results):
            assert np.array_equal(got.expectations, exact_rows(batch))
        assert meter["circuits"] == 8 * 5
        assert meter["by_purpose"] == {
            "warm": 8, "t0": 8, "t1": 8, "t2": 8, "t3": 8,
        }

    def test_pool_calls_from_threads_get_their_own_answers(self):
        """Stress: more calling threads than cores, switching threads
        every few bytecodes; a lost update of the FIFOs or counters
        would misroute an answer or miscount the shards."""
        batches = [CircuitBatch(b) for b in mnist4_batches(6, 3, seed=4)]
        spec = BackendSpec.from_backend(IdealBackend(exact=True))
        templates = {batches[0].template.digest: batches[0].template}
        interval = sys.getswitchinterval()
        with WorkerPool(spec, n_workers=2) as pool:
            sys.setswitchinterval(1e-6)
            try:
                results = run_concurrently(
                    [
                        lambda sweep=sweep, k=k: [
                            pool.run_shards(
                                [
                                    sweep_request(sweep, k),
                                    sweep_request(sweep, k + 1),
                                ],
                                timeouts=30.0,
                                templates=templates,
                            )
                            for _ in range(5)
                        ]
                        for k, sweep in enumerate(batches)
                    ]
                )
            finally:
                sys.setswitchinterval(interval)
            assert pool.stats()["shards_executed"] == 6 * 5 * 2
        for sweep, calls in zip(batches, results):
            answers = [answer for call in calls for answer in call]
            want = IdealBackend(exact=True).run(sweep, shots=0).expectations
            for expectations, outcomes in answers:
                assert np.array_equal(expectations, want)
                assert outcomes is None

    def test_sampled_service_is_seed_identical(self):
        batches = mnist4_batches(6, 4, seed=2)

        def serve():
            with ExecutionService(
                ShardedBackend(
                    IdealBackend(exact=False, seed=11),
                    workers=2,
                    min_shard_cost=0,
                ),
                workers=0,
                max_batch_size=8,
                max_delay_s=30.0,
            ) as service:
                jobs = [
                    service.submit(batch, shots=64) for batch in batches
                ]
                return [job.result(timeout=60) for job in jobs]

        first, second = serve(), serve()
        for a, b in zip(first, second):
            assert np.array_equal(a.outcomes, b.outcomes)
            assert np.array_equal(a.expectations, b.expectations)


class TestSlotRotation:
    def test_single_shard_groups_alternate_slots(self):
        (circuits,) = mnist4_batches(1, 4)
        want = exact_rows(circuits)
        with ShardedBackend(IdealBackend(exact=True), workers=2) as sharded:
            slots = []
            run_shards = sharded.pool.run_shards

            def recording(requests, *args, **kwargs):
                slots.append([slot for slot, _ in requests])
                return run_shards(requests, *args, **kwargs)

            sharded.pool.run_shards = recording
            for _ in range(4):
                got = sharded.run(circuits, shots=0)
                assert np.array_equal(got.expectations, want)
            assert sharded.pool.stats()["shards_executed"] == 4
        assert slots == [[0], [1], [0], [1]]

    def test_two_shard_groups_use_both_slots_every_time(self):
        (circuits,) = mnist4_batches(1, 6)
        with ShardedBackend(
            IdealBackend(exact=True), workers=2, min_shard_cost=0
        ) as sharded:
            slots = []
            run_shards = sharded.pool.run_shards

            def recording(requests, *args, **kwargs):
                slots.append([slot for slot, _ in requests])
                return run_shards(requests, *args, **kwargs)

            sharded.pool.run_shards = recording
            for _ in range(3):
                got = sharded.run(circuits, shots=0)
                assert np.array_equal(got.expectations, exact_rows(circuits))
        assert slots == [[0, 1], [1, 0], [0, 1]]


class TestEscalationLeavesNoStaleAnswer:
    def test_next_run_gets_its_own_rows_after_a_shard_escalates(self):
        """A shard that escalates must not leave its sibling's answer
        in the other slot's pipe for the next run to read as its own."""
        first, second = mnist4_batches(2, 8, seed=7)
        with ShardedBackend(
            IdealBackend(exact=True), workers=2, min_shard_cost=0
        ) as sharded:
            pool = sharded.pool
            recv = pool._recv
            failures = {"left": pool.max_retries + 1}

            def flaky(handle, *args):
                # Slot 0 "dies" until its shard escalates; slot 1 answers.
                if handle is pool._workers[0] and failures["left"] > 0:
                    failures["left"] -= 1
                    raise _WorkerGone()
                return recv(handle, *args)

            pool._recv = flaky
            with pytest.warns(ResilienceWarning):
                got_first = sharded.run(first, shots=0)
            assert sharded.fallbacks == 1
            got_second = sharded.run(second, shots=0)
            got_third = sharded.run(first, shots=0)
        assert np.array_equal(got_first.expectations, exact_rows(first))
        assert np.array_equal(got_second.expectations, exact_rows(second))
        assert np.array_equal(got_third.expectations, exact_rows(first))


@chaos
class TestFaultsWithFlushesInFlight:
    def test_worker_killed_with_two_flushes_in_flight(self):
        """Each first-generation worker dies on its second shard: the
        first of the two concurrent flushes' shards it holds, with the
        other flush's shard queued behind it."""
        warm, a, b = mnist4_batches(3, 8, seed=5)
        reference = IdealBackend(exact=True)
        for batch, purpose in ((warm, "warm"), (a, "a"), (b, "b")):
            reference.run(batch, shots=0, purpose=purpose)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site=faults.SITE_WORKER_SHARD,
                    mode="kill",
                    at=(2,),
                    max_spawn=2,
                ),
            )
        )
        with faults.installed(plan):
            with ShardedBackend(
                IdealBackend(exact=True), workers=2, min_shard_cost=0
            ) as sharded:
                sharded.run(warm, shots=0, purpose="warm")
                got_a, got_b = run_concurrently(
                    [
                        lambda: sharded.run(a, shots=0, purpose="a"),
                        lambda: sharded.run(b, shots=0, purpose="b"),
                    ]
                )
                assert sharded.pool.restarts >= 1
                assert sharded.fallbacks == 0
                meter = sharded.meter.snapshot()
        assert np.array_equal(got_a.expectations, exact_rows(a))
        assert np.array_equal(got_b.expectations, exact_rows(b))
        # No shard double-counted: the meter matches fault-free usage.
        assert meter == reference.meter.snapshot()

    def test_hung_slot_with_a_request_queued_behind_it_recovers(self):
        """One worker hangs on a call's request while a second call's
        request waits behind it in the same slot: the hang is detected,
        the worker replaced, and both requests replayed in order."""
        first, second = (
            CircuitBatch(b) for b in mnist4_batches(2, 4, seed=9)
        )
        spec = BackendSpec.from_backend(IdealBackend(exact=True))
        templates = {first.template.digest: first.template}
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site=faults.SITE_WORKER_SHARD,
                    mode="hang",
                    at=(2,),
                    delay_s=60.0,
                    max_spawn=1,
                ),
            )
        )
        with faults.installed(plan):
            with WorkerPool(spec, n_workers=1) as pool:
                pool.run_shards(
                    [sweep_request(first, 0)], timeouts=2.0,
                    templates=templates,
                )
                answers = run_concurrently(
                    [
                        lambda sweep=sweep: pool.run_shards(
                            [sweep_request(sweep, 0)],
                            timeouts=2.0,
                            templates=templates,
                        )
                        for sweep in (first, second)
                    ]
                )
                assert pool.hangs >= 1
                assert pool.restarts >= 1
                assert pool.alive_workers() == 1
        for sweep, [(expectations, _)] in zip((first, second), answers):
            want = IdealBackend(exact=True).run(sweep, shots=0).expectations
            assert np.array_equal(expectations, want)
