"""Served results are row views over per-flush result matrices.

A flush's ``(expectations, outcomes)`` matrices are the result all the
way to the caller: jobs hold their rows in per-group matrices, the
result cache holds expectation rows, and ``counts`` dicts are
formatted from outcome rows only when read.  These tests pin what that
must not change: exact rows bit-identical to direct execution, sampled
counts dict-equal to the direct formatting and reproducible per seed,
isolation between callers, the cache's LRU bookkeeping, and flush
formation when the scheduler drains its whole queue per wakeup.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import CircuitBatch, QuantumCircuit, get_architecture
from repro.hardware import IdealBackend
from repro.serving import (
    CoalescingScheduler,
    ExecutionService,
    JobQueue,
    ResultCache,
    WorkItem,
)
from repro.sim.measurement import (
    counts_to_probabilities,
    outcome_matrix_to_counts,
    outcome_probabilities,
)


def ladder(n_qubits: int, angle: float) -> QuantumCircuit:
    circuit = QuantumCircuit(n_qubits)
    for wire in range(n_qubits):
        circuit.add("ry", wire, angle * (wire + 1))
    for wire in range(n_qubits - 1):
        circuit.add("cx", (wire, wire + 1))
    return circuit


def rotations(n_qubits: int, angle: float) -> QuantumCircuit:
    circuit = QuantumCircuit(n_qubits)
    for wire in range(n_qubits):
        circuit.add("rx", wire, angle - wire)
    return circuit


def mixed_circuits() -> list[QuantumCircuit]:
    """Interleaved structures of two widths (2 and 3 qubits)."""
    circuits = []
    for k in range(4):
        circuits.append(ladder(3, 0.2 + 0.1 * k))
        circuits.append(rotations(2, 0.5 * k))
        circuits.append(ladder(2, 0.3 * k))
    return circuits


def mnist4_sweep():
    arch = get_architecture("mnist4")
    rng = np.random.default_rng(3)
    inputs = rng.uniform(0.0, np.pi, (6, arch.n_features))
    theta = rng.uniform(-1.0, 1.0, arch.num_parameters)
    return arch.sweep(inputs, theta)


class TestExactRowsMatchDirect:
    def test_mixed_structure_mixed_width_job(self):
        circuits = mixed_circuits()
        direct = IdealBackend(exact=True).run(circuits, shots=0)
        with ExecutionService(IdealBackend(exact=True), workers=0) as svc:
            served = svc.submit(circuits, shots=0).result(timeout=30)
        assert len(served) == len(direct)
        for got, want in zip(served, direct):
            assert np.array_equal(got.expectations, want.expectations)
            assert got.shots == want.shots == 0
            assert got.counts == want.counts == {}
        # Rows of several groups view their own groups' matrices.
        assert served.expectations is None and direct.expectations is None

    def test_same_width_mixed_structure_expectations(self):
        circuits = [c for c in mixed_circuits() if c.n_qubits == 2]
        direct = IdealBackend(exact=True).expectations(circuits, shots=0)
        with ExecutionService(IdealBackend(exact=True), workers=0) as svc:
            served = svc.executor().expectations(circuits, shots=0)
        assert np.array_equal(served, direct)

    def test_submitted_sweep(self):
        sweep = mnist4_sweep()
        backend = IdealBackend(exact=True)
        direct = backend.run(sweep, shots=0)
        with ExecutionService(IdealBackend(exact=True), workers=0) as svc:
            served = svc.submit(sweep, shots=0).result(timeout=30)
            matrix = svc.executor().run_sweep(sweep, shots=0)
        assert np.array_equal(served.expectations, direct.expectations)
        for got, want in zip(served, direct):
            assert np.array_equal(got.expectations, want.expectations)
        assert np.array_equal(matrix, backend.run_sweep(sweep, shots=0))


class TestSampledCounts:
    SHOTS = 256

    def served(self, seed: int, circuits):
        backend = IdealBackend(exact=False, seed=seed)
        with ExecutionService(backend, workers=0) as svc:
            return svc.submit(circuits, shots=self.SHOTS).result(timeout=30)

    def test_counts_equal_direct_formatting(self):
        circuits = [ladder(3, 0.1 * k) for k in range(6)]
        direct = IdealBackend(exact=False, seed=5).run(
            circuits, shots=self.SHOTS
        )
        served = self.served(5, circuits)
        assert np.array_equal(served.outcomes, direct.outcomes)
        want = outcome_matrix_to_counts(direct.outcomes)
        assert [r.counts for r in served] == want
        for got, row in zip(served, direct):
            assert got.shots == self.SHOTS
            assert np.array_equal(got.expectations, row.expectations)

    def test_reproducible_per_seed(self):
        circuits = mixed_circuits()
        first = self.served(11, circuits)
        second = self.served(11, circuits)
        assert [r.counts for r in first] == [r.counts for r in second]
        for a, b in zip(first, second):
            assert np.array_equal(a.expectations, b.expectations)

    def test_outcome_rows_read_like_counts(self):
        """The counts readers' outcome-row path matches the dict path."""
        for result in self.served(4, [ladder(3, 0.3 * k) for k in range(4)]):
            assert np.array_equal(
                outcome_probabilities(result.outcomes),
                counts_to_probabilities(result.counts, 3),
            )

    def test_counts_are_formatted_on_first_access(self):
        result = self.served(2, [ladder(2, 0.4)])[0]
        assert result._counts is None
        counts = result.counts
        assert result.counts is counts
        assert sum(counts.values()) == self.SHOTS


class TestMutationIsolation:
    def test_returned_rows_do_not_reach_cache_or_other_jobs(self):
        circuits = [ladder(3, 0.1 * k) for k in range(5)]
        others = [ladder(3, 1.0 + 0.1 * k) for k in range(5)]
        direct = IdealBackend(exact=True)
        want = direct.expectations(circuits, shots=0)
        want_others = direct.expectations(others, shots=0)
        with ExecutionService(
            IdealBackend(exact=True), workers=0, max_batch_size=10
        ) as svc:
            # One size flush of 10 rows carries both jobs.
            job = svc.submit(circuits, shots=0)
            other = svc.submit(others, shots=0)
            results = job.result(timeout=30)
            results[0].expectations[:] = 99.0
            results.expectations[1] = -99.0
            matrix = svc.executor().expectations(circuits, shots=0)
            matrix[:] = 7.0
            assert np.array_equal(
                other.result(timeout=30).expectations, want_others
            )
            again = svc.submit(circuits, shots=0)
            again_results = again.result(timeout=30)
            assert again.cache_hits == len(circuits)
            assert np.array_equal(again_results.expectations, want)


class TestCacheRows:
    def test_lru_order_eviction_and_counters(self):
        cache = ResultCache(capacity=3)
        rows = np.arange(6.0).reshape(3, 2)
        cache.put_many(["a", "b", "c"], rows)
        hit, found = cache.get_many(["a", "x"])  # a is now most recent
        assert hit.tolist() == [True, False]
        assert np.array_equal(found, rows[:1])
        cache.put_many(["d"], np.array([[9.0, 9.0]]))  # evicts b
        assert "b" not in cache and len(cache) == 3
        cache.put_many(["c"], np.array([[5.0, 5.0]]))  # refresh c
        cache.put_many(["e"], np.array([[8.0, 8.0]]))  # evicts a
        hit, found = cache.get_many(["a", "b", "c", "d", "e"])
        assert hit.tolist() == [False, False, True, True, True]
        assert found.tolist() == [[5.0, 5.0], [9.0, 9.0], [8.0, 8.0]]
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (
            4, 3, 2
        )

    def test_all_miss_returns_no_rows(self):
        cache = ResultCache()
        hit, found = cache.get_many(["a", "b"])
        assert not hit.any() and found is None
        assert cache.misses == 2


def _items() -> list[WorkItem]:
    """Items of two templates whose sizes straddle flush boundaries."""
    ladders = CircuitBatch([ladder(2, 0.1 * k) for k in range(8)])
    spins = CircuitBatch([rotations(2, 0.1 * k) for k in range(4)])
    return [
        WorkItem(sweep, np.arange(start, stop), 0, "run", job=None)
        for sweep, start, stop in (
            (ladders, 0, 3),
            (ladders, 3, 8),
            (spins, 0, 2),
            (ladders, 0, 7),
            (spins, 2, 3),
            (ladders, 4, 8),
        )
    ]


def _recorder(scheduler, flushes):
    def record(bucket, reason):
        flushes.append((
            reason,
            [(id(item.sweep), item.rows.tolist()) for item in bucket.items],
        ))

    scheduler._dispatch = record


class TestDrainPerWakeup:
    def test_drained_backlog_forms_one_at_a_time_flushes(self):
        router = type("R", (), {"backends": [IdealBackend()]})()
        items = _items()

        queue = JobQueue()
        drained = CoalescingScheduler(
            queue, router, max_batch_size=4, max_delay_s=60.0
        )
        flushes_drained: list = []
        _recorder(drained, flushes_drained)
        wakeups = []
        get_all = queue.get_all

        def counting_get_all(timeout=None):
            taken = get_all(timeout=timeout)
            wakeups.append(len(taken))
            return taken

        queue.get_all = counting_get_all
        for item in items:
            queue.put(item)
        queue.close()
        drained._loop()
        # The whole backlog was taken in one wakeup.
        assert wakeups[0] == len(items)

        single = CoalescingScheduler(
            JobQueue(), router, max_batch_size=4, max_delay_s=60.0
        )
        flushes_single: list = []
        _recorder(single, flushes_single)
        for item in items:
            single._add(item)
        single._flush_all("drain")

        assert flushes_drained == flushes_single
        sizes = [
            sum(len(rows) for _, rows in parts)
            for reason, parts in flushes_drained
            if reason == "size"
        ]
        assert sizes and all(size == 4 for size in sizes)
