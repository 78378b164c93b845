"""Chaos suite: kill, hang, and starve real worker processes.

Gated behind ``REPRO_CHAOS=1`` because every test here spawns worker
pools and deliberately destroys them — expensive, and pointless to run
on every edit.  The CI chaos leg runs it; locally::

    REPRO_CHAOS=1 PYTHONPATH=src python -m pytest tests/test_chaos.py

The assertions are the resilience tier's end-to-end guarantees:

* **no job lost** — every submission resolves (result or explicit
  failure) under injected worker death;
* **no double counting** — the usage meter after a crashy run equals
  the meter after a fault-free run of the same traffic;
* **bit-identical exact results** — a retried/degraded shard
  reproduces exactly what the fault-free path produces;
* **seed-identical sampled counts** — crash recovery replays the same
  position-keyed ``SeedSequence`` substreams, for any worker count
  (the hypothesis property test).
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.hardware import IdealBackend
from repro.parallel import ShardedBackend, WorkerHangError
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ResilienceWarning,
    chaos_enabled,
    faults,
)
from repro.serving import ExecutionService

pytestmark = pytest.mark.skipif(
    not chaos_enabled(), reason="chaos suite runs only under REPRO_CHAOS=1"
)


def ring_circuits(n, n_qubits=3, seed=3):
    """``n`` same-structure RY+CX circuits with distinct angles."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        circuit = QuantumCircuit(n_qubits)
        for wire in range(n_qubits):
            circuit.add("ry", wire, float(rng.uniform(0, np.pi)))
        for wire in range(n_qubits - 1):
            circuit.add("cx", (wire, wire + 1))
        out.append(circuit)
    return out


def first_generation_kill(n_workers: int, seed: int = 0) -> FaultPlan:
    """Kill every first-generation worker on its first shard.

    ``max_spawn=n_workers`` spares the respawned replacements, so the
    pool recovers after exactly one death per slot.
    """
    return FaultPlan(
        specs=(
            FaultSpec(
                site=faults.SITE_WORKER_SHARD,
                mode="kill",
                at=(1,),
                max_spawn=n_workers,
            ),
        ),
        seed=seed,
    )


class TestWorkerKill:
    def test_exact_results_bit_identical_after_worker_death(self):
        circuits = ring_circuits(12)
        want = IdealBackend(exact=True, seed=0).run(circuits, shots=0)
        reference_meter = IdealBackend(exact=True, seed=0)
        reference_meter.run(circuits, shots=0)
        with faults.installed(first_generation_kill(2)):
            with ShardedBackend(
                IdealBackend(exact=True, seed=0),
                workers=2,
                min_shard_cost=0,
            ) as sharded:
                got = sharded.run(circuits, shots=0)
                assert sharded.pool.restarts >= 1
                meter = sharded.meter.snapshot()
        for a, b in zip(got, want):
            assert np.array_equal(a.expectations, b.expectations)
        # No shard double-counted: the meter matches fault-free usage.
        assert meter == reference_meter.meter.snapshot()

    def test_sampled_counts_seed_identical_after_worker_death(self):
        circuits = ring_circuits(10)
        with ShardedBackend(
            IdealBackend(exact=False, seed=7), workers=2, min_shard_cost=0
        ) as clean:
            want = [r.counts for r in clean.run(circuits, shots=128)]
        with faults.installed(first_generation_kill(2)):
            with ShardedBackend(
                IdealBackend(exact=False, seed=7),
                workers=2,
                min_shard_cost=0,
            ) as crashy:
                got = [r.counts for r in crashy.run(circuits, shots=128)]
                assert crashy.pool.restarts >= 1
        assert got == want

    @pytest.mark.parametrize("exact", [True, False])
    def test_respawned_worker_gets_the_template_resent(self, exact):
        """The first flush ships the template to both workers; the
        second kills them mid-flush.  Their replacements never received
        the template, so the replay must resend it — and reproduce the
        fault-free results bit for bit (seed for seed when sampled)."""
        circuits = ring_circuits(12)
        shots = 0 if exact else 128

        def run_twice():
            with ShardedBackend(
                IdealBackend(exact=exact, seed=7),
                workers=2,
                min_shard_cost=0,
            ) as sharded:
                runs = [sharded.run(circuits, shots=shots) for _ in range(2)]
                return runs, sharded.pool.restarts, sharded.meter.snapshot()

        want, _, want_meter = run_twice()
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
            got, restarts, meter = run_twice()
        assert restarts >= 1
        assert meter == want_meter
        for want_run, got_run in zip(want, got):
            for a, b in zip(want_run, got_run):
                assert np.array_equal(a.expectations, b.expectations)
                assert a.counts == b.counts

    def test_parent_pipe_loss_is_replayed(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site=faults.SITE_POOL_PIPE, mode="pipe_loss", at=(1,)
                ),
            )
        )
        circuits = ring_circuits(8)
        want = IdealBackend(exact=True, seed=0).run(circuits, shots=0)
        with faults.installed(plan):
            with ShardedBackend(
                IdealBackend(exact=True, seed=0),
                workers=2,
                min_shard_cost=0,
            ) as sharded:
                got = sharded.run(circuits, shots=0)
                assert sharded.pool.restarts >= 1
        for a, b in zip(got, want):
            assert np.array_equal(a.expectations, b.expectations)


class TestWorkerHang:
    def test_hung_worker_is_killed_and_shard_replayed(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site=faults.SITE_WORKER_SHARD,
                    mode="hang",
                    at=(1,),
                    delay_s=60.0,
                    max_spawn=2,
                ),
            )
        )
        circuits = ring_circuits(8)
        want = IdealBackend(exact=True, seed=0).run(circuits, shots=0)
        with faults.installed(plan):
            with ShardedBackend(
                IdealBackend(exact=True, seed=0),
                workers=2,
                min_shard_cost=0,
                hang_timeout_s=2.0,
            ) as sharded:
                got = sharded.run(circuits, shots=0)
                assert sharded.pool.hangs >= 1
                assert sharded.pool.restarts >= 1
        for a, b in zip(got, want):
            assert np.array_equal(a.expectations, b.expectations)

    def test_persistent_hang_escalates_when_fallback_disabled(self):
        plan = FaultPlan(
            specs=(
                # Every generation hangs: recovery cannot succeed.
                FaultSpec(
                    site=faults.SITE_WORKER_SHARD,
                    mode="hang",
                    every=1,
                    delay_s=60.0,
                ),
            )
        )
        with faults.installed(plan):
            with ShardedBackend(
                IdealBackend(exact=True, seed=0),
                workers=1,
                min_shard_cost=0,
                hang_timeout_s=1.0,
                max_retries=1,
                fallback=False,
            ) as sharded:
                with pytest.raises(WorkerHangError):
                    sharded.run(ring_circuits(4), shots=0)


class TestGracefulDegradation:
    def test_budget_exhaustion_falls_back_in_process(self):
        plan = FaultPlan(
            specs=(
                # Every worker of every generation dies immediately.
                FaultSpec(
                    site=faults.SITE_WORKER_SHARD, mode="kill", every=1
                ),
            )
        )
        circuits = ring_circuits(10)
        want = IdealBackend(exact=True, seed=0).run(circuits, shots=0)
        reference_meter = IdealBackend(exact=True, seed=0)
        reference_meter.run(circuits, shots=0)
        with faults.installed(plan):
            with ShardedBackend(
                IdealBackend(exact=True, seed=0),
                workers=2,
                min_shard_cost=0,
                max_retries=5,  # the *budget* must trip first
                restart_budget=2,
            ) as sharded:
                with pytest.warns(ResilienceWarning):
                    got = sharded.run(circuits, shots=0)
                assert sharded.degraded
                assert sharded.fallbacks == 1
                # Degraded mode keeps serving — without the pool, and
                # without warning again.
                again = sharded.run(circuits, shots=0)
                meter = sharded.meter.snapshot()
        for a, b in zip(got, want):
            assert np.array_equal(a.expectations, b.expectations)
        for a, b in zip(again, want):
            assert np.array_equal(a.expectations, b.expectations)
        # Failed pool attempts contributed nothing to the meter: two
        # clean runs' worth of usage, exactly.
        reference_meter.run(circuits, shots=0)
        assert meter == reference_meter.meter.snapshot()

    def test_degraded_sampling_is_seed_identical(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site=faults.SITE_WORKER_SHARD, mode="kill", every=1
                ),
            )
        )
        circuits = ring_circuits(8)
        with ShardedBackend(
            IdealBackend(exact=False, seed=3), workers=2, min_shard_cost=0
        ) as clean:
            want = [r.counts for r in clean.run(circuits, shots=64)]
        with faults.installed(plan):
            with ShardedBackend(
                IdealBackend(exact=False, seed=3),
                workers=2,
                min_shard_cost=0,
                restart_budget=0,
            ) as degraded:
                with pytest.warns(ResilienceWarning):
                    got = [
                        r.counts
                        for r in degraded.run(circuits, shots=64)
                    ]
                assert degraded.degraded
        assert got == want


class TestServiceUnderChaos:
    def test_no_job_lost_with_crashing_workers(self):
        circuits = ring_circuits(12)
        want = IdealBackend(exact=True, seed=0).run(circuits, shots=0)
        with faults.installed(first_generation_kill(2)):
            with ExecutionService(
                IdealBackend(exact=True, seed=0),
                enable_cache=False,
                workers=2,
            ) as service:
                jobs = [
                    service.submit([circuit], shots=0)
                    for circuit in circuits
                ]
                results = [job.result(timeout=120)[0] for job in jobs]
                resilience = service.resilience_stats()
        assert resilience["restarts"] >= 1
        for got, ref in zip(results, want):
            assert np.array_equal(got.expectations, ref.expectations)


class TestSeedReuseProperty:
    """Satellite: retried shards reuse the original seed substreams."""

    @settings(max_examples=5, deadline=None)
    @given(
        workers=st.integers(min_value=1, max_value=3),
        n_circuits=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_crash_recovery_is_seed_identical_for_any_worker_count(
        self, workers, n_circuits, seed
    ):
        circuits = ring_circuits(n_circuits, seed=seed % 97)
        with ShardedBackend(
            IdealBackend(exact=False, seed=seed),
            workers=workers,
            min_shard_cost=0,
        ) as clean:
            want_counts = [
                r.counts for r in clean.run(circuits, shots=64)
            ]
            want_exact = IdealBackend(exact=True, seed=seed).run(
                circuits, shots=0
            )
        with faults.installed(first_generation_kill(workers, seed=seed)):
            with ShardedBackend(
                IdealBackend(exact=False, seed=seed),
                workers=workers,
                min_shard_cost=0,
            ) as crashy:
                got_counts = [
                    r.counts for r in crashy.run(circuits, shots=64)
                ]
                assert crashy.pool.restarts >= 1
            with ShardedBackend(
                IdealBackend(exact=True, seed=seed),
                workers=workers,
                min_shard_cost=0,
            ) as crashy_exact:
                got_exact = crashy_exact.run(circuits, shots=0)
        # Sampled counts are seed-identical: recovery replayed the
        # original position-keyed substreams, not fresh ones.
        assert got_counts == want_counts
        # Exact results are bit-identical outright.
        for a, b in zip(got_exact, want_exact):
            assert np.array_equal(a.expectations, b.expectations)
