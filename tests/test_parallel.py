"""Tests for ``repro.parallel``: specs, shard plans, the pool, the facade.

Also pins down the **process-boundary contract** the pool depends on:
circuits, operations, noise models, and execution results must pickle
round-trip faithfully, because every shard request and response crosses
a spawn-context pipe.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.circuits import CircuitBatch, QuantumCircuit
from repro.circuits.operation import BoundOp, OpTemplate
from repro.hardware import (
    Backend,
    ExecutionResult,
    IdealBackend,
    NoiseInjectionBackend,
    NoisyBackend,
)
from repro.noise import NoiseModel, get_calibration
from repro.parallel import (
    BackendSpec,
    ShardPlanner,
    ShardedBackend,
    WorkerError,
    WorkerPool,
    circuit_cost,
    default_workers,
)
from repro.parallel.pool import execute_shard
from repro.sim import compile_circuit, expectation_z_from_counts
from repro.sim.measurement import outcome_matrix_to_counts


def planned_cost(circuit):
    """The per-circuit cost the planner charges: its compiled plan's."""
    return circuit_cost(circuit, plan=compile_circuit(circuit))


def per_row_sample(row, shots, seed):
    """The per-row readout sharded sampling replaced: one multinomial
    draw from the row's own substream, a counts dict, and expectations
    from the dict."""
    outcomes = np.random.default_rng(seed).multinomial(
        shots, row / row.sum()
    )
    n_qubits = int(np.log2(row.size))
    counts = {
        format(index, f"0{n_qubits}b"): int(outcomes[index])
        for index in np.nonzero(outcomes)[0]
    }
    return counts, expectation_z_from_counts(counts, n_qubits)


def sweep_requests(sweep, shards, shots):
    """The facade's ``"sweep"`` request for each shard of ``sweep``."""
    return [
        (
            shard.worker,
            (
                "sweep",
                (
                    sweep.template.digest,
                    sweep.literals[shard.positions],
                    sweep.params[shard.positions],
                    shard.seeds,
                    shots,
                ),
            ),
        )
        for shard in shards
    ]


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


# -- the process-boundary pickling contract ---------------------------------


class TestPickleRoundTrips:
    def test_quantum_circuit(self):
        circuit = QuantumCircuit(3)
        circuit.add("h", 0)
        circuit.add_trainable("ry", 1, 0)
        circuit.add("rzz", (1, 2), 0.7)
        circuit.bind([0.42])
        restored = pickle.loads(pickle.dumps(circuit))
        assert restored.structure_signature() == (
            circuit.structure_signature()
        )
        assert restored.fingerprint() == circuit.fingerprint()
        assert np.array_equal(restored.parameters, circuit.parameters)
        # A restored circuit is fully live, not just equal: it still
        # validates, rebinds, and shifts.
        restored.validate()
        shifted = restored.shifted(1, np.pi / 2)
        assert shifted.templates[1].offset == np.pi / 2

    def test_operation_templates_and_bound_ops(self):
        template = OpTemplate(
            name="ry", wires=(1,), param_index=3, offset=0.5
        )
        restored = pickle.loads(pickle.dumps(template))
        assert restored == template
        assert restored.shifted(0.25).offset == 0.75

        bound = BoundOp(name="rzz", wires=(0, 2), params=(1.25,))
        restored_bound = pickle.loads(pickle.dumps(bound))
        assert restored_bound == bound
        assert np.array_equal(restored_bound.matrix(), bound.matrix())

    def test_noise_model(self):
        model = NoiseModel(get_calibration("ibmq_lima"), scale=1.5)
        op = OpTemplate(name="rzz", wires=(0, 1), params=(0.3,))
        want = model.superop_for(op)  # also warms the cache
        restored = pickle.loads(pickle.dumps(model))
        assert restored.calibration == model.calibration
        assert restored.scale == model.scale
        assert np.array_equal(restored.superop_for(op), want)
        for (kraus_a, wires_a), (kraus_b, wires_b) in zip(
            model.channels_for(op), restored.channels_for(op)
        ):
            assert wires_a == wires_b
            for a, b in zip(kraus_a, kraus_b):
                assert np.array_equal(a, b)

    def test_execution_result(self):
        result = ExecutionResult(
            counts={"00": 700, "11": 324},
            expectations=np.array([0.37, -0.37]),
            shots=1024,
        )
        restored = pickle.loads(pickle.dumps(result))
        assert restored.counts == result.counts
        assert np.array_equal(restored.expectations, result.expectations)
        assert restored.shots == result.shots

    def test_backend_spec(self):
        spec = BackendSpec.from_backend(
            NoisyBackend.from_device_name(
                "ibmq_santiago", seed=7, transpile=True, noise_scale=0.5
            )
        )
        assert pickle.loads(pickle.dumps(spec)) == spec


# -- BackendSpec -------------------------------------------------------------


class TestBackendSpec:
    def test_captures_ideal_backend(self):
        spec = BackendSpec.from_backend(IdealBackend(exact=False, seed=9))
        assert (spec.kind, spec.exact, spec.seed) == ("ideal", False, 9)
        rebuilt = spec.build()
        assert isinstance(rebuilt, IdealBackend)
        assert not rebuilt.exact

    def test_captures_noisy_backend_by_registry_name(self):
        backend = NoisyBackend.from_device_name(
            "ibmq_lima", seed=4, noise_scale=2.0, include_coherent=False
        )
        spec = BackendSpec.from_backend(backend)
        # Registry calibrations ship as a name, not a payload.
        assert spec.device == "ibmq_lima"
        assert spec.calibration is None
        rebuilt = spec.build()
        circuit = ring_circuits(1)[0]
        assert np.array_equal(
            rebuilt.observed_probabilities(circuit),
            backend.observed_probabilities(circuit),
        )

    def test_carries_unregistered_calibration_inline(self):
        import dataclasses

        calibration = dataclasses.replace(
            get_calibration("ibmq_lima"), name="bespoke", t1_us=50.0
        )
        spec = BackendSpec.from_backend(NoisyBackend(calibration))
        assert spec.device is None
        assert spec.calibration == calibration
        assert spec.build().calibration == calibration

    def test_rejects_unsupported_backends(self):
        class Custom(Backend):
            def _execute_sweep(self, sweep, shots):
                raise NotImplementedError

        with pytest.raises(TypeError, match="BackendSpec"):
            BackendSpec.from_backend(Custom())

    def test_rejects_simulator_subclasses(self):
        """A subclass may override execution; rebuilding it as its base
        class inside a worker would silently change behavior."""

        class Tweaked(IdealBackend):
            def _execute_sweep(self, sweep, shots):
                raise RuntimeError("not what the spec would rebuild")

        with pytest.raises(TypeError, match="BackendSpec"):
            BackendSpec.from_backend(Tweaked(exact=True))

    def test_rebuild_matches_exact_execution(self):
        circuits = ring_circuits(4)
        backend = IdealBackend(exact=True, seed=0)
        rebuilt = BackendSpec.from_backend(backend).build()
        assert np.array_equal(
            rebuilt.expectations(circuits), backend.expectations(circuits)
        )


# -- ShardPlanner ------------------------------------------------------------


class TestShardPlanner:
    def test_splits_into_contiguous_balanced_chunks(self):
        circuits = ring_circuits(10)
        shards = ShardPlanner(4, min_shard_cost=0).plan(circuits)
        assert [len(s) for s in shards] == [3, 3, 2, 2]
        assert [s.worker for s in shards] == [0, 1, 2, 3]
        flat = [i for s in shards for i in s.positions]
        assert flat == list(range(10))

    def test_never_more_shards_than_circuits_or_workers(self):
        circuits = ring_circuits(2)
        assert len(ShardPlanner(8, min_shard_cost=0).plan(circuits)) == 2
        assert len(ShardPlanner(1, min_shard_cost=0).plan(ring_circuits(6))) == 1

    def test_cost_floor_limits_splitting(self):
        circuits = ring_circuits(4)
        group_cost = 4 * planned_cost(circuits[0])
        # A floor above the whole group's cost: no split at all.
        planner = ShardPlanner(4, min_shard_cost=group_cost * 2)
        assert len(planner.plan(circuits)) == 1
        # A floor of half the group: exactly two shards.
        planner = ShardPlanner(4, min_shard_cost=group_cost / 2)
        assert len(planner.plan(circuits)) == 2

    def test_density_costing_splits_smaller_groups(self):
        circuits = ring_circuits(4)
        floor = 4 * planned_cost(circuits[0]) * 2
        assert len(ShardPlanner(4, min_shard_cost=floor).plan(circuits)) == 1
        planner = ShardPlanner(4, min_shard_cost=floor, density=True)
        assert len(planner.plan(circuits)) > 1

    def test_seeds_follow_their_circuits(self):
        circuits = ring_circuits(5)
        seeds = list(np.random.SeedSequence(0).spawn(5))
        shards = ShardPlanner(2, min_shard_cost=0).plan(circuits, seeds)
        for shard in shards:
            assert [seeds[i] for i in shard.positions] == shard.seeds

    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="substreams"):
            ShardPlanner(2).plan(
                ring_circuits(3), seeds=np.random.SeedSequence(0).spawn(2)
            )


# -- WorkerPool --------------------------------------------------------------


class TestWorkerPool:
    def test_warm_workers_serve_repeat_submissions(self):
        spec = BackendSpec.from_backend(IdealBackend(exact=True))
        with WorkerPool(spec, n_workers=2) as pool:
            planner = ShardPlanner(2, min_shard_cost=0)
            for _ in range(3):
                sweep = CircuitBatch(ring_circuits(4))
                shards = planner.plan(sweep)
                responses = pool.run_shards(
                    sweep_requests(sweep, shards, 0),
                    templates={sweep.template.digest: sweep.template},
                )
                assert len(responses) == 2
            stats = pool.stats()
            assert stats["alive"] == 2
            assert stats["shards_executed"] == 6
            assert stats["restarts"] == 0
            assert pool.run_shards([(1, ("ping", None))]) == ["ideal"]

    def test_crash_detection_retries_on_fresh_worker(self):
        circuits = ring_circuits(6)
        want = IdealBackend(exact=True).expectations(circuits)
        sharded = ShardedBackend(
            IdealBackend(exact=True), workers=2, min_shard_cost=0
        )
        with sharded:
            sharded.run(circuits)  # spawn + warm
            sharded.pool.kill_worker(0)
            got = np.stack(
                [r.expectations for r in sharded.run(circuits)]
            )
            assert np.array_equal(got, want)
            assert sharded.pool.restarts == 1
            assert sharded.pool.alive_workers() == 2

    def test_worker_exception_reraises_with_traceback(self):
        spec = BackendSpec.from_backend(IdealBackend(exact=True))
        with WorkerPool(spec, n_workers=1) as pool:
            with pytest.raises(WorkerError, match="unknown request kind"):
                pool.run_shards([(0, ("bogus", ()))])
            # The worker survives its own exception and stays usable.
            sweep = CircuitBatch(ring_circuits(2))
            responses = pool.run_shards(
                sweep_requests(sweep, ShardPlanner(1).plan(sweep), 0),
                templates={sweep.template.digest: sweep.template},
            )
            expectations, outcomes = responses[0]
            assert expectations.shape == (2, 3)
            assert outcomes is None

    def test_close_is_idempotent_and_final(self):
        spec = BackendSpec.from_backend(IdealBackend(exact=True))
        pool = WorkerPool(spec, n_workers=1)
        pool.ensure_started()
        assert pool.alive_workers() == 1
        pool.close()
        pool.close()
        assert pool.alive_workers() == 0
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_shards([(0, ("ping", None))])


# -- ShardedBackend ----------------------------------------------------------


class TestShardedBackendExact:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_ideal_exact_bit_identical_to_single_process(self, workers):
        """The headline contract: sharding never changes exact results."""
        circuits = ring_circuits(8)
        want = IdealBackend(exact=True, seed=0).run(circuits)
        with ShardedBackend(
            IdealBackend(exact=True, seed=0),
            workers=workers,
            min_shard_cost=0,
        ) as sharded:
            got = sharded.run(circuits)
        for a, b in zip(want, got):
            assert np.array_equal(a.expectations, b.expectations)
            assert a.counts == b.counts == {}
            assert a.shots == b.shots == 0

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_noisy_observed_distributions_bit_identical(self, workers):
        """The noisy half: observed distributions survive sharding."""
        circuits = ring_circuits(6)
        want = NoisyBackend.from_device_name(
            "ibmq_lima", seed=0
        ).observed_probabilities_batch(circuits)
        with ShardedBackend(
            NoisyBackend.from_device_name("ibmq_lima", seed=0),
            workers=workers,
            min_shard_cost=0,
        ) as sharded:
            got = sharded.observed_probabilities_batch(circuits)
        assert np.array_equal(want, got)

    def test_transpiled_noisy_distributions_bit_identical(self):
        circuits = ring_circuits(4, n_qubits=4)
        backend = NoisyBackend.from_device_name(
            "ibmq_lima", seed=0, transpile=True
        )
        want = backend.observed_probabilities_batch(circuits)
        with ShardedBackend(
            backend, workers=2, min_shard_cost=0
        ) as sharded:
            got = sharded.observed_probabilities_batch(circuits)
        assert np.array_equal(want, got)

    def test_mixed_structure_submission_reassembles_in_order(self):
        rng = np.random.default_rng(0)
        mixed = []
        for index in range(6):
            circuit = QuantumCircuit(2)
            circuit.add("ry", 0, float(rng.uniform(0, np.pi)))
            if index % 2:
                circuit.add("cx", (0, 1))  # second structure group
            mixed.append(circuit)
        want = IdealBackend(exact=True).run(mixed)
        with ShardedBackend(
            IdealBackend(exact=True), workers=2, min_shard_cost=0
        ) as sharded:
            got = sharded.run(mixed)
        for a, b in zip(want, got):
            assert np.array_equal(a.expectations, b.expectations)

    def test_single_circuit_run(self):
        circuit = ring_circuits(1)[0]
        want = IdealBackend(exact=True).run([circuit])[0]
        with ShardedBackend(IdealBackend(exact=True), workers=2) as sharded:
            got = sharded.run([circuit])[0]
        assert np.array_equal(want.expectations, got.expectations)


class TestShardedBackendSampling:
    def test_sampled_counts_reproducible_for_fixed_seed(self):
        circuits = ring_circuits(6)
        runs = []
        for _ in range(2):
            with ShardedBackend(
                NoisyBackend.from_device_name("ibmq_lima", seed=11),
                workers=2,
                min_shard_cost=0,
            ) as sharded:
                runs.append(
                    [r.counts for r in sharded.run(circuits, shots=256)]
                )
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("backend_kind", ["ideal_sampled", "noisy"])
    def test_sampled_counts_invariant_to_worker_count(self, backend_kind):
        """Substreams are keyed per circuit, not per worker — scaling
        the pool never changes a sampled result."""
        circuits = ring_circuits(6)
        per_workers = {}
        for workers in (1, 2, 4):
            if backend_kind == "ideal_sampled":
                inner = IdealBackend(exact=False, seed=11)
            else:
                inner = NoisyBackend.from_device_name("ibmq_lima", seed=11)
            with ShardedBackend(
                inner, workers=workers, min_shard_cost=0
            ) as sharded:
                per_workers[workers] = [
                    r.counts for r in sharded.run(circuits, shots=128)
                ]
        assert per_workers[1] == per_workers[2] == per_workers[4]

    def test_sampled_ideal_shard_replays_the_replica_plan(self):
        """The sampled kernel evolves through the replica's cached plan
        and draws from exactly the in-process distributions."""
        circuits = ring_circuits(5)
        seeds = list(np.random.SeedSequence(8).spawn(len(circuits)))
        sweep = CircuitBatch(circuits)
        replica = IdealBackend(exact=False, seed=3)
        expectations, outcomes = execute_shard(
            replica, sweep.template, sweep.literals, sweep.params, seeds,
            shots=64,
        )
        assert replica.plan_cache.stats()["misses"] > 0
        want = IdealBackend(
            exact=False, seed=3
        ).observed_probabilities_batch(circuits)
        assert np.array_equal(
            replica.observed_probabilities_batch(circuits), want
        )
        counts_rows = outcome_matrix_to_counts(outcomes)
        for row, seed, counts, got in zip(
            want, seeds, counts_rows, expectations
        ):
            want_counts, want_expectations = per_row_sample(row, 64, seed)
            assert counts == want_counts
            assert np.array_equal(got, want_expectations)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend_kind", ["ideal_sampled", "noisy"])
    def test_outcome_matrix_readout_matches_per_row_readout(
        self, backend_kind, workers
    ):
        """Counts and expectations read out of the shard's stacked
        outcome matrix are bit-identical to per-row multinomial draws
        read out through counts dicts."""
        circuits = ring_circuits(5)

        def build():
            if backend_kind == "ideal_sampled":
                return IdealBackend(exact=False, seed=17)
            return NoisyBackend.from_device_name("ibmq_lima", seed=17)

        with ShardedBackend(
            build(), workers=workers, min_shard_cost=0
        ) as sharded:
            results = sharded.run(circuits, shots=200)
        probs = build().observed_probabilities_batch(circuits)
        seeds = np.random.SeedSequence(17).spawn(len(circuits))
        for row, seed, result in zip(probs, seeds, results):
            counts, expectations = per_row_sample(row, 200, seed)
            assert result.counts == counts
            assert np.array_equal(result.expectations, expectations)

    def test_reseeding_resets_the_substream_tree(self):
        circuits = ring_circuits(3)
        with ShardedBackend(
            IdealBackend(exact=False, seed=5), workers=2, min_shard_cost=0
        ) as sharded:
            first = [r.counts for r in sharded.run(circuits, shots=64)]
            second = [r.counts for r in sharded.run(circuits, shots=64)]
            assert first != second  # streams advance between runs
            sharded.seed(5)
            again = [r.counts for r in sharded.run(circuits, shots=64)]
        assert first == again

    def test_sampled_shots_and_expectations_consistent(self):
        circuits = ring_circuits(4)
        with ShardedBackend(
            IdealBackend(exact=False, seed=2), workers=2, min_shard_cost=0
        ) as sharded:
            results = sharded.run(circuits, shots=200)
        for result in results:
            assert result.shots == 200
            assert sum(result.counts.values()) == 200
            assert np.all(np.abs(result.expectations) <= 1.0)


class TestShardedBackendMetering:
    def test_facade_meter_matches_direct_backend(self):
        circuits = ring_circuits(6)
        direct = NoisyBackend.from_device_name("ibmq_lima", seed=0)
        direct.run(circuits, shots=128, purpose="forward")
        direct.run(circuits[:2], shots=128, purpose="gradient")
        with ShardedBackend(
            NoisyBackend.from_device_name("ibmq_lima", seed=0),
            workers=2,
            min_shard_cost=0,
        ) as sharded:
            sharded.run(circuits, shots=128, purpose="forward")
            sharded.run(circuits[:2], shots=128, purpose="gradient")
            assert sharded.meter.snapshot() == direct.meter.snapshot()

    def test_exact_meter_records_zero_shot_purposes(self):
        circuits = ring_circuits(3)
        direct = IdealBackend(exact=True)
        direct.run(circuits, purpose="serve")
        with ShardedBackend(
            IdealBackend(exact=True), workers=2, min_shard_cost=0
        ) as sharded:
            sharded.run(circuits, purpose="serve")
            assert sharded.meter.snapshot() == direct.meter.snapshot()

    def test_wrapper_over_the_facade_meters_once_under_its_purpose(self):
        """A wrapper that calls the facade's kernel directly meters on
        its own meter only, as it does over a plain backend."""
        circuits = ring_circuits(2)
        plain = IdealBackend(exact=True)
        direct = NoiseInjectionBackend(plain, seed=0)
        direct.run(circuits, shots=0, purpose="train")
        inner = IdealBackend(exact=True)
        with ShardedBackend(inner, workers=2, min_shard_cost=0) as sharded:
            wrapped = NoiseInjectionBackend(sharded, seed=0)
            wrapped.run(circuits, shots=0, purpose="train")
            assert wrapped.meter.snapshot() == direct.meter.snapshot()
            assert wrapped.meter.by_purpose == {"train": 2}
            assert inner.meter.snapshot() == plain.meter.snapshot()

    @pytest.mark.parametrize("exact", [True, False])
    def test_degraded_run_meters_on_the_facade_only(self, exact):
        """In-process fallback rows, exact or sampled, run on the local
        replica's kernel: only the facade meters the submission."""
        with ShardedBackend(
            IdealBackend(exact=exact, seed=0), workers=2, min_shard_cost=0
        ) as sharded:
            sharded._degraded = True  # as after RestartBudgetExhausted
            shots = 0 if exact else 64
            sharded.run(ring_circuits(4), shots=shots, purpose="x")
            assert sharded.meter.by_purpose == {"x": 4}
            assert sharded._local_backend().meter.by_purpose == {}
            assert not sharded.pool._started

    def test_wrapping_adopts_the_template_meter(self):
        inner = IdealBackend(exact=True)
        with ShardedBackend(inner, workers=2) as sharded:
            assert sharded.meter is inner.meter
            sharded.run(ring_circuits(2))
            assert inner.meter.circuits == 2


class TestShardedBackendIntegration:
    def test_parameter_shift_jacobians_match_direct(self):
        from repro.circuits.layers import build_layered_ansatz
        from repro.gradients.parameter_shift import (
            parameter_shift_jacobian_batch,
        )

        ansatz = build_layered_ansatz(3, ["rzz", "rx"])
        theta = np.linspace(-1, 1, ansatz.num_parameters)
        circuits = [ansatz.bound(theta + 0.1 * k) for k in range(3)]
        want = parameter_shift_jacobian_batch(
            circuits, IdealBackend(exact=True)
        )
        with ShardedBackend(
            IdealBackend(exact=True), workers=2, min_shard_cost=0
        ) as sharded:
            got = parameter_shift_jacobian_batch(circuits, sharded)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)

    def test_execution_service_routes_to_sharded_pool(self):
        from repro.serving import ExecutionService

        circuits = ring_circuits(6)
        backend = IdealBackend(exact=True, seed=0)
        want = IdealBackend(exact=True, seed=0).run(
            circuits, purpose="serve"
        )
        with ExecutionService(
            backend, workers=2, enable_cache=False
        ) as service:
            sharded = service.router.backends[0]
            assert isinstance(sharded, ShardedBackend)
            got = service.run(circuits, purpose="serve")
        for a, b in zip(want, got):
            assert np.array_equal(a.expectations, b.expectations)
        # The caller's backend object keeps metering (adopted meter),
        # and the service closed the pool it created.
        assert backend.meter.circuits == len(circuits)
        assert sharded.pool.closed

    def test_execution_service_leaves_custom_backends_unwrapped(self):
        from repro.serving import ExecutionService

        class Custom(Backend):
            def results_deterministic(self):
                return True

            def exact_execution(self):
                return True

            def _execute_sweep(self, sweep, shots):
                return np.zeros((sweep.size, sweep.n_qubits)), None

        custom = Custom()
        with ExecutionService(custom, workers=2) as service:
            assert service.router.backends[0] is custom
            service.run(ring_circuits(2))

    def test_execution_service_clamps_negative_worker_counts(self):
        from repro.serving import ExecutionService

        backend = IdealBackend(exact=True)
        with ExecutionService(backend, workers=-3) as service:
            assert service.router.backends[0] is backend

    def test_spec_built_facade_answers_capability_queries(self):
        spec = BackendSpec(kind="ideal", exact=True, seed=0)
        with ShardedBackend(spec, workers=2, min_shard_cost=0) as sharded:
            assert sharded.results_deterministic()
            assert sharded.exact_execution()
            results = sharded.run(ring_circuits(3), shots=0)
            assert all(r.shots == 0 for r in results)
        noisy_spec = BackendSpec(kind="noisy", device="ibmq_lima", seed=0)
        with ShardedBackend(noisy_spec, workers=1) as sharded:
            assert not sharded.results_deterministic()
            assert not sharded.exact_execution()

    def test_default_workers_env(self, monkeypatch):
        from repro.parallel import WORKERS_ENV

        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 0
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert default_workers() == 3
        monkeypatch.setenv(WORKERS_ENV, "-2")
        assert default_workers() == 0
        monkeypatch.setenv(WORKERS_ENV, "not-a-number")
        assert default_workers() == 0


# -- sweep-native sharding ---------------------------------------------------


class TestSweepShards:
    def test_timeouts_equal_the_per_circuit_sum(self):
        """One plan cost per group prices every shard as the old
        per-circuit sum did."""
        from repro.parallel.shard import (
            TIMEOUT_FLOOR_S,
            TIMEOUT_SAFETY,
            TIMEOUT_THROUGHPUT_FLOPS,
        )

        circuits = ring_circuits(7, n_qubits=4)
        for inner in (
            IdealBackend(exact=True),
            NoisyBackend.from_device_name("ibmq_lima", seed=0),
        ):
            sharded = ShardedBackend(inner, workers=3, min_shard_cost=0)
            sweep = CircuitBatch(circuits)
            shards = sharded.planner.plan(sweep)
            plan = sharded.planner._costing_plan(circuits[0])
            density = sharded.spec.kind == "noisy"
            want = [
                TIMEOUT_FLOOR_S
                + TIMEOUT_SAFETY
                * sum(
                    circuit_cost(circuits[i], density=density, plan=plan)
                    for i in shard.positions
                )
                / TIMEOUT_THROUGHPUT_FLOPS
                for shard in shards
            ]
            got = sharded._timeouts(sweep, shards)
            assert got == pytest.approx(want, rel=1e-12)
            sharded.close()

    def test_template_goes_to_each_worker_generation_once(self, monkeypatch):
        from repro.parallel import pool as pool_module

        registered = []
        original = pool_module._register

        def counting(held, digest, template):
            registered.append(digest)
            original(held, digest, template)

        monkeypatch.setattr(pool_module, "_register", counting)
        circuits = ring_circuits(6)
        want = IdealBackend(exact=True).expectations(circuits, shots=0)
        with ShardedBackend(
            IdealBackend(exact=True), workers=2, min_shard_cost=0
        ) as sharded:
            for _ in range(3):
                got = sharded.expectations(circuits, shots=0)
                assert np.array_equal(got, want)
            assert len(registered) == 2  # one per slot, first run only
            sharded.pool.kill_worker(1)
            got = sharded.expectations(circuits, shots=0)
            assert np.array_equal(got, want)
            # The respawned slot never saw the template: it is resent.
            assert len(registered) == 3
            assert sharded.pool.restarts == 1

    def test_workers_evict_templates_in_step_with_the_parent(self):
        from repro.parallel.pool import TEMPLATES_PER_WORKER, _register

        held: dict = {}
        for digest in range(TEMPLATES_PER_WORKER + 2):
            _register(held, digest, None)
        assert list(held) == list(range(2, TEMPLATES_PER_WORKER + 2))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend_kind", ["ideal_sampled", "noisy"])
    def test_pooled_rows_equal_the_in_process_shard_function(
        self, backend_kind, workers
    ):
        """Sampled and noisy rows from the pool are seed-identical to
        running the same shard function in-process, and the facade
        meters the run as a direct backend does."""
        from repro.parallel.pool import serve_rows

        circuits = ring_circuits(5)

        def build():
            if backend_kind == "ideal_sampled":
                return IdealBackend(exact=False, seed=23)
            return NoisyBackend.from_device_name("ibmq_lima", seed=23)

        sweep = CircuitBatch(circuits)
        with ShardedBackend(
            build(), workers=workers, min_shard_cost=0
        ) as sharded:
            got = sharded.run(sweep, shots=96, purpose="grad")
            meter = sharded.meter.snapshot()
        local = build()
        seeds = np.random.SeedSequence(23).spawn(len(circuits))
        expectations, outcomes = serve_rows(
            local,
            "sweep",
            sweep.template,
            (sweep.literals, sweep.params, seeds, 96),
        )
        counts = outcome_matrix_to_counts(outcomes)
        for result, row, row_counts in zip(got, expectations, counts):
            assert np.array_equal(result.expectations, row)
            assert result.counts == row_counts
            assert result.shots == 96
        direct = build()
        direct.run(sweep, shots=96, purpose="grad")
        assert meter == direct.meter.snapshot()
        assert meter["by_purpose"] == {"grad": 5}
        assert meter["shots_by_purpose"] == {"grad": 5 * 96}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_sweep_is_native_and_bit_identical(self, workers):
        circuits = ring_circuits(6)
        sweep = CircuitBatch(circuits)
        direct = IdealBackend(exact=True)
        want = direct.run_sweep(sweep, shots=0, purpose="fwd")
        with ShardedBackend(
            IdealBackend(exact=True), workers=workers, min_shard_cost=0
        ) as sharded:
            got = sharded.run_sweep(sweep, shots=0, purpose="fwd")
            results = sharded.run(sweep, shots=0, purpose="fwd")
            meter = sharded.meter.snapshot()
        assert np.array_equal(got, want)
        assert np.array_equal(
            np.stack([r.expectations for r in results]), want
        )
        direct.run(sweep, shots=0, purpose="fwd")
        assert meter == direct.meter.snapshot()

    def test_observed_probabilities_take_rows(self):
        circuits = ring_circuits(5)
        sweep = CircuitBatch(circuits)
        want = NoisyBackend.from_device_name(
            "ibmq_lima", seed=0
        ).observed_probabilities_batch(circuits)
        with ShardedBackend(
            NoisyBackend.from_device_name("ibmq_lima", seed=0),
            workers=2,
            min_shard_cost=0,
        ) as sharded:
            assert np.array_equal(
                sharded.observed_probabilities_batch(sweep), want
            )
