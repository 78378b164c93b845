"""Angle-matrix sweeps against the circuits they stand for.

A :class:`~repro.circuits.sweep.Sweep` replaces per-row circuit
objects on the training hot path, so every sweep builder and the
``run_sweep`` execution path are checked against the circuit API they
replace: the same stacked angles, the same materialized circuits
(fingerprints included), bit-identical results and identical metering
on twin-seeded executors, and the dense oracle within 1e-10.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    ARCHITECTURES,
    CircuitBatch,
    QuantumCircuit,
    get_architecture,
)
from repro.circuits.sweep import SweepTemplate
from repro.gradients.parameter_shift import (
    build_shifted_circuits,
    parameter_shift_jacobian_batch,
    shift_sweep,
)
from repro.hardware import IdealBackend, JobError, NoisyBackend
from repro.parallel import ShardedBackend
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InvalidCircuitError,
    RetryPolicy,
    faults,
)
from repro.serving import ExecutionService
from repro.training import TrainingConfig, TrainingEngine
from repro.pruning import PruningHyperparams

import admission_reference as admission
import dense_reference as ref

ANGLES = st.floats(
    min_value=-2 * np.pi, max_value=2 * np.pi,
    allow_nan=False, allow_infinity=False,
)


def shared_parameter_circuit(angles) -> QuantumCircuit:
    """Literal, ``u3`` and parameterless ops, and parameter 0 shared
    by two gates."""
    circuit = QuantumCircuit(3)
    circuit.add("ry", 0, angles[0]).add("u3", 1, *angles[1:4])
    circuit.add_trainable("rx", 0, 0).add("cz", (0, 1))
    circuit.add_trainable("rzz", (1, 2), 1)
    circuit.add_trainable("ry", 2, 0).add("h", 2)
    return circuit.bind(angles[4:6])


def stacked_clones(circuits, indices):
    clones = []
    for circuit in circuits:
        clones.extend(build_shifted_circuits(circuit, indices)[0])
    return clones


class TestSweepBuilders:
    @pytest.mark.parametrize("task", sorted(ARCHITECTURES))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_architecture_sweep_equals_stacked_full_circuits(
        self, task, data
    ):
        arch = get_architecture(task)
        rows = data.draw(st.integers(1, 4))
        features = np.array(
            data.draw(
                st.lists(ANGLES, min_size=rows * arch.n_features,
                         max_size=rows * arch.n_features)
            )
        ).reshape(rows, arch.n_features)
        theta = np.array(
            data.draw(
                st.lists(ANGLES, min_size=arch.num_parameters,
                         max_size=arch.num_parameters)
            )
        )
        sweep = arch.sweep(features, theta)
        circuits = [arch.full_circuit(x, theta) for x in features]
        batch = CircuitBatch(circuits)
        assert np.array_equal(sweep.angles, batch.angles)
        for position in range(sweep.num_operations()):
            got, want = sweep.op_params(position), batch.op_params(position)
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got, want)
        assert [c.fingerprint() for c in sweep.circuits()] == [
            c.fingerprint() for c in circuits
        ]

    @given(
        angles=st.lists(ANGLES, min_size=6, max_size=6),
        rebound=st.lists(ANGLES, min_size=2, max_size=2),
        offset=ANGLES,
        indices=st.lists(st.integers(0, 1), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_sweep_equals_stacked_clones(
        self, angles, rebound, offset, indices
    ):
        base = shared_parameter_circuit(angles)
        # The third row already carries an offset on a shared-parameter
        # gate, so shifting it must add to that offset exactly.
        circuits = [base, base.bound(rebound), base.shifted(5, offset)]
        shifted, index_map = shift_sweep(CircuitBatch(circuits), indices)
        clones = stacked_clones(circuits, indices)
        assert index_map == build_shifted_circuits(base, indices)[1]
        stacked = CircuitBatch(clones)
        assert np.array_equal(shifted.angles, stacked.angles)
        assert np.array_equal(shifted.literals, stacked.literals)
        assert np.array_equal(shifted.params, stacked.params)
        materialized = shifted.circuits()
        assert [c.fingerprint() for c in materialized] == [
            c.fingerprint() for c in clones
        ]
        for got, want in zip(materialized, clones):
            assert got.templates == want.templates
            assert np.array_equal(got.parameters, want.parameters)
            assert got.structure_signature() == want.structure_signature()

    @pytest.mark.parametrize("task", sorted(ARCHITECTURES))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_full_circuit_equals_encode_and_compose(self, task, data):
        """``full_circuit`` revalues the cached template's encoder; the
        result is the circuit encode + compose builds from scratch."""
        arch = get_architecture(task)
        x = np.array(
            data.draw(st.lists(ANGLES, min_size=arch.n_features,
                               max_size=arch.n_features))
        )
        theta = np.array(
            data.draw(st.lists(ANGLES, min_size=arch.num_parameters,
                               max_size=arch.num_parameters))
        )
        built = arch.full_circuit(x, theta)
        composed = arch.encode(x).compose(arch.build_ansatz().bind(theta))
        assert built.fingerprint() == composed.fingerprint()
        assert built.structure_signature() == composed.structure_signature()
        assert built.templates == composed.templates
        assert np.array_equal(built.parameters, composed.parameters)
        built.validate()
        # The row shares the template's signature tuple (identity fast
        # paths in grouping and admission) but owns its theta.
        template = arch.sweep_template
        assert built.structure_signature() is template.structure_signature()
        theta[0] += 1.0
        assert built.parameters[0] != theta[0]

    @pytest.mark.parametrize("task", sorted(ARCHITECTURES))
    def test_full_circuit_raises_the_composed_errors(self, task):
        arch = get_architecture(task)
        good_x = np.zeros(arch.n_features)
        good_theta = np.zeros(arch.num_parameters)

        def compose(x, theta):
            ansatz = arch.build_ansatz().bind(theta)
            return arch.encode(x).compose(ansatz)

        cases = [
            (good_x, np.zeros(arch.num_parameters + 1)),
            (np.zeros(arch.n_features - 1), good_theta),
            # Both wrong: the parameter count is reported first.
            (np.zeros(arch.n_features + 2), np.zeros(2)),
        ]
        for x, theta in cases:
            with pytest.raises(ValueError) as want:
                compose(x, theta)
            with pytest.raises(ValueError) as got:
                arch.full_circuit(x, theta)
            assert str(got.value) == str(want.value)

    def test_feature_width_is_checked(self):
        arch = get_architecture("vowel4")
        with pytest.raises(ValueError, match="features"):
            arch.sweep(np.zeros((2, 16)), np.zeros(arch.num_parameters))
        with pytest.raises(ValueError, match="parameters"):
            arch.sweep(np.zeros((2, 10)), np.zeros(3))


# -- run_sweep against expectations(circuits) -------------------------------


#: Few distinct values, so rows often agree in value, and both zeros.
VALUES = st.sampled_from([0.0, -0.0, 0.5, -1.25, np.pi])


def assert_stacks_like_oracle(template, circuits):
    literals, params = template.stack(circuits)
    want_literals, want_params = admission.stack(template, circuits)
    assert np.array_equal(
        admission.bits(literals), admission.bits(want_literals)
    )
    assert np.array_equal(admission.bits(params), admission.bits(want_params))


class TestStackOracle:
    """``SweepTemplate.stack`` diffs each row against the one before it
    and forward-fills; it must equal reading every op of every circuit,
    bit for bit."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_per_circuit_read(self, data):
        values = st.lists(VALUES, min_size=6, max_size=6)
        bases = [
            shared_parameter_circuit(data.draw(values))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        pool = []
        for base in bases:
            pool.append(base)
            pool.extend(build_shifted_circuits(base, [0, 1])[0])
            # Equal in value, distinct template objects.
            pool.append(base.shifted(2, 0.0))
        # The template's reference is one of the rows, so rows can
        # return to its template objects; or a separately built twin.
        twin = shared_parameter_circuit(data.draw(values))
        reference = data.draw(st.sampled_from([*pool, twin]))
        template = SweepTemplate(reference)
        rows = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=16)
        )
        assert_stacks_like_oracle(template, rows)

    @pytest.mark.parametrize("task", ["mnist4", "vowel4"])
    def test_clone_blocks_and_interleaved_clones(self, task):
        arch = get_architecture(task)
        rng = np.random.default_rng(3)
        theta = rng.uniform(-1, 1, arch.num_parameters)
        blocks = [
            build_shifted_circuits(
                arch.full_circuit(
                    rng.uniform(0, np.pi, arch.n_features), theta
                ),
                range(arch.num_parameters),
            )[0]
            for _ in range(3)
        ]
        template = SweepTemplate(
            arch.full_circuit(rng.uniform(0, np.pi, arch.n_features), theta)
        )
        in_blocks = [clone for block in blocks for clone in block]
        interleaved = [clone for row in zip(*blocks) for clone in row]
        for circuits in (
            in_blocks, interleaved, in_blocks[:1], [template.reference]
        ):
            assert_stacks_like_oracle(template, circuits)

    def test_one_row_groups(self):
        for angles in (
            [0.0] * 6, [-0.0] * 6, [0.5, -0.0, 1.0, 0.0, -0.0, 2.0]
        ):
            circuit = shared_parameter_circuit(angles)
            template = SweepTemplate(shared_parameter_circuit([0.0] * 6))
            assert_stacks_like_oracle(template, [circuit])
            assert_stacks_like_oracle(SweepTemplate(circuit), [circuit])


class CircuitPath:
    """Runs every sweep as the circuits it stands for, through
    ``Backend.run`` — the circuit-API twin of ``run_sweep``."""

    def __init__(self, backend):
        self._backend = backend
        self.meter = backend.meter

    def run_sweep(self, sweep, shots=1024, purpose="run"):
        return self._backend.expectations(
            sweep.circuits(), shots=shots, purpose=purpose
        )


def _noisy(seed, **kwargs):
    return NoisyBackend.from_device_name("ibmq_lima", seed=seed, **kwargs)


EXECUTORS = {
    "ideal_exact": (lambda: IdealBackend(exact=True), 0),
    "ideal_sampled": (lambda: IdealBackend(exact=False, seed=5), 1024),
    "noisy": (lambda: _noisy(5), 1024),
    "noisy_transpiled": (lambda: _noisy(5, transpile=True), 1024),
}


def _workload():
    arch = get_architecture("mnist2")
    rng = np.random.default_rng(4)
    features = rng.uniform(0, np.pi, (3, arch.n_features))
    theta = rng.uniform(-1, 1, arch.num_parameters)
    return arch, features, theta


class TestRunSweep:
    @pytest.mark.parametrize("kind", sorted(EXECUTORS))
    def test_bit_identical_to_circuit_submission(self, kind):
        build, shots = EXECUTORS[kind]
        arch, features, theta = _workload()
        sweep = arch.sweep(features, theta)
        shifted, _ = shift_sweep(sweep, [0, 3, 5])
        native, circuit_path = build(), build()
        got = [
            native.run_sweep(sweep, shots=shots, purpose="forward"),
            native.run_sweep(shifted, shots=shots, purpose="gradient"),
        ]
        circuits = [arch.full_circuit(x, theta) for x in features]
        want = [
            circuit_path.expectations(
                circuits, shots=shots, purpose="forward"
            ),
            circuit_path.expectations(
                stacked_clones(circuits, [0, 3, 5]),
                shots=shots,
                purpose="gradient",
            ),
        ]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert native.meter.snapshot() == circuit_path.meter.snapshot()
        assert native.meter.by_purpose == {"forward": 3, "gradient": 18}

    def test_exact_results_match_dense_reference(self):
        arch, features, theta = _workload()
        sweep = arch.sweep(features, theta)
        got = IdealBackend(exact=True).run_sweep(sweep, shots=0)
        for row, circuit in zip(got, sweep.circuits()):
            want = ref.expectations_z(ref.probabilities(circuit))
            assert np.max(np.abs(row - want)) < 1e-10

    def test_noisy_distributions_match_dense_reference(self):
        arch, features, theta = _workload()
        backend = _noisy(0)
        circuits = arch.sweep(features, theta).circuits()
        rows = backend.observed_probabilities_batch(circuits)
        for row, circuit in zip(rows, circuits):
            want = ref.observed_probabilities(circuit, backend.noise_model)
            assert np.max(np.abs(row - want)) < 1e-10

    @pytest.mark.parametrize("shots", [0, 256])
    def test_sharded_executor(self, shots):
        arch, features, theta = _workload()
        sweep = arch.sweep(features, theta)

        def build():
            return IdealBackend(exact=shots == 0, seed=9)

        with ShardedBackend(build(), workers=2, min_shard_cost=0) as a:
            got = a.run_sweep(sweep, shots=shots, purpose="forward")
            got_meter = a.meter.snapshot()
        with ShardedBackend(build(), workers=2, min_shard_cost=0) as b:
            want = b.expectations(
                [arch.full_circuit(x, theta) for x in features],
                shots=shots,
                purpose="forward",
            )
            want_meter = b.meter.snapshot()
        assert np.array_equal(got, want)
        assert got_meter == want_meter

    def test_service_executor(self):
        arch, features, theta = _workload()
        sweep = arch.sweep(features, theta)
        direct = IdealBackend(exact=True).run_sweep(sweep, shots=0)
        with ExecutionService(IdealBackend(exact=True), workers=0) as svc:
            executor = svc.executor()
            got = executor.run_sweep(sweep, shots=0, purpose="forward")
            # The rows' cache keys come from their angle bits, which the
            # circuits the circuit API builds share: submitting those is
            # a cache hit.
            job = svc.submit(
                [arch.full_circuit(x, theta) for x in features], shots=0
            )
            job.result(timeout=30)
        assert np.array_equal(got, direct)
        assert executor.meter.by_purpose == {"forward": 3}
        assert job.cache_hits == 3


class TestTrainingTwins:
    def test_sweep_and_circuit_paths_reach_identical_theta(self):
        config = TrainingConfig(
            task="mnist2",
            steps=7,
            batch_size=3,
            shots=256,
            pruning=PruningHyperparams(
                accumulation_window=1, pruning_window=2, ratio=0.5
            ),
            eval_every=0,
            seed=3,
        )
        native = TrainingEngine(config, _noisy(1))
        circuit_path = TrainingEngine(config, CircuitPath(_noisy(1)))
        for _ in range(7):
            native.train_step()
            circuit_path.train_step()
        assert np.array_equal(native.theta, circuit_path.theta)
        assert (
            native.backend.meter.snapshot()
            == circuit_path.backend.meter.snapshot()
        )


# -- admission: non-finite angles ------------------------------------------


def nan_circuit(angle=float("nan")) -> QuantumCircuit:
    return QuantumCircuit(2).add("ry", 0, angle).add("cx", (0, 1))


class TestInvalidCircuit:
    @pytest.mark.parametrize(
        "backend",
        [
            IdealBackend(exact=True),
            IdealBackend(exact=False, seed=0),
            NoisyBackend.from_device_name("ibmq_lima", seed=0),
        ],
        ids=["ideal_exact", "ideal_sampled", "noisy"],
    )
    @pytest.mark.parametrize("angle", [float("nan"), float("inf")])
    def test_non_finite_angle_raises_typed_error(self, backend, angle):
        with pytest.raises(InvalidCircuitError, match="non-finite"):
            backend.run([nan_circuit(angle)], shots=64)
        with pytest.raises(InvalidCircuitError):
            backend.run([nan_circuit(0.1), nan_circuit(angle)], shots=64)
        assert backend.meter.circuits == 0

    def test_error_is_a_non_retryable_value_error(self):
        assert issubclass(InvalidCircuitError, ValueError)
        assert not RetryPolicy().is_retryable(InvalidCircuitError("x"))

    def test_sweep_rejects_non_finite_theta(self):
        arch = get_architecture("mnist2")
        theta = np.zeros(arch.num_parameters)
        theta[2] = np.nan
        with pytest.raises(InvalidCircuitError):
            arch.sweep(np.zeros((1, arch.n_features)), theta)

    def test_sharded_worker_keeps_the_error_type(self):
        with ShardedBackend(
            IdealBackend(exact=True), workers=2, min_shard_cost=0
        ) as sharded:
            with pytest.raises(InvalidCircuitError):
                sharded.run([nan_circuit(0.2), nan_circuit()], shots=0)

    def test_service_quarantines_the_poisoned_job(self):
        """A non-finite angle is rejected at admission: the poisoned
        submit raises, its flush-mates never see it."""
        with ExecutionService(
            IdealBackend(exact=True),
            workers=0,
            max_delay_s=0.2,  # let every submission coalesce first
        ) as service:
            healthy = [
                service.submit([nan_circuit(angle)], shots=0)
                for angle in (0.1, 0.2, 0.3)
            ]
            with pytest.raises(JobError) as excinfo:
                service.submit([nan_circuit()], shots=0)
            assert isinstance(excinfo.value.__cause__, InvalidCircuitError)
            for job, angle in zip(healthy, (0.1, 0.2, 0.3)):
                (result,) = job.result(timeout=30)
                (want,) = IdealBackend(exact=True).run(
                    [nan_circuit(angle)], shots=0
                )
                assert np.array_equal(result.expectations, want.expectations)
            for angle in (0.1, 0.2, 0.3):
                (key,) = CircuitBatch([nan_circuit(angle)]).row_keys()
                assert key in service.cache
            assert len(service.cache) == 3
            assert service.pending_circuits == 0

    def test_poisoned_flush_is_bisected_through_the_fault_plane(self):
        """Bisection still isolates a flush that fails as a whole: the
        first attempt of the coalesced flush is poisoned, its halves
        run, and every job gets its result."""
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site=faults.SITE_SERVING_FLUSH, mode="exception", at=(1,)
                ),
            )
        )
        angles = (0.1, 0.2, 0.3, 0.4)
        with faults.installed(plan):
            with ExecutionService(
                IdealBackend(exact=True),
                workers=0,
                max_delay_s=0.2,
                retry_policy=RetryPolicy(max_attempts=1),
            ) as service:
                jobs = [
                    service.submit([nan_circuit(angle)], shots=0)
                    for angle in angles
                ]
                results = [job.result(timeout=30)[0] for job in jobs]
                stats = service.stats()["scheduler"]
        want = IdealBackend(exact=True).run(
            [nan_circuit(angle) for angle in angles], shots=0
        )
        for got, expected in zip(results, want):
            assert np.array_equal(got.expectations, expected.expectations)
        assert stats["bisections"] == 1
        assert stats["flush_failures"] == 0
