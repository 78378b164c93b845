"""Tests for backends, metering, jobs, and the provider."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, get_architecture
from repro.hardware import (
    IdealBackend,
    Job,
    JobError,
    JobStatus,
    NoisyBackend,
    QuantumProvider,
    submit_job,
)


def bell_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2)
    circuit.add("h", 0).add("cx", (0, 1))
    return circuit


def ry_circuit(theta: float) -> QuantumCircuit:
    circuit = QuantumCircuit(1)
    circuit.add("ry", 0, theta)
    return circuit


class TestIdealBackend:
    def test_exact_expectations(self):
        backend = IdealBackend(exact=True)
        exp = backend.expectations([ry_circuit(0.8)], shots=1)[0]
        assert np.isclose(exp[0], np.cos(0.8))

    def test_exact_returns_no_counts(self):
        backend = IdealBackend(exact=True)
        result = backend.run([bell_circuit()])[0]
        assert result.counts == {}
        assert result.shots == 0

    def test_sampled_mode_has_shot_noise(self):
        backend = IdealBackend(exact=False, seed=0)
        exp = backend.expectations([ry_circuit(0.8)], shots=256)[0]
        assert abs(exp[0] - np.cos(0.8)) > 1e-6  # not exact
        assert abs(exp[0] - np.cos(0.8)) < 0.2   # but close

    def test_sampled_reproducible_with_seed(self):
        first = IdealBackend(exact=False, seed=42).expectations(
            [bell_circuit()], shots=128
        )
        second = IdealBackend(exact=False, seed=42).expectations(
            [bell_circuit()], shots=128
        )
        assert np.allclose(first, second)

    def test_invalid_circuit_rejected_before_run(self):
        backend = IdealBackend()
        bad = QuantumCircuit(1, num_parameters=1)  # unused parameter
        with pytest.raises(ValueError, match="never used"):
            backend.run([bad])

    def test_zero_shots_accepted_in_exact_mode(self):
        # Exact execution ignores shots and reports shots=0 results;
        # rejecting an explicit shots=0 contradicted that accounting.
        backend = IdealBackend(exact=True)
        results = backend.run([bell_circuit()], shots=0)
        assert results[0].shots == 0
        assert backend.meter.shots == 0

    def test_zero_shots_rejected_on_sampling_backends(self):
        with pytest.raises(ValueError, match="shots"):
            IdealBackend(exact=False).run([bell_circuit()], shots=0)
        with pytest.raises(ValueError, match="shots"):
            NoisyBackend.from_device_name("ibmq_santiago").run(
                [bell_circuit()], shots=0
            )

    def test_expectations_of_nothing_raise_before_running(self):
        backend = IdealBackend(exact=True)
        with pytest.raises(ValueError, match="need at least one circuit"):
            backend.expectations([])
        assert backend.meter.snapshot() == IdealBackend().meter.snapshot()

    def test_negative_shots_rejected_everywhere(self):
        with pytest.raises(ValueError, match="shots"):
            IdealBackend(exact=True).run([bell_circuit()], shots=-1)
        with pytest.raises(ValueError, match="shots"):
            IdealBackend(exact=False).run([bell_circuit()], shots=-1)


class TestMeter:
    def test_counts_circuits_and_shots(self):
        backend = IdealBackend(exact=False, seed=0)
        backend.run([bell_circuit()] * 3, shots=100, purpose="forward")
        backend.run([bell_circuit()] * 2, shots=50, purpose="gradient")
        assert backend.meter.circuits == 5
        assert backend.meter.shots == 3 * 100 + 2 * 50
        assert backend.meter.by_purpose == {"forward": 3, "gradient": 2}

    def test_reset(self):
        backend = IdealBackend()
        backend.run([bell_circuit()])
        backend.meter.reset()
        assert backend.meter.circuits == 0
        assert backend.meter.by_purpose == {}

    def test_snapshot_is_detached(self):
        backend = IdealBackend()
        backend.run([bell_circuit()])
        snapshot = backend.meter.snapshot()
        backend.run([bell_circuit()])
        assert snapshot["circuits"] == 1

    def test_shots_accounted_per_purpose(self):
        backend = IdealBackend(exact=False, seed=0)
        backend.run([bell_circuit()] * 3, shots=100, purpose="forward")
        backend.run([bell_circuit()] * 2, shots=50, purpose="gradient")
        assert backend.meter.shots_by_purpose == {
            "forward": 300, "gradient": 100,
        }

    def test_exact_mode_meters_zero_shots_per_purpose(self):
        backend = IdealBackend(exact=True)
        backend.run([bell_circuit()], purpose="forward")
        assert backend.meter.by_purpose == {"forward": 1}
        assert backend.meter.shots_by_purpose == {"forward": 0}

    def test_diff_reports_window_delta(self):
        backend = IdealBackend(exact=False, seed=0)
        backend.run([bell_circuit()] * 2, shots=10, purpose="forward")
        window_start = backend.meter.snapshot()
        backend.run([bell_circuit()] * 3, shots=20, purpose="gradient")
        backend.run([bell_circuit()], shots=10, purpose="forward")
        delta = backend.meter.diff(window_start)
        assert delta == {
            "circuits": 4,
            "shots": 70,
            "by_purpose": {"gradient": 3, "forward": 1},
            "shots_by_purpose": {"gradient": 60, "forward": 10},
        }

    def test_diff_omits_zero_purposes(self):
        backend = IdealBackend(exact=False, seed=0)
        backend.run([bell_circuit()], shots=10, purpose="forward")
        window_start = backend.meter.snapshot()
        backend.run([bell_circuit()], shots=10, purpose="gradient")
        delta = backend.meter.diff(window_start)
        assert "forward" not in delta["by_purpose"]

    def test_diff_clamps_negative_deltas_after_reset(self):
        # A reset() inside the window used to surface as negative usage;
        # the contract now clamps every field independently at zero (a
        # mid-window reset undercounts rather than going negative).
        backend = IdealBackend(exact=False, seed=0)
        backend.run([bell_circuit()] * 5, shots=100, purpose="forward")
        window_start = backend.meter.snapshot()
        backend.meter.reset()
        backend.run([bell_circuit()] * 2, shots=10, purpose="gradient")
        delta = backend.meter.diff(window_start)
        assert delta == {
            "circuits": 0,
            "shots": 0,
            "by_purpose": {"gradient": 2},
            "shots_by_purpose": {"gradient": 20},
        }
        assert all(v >= 0 for v in delta["by_purpose"].values())
        assert all(v >= 0 for v in delta["shots_by_purpose"].values())

    def test_diff_of_identical_snapshots_is_zero(self):
        backend = IdealBackend()
        backend.run([bell_circuit()])
        assert backend.meter.diff(backend.meter.snapshot()) == {
            "circuits": 0,
            "shots": 0,
            "by_purpose": {},
            "shots_by_purpose": {},
        }


class TestNoisyBackend:
    def test_noisy_expectations_biased_towards_zero(self):
        """Decoherence shrinks |<Z>| relative to the ideal value."""
        backend = NoisyBackend.from_device_name("ibmq_lima", seed=0)
        circuit = ry_circuit(0.3)
        noisy = backend.exact_expectations(circuit)[0]
        ideal = np.cos(0.3)
        assert noisy < ideal

    def test_reproducible_with_seed(self):
        circuit = bell_circuit()
        first = NoisyBackend.from_device_name(
            "ibmq_santiago", seed=7
        ).expectations([circuit], shots=512)
        second = NoisyBackend.from_device_name(
            "ibmq_santiago", seed=7
        ).expectations([circuit], shots=512)
        assert np.allclose(first, second)

    def test_noise_scale_zero_matches_ideal(self):
        circuit = ry_circuit(1.1)
        noisy = NoisyBackend.from_device_name(
            "ibmq_santiago", seed=0, noise_scale=0.0
        ).exact_expectations(circuit)
        assert np.isclose(noisy[0], np.cos(1.1), atol=1e-10)

    def test_transpiled_execution_close_to_logical(self):
        """Physical-level and logical-level noise agree qualitatively."""
        architecture = get_architecture("mnist2")
        rng = np.random.default_rng(1)
        circuit = architecture.full_circuit(
            rng.uniform(0, np.pi, 16), rng.uniform(-1, 1, 8)
        )
        logical = NoisyBackend.from_device_name(
            "ibmq_santiago", seed=0
        ).exact_expectations(circuit)
        physical = NoisyBackend.from_device_name(
            "ibmq_santiago", seed=0, transpile=True
        ).exact_expectations(circuit)
        ideal = IdealBackend().expectations([circuit])[0]
        # Both noisy paths deviate from ideal but stay in its vicinity,
        # and they agree with each other within a modest tolerance.
        assert np.max(np.abs(physical - ideal)) < 0.25
        assert np.max(np.abs(logical - ideal)) < 0.25
        assert np.max(np.abs(physical - logical)) < 0.15

    def test_observed_probabilities_normalized(self):
        backend = NoisyBackend.from_device_name("ibmq_jakarta", seed=0)
        probs = backend.observed_probabilities(bell_circuit())
        assert np.isclose(probs.sum(), 1.0)
        assert probs.shape == (4,)


class TestJobLifecycle:
    def test_happy_path(self):
        backend = IdealBackend(exact=True)
        job = submit_job(backend, [bell_circuit()], shots=16)
        assert job.status is JobStatus.CREATED
        results = job.result()
        assert job.status is JobStatus.DONE
        assert len(results) == 1

    def test_result_idempotent(self):
        backend = IdealBackend(exact=True)
        job = submit_job(backend, [bell_circuit()])
        first = job.result()
        second = job.result()
        assert first is second
        assert backend.meter.circuits == 1  # ran once

    def test_validation_failure(self):
        backend = IdealBackend()
        bad = QuantumCircuit(1, num_parameters=1)
        job = submit_job(backend, [bad])
        with pytest.raises(JobError):
            job.validate()
        assert job.status is JobStatus.ERROR
        with pytest.raises(JobError, match="already failed"):
            job.result()

    def test_illegal_transition(self):
        job = Job(IdealBackend(), [bell_circuit()], 16)
        job.validate()
        with pytest.raises(JobError, match="illegal transition"):
            job.validate()

    def test_negative_queue_time_rejected(self):
        job = Job(IdealBackend(), [bell_circuit()], 16)
        job.validate()
        with pytest.raises(ValueError):
            job.enqueue(-1.0)

    def test_unique_ids(self):
        backend = IdealBackend()
        a = submit_job(backend, [bell_circuit()])
        b = submit_job(backend, [bell_circuit()])
        assert a.job_id != b.job_id

    def test_explicit_id_and_allocator(self):
        from repro.hardware import JobIdAllocator

        backend = IdealBackend()
        explicit = Job(backend, [bell_circuit()], 16, job_id="mine-42")
        assert explicit.job_id == "mine-42"
        allocator = JobIdAllocator(prefix="exp")
        first = submit_job(backend, [bell_circuit()], allocator=allocator)
        second = submit_job(backend, [bell_circuit()], allocator=allocator)
        assert (first.job_id, second.job_id) == ("exp-000001", "exp-000002")

    def test_default_ids_resettable(self):
        from repro.hardware import reset_job_ids

        backend = IdealBackend()
        reset_job_ids()
        a = submit_job(backend, [bell_circuit()])
        reset_job_ids()
        b = submit_job(backend, [bell_circuit()])
        assert a.job_id == b.job_id == "job-000001"


class TestProvider:
    def test_lists_devices_and_simulators(self):
        names = QuantumProvider().backends()
        assert "ibmq_jakarta" in names
        assert "ideal" in names

    def test_backend_caching(self):
        provider = QuantumProvider(seed=0)
        first = provider.get_backend("ibmq_manila")
        second = provider.get_backend("ibmq_manila")
        assert first is second

    def test_distinct_options_distinct_backends(self):
        provider = QuantumProvider(seed=0)
        plain = provider.get_backend("ibmq_manila")
        scaled = provider.get_backend("ibmq_manila", noise_scale=2.0)
        assert plain is not scaled

    def test_ideal_backends(self):
        provider = QuantumProvider()
        assert provider.get_backend("ideal").exact
        assert not provider.get_backend("ideal_sampled").exact

    def test_submit_runs_on_named_backend(self):
        provider = QuantumProvider(seed=3)
        job = provider.submit("ideal", [bell_circuit()], shots=8)
        results = job.result()
        assert np.allclose(results[0].expectations, [0.0, 0.0], atol=1e-12)

    def test_job_ids_are_per_provider(self):
        """Two providers number their jobs independently (reproducible
        runs regardless of what other providers/tests did first)."""
        first = QuantumProvider(seed=0)
        first.submit("ideal", [bell_circuit()])
        first.submit("ideal", [bell_circuit()])
        fresh = QuantumProvider(seed=0)
        job = fresh.submit("ideal", [bell_circuit()])
        assert job.job_id == "job-000001"
