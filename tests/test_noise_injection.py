"""Tests for the QuantumNAT-style noise-injection backend wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.hardware import IdealBackend, NoisyBackend
from repro.hardware.noise_injection import NoiseInjectionBackend
from repro.noise import get_calibration
from repro.training import TrainingConfig, TrainingEngine


def ry_circuit(theta: float) -> QuantumCircuit:
    circuit = QuantumCircuit(1)
    circuit.add("ry", 0, theta)
    return circuit


class TestWrapperMechanics:
    def test_shrinkage_contracts_expectations(self):
        backend = NoiseInjectionBackend(
            IdealBackend(exact=True), shrink=0.2, sigma=0.0, seed=0
        )
        exp = backend.expectations([ry_circuit(0.5)])[0]
        assert np.isclose(exp[0], 0.8 * np.cos(0.5))

    def test_jitter_is_random_but_seeded(self):
        def run(seed):
            backend = NoiseInjectionBackend(
                IdealBackend(exact=True), shrink=0.0, sigma=0.05,
                seed=seed,
            )
            return backend.expectations([ry_circuit(0.5)])[0]

        assert np.allclose(run(3), run(3))
        assert not np.allclose(run(3), run(4))

    def test_expectations_stay_in_range(self):
        backend = NoiseInjectionBackend(
            IdealBackend(exact=True), shrink=0.0, sigma=5.0, seed=0
        )
        exp = backend.expectations([ry_circuit(0.0)] * 10)
        assert np.all(np.abs(exp) <= 1.0)

    def test_meter_counts_on_wrapper(self):
        backend = NoiseInjectionBackend(
            IdealBackend(exact=True), seed=0
        )
        backend.run([ry_circuit(0.1)] * 3, shots=64, purpose="forward")
        assert backend.meter.circuits == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseInjectionBackend(IdealBackend(), shrink=1.0)
        with pytest.raises(ValueError):
            NoiseInjectionBackend(IdealBackend(), sigma=-0.1)

    def test_from_calibration_scales(self):
        ideal = IdealBackend(exact=True)
        mild = NoiseInjectionBackend.from_calibration(
            ideal, get_calibration("ibmq_santiago")
        )
        harsh = NoiseInjectionBackend.from_calibration(
            ideal, get_calibration("ibmq_casablanca")
        )
        assert 0 < mild.shrink < harsh.shrink < 1
        assert np.isclose(mild.sigma, 1 / np.sqrt(1024))


class TestSweepExecution:
    @pytest.mark.parametrize(
        "inner",
        [
            lambda: IdealBackend(exact=True),
            lambda: IdealBackend(exact=False, seed=2),
            lambda: NoisyBackend.from_device_name("ibmq_lima", seed=2),
        ],
        ids=["ideal_exact", "ideal_sampled", "noisy"],
    )
    def test_batch_rows_bit_identical_to_one_row_runs(self, inner):
        """One ``(B, n_qubits)`` jitter draw consumes the stream in the
        order of ``B`` one-row submissions."""
        circuits = [ry_circuit(t) for t in (0.1, 0.5, 0.9, 1.3)]
        batched = NoiseInjectionBackend(inner(), seed=5)
        one_row = NoiseInjectionBackend(inner(), seed=5)
        together = batched.run(circuits, shots=64)
        alone = [one_row.run([c], shots=64)[0] for c in circuits]
        for a, b in zip(together, alone):
            assert np.array_equal(a.expectations, b.expectations)
            assert a.counts == b.counts
            assert a.shots == b.shots
        assert batched.meter.snapshot() == one_row.meter.snapshot()

    def test_exact_inner_accepts_zero_shots(self):
        backend = NoiseInjectionBackend(IdealBackend(exact=True), seed=0)
        assert backend.exact_execution()
        result = backend.run([ry_circuit(0.5)], shots=0)[0]
        assert result.shots == 0
        assert backend.meter.shots == 0

    def test_sampled_inner_rejects_zero_shots(self):
        backend = NoiseInjectionBackend(
            IdealBackend(exact=False, seed=0), seed=0
        )
        assert not backend.exact_execution()
        with pytest.raises(ValueError, match="shots must be positive"):
            backend.run([ry_circuit(0.5)], shots=0)


class TestInjectionApproximatesDevice:
    def test_shrinkage_tracks_real_noisy_backend(self):
        """Calibration-derived shrinkage lands in the same regime as the
        full density-matrix emulation for a typical task circuit."""
        from repro.circuits import get_architecture

        architecture = get_architecture("mnist2")
        rng = np.random.default_rng(0)
        injected = NoiseInjectionBackend.from_calibration(
            IdealBackend(exact=True),
            get_calibration("ibmq_santiago"),
            gates_per_circuit=24,
            seed=0,
        )
        device = NoisyBackend.from_device_name("ibmq_santiago", seed=0)
        ideal = IdealBackend(exact=True)
        ratios_injected, ratios_device = [], []
        for _ in range(6):
            circuit = architecture.full_circuit(
                rng.uniform(0, np.pi, 16), rng.uniform(-1, 1, 8)
            )
            reference = ideal.expectations([circuit])[0]
            big = np.abs(reference) > 0.2
            if not big.any():
                continue
            ratios_injected.append(
                np.abs(1.0 - injected.shrink) * np.ones(big.sum())
            )
            ratios_device.append(
                np.abs(device.exact_expectations(circuit)[big])
                / np.abs(reference[big])
            )
        mean_injected = np.concatenate(ratios_injected).mean()
        mean_device = np.concatenate(ratios_device).mean()
        assert abs(mean_injected - mean_device) < 0.15


class TestNoiseAwareTraining:
    def test_training_engine_accepts_wrapper(self):
        """Noise-aware Classical-Train: adjoint-free, wrapper forward."""
        backend = NoiseInjectionBackend(
            IdealBackend(exact=True), shrink=0.1, sigma=0.02, seed=0
        )
        config = TrainingConfig(
            task="mnist2", steps=4, batch_size=4, shots=256,
            gradient_engine="parameter_shift", eval_every=0,
            eval_size=16, seed=0,
        )
        engine = TrainingEngine(config, backend)
        history = engine.train()
        assert history.final_accuracy >= 0.3  # runs and learns something

    def test_injected_training_robust_on_device(self):
        """Training with injected noise should not hurt — and typically
        helps — accuracy when evaluated on the emulated device."""
        device = NoisyBackend.from_device_name("ibmq_lima", seed=1)
        config = TrainingConfig(
            task="mnist2", steps=12, batch_size=8,
            gradient_engine="parameter_shift", eval_every=0,
            eval_size=40, seed=1, shots=512,
        )
        plain = TrainingEngine(
            config, IdealBackend(exact=True, seed=1), eval_backend=device
        )
        plain.train()
        injected_backend = NoiseInjectionBackend.from_calibration(
            IdealBackend(exact=True, seed=1),
            get_calibration("ibmq_lima"),
            gates_per_circuit=24, shots=512, seed=1,
        )
        aware = TrainingEngine(
            config, injected_backend, eval_backend=device
        )
        aware.train()
        assert (
            aware.history.final_accuracy
            >= plain.history.final_accuracy - 0.10
        )
