"""Tests for the finite-difference and SPSA baseline gradient engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import get_architecture
from repro.gradients import (
    adjoint_engine_jacobian,
    finite_difference_jacobian,
    finite_difference_jacobian_batch,
    spsa_jacobian,
    spsa_jacobian_batch,
)
from repro.gradients.adjoint_engine import adjoint_forward
from repro.hardware import IdealBackend, NoisyBackend


def mnist2_circuit(seed: int = 0):
    architecture = get_architecture("mnist2")
    rng = np.random.default_rng(seed)
    return architecture.full_circuit(
        rng.uniform(0, np.pi, 16), rng.uniform(-1, 1, 8)
    )


class TestFiniteDifference:
    def test_approximates_true_gradient(self):
        circuit = mnist2_circuit()
        backend = IdealBackend(exact=True)
        fd = finite_difference_jacobian(circuit, backend, eps=1e-5)
        exact = adjoint_engine_jacobian(circuit)
        assert np.allclose(fd, exact, atol=1e-8)

    def test_truncation_error_grows_with_eps(self):
        """Unlike parameter shift, FD has step-size-dependent error."""
        circuit = mnist2_circuit()
        exact = adjoint_engine_jacobian(circuit)
        error_small = np.abs(
            finite_difference_jacobian(
                circuit, IdealBackend(exact=True), eps=1e-4
            ) - exact
        ).max()
        error_large = np.abs(
            finite_difference_jacobian(
                circuit, IdealBackend(exact=True), eps=0.5
            ) - exact
        ).max()
        assert error_large > error_small
        assert error_large > 1e-3  # macroscopically wrong at eps=0.5

    def test_shot_noise_amplified_vs_parameter_shift(self):
        """FD divides shot noise by 2*eps; parameter shift by 2."""
        from repro.gradients import parameter_shift_jacobian

        circuit = mnist2_circuit(seed=4)
        exact = adjoint_engine_jacobian(circuit)
        fd_err, ps_err = [], []
        for seed in range(3):
            fd = finite_difference_jacobian(
                circuit, IdealBackend(exact=False, seed=seed),
                eps=0.01, shots=1024,
            )
            ps = parameter_shift_jacobian(
                circuit, IdealBackend(exact=False, seed=seed), shots=1024
            )
            fd_err.append(np.abs(fd - exact).mean())
            ps_err.append(np.abs(ps - exact).mean())
        assert np.mean(fd_err) > 5 * np.mean(ps_err)

    def test_subset_selection(self):
        circuit = mnist2_circuit()
        jac = finite_difference_jacobian(
            circuit, IdealBackend(exact=True), param_indices=[2]
        )
        assert np.allclose(np.delete(jac, 2, axis=1), 0.0)

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_jacobian(
                mnist2_circuit(), IdealBackend(), eps=0.0
            )


class TestSPSA:
    def test_constant_circuit_cost(self):
        circuit = mnist2_circuit()
        backend = IdealBackend(exact=True)
        spsa_jacobian(circuit, backend, n_samples=5,
                      rng=np.random.default_rng(0))
        assert backend.meter.circuits == 10  # 2 per sample, any n_params

    def test_many_samples_approach_truth(self):
        """SPSA is a noisy estimator whose mean tracks the gradient."""
        circuit = mnist2_circuit(seed=2)
        exact = adjoint_engine_jacobian(circuit)
        estimate = spsa_jacobian(
            circuit, IdealBackend(exact=True),
            n_samples=400, c=0.05, rng=np.random.default_rng(0),
        )
        # Crude convergence: correlation with the true Jacobian is high.
        corr = np.corrcoef(estimate.ravel(), exact.ravel())[0, 1]
        assert corr > 0.7

    def test_few_samples_noisier_than_many(self):
        circuit = mnist2_circuit(seed=3)
        exact = adjoint_engine_jacobian(circuit)
        few = spsa_jacobian(
            circuit, IdealBackend(exact=True), n_samples=2,
            rng=np.random.default_rng(1),
        )
        many = spsa_jacobian(
            circuit, IdealBackend(exact=True), n_samples=100,
            rng=np.random.default_rng(1),
        )
        assert np.abs(many - exact).mean() < np.abs(few - exact).mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            spsa_jacobian(mnist2_circuit(), IdealBackend(), n_samples=0)
        with pytest.raises(ValueError):
            spsa_jacobian(mnist2_circuit(), IdealBackend(), c=0.0)


class TestSweepRows:
    """One sweep of every row's perturbed circuits equals one call per
    row on a twin-seeded sampling backend: same Jacobians, same
    direction stream, same metering."""

    @staticmethod
    def rows():
        architecture = get_architecture("mnist2")
        rng = np.random.default_rng(6)
        return architecture.sweep(
            rng.uniform(0, np.pi, (3, 16)), rng.uniform(-1, 1, 8)
        )

    @staticmethod
    def twins():
        return tuple(
            NoisyBackend.from_device_name("ibmq_lima", seed=2)
            for _ in range(2)
        )

    def test_finite_difference_rows_match_one_call_per_row(self):
        sweep = self.rows()
        batched, per_row = self.twins()
        together = finite_difference_jacobian_batch(
            sweep, batched, shots=256, param_indices=[0, 3, 6]
        )
        for jacobian, circuit in zip(together, sweep.circuits()):
            alone = finite_difference_jacobian(
                circuit, per_row, shots=256, param_indices=[0, 3, 6]
            )
            assert np.array_equal(jacobian, alone)
        assert batched.meter.snapshot() == per_row.meter.snapshot()

    def test_spsa_rows_match_one_call_per_row(self):
        sweep = self.rows()
        batched, per_row = self.twins()
        rng_batched, rng_per_row = (
            np.random.default_rng(9) for _ in range(2)
        )
        together = spsa_jacobian_batch(
            sweep, batched, shots=256, rng=rng_batched
        )
        for jacobian, circuit in zip(together, sweep.circuits()):
            alone = spsa_jacobian(
                circuit, per_row, shots=256, rng=rng_per_row
            )
            assert np.array_equal(jacobian, alone)
        assert rng_batched.random() == rng_per_row.random()
        assert batched.meter.snapshot() == per_row.meter.snapshot()


class TestAdjointEngine:
    def test_masking_matches_subset_semantics(self):
        circuit = mnist2_circuit()
        masked = adjoint_engine_jacobian(circuit, param_indices=[0, 7])
        full = adjoint_engine_jacobian(circuit)
        assert np.allclose(masked[:, [0, 7]], full[:, [0, 7]])
        assert np.allclose(masked[:, 1:7], 0.0)

    def test_forward_matches_backend(self):
        circuit = mnist2_circuit(seed=9)
        assert np.allclose(
            adjoint_forward(circuit),
            IdealBackend(exact=True).expectations([circuit])[0],
        )
