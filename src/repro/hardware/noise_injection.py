"""Noise-injection backend wrapper (QuantumNAT-style, the paper's ref [18]).

The paper's Table 1 shows Classical-Train losing accuracy when deployed
on a real device — the sim-to-real gap.  The companion work the paper
cites (QuantumNAT: "Quantum Noise-Aware Training with Noise Injection,
Quantization and Normalization", DAC'22) closes part of that gap by
*injecting* device-like perturbations into cheap classical simulation
during training, so the learned parameters are robust to them.

``NoiseInjectionBackend`` wraps any backend (typically the exact ideal
simulator) and perturbs its expectation values with the two dominant
device effects seen through the measurement interface:

* multiplicative **shrinkage** toward zero (decoherence + readout bias
  contract |<Z>|), and
* additive **Gaussian jitter** (shot noise + stochastic gate error).

The injection parameters can be fit from a device calibration so the
wrapper tracks a specific machine without ever simulating its density
matrix.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.backend import Backend
from repro.noise.calibration import DeviceCalibration


class NoiseInjectionBackend(Backend):
    """Wraps a backend and perturbs its expectation values.

    Args:
        inner: The backend whose results are perturbed (usually an exact
            :class:`~repro.hardware.backend.IdealBackend`).
        shrink: Multiplicative contraction of expectations toward zero
            (``0`` = none, ``0.1`` = 10% contraction).
        sigma: Standard deviation of the additive Gaussian jitter.
        seed: Jitter RNG seed.
    """

    def __init__(
        self,
        inner: Backend,
        shrink: float = 0.05,
        sigma: float = 0.03,
        seed: int | None = None,
    ):
        super().__init__(seed=seed)
        if not 0.0 <= shrink < 1.0:
            raise ValueError("shrink must be in [0, 1)")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.inner = inner
        self.shrink = float(shrink)
        self.sigma = float(sigma)
        self.name = f"noise-injected({inner.name})"

    @classmethod
    def from_calibration(
        cls,
        inner: Backend,
        calibration: DeviceCalibration,
        gates_per_circuit: int = 30,
        shots: int = 1024,
        seed: int | None = None,
    ) -> "NoiseInjectionBackend":
        """Derive injection strength from a device calibration.

        Shrinkage accumulates one depolarizing-style contraction per gate
        plus the readout confusion's contraction; jitter follows the
        binomial shot-noise scale ``1/sqrt(shots)``.
        """
        per_gate = (
            calibration.sq_gate_error + calibration.cx_gate_error
        ) / 2.0
        gate_shrink = 1.0 - (1.0 - per_gate) ** gates_per_circuit
        readout_shrink = calibration.readout_p01 + calibration.readout_p10
        shrink = min(0.95, gate_shrink + readout_shrink)
        sigma = 1.0 / np.sqrt(shots)
        return cls(inner, shrink=shrink, sigma=sigma, seed=seed)

    def exact_execution(self) -> bool:
        """The wrapped backend's answer: jitter never draws shots."""
        return self.inner.exact_execution()

    def _execute_sweep(self, sweep, shots: int):
        """The inner backend's kernel, then shrink and one jitter draw.

        The ``(B, n_qubits)`` draw fills row by row, the stream order
        of one draw per row.
        """
        expectations, outcomes = self.inner._execute_sweep(sweep, shots)
        noisy = expectations * (1.0 - self.shrink)
        if self.sigma > 0:
            noisy = noisy + self._rng.normal(
                0.0, self.sigma, size=noisy.shape
            )
        return np.clip(noisy, -1.0, 1.0), outcomes
