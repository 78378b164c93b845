"""SPSA Jacobian estimation (baseline comparator).

Simultaneous Perturbation Stochastic Approximation estimates all partial
derivatives from a *constant* number of circuit runs per sample by
perturbing every parameter at once with a random +/-1 (Rademacher)
direction.  It is the standard low-cost alternative to parameter shift on
hardware; benchmarks use it to show the bias/variance trade-off that makes
exact parameter shift (plus pruning) the better choice at the paper's
parameter counts.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.batch import CircuitBatch
from repro.circuits.sweep import Sweep


def spsa_jacobian(
    circuit,
    backend,
    n_samples: int = 4,
    c: float = 0.1,
    shots: int = 1024,
    rng: np.random.Generator | None = None,
    purpose: str = "spsa-gradient",
) -> np.ndarray:
    """SPSA estimate of the Jacobian ``d<Z_k>/d theta_i``.

    Each sample draws a Rademacher direction ``delta``, evaluates
    ``f(theta + c*delta)`` and ``f(theta - c*delta)`` (2 circuit runs
    total, independent of parameter count), and forms the rank-one
    estimate ``(f+ - f-) / (2 c) (x) delta``; samples are averaged.
    The circuit runs as a one-row :func:`spsa_jacobian_batch`.

    Args:
        circuit: Bound circuit.
        backend: Execution backend.
        n_samples: Number of random-direction samples to average.
        c: Perturbation magnitude.
        shots: Shots per circuit run.
        rng: Direction sampler (defaults to a fresh generator).
        purpose: Usage-meter tag.

    Returns:
        ``(n_qubits, n_params)`` Jacobian estimate.
    """
    return spsa_jacobian_batch(
        CircuitBatch([circuit]), backend, n_samples=n_samples, c=c,
        shots=shots, rng=rng, purpose=purpose,
    )[0]


def spsa_jacobian_batch(
    sweep: Sweep,
    backend,
    n_samples: int = 4,
    c: float = 0.1,
    shots: int = 1024,
    rng: np.random.Generator | None = None,
    purpose: str = "spsa-gradient",
) -> list[np.ndarray]:
    """SPSA Jacobians of every row of a sweep, in one ``run_sweep``.

    Row ``b`` expands to ``2 x n_samples`` rows with parameters
    ``theta_b + c*delta, theta_b - c*delta`` per sample.  Directions
    are drawn row by row, then sample by sample — the order of one
    :func:`spsa_jacobian` call per row.

    Returns:
        One ``(n_qubits, n_params)`` estimate per row.
    """
    if n_samples < 1:
        raise ValueError("need at least one SPSA sample")
    if c <= 0:
        raise ValueError("perturbation c must be positive")
    rng = rng if rng is not None else np.random.default_rng()

    n_params = sweep.num_parameters
    deltas = np.array([
        [rng.integers(0, 2, size=n_params) * 2.0 - 1.0
         for _ in range(n_samples)]
        for _ in range(sweep.size)
    ])
    theta = sweep.params[:, None, :]
    params = np.stack(
        [theta + c * deltas, theta - c * deltas], axis=2
    ).reshape(-1, n_params)
    perturbed = Sweep(
        sweep.template,
        np.repeat(sweep.literals, 2 * n_samples, axis=0),
        params,
    )
    expectations = backend.run_sweep(
        perturbed, shots=shots, purpose=purpose
    ).reshape(sweep.size, n_samples, 2, sweep.n_qubits)
    jacobian = np.zeros(
        (sweep.size, sweep.n_qubits, n_params), dtype=np.float64
    )
    for sample in range(n_samples):
        f_plus = expectations[:, sample, 0]
        f_minus = expectations[:, sample, 1]
        slope = (f_plus - f_minus) / (2.0 * c)  # shape (B, n_qubits)
        jacobian += slope[:, :, None] * (1.0 / deltas[:, sample, None, :])
    return list(jacobian / n_samples)
