"""Central finite-difference Jacobians (baseline comparator).

The paper stresses that parameter shift is *not* a numerical difference:
Eq. 2 is exact at a macroscopic +/- pi/2 shift, while finite differences
approximate the derivative with a small step and therefore trade
truncation error against noise amplification (dividing shot noise by a
tiny 2*eps).  This module exists so tests and benchmarks can demonstrate
that difference quantitatively.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuits.batch import CircuitBatch
from repro.circuits.sweep import Sweep
from repro.gradients.parameter_shift import shift_sweep


def finite_difference_jacobian(
    circuit,
    backend,
    eps: float = 1e-3,
    shots: int = 1024,
    param_indices: Sequence[int] | None = None,
    purpose: str = "fd-gradient",
) -> np.ndarray:
    """Central-difference Jacobian ``(f(x+eps) - f(x-eps)) / (2 eps)``.

    Same calling convention and circuit-count cost as
    :func:`repro.gradients.parameter_shift_jacobian`, but approximate —
    and with shot noise amplified by ``1/(2 eps)``.  The circuit runs
    as a one-row :func:`finite_difference_jacobian_batch`.
    """
    return finite_difference_jacobian_batch(
        CircuitBatch([circuit]), backend, eps=eps, shots=shots,
        param_indices=param_indices, purpose=purpose,
    )[0]


def finite_difference_jacobian_batch(
    sweep: Sweep,
    backend,
    eps: float = 1e-3,
    shots: int = 1024,
    param_indices: Sequence[int] | None = None,
    purpose: str = "fd-gradient",
) -> list[np.ndarray]:
    """Central-difference Jacobians of every row of a sweep.

    Like parameter shift, all ``±eps`` rows are one
    :func:`~repro.gradients.parameter_shift.shift_sweep` (with the
    shift set to ``eps``) and go to the backend in one ``run_sweep``
    call.

    Returns:
        One ``(n_qubits, n_params)`` Jacobian per row.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if param_indices is None:
        param_indices = range(sweep.num_parameters)
    # Parameters no gate consumes have a zero column and no rows.
    used = [
        int(i) for i in param_indices if sweep.template.occurrences_of(i)
    ]
    jacobian = np.zeros(
        (sweep.size, sweep.n_qubits, sweep.num_parameters), dtype=np.float64
    )
    if used:
        shifted, index_map = shift_sweep(sweep, used, shift=eps)
        expectations = backend.run_sweep(
            shifted, shots=shots, purpose=purpose
        ).reshape(sweep.size, len(index_map), 2, sweep.n_qubits)
        slopes = (expectations[:, :, 0] - expectations[:, :, 1]) / (2.0 * eps)
        for pair, (param_index, _) in enumerate(index_map):
            jacobian[:, :, param_index] += slopes[:, pair]
    return list(jacobian)
