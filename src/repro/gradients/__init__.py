"""Gradient engines: parameter shift (the contribution) and baselines."""

from repro.gradients.adjoint_engine import (
    adjoint_engine_jacobian,
    adjoint_engine_jacobian_batch,
    adjoint_forward,
    adjoint_forward_and_jacobian_batch,
    adjoint_plan_cache,
    adjoint_plan_for,
)
from repro.gradients.finite_difference import (
    finite_difference_jacobian,
    finite_difference_jacobian_batch,
)
from repro.gradients.parameter_shift import (
    SHIFT,
    build_shifted_circuits,
    check_shiftable,
    parameter_shift_forward_and_jacobian,
    parameter_shift_jacobian,
    parameter_shift_jacobian_batch,
    shift_sweep,
)
from repro.gradients.spsa import spsa_jacobian, spsa_jacobian_batch

__all__ = [
    "SHIFT",
    "adjoint_engine_jacobian",
    "adjoint_engine_jacobian_batch",
    "adjoint_forward",
    "adjoint_forward_and_jacobian_batch",
    "adjoint_plan_cache",
    "adjoint_plan_for",
    "build_shifted_circuits",
    "check_shiftable",
    "finite_difference_jacobian",
    "finite_difference_jacobian_batch",
    "parameter_shift_forward_and_jacobian",
    "parameter_shift_jacobian",
    "parameter_shift_jacobian_batch",
    "shift_sweep",
    "spsa_jacobian",
    "spsa_jacobian_batch",
]
