"""Adjoint gradient engine with the backend-style calling convention.

Wraps :mod:`repro.sim.adjoint` in the same signature as the hardware
gradient estimators so the TrainingEngine can swap engines freely.
Adjoint differentiation is exact, noise-free, and needs no circuit
executions — it is the engine behind the Classical-Train baseline.

The batch entry points mirror :func:`~repro.gradients.parameter_shift.
parameter_shift_jacobian_batch`: circuits are grouped by cached
structure signature (exactly like ``Backend.run``; a
:class:`~repro.circuits.sweep.Sweep` is one group), each group pulls
its compiled :class:`~repro.sim.compile.ExecutionPlan` from a
structure-keyed :class:`~repro.sim.compile.PlanCache`, and one batched
forward pass plus one backward reverse-replay serves the whole group.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuits.batch import CircuitBatch, group_by_structure
from repro.circuits.sweep import Sweep
from repro.sim import compile as _compile
from repro.sim.adjoint import adjoint_expectation_and_jacobian_batch
from repro.sim.statevector import Statevector

#: Structure-keyed plan cache for sweeps without a (suitable) backend —
#: backendless calls and noisy/sharded backends whose own caches hold
#: plans of the wrong mode.
_SHARED_PLAN_CACHE = _compile.PlanCache(128)


def adjoint_plan_cache() -> _compile.PlanCache:
    """The engine's shared plan cache (for stats reporting and tests)."""
    return _SHARED_PLAN_CACHE


def adjoint_plan_for(circuit, backend=None):
    """Resolve the cached compiled statevector plan for a circuit.

    An exact backend's own ``plan_cache`` is preferred so forward
    execution and adjoint sweeps share compiled plans; noisy backends
    cache *density* plans under the same structure keys, so anything
    else falls back to the engine's shared statevector cache.
    """
    cache = _SHARED_PLAN_CACHE
    if (
        backend is not None
        and getattr(backend, "plan_cache", None) is not None
        and backend.exact_execution()
    ):
        cache = backend.plan_cache
    return cache.get_or_compile(
        circuit.structure_signature(),
        lambda: _compile.compile_circuit(circuit, mode="statevector"),
    )


def _mask_columns(
    jacobian: np.ndarray, param_indices: Sequence[int] | None
) -> np.ndarray:
    """Zero the columns of unselected parameters (pruning semantics).

    The full Jacobian is computed either way — it costs a single sweep —
    but masking keeps pruning behavior identical across engines, and so
    does rejecting an index outside ``[0, n_params)`` the way parameter
    shift does.
    """
    if param_indices is None:
        return jacobian
    n_params = jacobian.shape[-1]
    mask = np.zeros(n_params, dtype=bool)
    for index in param_indices:
        if not 0 <= index < n_params:
            raise ValueError(f"parameter {index} is unused in the circuit")
        mask[index] = True
    return jacobian * mask[None, :]


def _sweep_groups(circuits, backend):
    """One batched adjoint sweep per structure group, scattered back.

    ``circuits`` is a sequence of circuits or one
    :class:`~repro.circuits.sweep.Sweep` (a single structure group).

    Returns ``(expectations, jacobians)`` in submission order —
    ``(N, n_qubits)`` stacked expectations and a list of
    ``(n_qubits, n_params)`` Jacobians.
    """
    if isinstance(circuits, Sweep):
        groups = [(range(circuits.size), circuits)]
    else:
        groups = [
            (positions, CircuitBatch(members))
            for positions, members in group_by_structure(list(circuits))
        ]
    total = sum(len(positions) for positions, _ in groups)
    width = groups[0][1].n_qubits if groups else 0
    expectations = np.empty((total, width), dtype=np.float64)
    jacobians: list = [None] * total
    for positions, sweep in groups:
        exp, jac = adjoint_expectation_and_jacobian_batch(
            sweep, plan=adjoint_plan_for(sweep, backend)
        )
        for row, position in enumerate(positions):
            expectations[position] = exp[row]
            jacobians[position] = jac[row]
    return expectations, jacobians


def adjoint_engine_jacobian_batch(
    circuits,
    backend=None,
    shots: int = 0,
    param_indices: Sequence[int] | None = None,
    purpose: str = "adjoint",
) -> list[np.ndarray]:
    """Exact Jacobians for a mixed-structure submission, one per circuit.

    Groups by cached structure signature (like ``Backend.run``) and runs
    one batched sweep per group — a :class:`~repro.circuits.sweep.
    Sweep` is one group; ``backend``/``shots``/``purpose`` keep API
    parity with the sampling estimators (adjoint executes no backend
    circuits, so nothing is metered).
    """
    _, jacobians = _sweep_groups(circuits, backend)
    return [_mask_columns(jacobian, param_indices) for jacobian in jacobians]


def adjoint_forward_and_jacobian_batch(
    circuits,
    backend=None,
    shots: int = 0,
    param_indices: Sequence[int] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Expectations and Jacobians from one forward pass per group.

    The combined entry point of the adjoint training step: the batched
    forward state is reused by the backward sweep, so each circuit is
    simulated exactly once per step instead of twice.  ``circuits``
    may be a :class:`~repro.circuits.sweep.Sweep`.  The forward
    values are metered on ``backend`` under the ``"forward"`` purpose —
    the same accounting a separate ``backend.expectations`` call would
    have produced — keeping the paper's inference counts comparable
    across gradient engines.
    """
    expectations, jacobians = _sweep_groups(circuits, backend)
    masked = [_mask_columns(jacobian, param_indices) for jacobian in jacobians]
    if backend is not None and jacobians:
        backend.meter.record(len(jacobians), 0, "forward")
    return expectations, masked


def adjoint_engine_jacobian(
    circuit,
    backend=None,
    shots: int = 0,
    param_indices: Sequence[int] | None = None,
    purpose: str = "adjoint",
) -> np.ndarray:
    """Exact Jacobian; ``backend``/``shots`` accepted for API parity.

    When ``param_indices`` restricts the parameter set, unselected columns
    are zeroed (the full Jacobian is computed — it costs a single sweep —
    but masking keeps pruning semantics identical across engines).
    """
    jacobians = adjoint_engine_jacobian_batch(
        [circuit],
        backend=backend,
        shots=shots,
        param_indices=param_indices,
        purpose=purpose,
    )
    return jacobians[0]


def adjoint_forward(circuit, backend=None, shots: int = 0) -> np.ndarray:
    """Exact expectation vector (API parity with backend forward runs)."""
    state = Statevector(circuit.n_qubits).evolve(
        circuit, plan=adjoint_plan_for(circuit, backend)
    )
    return np.asarray(state.expectation_z(), dtype=np.float64)
