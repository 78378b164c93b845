"""Adjoint-mode analytic differentiation of circuit expectations.

Computes the exact Jacobian ``d<O_t>/d theta_i`` of Pauli-Z-word
observables with respect to all trainable parameters in a single forward
pass plus one backward sweep — O(gates) statevector applications instead
of the O(2 * n_params * gates) of parameter shift.  This powers the fast
noise-free Classical-Train baseline; agreement with parameter shift on
the ideal backend is the central correctness invariant of the repo (see
``tests/test_gradient_baselines.py`` and ``tests/test_adjoint_batched.py``).

Derivation: with ``|psi_j> = U_j ... U_1 |0>`` and
``<b_j| = <psi_N| O U_N ... U_{j+1}``, the derivative of
``f = <psi_N|O|psi_N>`` w.r.t. the parameter of gate ``j`` (of generator
``G``, ``U_j = exp(-i theta G / 2)``) is ``Im(<b_j| G |psi_j>)``.

One sweep implementation serves every entry point:
:func:`adjoint_expectation_and_jacobian_batch`.  ``B`` same-structure
circuits run one vectorized forward pass through a compiled
:class:`~repro.sim.compile.ExecutionPlan` on a
:class:`~repro.sim.batched.BatchedStatevector`, then one backward
reverse-replay of the plan's :meth:`~repro.sim.compile.ExecutionPlan.
adjoint` lowering advances the ket and every observable bra of every
circuit together in a single circuit-major ``(B, 1 + T) + (2,)*n``
stack: per-circuit inverses broadcast over each circuit's ``1 + T``
rows, and each trainable-gate contraction is one batched GEMV of the
``T`` bras against the generator-applied ket.  Each per-circuit slice
is bit-identical to running the same plan as a batch of one — the
kernels reduce each slice to the same GEMMs, GEMVs and elementwise
products regardless of batch size.  The single-circuit entry points
are batches of one, and ``plan=None`` compiles the structure's plan
for the call.
"""

from __future__ import annotations

import numpy as np

from repro.sim import compile as _compile
from repro.sim.batched import BatchedStatevector


def _default_observables(n_qubits: int) -> tuple[tuple[int, ...], ...]:
    """Per-qubit ``Z_k`` — the measurement layer of the paper's QNN."""
    return tuple((k,) for k in range(n_qubits))


def _check_observables(
    n_qubits: int, observables
) -> tuple[tuple[int, ...], ...]:
    """Normalize Z-word observables, rejecting unusable ones."""
    obs = tuple(tuple(int(w) for w in wires) for wires in observables)
    if not obs:
        raise ValueError("need at least one observable")
    for wires in obs:
        for wire in wires:
            if not 0 <= wire < n_qubits:
                raise ValueError(
                    f"observable wire {wire} out of range for "
                    f"{n_qubits} qubits"
                )
            if wires.count(wire) > 1:
                raise ValueError(
                    f"observable {wires} repeats wire {wire}"
                )
    return obs


def _observable_signs(
    n_qubits: int, observables: tuple[tuple[int, ...], ...]
) -> np.ndarray:
    """``(T,) + (2,)*n`` sign tensors of the Z-word observables.

    Entry ``t`` is the diagonal of ``prod_{w in observables[t]} Z_w`` as
    a broadcastable tensor — multiplying a ket by it is exactly applying
    the observable (every entry is ``+-1``, so the elementwise product
    is an exact sign flip, bit-identical to the Z matmuls).
    """
    z_diag = np.array([1.0, -1.0])
    one = np.ones(2)
    signs = np.empty((len(observables),) + (2,) * n_qubits, dtype=np.float64)
    for index, wires in enumerate(observables):
        tensor = np.array(1.0)
        for qubit in range(n_qubits):
            tensor = np.multiply.outer(
                tensor, z_diag if qubit in wires else one
            )
        signs[index] = tensor
    return signs


def adjoint_expectation_and_jacobian_batch(
    circuits, plan=None, observables=None
) -> tuple[np.ndarray, np.ndarray]:
    """Batched adjoint sweep over same-structure circuits.

    One vectorized forward pass and one backward reverse-replay compute
    every observable expectation and its full Jacobian for every
    circuit.

    Args:
        circuits: Non-empty sequence of structurally identical
            :class:`~repro.circuits.QuantumCircuit` objects, or a
            :class:`~repro.circuits.sweep.Sweep` (one structure group).
        plan: Compiled statevector :class:`~repro.sim.compile.
            ExecutionPlan` for the shared structure; ``None`` compiles
            one for this call.
        observables: Optional sequence of Z-word wire tuples (e.g.
            ``[(0,), (1, 3)]`` for ``Z_0`` and ``Z_1 Z_3``); defaults to
            the per-qubit ``Z_k`` measurement layer.  An empty
            sequence, a wire outside the register or a wire repeated
            within one word raises ``ValueError``.

    Returns:
        ``(expectations, jacobians)`` with shapes ``(B, T)`` and
        ``(B, T, n_params)``; multiple occurrences of one parameter are
        summed, matching Sec. 3.1's multi-occurrence rule.
    """
    # Deferred import: repro.circuits pulls the gate registry out of
    # repro.sim at package-init time, so a module-level import here
    # would be circular.
    from repro.circuits.batch import CircuitBatch
    from repro.circuits.sweep import Sweep

    if isinstance(circuits, Sweep):
        batch = circuits
    else:
        circuits = list(circuits)
        if not circuits:
            raise ValueError("need at least one circuit")
        batch = CircuitBatch(circuits)
    n_qubits = batch.n_qubits
    n_params = batch.num_parameters
    if observables is None:
        obs = _default_observables(n_qubits)
    else:
        obs = _check_observables(n_qubits, observables)

    if plan is None:
        plan = _compile.compile_circuit(batch, mode="statevector")
    # Build (and thereby validate) the backward lowering before paying
    # for the forward pass — unsupported trainable gates fail up front.
    adjoint = plan.adjoint()
    size = batch.size
    # One preparation serves the forward replay and the backward pass.
    matrices = plan.prepare(batch)
    state = BatchedStatevector(n_qubits, size).evolve(
        batch, plan=plan, matrices=matrices
    )
    signs = _observable_signs(n_qubits, obs)
    if observables is None:
        expectations = state.expectation_z()
    else:
        # One (1, 2^n) @ (2^n, T) product per circuit, so a row never
        # depends on the batch it rides in.
        expectations = np.matmul(
            state.probabilities()[:, None, :],
            signs.reshape(len(obs), -1).T,
        )[:, 0]

    jacobian = np.zeros((size, len(obs), n_params), dtype=np.float64)
    if any(template.param_index is not None for template in batch.templates):
        # Circuit-major stack: each circuit's ket, then its bras (the
        # ket scaled by each observable's sign diagonal).
        combined = np.empty(
            (size, 1 + len(obs)) + (2,) * n_qubits, dtype=np.complex128
        )
        combined[:, 0] = state.tensor
        np.multiply(state.tensor[:, None], signs, out=combined[:, 1:])
        adjoint.run(combined, batch, jacobian, matrices)
    return expectations, jacobian


def adjoint_jacobian(circuit, plan=None) -> np.ndarray:
    """Exact Jacobian of per-qubit Z expectations w.r.t. trainable params.

    Args:
        circuit: a :class:`repro.circuits.QuantumCircuit`.  All trainable
            operations must use shift-rule gates (single-parameter Pauli
            rotations), which is true of every ansatz in the paper.
        plan: Compiled statevector plan for the circuit's structure
            (``None`` compiles one).  The circuit rides the batched
            adjoint kernel as a batch of one, bit-identical to its slice
            of any larger batch.

    Returns:
        Array of shape ``(n_qubits, n_params)`` where entry ``(k, i)`` is
        ``d<Z_k>/d theta_i``.  Multiple occurrences of one parameter are
        summed, matching Sec. 3.1's multi-occurrence rule.
    """
    _, jacobians = adjoint_expectation_and_jacobian_batch(
        [circuit], plan=plan
    )
    return jacobians[0]


def adjoint_expectation_and_jacobian(
    circuit, plan=None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``<Z>`` vector and its Jacobian from one forward pass.

    The forward state is computed once and reused by the backward sweep.
    """
    expectations, jacobians = adjoint_expectation_and_jacobian_batch(
        [circuit], plan=plan
    )
    return expectations[0], jacobians[0]
