"""Batched application of gate matrices to stacked state tensors.

``B`` statevectors of ``n`` qubits are stored as one ``(B,) + (2,) * n``
complex tensor whose axis ``k + 1`` is qubit ``k``.  Applying a
``k``-qubit gate brings the target axes to the front, runs one batched
matmul and puts the axes back — O(2^n) per gate and state instead of
the O(4^n) of building the full unitary.

Density matrices stack as ``(B,) + (2,) * 2n`` tensors: axes
``1..n`` are the row (ket) indices and axes ``n+1..2n`` the column
(bra) indices of qubit ``0..n-1`` respectively.

These are the kernels the compiled plans' steps and the single-state
views' ``apply_gate`` / ``apply_channel`` call; a single state is a
batch of one.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def _check_wires(wires: Sequence[int], n_qubits: int) -> tuple[int, ...]:
    wires = tuple(int(w) for w in wires)
    if len(set(wires)) != len(wires):
        raise ValueError(f"duplicate wires {wires}")
    for wire in wires:
        if not 0 <= wire < n_qubits:
            raise ValueError(f"wire {wire} out of range for {n_qubits} qubits")
    return wires


def _check_batched_matrices(
    matrices: np.ndarray, k: int, batch_size: int
) -> None:
    if matrices.shape[-2:] != (2**k, 2**k):
        raise ValueError(
            f"matrix shape {matrices.shape} does not match {k} wires"
        )
    if matrices.ndim == 3 and matrices.shape[0] != batch_size:
        raise ValueError(
            f"{matrices.shape[0]} matrices for batch of {batch_size}"
        )


def matmul_on_axes(
    tensor: np.ndarray, matrices: np.ndarray, axes: Sequence[int]
) -> np.ndarray:
    """Left-multiply stacked matrices onto the given axes of a stacked tensor.

    ``tensor`` has the batch on axis 0; ``axes`` (already offset past the
    batch axis) are brought to the front, the rest is flattened, and one
    batched matmul applies ``matrices`` (``(B, d, d)`` or shared
    ``(d, d)``).  Each batch slice reduces to the same GEMM a
    ``tensordot`` over those axes performs — same operand layouts, same
    contraction order — so the result is bit-identical to applying the
    matrices one slice at a time.
    """
    k = len(axes)
    moved = np.moveaxis(tensor, axes, range(1, k + 1))
    shape = moved.shape
    out = np.matmul(matrices, moved.reshape(tensor.shape[0], 2**k, -1))
    return np.moveaxis(out.reshape(shape), range(1, k + 1), axes)


def apply_matrix_batched(
    states: np.ndarray, matrices: np.ndarray, wires: Sequence[int]
) -> np.ndarray:
    """Apply per-circuit (or one shared) gate matrix to stacked states.

    Args:
        states: Complex tensor of shape ``(B,) + (2,) * n`` — ``B``
            statevectors stacked along axis 0.
        matrices: Either ``(B, 2^k, 2^k)`` (one matrix per circuit) or
            ``(2^k, 2^k)`` (one matrix shared by the whole batch).
        wires: The ``k`` target qubits, in gate wire order.

    Returns:
        New stacked statevector tensor.

    Each batch slice reduces to the same GEMM — same operand layouts,
    same contraction order — so the result is bit-identical to applying
    the matrices one circuit at a time.
    """
    n_qubits = states.ndim - 1
    wires = _check_wires(wires, n_qubits)
    k = len(wires)
    _check_batched_matrices(matrices, k, states.shape[0])
    # Bring the target axes (offset by the batch axis) to the front,
    # flatten to (B, 2^k, rest), batched-matmul, and restore the layout.
    return matmul_on_axes(states, matrices, [w + 1 for w in wires])


def apply_matrix_to_density_batched(
    rhos: np.ndarray, matrices: np.ndarray, wires: Sequence[int]
) -> np.ndarray:
    """Apply ``U_b rho_b U_b^dagger`` across a stack of density tensors.

    Args:
        rhos: Complex tensor of shape ``(B,) + (2,) * 2n`` — ``B``
            density tensors stacked along axis 0 (ket axes first, then
            bra axes).
        matrices: ``(B, 2^k, 2^k)`` per-circuit unitaries, or one shared
            ``(2^k, 2^k)``.
        wires: Target qubits.

    Returns:
        New stacked density tensor.

    Left-multiplies ``U`` on the ket axes, then ``conj(U)`` on the bra
    axes (which implements ``rho @ U^dagger``); every batch slice is
    bit-identical to conjugating that state alone.
    """
    n_qubits = (rhos.ndim - 1) // 2
    wires = _check_wires(wires, n_qubits)
    k = len(wires)
    _check_batched_matrices(matrices, k, rhos.shape[0])
    out = matmul_on_axes(rhos, matrices, [w + 1 for w in wires])
    return matmul_on_axes(
        out, matrices.conj(), [n_qubits + w + 1 for w in wires]
    )


def apply_kraus_to_density_batched(
    rhos: np.ndarray, kraus_ops: Sequence[np.ndarray], wires: Sequence[int]
) -> np.ndarray:
    """Apply one Kraus channel to every density tensor of a stack.

    The channel is shared batch-wide (a noise model's channels depend on
    the gate type, never on angle values); operators are accumulated in
    sequence order.
    """
    if not kraus_ops:
        raise ValueError("channel must have at least one Kraus operator")
    out = np.zeros_like(rhos)
    for kraus in kraus_ops:
        out = out + apply_matrix_to_density_batched(rhos, kraus, wires)
    return out


def kraus_to_superop(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized channel matrix ``S = sum_k K_k (x) conj(K_k)``.

    Acting on row-major vectorized density matrices:
    ``vec(rho') = S @ vec(rho)``.  For single-qubit channels S is 4x4,
    which lets the density simulator apply a whole composed channel stack
    with one tensor contraction instead of one per Kraus operator.
    """
    if not kraus_ops:
        raise ValueError("channel must have at least one Kraus operator")
    ops = np.asarray(kraus_ops, dtype=np.complex128)
    count, dim, _ = ops.shape
    # Every np.kron(K, conj(K)) at once: [(i, k), (j, l)] = K_ij conj(K_kl).
    terms = (ops[:, :, None, :, None] * ops.conj()[:, None, :, None, :])
    out = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for term in terms.reshape(count, dim * dim, dim * dim):
        out += term
    return out
