"""Array helpers shared by the compiled plans and readout.

``B`` statevectors of ``n`` qubits are stored as one ``(B,) + (2,) * n``
complex tensor whose axis ``k + 1`` is qubit ``k``; density matrices
stack as ``(B,) + (2,) * 2n`` tensors whose axes ``1..n`` are the row
(ket) and ``n+1..2n`` the column (bra) indices of qubits ``0..n-1``.

States evolve only by compiled-plan replay (:mod:`repro.sim.compile`).
This module keeps the two pieces that live outside a plan's steps:
:func:`matmul_on_axes` (readout confusion, constant folding, Pauli-word
expectations) and :func:`kraus_to_superop` (the compiler's and the
noise model's channel superoperators).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


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
