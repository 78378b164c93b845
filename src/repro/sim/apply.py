"""Tensor-contraction application of gate matrices to state arrays.

The statevector of an ``n``-qubit system is stored as a rank-``n`` complex
tensor of shape ``(2,) * n`` whose axis ``k`` is qubit ``k``.  Applying a
``k``-qubit gate is a tensordot over the target axes followed by an axis
permutation that puts the contracted axes back in place — O(2^n) per gate
instead of the O(4^n) of building the full unitary.

Density matrices are stored as rank-``2n`` tensors of shape ``(2,) * 2n``:
axes ``0..n-1`` are the row (ket) indices and axes ``n..2n-1`` the column
(bra) indices of qubit ``0..n-1`` respectively.
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


def apply_matrix(
    state: np.ndarray, matrix: np.ndarray, wires: Sequence[int]
) -> np.ndarray:
    """Apply a gate matrix to a statevector tensor.

    Args:
        state: Complex tensor of shape ``(2,) * n``.
        matrix: ``(2^k, 2^k)`` unitary acting on ``k`` qubits.
        wires: The ``k`` qubit indices, in the gate's own wire order.

    Returns:
        New statevector tensor (input is not modified).
    """
    n_qubits = state.ndim
    wires = _check_wires(wires, n_qubits)
    k = len(wires)
    if matrix.shape != (2**k, 2**k):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k} wires"
        )
    gate = matrix.reshape((2,) * (2 * k))
    # Contract gate's input legs (axes k..2k-1) with the state's target axes.
    moved = np.tensordot(gate, state, axes=(range(k, 2 * k), wires))
    # tensordot puts the gate's output legs first; move them back to `wires`.
    return np.moveaxis(moved, range(k), wires)


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

    Each batch slice reduces to the same GEMM :func:`apply_matrix`
    performs via ``tensordot`` — same operand layouts, same contraction
    order — so the result is bit-identical to applying the matrices one
    circuit at a time.
    """
    n_qubits = states.ndim - 1
    wires = _check_wires(wires, n_qubits)
    k = len(wires)
    _check_batched_matrices(matrices, k, states.shape[0])
    # Bring the target axes (offset by the batch axis) to the front,
    # flatten to (B, 2^k, rest), batched-matmul, and restore the layout.
    return matmul_on_axes(states, matrices, [w + 1 for w in wires])


def _diag_to_axes(
    diags: np.ndarray, axes: Sequence[int], rank: int
) -> np.ndarray:
    """Reshape stacked diagonal factors to broadcast over tensor axes.

    Args:
        diags: ``(2^k,)`` shared or ``(B, 2^k)`` per-circuit diagonal
            entries; bit ``j`` of the index addresses ``axes[j]`` (most
            significant first, matching gate-matrix basis order).
        axes: ``k`` target axis positions of the stacked tensor (offset
            past its batch axis).
        rank: ``ndim`` of the stacked tensor the factor multiplies.

    Returns:
        A view-shaped array broadcastable against the stacked tensor.
    """
    k = len(axes)
    batch = diags.shape[0] if diags.ndim == 2 else 1
    tensor = diags.reshape((batch,) + (2,) * k)
    # Sort the factor's bit axes into ascending target-axis order so a
    # plain reshape lines them up with the tensor's layout.
    order = np.argsort(axes)
    tensor = np.transpose(tensor, [0] + [1 + int(j) for j in order])
    shape = [batch] + [1] * (rank - 1)
    for axis in axes:
        shape[axis] = 2
    return tensor.reshape(shape)


def apply_diag_batched(
    states: np.ndarray, diags: np.ndarray, wires: Sequence[int]
) -> np.ndarray:
    """Apply a diagonal gate to stacked states: one elementwise multiply.

    The specialized kernel for gates tagged ``diagonal`` in the registry
    (RZ, CZ, RZZ, phase, ...): ``diag(d) @ psi`` never needs a matmul.

    Args:
        states: ``(B,) + (2,) * n`` stacked statevectors.
        diags: ``(2^k,)`` shared or ``(B, 2^k)`` per-circuit diagonal
            entries of the gate unitary.
        wires: The ``k`` target qubits, in gate wire order.

    Returns:
        New stacked statevector tensor.
    """
    n_qubits = states.ndim - 1
    wires = _check_wires(wires, n_qubits)
    diags = np.asarray(diags)
    if diags.shape[-1] != 2 ** len(wires):
        raise ValueError(
            f"diagonal of length {diags.shape[-1]} does not match "
            f"{len(wires)} wires"
        )
    factor = _diag_to_axes(diags, [w + 1 for w in wires], states.ndim)
    return states * factor


def apply_diag_to_density_batched(
    rhos: np.ndarray, diags: np.ndarray, wires: Sequence[int]
) -> np.ndarray:
    """Conjugate stacked density tensors by a diagonal unitary.

    ``rho -> D rho D^dagger`` for ``D = diag(d)`` is an elementwise
    scale by ``d`` on the ket axes and ``conj(d)`` on the bra axes.
    """
    n_qubits = (rhos.ndim - 1) // 2
    wires = _check_wires(wires, n_qubits)
    diags = np.asarray(diags)
    if diags.shape[-1] != 2 ** len(wires):
        raise ValueError(
            f"diagonal of length {diags.shape[-1]} does not match "
            f"{len(wires)} wires"
        )
    ket = _diag_to_axes(diags, [w + 1 for w in wires], rhos.ndim)
    bra = _diag_to_axes(
        diags.conj(), [n_qubits + w + 1 for w in wires], rhos.ndim
    )
    return rhos * ket * bra


def _take_on_axes(
    tensor: np.ndarray, source: np.ndarray, axes: Sequence[int]
) -> np.ndarray:
    """Permute the joint index of the given axes: ``out[i] = in[source[i]]``."""
    k = len(axes)
    moved = np.moveaxis(tensor, axes, range(1, k + 1))
    shape = moved.shape
    flat = moved.reshape(tensor.shape[0], 2**k, -1)
    out = flat[:, source, :]
    return np.moveaxis(out.reshape(shape), range(1, k + 1), axes)


def _check_permutation_source(source: np.ndarray, k: int) -> np.ndarray:
    source = np.asarray(source, dtype=np.intp)
    if source.shape != (2**k,) or sorted(source.tolist()) != list(
        range(2**k)
    ):
        raise ValueError(
            f"source {source!r} is not a permutation of 0..{2 ** k - 1}"
        )
    return source


def apply_permutation_batched(
    states: np.ndarray, source: np.ndarray, wires: Sequence[int]
) -> np.ndarray:
    """Apply a permutation gate to stacked states: one index take.

    The specialized kernel for gates tagged ``permutation`` in the
    registry (X, CNOT, SWAP): a 0/1 unitary ``P`` with
    ``P[i, source[i]] = 1`` maps amplitude ``source[i]`` of the wires'
    joint index to amplitude ``i`` — no arithmetic at all.

    Args:
        states: ``(B,) + (2,) * n`` stacked statevectors.
        source: ``(2^k,)`` gather indices (``out[i] = in[source[i]]``).
        wires: The ``k`` target qubits, in gate wire order.
    """
    n_qubits = states.ndim - 1
    wires = _check_wires(wires, n_qubits)
    source = _check_permutation_source(source, len(wires))
    return _take_on_axes(states, source, [w + 1 for w in wires])


def apply_permutation_to_density_batched(
    rhos: np.ndarray, source: np.ndarray, wires: Sequence[int]
) -> np.ndarray:
    """Conjugate stacked density tensors by a permutation unitary.

    ``(P rho P^dagger)[i, j] = rho[source[i], source[j]]`` — the same
    gather on the ket and bra axes.
    """
    n_qubits = (rhos.ndim - 1) // 2
    wires = _check_wires(wires, n_qubits)
    source = _check_permutation_source(source, len(wires))
    out = _take_on_axes(rhos, source, [w + 1 for w in wires])
    return _take_on_axes(
        out, source, [n_qubits + w + 1 for w in wires]
    )


def apply_matrix_to_density(
    rho: np.ndarray, matrix: np.ndarray, wires: Sequence[int]
) -> np.ndarray:
    """Apply ``U rho U^dagger`` on the given wires of a density tensor.

    Args:
        rho: Complex tensor of shape ``(2,) * 2n``.
        matrix: ``(2^k, 2^k)`` unitary.
        wires: Qubit indices (row axes ``wires``, column axes ``n + wires``).

    Returns:
        New density tensor.
    """
    n_qubits = rho.ndim // 2
    wires = _check_wires(wires, n_qubits)
    k = len(wires)
    gate = matrix.reshape((2,) * (2 * k))
    gate_conj = matrix.conj().reshape((2,) * (2 * k))
    # Left multiplication on ket axes.
    out = np.tensordot(gate, rho, axes=(range(k, 2 * k), wires))
    out = np.moveaxis(out, range(k), wires)
    # Right multiplication (by U^dagger) on bra axes: contract conj(U)'s
    # input legs with the bra axes, which implements rho @ U^dagger.
    bra_axes = tuple(n_qubits + w for w in wires)
    out = np.tensordot(gate_conj, out, axes=(range(k, 2 * k), bra_axes))
    return np.moveaxis(out, range(k), bra_axes)


def apply_kraus_to_density(
    rho: np.ndarray, kraus_ops: Sequence[np.ndarray], wires: Sequence[int]
) -> np.ndarray:
    """Apply a Kraus channel ``rho -> sum_k K_k rho K_k^dagger``.

    Args:
        rho: Density tensor of shape ``(2,) * 2n``.
        kraus_ops: Kraus operators, each ``(2^k, 2^k)``.
        wires: Target qubits.

    Returns:
        New density tensor.
    """
    if not kraus_ops:
        raise ValueError("channel must have at least one Kraus operator")
    out = np.zeros_like(rho)
    for kraus in kraus_ops:
        out = out + apply_matrix_to_density(rho, kraus, wires)
    return out


def apply_matrix_to_density_batched(
    rhos: np.ndarray, matrices: np.ndarray, wires: Sequence[int]
) -> np.ndarray:
    """Apply ``U_b rho_b U_b^dagger`` across a stack of density tensors.

    Args:
        rhos: Complex tensor of shape ``(B,) + (2,) * 2n`` — ``B``
            density tensors stacked along axis 0 (ket axes first, then
            bra axes, as in :func:`apply_matrix_to_density`).
        matrices: ``(B, 2^k, 2^k)`` per-circuit unitaries, or one shared
            ``(2^k, 2^k)``.
        wires: Target qubits.

    Returns:
        New stacked density tensor.

    Both sides reduce to the GEMMs :func:`apply_matrix_to_density`
    performs via ``tensordot`` (left-multiply on the ket axes, then
    conj(U) on the bra axes), so every batch slice is bit-identical to
    the sequential conjugation.
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
    sequence order exactly like :func:`apply_kraus_to_density`.
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
    dim = kraus_ops[0].shape[0]
    out = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for kraus in kraus_ops:
        out += np.kron(kraus, kraus.conj())
    return out


def apply_superop_to_density(
    rho: np.ndarray, superop: np.ndarray, wire: int
) -> np.ndarray:
    """Apply a single-qubit channel superoperator to a density tensor.

    Args:
        rho: Density tensor of shape ``(2,) * 2n``.
        superop: 4x4 channel matrix from :func:`kraus_to_superop`.
        wire: Target qubit.

    Returns:
        New density tensor.
    """
    n_qubits = rho.ndim // 2
    if not 0 <= wire < n_qubits:
        raise ValueError(f"wire {wire} out of range for {n_qubits} qubits")
    if superop.shape != (4, 4):
        raise ValueError("superop must be 4x4 (single-qubit channels only)")
    tensor = superop.reshape(2, 2, 2, 2)  # (i, j, k, l): out(ij) <- in(kl)
    out = np.tensordot(tensor, rho, axes=([2, 3], [wire, n_qubits + wire]))
    return np.moveaxis(out, [0, 1], [wire, n_qubits + wire])


def expand_matrix(
    matrix: np.ndarray, wires: Sequence[int], n_qubits: int
) -> np.ndarray:
    """Embed a k-qubit gate into the full ``(2^n, 2^n)`` unitary.

    Used only by tests and small analysis utilities; the simulators never
    materialize full-system matrices on the hot path.
    """
    wires = _check_wires(wires, n_qubits)
    k = len(wires)
    if matrix.shape != (2**k, 2**k):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k} wires"
        )
    dim = 2**n_qubits
    # One contraction over all basis columns at once: the identity's
    # columns, viewed as a (2,)*n tensor with a trailing column axis,
    # go through the same tensordot/moveaxis as `apply_matrix` — column
    # ``c`` of the result is exactly apply_matrix(e_c, matrix, wires).
    eye = np.eye(dim, dtype=np.complex128).reshape((2,) * n_qubits + (dim,))
    gate = matrix.reshape((2,) * (2 * k))
    out = np.tensordot(gate, eye, axes=(range(k, 2 * k), wires))
    out = np.moveaxis(out, range(k), wires)
    return out.reshape(dim, dim)
