"""Dense Kronecker-product reference for circuit expectations.

Independent of ``repro.sim``: every gate becomes a full ``2^n x 2^n``
operator (or, for diagonal gates, a full diagonal) built from
Kronecker products of its own matrices, applied to a dense state
vector.  Qubit 0 is the most significant bit of a basis index, the
convention ``repro.sim.gates`` documents.  Fine up to about 12 qubits.
"""

from __future__ import annotations

import numpy as np

_I = np.eye(2, dtype=np.complex128)


def _rotation(generator: np.ndarray, theta: float) -> np.ndarray:
    return (
        np.cos(theta / 2) * np.eye(len(generator), dtype=np.complex128)
        - 1j * np.sin(theta / 2) * generator
    )


_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.diag([1, -1]).astype(np.complex128)

#: Gate name -> matrix factory over the gate's angles.
GATES = {
    "rx": lambda t: _rotation(_X, t),
    "ry": lambda t: _rotation(_Y, t),
    "rz": lambda t: _rotation(_Z, t),
    "rzz": lambda t: _rotation(np.kron(_Z, _Z), t),
    "rxx": lambda t: _rotation(np.kron(_X, _X), t),
    "cz": lambda: np.diag([1, 1, 1, -1]).astype(np.complex128),
    "cx": lambda: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=np.complex128,
    ),
}


def _kron_all(factors) -> np.ndarray:
    result = np.ones((1,) * factors[0].ndim, dtype=np.complex128)
    for factor in factors:
        result = np.kron(result, factor)
    return result


def _basis_projector(row: int, col: int) -> np.ndarray:
    out = np.zeros((2, 2), dtype=np.complex128)
    out[row, col] = 1.0
    return out


def full_operator(matrix: np.ndarray, wires, n_qubits: int) -> np.ndarray:
    """``matrix`` on ``wires`` as a dense ``2^n x 2^n`` operator.

    On ascending adjacent wires this is ``I (x) U (x) I``; otherwise
    ``U = sum U[i, j] |i><j|`` is expanded term by term, each term a
    Kronecker product of single-qubit factors with identities on the
    other wires.
    """
    k = len(wires)
    dim = 2**n_qubits
    first = wires[0]
    if tuple(wires) == tuple(range(first, first + k)):
        left = np.eye(2**first, dtype=np.complex128)
        right = np.eye(2 ** (n_qubits - first - k), dtype=np.complex128)
        return np.kron(np.kron(left, matrix), right)
    total = np.zeros((dim, dim), dtype=np.complex128)
    for i, j in zip(*np.nonzero(matrix)):
        factors = [_I] * n_qubits
        for slot, wire in enumerate(wires):
            shift = k - 1 - slot
            factors[wire] = _basis_projector(
                (i >> shift) & 1, (j >> shift) & 1
            )
        total += matrix[i, j] * _kron_all(factors)
    return total


def full_diagonal(diagonal: np.ndarray, wires, n_qubits: int) -> np.ndarray:
    """Diagonal of a diagonal gate on ``wires`` over the full register."""
    k = len(wires)
    total = np.zeros(2**n_qubits, dtype=np.complex128)
    for i, value in enumerate(diagonal):
        factors = [np.ones(2, dtype=np.complex128)] * n_qubits
        for slot, wire in enumerate(wires):
            factor = np.zeros(2, dtype=np.complex128)
            factor[(i >> (k - 1 - slot)) & 1] = 1.0
            factors[wire] = factor
        total += value * _kron_all(factors)
    return total


def expectations_z(circuit) -> np.ndarray:
    """Per-qubit ``<Z>`` of a bound circuit, by dense evolution."""
    n = circuit.n_qubits
    state = np.zeros(2**n, dtype=np.complex128)
    state[0] = 1.0
    for op in circuit.operations:
        matrix = GATES[op.name](*op.params)
        if np.count_nonzero(matrix - np.diag(np.diag(matrix))) == 0:
            state = full_diagonal(np.diag(matrix), op.wires, n) * state
        else:
            state = full_operator(matrix, op.wires, n) @ state
    probs = np.abs(state) ** 2
    indices = np.arange(2**n)
    return np.array(
        [
            probs @ (1.0 - 2.0 * ((indices >> (n - 1 - q)) & 1))
            for q in range(n)
        ]
    )
