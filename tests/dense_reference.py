"""Independent dense reference oracle for the simulators.

Builds every operator as a full matrix from Kronecker products — a
``2^n x 2^n`` unitary per gate, a ``4^n x 4^n`` superoperator per gate
and per noise channel — straight from the gate registry's matrices and a
noise model's Kraus operators.  It shares no code with the simulator
under test (``repro.sim.compile``'s plans, the batched engines and their
single-state views), so agreement with it is evidence the compiled
plans are right, not just self-consistent.  Practical up to about 8 qubits for statevectors and 5
for density matrices; :func:`statevector_by_gates` applies the same
matrix elements without building them, for wider statevectors.

Conventions match the simulators: qubit 0 is the most significant bit of
a basis index, and a density matrix is vectorized row-major, so
``vec(A rho B) = kron(A, B.T) @ vec(rho)``.
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np

from repro.sim.gates import get_gate

_I2 = np.eye(2, dtype=np.complex128)


def _unit(row: int, col: int) -> np.ndarray:
    out = np.zeros((2, 2), dtype=np.complex128)
    out[row, col] = 1.0
    return out


def embed(matrix: np.ndarray, wires, n_qubits: int) -> np.ndarray:
    """Lift a ``k``-qubit matrix on ``wires`` to the full register.

    Sums ``matrix[r, c]`` times the Kronecker product of single-qubit
    matrix units ``|r_t><c_t|`` on the gate's wires (identity elsewhere),
    which handles any wire order and non-adjacent wires alike.
    """
    wires = tuple(wires)
    k = len(wires)
    full = np.zeros((2**n_qubits, 2**n_qubits), dtype=np.complex128)
    for r, c in itertools.product(range(2**k), repeat=2):
        if matrix[r, c] == 0:
            continue
        factors = [_I2] * n_qubits
        for t, wire in enumerate(wires):
            shift = k - 1 - t
            factors[wire] = _unit((r >> shift) & 1, (c >> shift) & 1)
        full += matrix[r, c] * reduce(np.kron, factors)
    return full


def kron_permute(matrix: np.ndarray, axes, n_qubits: int) -> np.ndarray:
    """Lift a ``k``-qubit matrix onto ``axes`` by Kronecker product.

    ``kron(matrix, I)`` acts on the first ``k`` qubits in the gate's
    wire order; transposing its ``(2,) * 2n`` index tensor then moves
    gate qubit ``t`` to axis ``axes[t]`` and the identity's qubits, in
    order, to the remaining axes.  With no identity qubits left the
    matrix is only permuted.
    """
    axes = list(axes)
    k = len(axes)
    full = matrix
    if k < n_qubits:
        eye = np.eye(2 ** (n_qubits - k), dtype=np.complex128)
        full = np.kron(matrix, eye)
    source = axes + [a for a in range(n_qubits) if a not in axes]
    order = [int(t) for t in np.argsort(source)]
    tensor = full.reshape((2,) * (2 * n_qubits))
    tensor = tensor.transpose(order + [n_qubits + t for t in order])
    return tensor.reshape(2**n_qubits, 2**n_qubits)


def gate_unitary(op, n_qubits: int) -> np.ndarray:
    return embed(get_gate(op.name).matrix(*op.params), op.wires, n_qubits)


def unitary(circuit) -> np.ndarray:
    """The circuit's full ``2^n x 2^n`` unitary."""
    dim = 2**circuit.n_qubits
    total = np.eye(dim, dtype=np.complex128)
    for op in circuit.operations:
        total = gate_unitary(op, circuit.n_qubits) @ total
    return total


def statevector(circuit) -> np.ndarray:
    """Output amplitudes of the circuit on ``|0...0>``."""
    return unitary(circuit)[:, 0]


def gate_action(op, n_qubits: int, vector: np.ndarray) -> np.ndarray:
    """``gate_unitary(op, n_qubits) @ vector`` without building the matrix.

    Entry ``(i, j)`` of the embedded unitary is ``matrix[r, c]`` when
    ``i`` and ``j`` agree off the gate's wires (``r`` and ``c`` being
    their bits on the wires) and 0 otherwise, so the product is one
    gathered multiply-add per column pattern ``c`` — the same matrix
    elements, at ``O(2^n)`` memory, which keeps 10-qubit references
    cheap.
    """
    matrix = get_gate(op.name).matrix(*op.params)
    k = len(op.wires)
    shifts = [n_qubits - 1 - wire for wire in op.wires]
    index = np.arange(2**n_qubits)
    local = sum(
        ((index >> shift) & 1) << (k - 1 - t) for t, shift in enumerate(shifts)
    )
    rest = index & ~sum(1 << shift for shift in shifts)
    out = np.zeros(2**n_qubits, dtype=np.complex128)
    for c in range(2**k):
        source = rest | sum(
            ((c >> (k - 1 - t)) & 1) << shift
            for t, shift in enumerate(shifts)
        )
        out += matrix[local, c] * vector[source]
    return out


def statevector_by_gates(circuit) -> np.ndarray:
    """:func:`statevector` by :func:`gate_action`, practical to ~16 qubits."""
    vector = np.zeros(2**circuit.n_qubits, dtype=np.complex128)
    vector[0] = 1.0
    for op in circuit.operations:
        vector = gate_action(op, circuit.n_qubits, vector)
    return vector


def _superop(kraus_ops, wires, n_qubits: int) -> np.ndarray:
    total = 0
    for kraus in kraus_ops:
        full = embed(np.asarray(kraus, dtype=np.complex128), wires, n_qubits)
        total = total + np.kron(full, full.conj())
    return total


def density_matrix(circuit, noise_model=None) -> np.ndarray:
    """Output density matrix, channels after each gate (``channels_for``)."""
    n = circuit.n_qubits
    dim = 2**n
    vec = np.zeros(dim * dim, dtype=np.complex128)
    vec[0] = 1.0
    # The model hands out the same Kraus lists per gate type; each entry
    # keeps its list alive so the id key stays unique.
    channels = {}
    for op in circuit.operations:
        u = gate_unitary(op, n)
        vec = np.kron(u, u.conj()) @ vec
        if noise_model is None:
            continue
        for kraus_ops, wires in noise_model.channels_for(op):
            key = (id(kraus_ops), tuple(wires))
            if key not in channels:
                channels[key] = (kraus_ops, _superop(kraus_ops, wires, n))
            vec = channels[key][1] @ vec
    return vec.reshape(dim, dim)


def probabilities(circuit, noise_model=None) -> np.ndarray:
    """Born-rule distribution of the (possibly noisy) output state."""
    if noise_model is None:
        return np.abs(statevector(circuit)) ** 2
    return np.real(np.diag(density_matrix(circuit, noise_model)))


def expectations_z(probs: np.ndarray) -> np.ndarray:
    """Per-qubit ``<Z_k>`` of a distribution over ``n`` qubits."""
    n = int(np.log2(probs.size))
    index = np.arange(probs.size)
    return np.array(
        [probs @ (1 - 2 * ((index >> (n - 1 - k)) & 1)) for k in range(n)]
    )


def observed_probabilities(
    circuit, noise_model, layout=None, n_logical=None
) -> np.ndarray:
    """Noisy distribution through readout error, traced to the logical
    qubits (``layout[k]`` is the wire holding logical qubit ``k``)."""
    n = circuit.n_qubits
    confusion = reduce(np.kron, noise_model.readout_confusions(n))
    physical = confusion @ probabilities(circuit, noise_model)
    n_logical = n if n_logical is None else n_logical
    layout = tuple(range(n_logical)) if layout is None else tuple(layout)
    out = np.zeros(2**n_logical)
    for index, p in enumerate(physical):
        bits = [(index >> (n - 1 - wire)) & 1 for wire in range(n)]
        logical = 0
        for wire in layout[:n_logical]:
            logical = (logical << 1) | bits[wire]
        out[logical] += p
    return out
