"""Single-qubit randomized benchmarking (RB).

The paper cites Magesan et al.'s RB protocol as the way noisy systems
"need to be characterized" (Sec. 2, ref [13]).  This is the standard
implementation: random sequences of single-qubit Cliffords of growing
length, closed by the net inverse so the ideal outcome is always |0>;
the survival probability decays as ``A p^m + B``, and the average error
per Clifford is ``(1 - p) / 2``.

Used by tests to verify that the emulated devices' *measured* RB error
tracks their calibration-table gate error — i.e. that the noise
substrate is self-consistent the way a real lab's would be.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.sim import gates as _gates
from repro.sim import measurement as _measurement

#: Generator set whose products cover the single-qubit Clifford group.
_CLIFFORD_NAMES = ("i", "x", "y", "z", "h", "s", "sdg")


def random_clifford_sequence(
    length: int, rng: np.random.Generator
) -> list[str]:
    """A random length-``length`` sequence of Clifford generators."""
    if length < 1:
        raise ValueError("sequence length must be positive")
    return [
        _CLIFFORD_NAMES[int(rng.integers(len(_CLIFFORD_NAMES)))]
        for _ in range(length)
    ]


def _sequence_unitary(names: list[str]) -> np.ndarray:
    out = np.eye(2, dtype=np.complex128)
    for name in names:
        out = _gates.get_gate(name).matrix() @ out
    return out


def rb_circuit(
    names: list[str], qubit: int = 0, n_qubits: int = 1
) -> QuantumCircuit:
    """Sequence + inverse on one qubit; ideal output is |0...0>.

    The inverse is appended as an explicit ``u3`` synthesized from the
    sequence unitary's inverse (decomposed via ZYZ angles).
    """
    circuit = QuantumCircuit(n_qubits)
    for name in names:
        circuit.add(name, qubit)
    inverse = _sequence_unitary(names).conj().T
    theta, phi, lam = _zyz_angles(inverse)
    circuit.add("u3", qubit, theta, phi, lam)
    return circuit


def _zyz_angles(unitary: np.ndarray) -> tuple[float, float, float]:
    """U3 angles reproducing ``unitary`` up to global phase."""
    # Strip global phase so u[0, 0] is real non-negative.
    u = unitary.copy()
    phase = np.angle(u[0, 0]) if abs(u[0, 0]) > 1e-12 else np.angle(u[1, 0])
    u = u * np.exp(-1j * phase)
    theta = 2.0 * np.arctan2(abs(u[1, 0]), abs(u[0, 0]))
    if abs(u[1, 0]) < 1e-12:
        phi = 0.0
        lam = float(np.angle(u[1, 1])) if abs(u[1, 1]) > 1e-12 else 0.0
    elif abs(u[0, 0]) < 1e-12:
        lam = 0.0
        phi = float(np.angle(u[1, 0]) - np.angle(u[0, 1]) - np.pi)
        # Recompute phi directly: u[1,0] = e^{i phi} sin(theta/2).
        phi = float(np.angle(u[1, 0]))
    else:
        phi = float(np.angle(u[1, 0]))
        lam = float(np.angle(-u[0, 1]))
    return float(theta), phi, lam


@dataclasses.dataclass(frozen=True)
class RbResult:
    """Fitted RB decay.

    Attributes:
        lengths: Sequence lengths measured.
        survival: Mean survival probability per length.
        decay: Fitted ``p`` of ``A p^m + B``.
        error_per_clifford: ``(1 - p) / 2``.
    """

    lengths: tuple[int, ...]
    survival: tuple[float, ...]
    decay: float
    error_per_clifford: float


def run_rb(
    backend,
    qubit: int = 0,
    lengths: tuple[int, ...] = (1, 4, 8, 16, 32),
    n_sequences: int = 6,
    shots: int = 1024,
    seed: int = 0,
) -> RbResult:
    """Run single-qubit RB on a backend and fit the decay curve."""
    if len(lengths) < 2:
        raise ValueError("need at least two sequence lengths")
    rng = np.random.default_rng(seed)
    circuits = []
    for length in lengths:
        for _ in range(n_sequences):
            names = random_clifford_sequence(length, rng)
            circuits.append(rb_circuit(names, qubit=qubit))
    results = backend.run(circuits, shots=shots, purpose="rb")

    survival = []
    index = 0
    for _ in lengths:
        values = []
        for _ in range(n_sequences):
            result = results[index]
            index += 1
            if result.outcomes is not None:
                # Survival: the observed frequency of outcome 0.
                frequencies = _measurement.outcome_probabilities(
                    result.outcomes
                )
                values.append(float(frequencies[0]))
            else:
                # Exact backend: survival from the expectation value.
                values.append(0.5 * (1.0 + result.expectations[qubit]))
        survival.append(float(np.mean(values)))

    decay = _fit_decay(np.asarray(lengths, float), np.asarray(survival))
    return RbResult(
        lengths=tuple(int(m) for m in lengths),
        survival=tuple(survival),
        decay=decay,
        error_per_clifford=(1.0 - decay) / 2.0,
    )


def _fit_decay(lengths: np.ndarray, survival: np.ndarray) -> float:
    """Fit p in ``A p^m + B`` with B fixed at the 1/2 asymptote.

    Linearizes ``log(survival - 1/2) = log A + m log p`` on the points
    above the asymptote; falls back to a ratio estimate when too few
    points qualify.
    """
    excess = survival - 0.5
    usable = excess > 1e-3
    if usable.sum() >= 2:
        slope = np.polyfit(lengths[usable], np.log(excess[usable]), 1)[0]
        decay = float(np.exp(slope))
    else:
        ratio = max(1e-6, excess[-1] / max(excess[0], 1e-6))
        decay = float(ratio ** (1.0 / max(1.0, lengths[-1] - lengths[0])))
    return min(1.0, max(0.0, decay))
