"""Measured readout-error mitigation.

The paper (Sec. 2) notes NISQ systems "need to be characterized and
calibrated frequently to mitigate the noise impact".  This module does
the standard readout-calibration procedure an experimentalist would run
before QOC training:

1. **calibrate**: prepare each single-qubit basis state (|0> and |1| per
   qubit), measure, and estimate the per-qubit confusion matrices from
   the observed counts — using only backend-visible information;
2. **mitigate**: invert the tensor-product confusion model to correct
   measured probability vectors (clipping + renormalizing to stay on the
   simplex).

A mitigated expectation estimator is provided as a drop-in for the
evaluator's readout path.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.sim import measurement as _measurement


@dataclasses.dataclass(frozen=True)
class ReadoutCalibration:
    """Per-qubit measured confusion matrices.

    ``confusions[q][i, j]`` estimates P(read i | prepared j) on qubit q.
    """

    confusions: tuple[np.ndarray, ...]

    @property
    def n_qubits(self) -> int:
        """Number of calibrated qubits."""
        return len(self.confusions)

    def mean_assignment_error(self) -> float:
        """Average probability of misreading a qubit."""
        errors = [
            0.5 * (confusion[0, 1] + confusion[1, 0])
            for confusion in self.confusions
        ]
        return float(np.mean(errors))


def calibration_circuits(n_qubits: int) -> list[QuantumCircuit]:
    """The two calibration circuits: all-|0> and all-|1> preparations.

    Per-qubit confusion matrices are identifiable from these two states
    under the standard independent-readout-error model.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    zeros = QuantumCircuit(n_qubits)
    zeros.add("i", 0)
    ones = QuantumCircuit(n_qubits)
    for wire in range(n_qubits):
        ones.add("x", wire)
    return [zeros, ones]


def calibrate_readout(
    backend, n_qubits: int, shots: int = 4096
) -> ReadoutCalibration:
    """Estimate per-qubit confusion matrices on a backend.

    Args:
        backend: Any backend; its sampled counts drive the estimate.
        n_qubits: Number of measured qubits.
        shots: Calibration shots per preparation (more = better estimate).
    """
    circuits = calibration_circuits(n_qubits)
    results = backend.run(circuits, shots=shots, purpose="readout-cal")
    marginals = []
    for result in results:
        if result.outcomes is not None:
            probs = _measurement.outcome_probabilities(result.outcomes)
        else:  # exact backend: ideal readout
            probs = np.zeros(2**n_qubits)
            probs[0] = 1.0
        tensor = probs.reshape((2,) * n_qubits)
        per_qubit = []
        for qubit in range(n_qubits):
            axes = tuple(a for a in range(n_qubits) if a != qubit)
            per_qubit.append(tensor.sum(axis=axes))
        marginals.append(per_qubit)

    confusions = []
    for qubit in range(n_qubits):
        prepared_zero = marginals[0][qubit]  # P(read * | prepared 0)
        prepared_one = marginals[1][qubit]   # P(read * | prepared 1)
        confusion = np.stack([prepared_zero, prepared_one], axis=1)
        confusions.append(confusion)
    return ReadoutCalibration(confusions=tuple(confusions))


def mitigate_probabilities(
    probs: np.ndarray, calibration: ReadoutCalibration
) -> np.ndarray:
    """Invert the per-qubit confusion model on a probability vector.

    Applies each qubit's inverse confusion matrix along its axis, then
    projects back onto the probability simplex (clip negatives and
    renormalize — the standard least-invasive correction).
    """
    n_qubits = calibration.n_qubits
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size != 2**n_qubits:
        raise ValueError("probability vector does not match calibration")
    tensor = probs.reshape((2,) * n_qubits)
    for qubit, confusion in enumerate(calibration.confusions):
        inverse = np.linalg.inv(confusion)
        tensor = np.tensordot(inverse, tensor, axes=([1], [qubit]))
        tensor = np.moveaxis(tensor, 0, qubit)
    flat = tensor.reshape(-1)
    flat = np.clip(flat, 0.0, None)
    total = flat.sum()
    if total <= 0:
        raise ValueError("mitigation produced an empty distribution")
    return flat / total


def mitigated_expectations(
    counts: dict[str, int],
    calibration: ReadoutCalibration,
) -> np.ndarray:
    """Readout-mitigated per-qubit Z expectations from raw counts."""
    probs = _measurement.counts_to_probabilities(
        counts, calibration.n_qubits
    )
    corrected = mitigate_probabilities(probs, calibration)
    return _measurement.expectation_z_from_probabilities(corrected)
