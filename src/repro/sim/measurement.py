"""Measurement post-processing: counts -> expectations, readout confusion.

The paper reads out per-qubit Pauli-Z expectation values from 1024-shot
measurement counts (Sec. 2, "qubit readout").  These helpers convert between
bitstring count dictionaries, probability vectors, and expectation vectors,
and model readout (assignment) error via per-qubit confusion matrices.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.sim.apply import matmul_on_axes


def counts_to_probabilities(
    counts: Mapping[str, int], n_qubits: int
) -> np.ndarray:
    """Normalize a counts dict into a length-2^n probability vector."""
    probs = np.zeros(2**n_qubits, dtype=np.float64)
    total = 0
    for bits, count in counts.items():
        if len(bits) != n_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"invalid bitstring {bits!r}")
        if count < 0:
            raise ValueError(f"negative count for {bits!r}")
        probs[int(bits, 2)] += count
        total += count
    if total == 0:
        raise ValueError("counts are empty")
    return probs / total


def expectation_z_from_counts(
    counts: Mapping[str, int], n_qubits: int
) -> np.ndarray:
    """Per-qubit <Z> estimates from measurement counts.

    ``<Z_k> = P(bit k = 0) - P(bit k = 1)``, matching the paper's readout
    convention (|0> -> +1, |1> -> -1).
    """
    probs = counts_to_probabilities(counts, n_qubits)
    return expectation_z_from_prob_matrix(probs[np.newaxis])[0]


def expectation_z_from_probabilities(probs: np.ndarray) -> np.ndarray:
    """Per-qubit <Z> from an exact probability vector of length 2^n."""
    probs = np.asarray(probs, dtype=np.float64)
    if 2 ** int(np.log2(probs.size)) != probs.size:
        raise ValueError("probability vector length is not a power of two")
    return expectation_z_from_prob_matrix(probs.reshape(1, -1))[0]


def expectation_z_from_prob_matrix(probs: np.ndarray) -> np.ndarray:
    """Per-qubit ``<Z>`` for a stack of probability vectors.

    Args:
        probs: ``(B, 2^n)`` matrix, one outcome distribution per row.

    Returns:
        ``(B, n)`` expectations, ``out[b, k] = P_b(bit k=0) - P_b(bit k=1)``.

    The marginal of qubit ``k`` is taken with a reshape-based reduction
    — view the row as ``(2^k, 2, 2^(n-k-1))`` and sum the outer axes —
    which reduces each batch row on its own, so stacking circuits never
    changes a single bit of the readout.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("expected a (B, 2^n) probability matrix")
    batch, dim = probs.shape
    n_qubits = int(np.log2(dim))
    if 2**n_qubits != dim:
        raise ValueError("probability row length is not a power of two")
    out = np.empty((batch, n_qubits), dtype=np.float64)
    for k in range(n_qubits):
        marginal = probs.reshape(batch, 2**k, 2, -1).sum(axis=(1, 3))
        out[:, k] = marginal[:, 0] - marginal[:, 1]
    return out


def sample_outcome_matrix(
    probs: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``shots`` multinomial samples per row of a probability matrix.

    One vectorized ``Generator.multinomial`` call covers the whole
    batch; NumPy consumes the bit stream row by row exactly as ``B``
    successive single-distribution calls would, so per-circuit sampled
    results are reproducible regardless of whether circuits were
    submitted alone or inside a batch.

    Returns:
        ``(B, 2^n)`` integer outcome counts, one row per distribution.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = np.asarray(probs, dtype=np.float64)
    probs = probs / probs.sum(axis=1, keepdims=True)
    return rng.multinomial(shots, probs)


def outcome_matrix_to_counts(outcomes: np.ndarray) -> list[dict[str, int]]:
    """Convert an outcome matrix into per-row bitstring count dicts."""
    n_qubits = int(np.log2(outcomes.shape[1]))
    results = []
    for row in outcomes:
        counts: dict[str, int] = {}
        for index in np.nonzero(row)[0]:
            counts[format(index, f"0{n_qubits}b")] = int(row[index])
        results.append(counts)
    return results


def expectation_z_from_outcome_matrix(outcomes: np.ndarray) -> np.ndarray:
    """Per-qubit ``<Z>`` estimates for a stack of outcome count rows.

    The vectorized twin of :func:`expectation_z_from_counts`: each row
    is normalized by its own total and marginalized per qubit (a row
    slice of the stacked C-contiguous tensor has the layout of the
    standalone tensor, so every bit of the result matches the
    dict-based path; the equivalence tests pin this).
    """
    outcomes = np.asarray(outcomes)
    if outcomes.ndim != 2:
        raise ValueError("expected a (B, 2^n) outcome matrix")
    batch, dim = outcomes.shape
    n_qubits = int(np.log2(dim))
    if 2**n_qubits != dim:
        raise ValueError("outcome row length is not a power of two")
    totals = outcomes.sum(axis=1)
    if np.any(totals == 0):
        raise ValueError("counts are empty")
    tensor = (outcomes / totals[:, None]).reshape((batch,) + (2,) * n_qubits)
    out = np.empty((batch, n_qubits), dtype=np.float64)
    for k in range(n_qubits):
        axes = tuple(a + 1 for a in range(n_qubits) if a != k)
        marginal = tensor.sum(axis=axes)
        out[:, k] = marginal[:, 0] - marginal[:, 1]
    return out


def sample_counts_batch(
    probs: np.ndarray, shots: int, rng: np.random.Generator
) -> list[dict[str, int]]:
    """Draw ``shots`` multinomial samples per row of a probability matrix.

    See :func:`sample_outcome_matrix` (which this wraps) for the RNG
    stream contract.
    """
    return outcome_matrix_to_counts(
        sample_outcome_matrix(probs, shots, rng)
    )


def readout_confusion_matrix(p01: float, p10: float) -> np.ndarray:
    """Single-qubit assignment-error matrix.

    ``M[i, j] = P(measured i | prepared j)``; ``p01`` is the probability of
    reading 0 when the qubit was 1, ``p10`` of reading 1 when it was 0.
    """
    for p in (p01, p10):
        if not 0.0 <= p <= 1.0:
            raise ValueError("readout error probabilities must be in [0, 1]")
    return np.array([[1.0 - p10, p01], [p10, 1.0 - p01]], dtype=np.float64)


def apply_readout_error(
    probs: np.ndarray, confusions: Sequence[np.ndarray]
) -> np.ndarray:
    """Push true outcome probabilities through per-qubit confusion matrices.

    Args:
        probs: Length-2^n vector of true measurement probabilities.
        confusions: One 2x2 confusion matrix per qubit (qubit 0 first).

    Returns:
        Length-2^n vector of *observed* outcome probabilities.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size != 2 ** len(confusions):
        raise ValueError(
            f"probability vector length {probs.size} does not match "
            f"{len(confusions)} confusion matrices"
        )
    return apply_readout_error_batch(probs.reshape(1, -1), confusions)[0]


def apply_readout_error_batch(
    probs: np.ndarray, confusions: Sequence[np.ndarray]
) -> np.ndarray:
    """Push a stack of outcome distributions through confusion matrices.

    Args:
        probs: ``(B, 2^n)`` matrix of true measurement probabilities.
        confusions: One 2x2 confusion matrix per qubit (qubit 0 first),
            shared by every row — readout error is a device property,
            not a per-circuit one.

    Returns:
        ``(B, 2^n)`` matrix of *observed* outcome probabilities; each
        row is bit-identical to the same row pushed through alone
        (same per-qubit 2x2 GEMMs, same clamp, same row-sum
        normalization).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("expected a (B, 2^n) probability matrix")
    batch, dim = probs.shape
    n_qubits = len(confusions)
    if dim != 2**n_qubits:
        raise ValueError(
            f"probability row length {dim} does not match "
            f"{n_qubits} confusion matrices"
        )
    tensor = probs.reshape((batch,) + (2,) * n_qubits)
    for qubit, confusion in enumerate(confusions):
        confusion = np.asarray(confusion, dtype=np.float64)
        if confusion.shape != (2, 2):
            raise ValueError("confusion matrices must be 2x2")
        tensor = matmul_on_axes(tensor, confusion, [qubit + 1])
    out = np.ascontiguousarray(tensor.reshape(batch, -1))
    out[out < 0] = 0.0
    return out / out.sum(axis=1, keepdims=True)
