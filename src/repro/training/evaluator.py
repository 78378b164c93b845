"""Model evaluation on any backend (real-QC validation of Table 1/Fig. 6)."""

from __future__ import annotations

import numpy as np

from repro.circuits.ansatz import QnnArchitecture
from repro.data.dataset import Dataset
from repro.ml.metrics import accuracy as _accuracy
from repro.training.heads import logits_from_expectations


def predict_logits(
    architecture: QnnArchitecture,
    theta: np.ndarray,
    features: np.ndarray,
    backend,
    shots: int = 1024,
    purpose: str = "validation",
) -> np.ndarray:
    """Class logits for a batch of examples on the given backend.

    Submits the examples as one :meth:`~repro.circuits.QnnArchitecture.
    sweep` (one ``run_sweep`` call).

    Returns:
        ``(batch, n_classes)`` logits.
    """
    expectations = backend.run_sweep(
        architecture.sweep(features, theta), shots=shots, purpose=purpose
    )
    return logits_from_expectations(expectations, architecture.n_classes)


def evaluate_accuracy(
    architecture: QnnArchitecture,
    theta: np.ndarray,
    dataset: Dataset,
    backend,
    shots: int = 1024,
    max_examples: int | None = None,
    seed: int | None = None,
) -> float:
    """Classification accuracy of ``theta`` on a dataset via a backend.

    Args:
        max_examples: Evaluate on a random subset of this size (the paper
            samples 300 validation images; tests use less).
        seed: Subset-sampling seed.
    """
    features, labels = dataset.features, dataset.labels
    if max_examples is not None and max_examples < len(dataset):
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(dataset), size=max_examples, replace=False)
        features, labels = features[picked], labels[picked]
    logits = predict_logits(
        architecture, theta, features, backend, shots=shots
    )
    return _accuracy(logits, labels)
