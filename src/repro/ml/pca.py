"""Principal component analysis (for the vowel features, Sec. 4.1).

The paper performs PCA on the vowel samples and keeps the 10 most
significant dimensions.  Implemented from scratch on top of numpy's SVD:
fit centers the data, components are right singular vectors, and the
explained-variance bookkeeping matches the standard convention so the
property tests can assert reconstruction and orthonormality invariants.
"""

from __future__ import annotations

import numpy as np


class PCA:
    """Fit/transform PCA.

    Args:
        n_components: Number of principal directions to keep.
    """

    def __init__(self, n_components: int):
        if n_components < 1:
            raise ValueError("n_components must be positive")
        self.n_components = int(n_components)
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None
        self.explained_variance_ratio_: np.ndarray | None = None

    def fit(self, data: np.ndarray) -> "PCA":
        """Learn the principal directions of ``data`` (rows = samples)."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("data must be 2-D (samples x features)")
        n_samples, n_features = data.shape
        if self.n_components > min(n_samples, n_features):
            raise ValueError(
                f"n_components={self.n_components} exceeds "
                f"min(samples, features)={min(n_samples, n_features)}"
            )
        self.mean_ = data.mean(axis=0)
        centered = data - self.mean_
        _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
        variances = singular_values**2 / max(1, n_samples - 1)
        self.components_ = vt[: self.n_components]
        self.explained_variance_ = variances[: self.n_components]
        total = variances.sum()
        self.explained_variance_ratio_ = (
            self.explained_variance_ / total if total > 0
            else np.zeros(self.n_components)
        )
        return self

    def _require_fit(self) -> None:
        if self.components_ is None:
            raise RuntimeError("PCA must be fit before use")

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Project data onto the learned components."""
        self._require_fit()
        data = np.asarray(data, dtype=np.float64)
        single = data.ndim == 1
        if single:
            data = data[None, :]
        projected = (data - self.mean_) @ self.components_.T
        return projected[0] if single else projected

    def inverse_transform(self, projected: np.ndarray) -> np.ndarray:
        """Map projections back to the original feature space."""
        self._require_fit()
        projected = np.asarray(projected, dtype=np.float64)
        single = projected.ndim == 1
        if single:
            projected = projected[None, :]
        restored = projected @ self.components_ + self.mean_
        return restored[0] if single else restored
