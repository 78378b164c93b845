"""Per-task QNN model definitions (Sec. 4.1).

Each benchmark task fixes (a) an encoder, (b) a trainable ansatz built from
the paper's layer vocabulary, and (c) the number of classes:

* MNIST-2 / Fashion-2:  1 RZZ layer + 1 RY layer              (8 params)
* MNIST-4:              3 x (RX + RY + RZ + CZ) layers        (36 params)
* Fashion-4:            3 x (RZZ + RY) layers                 (24 params)
* Vowel-4:              2 x (RZZ + RXX) layers                (16 params)

``QnnArchitecture`` bundles all of it and builds the full (encoder compose
ansatz) circuit for a given input example — or, for a whole mini-batch,
one :class:`~repro.circuits.sweep.Sweep` over a cached template.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Sequence

import numpy as np

from repro.circuits import encoders as _encoders
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.layers import build_layered_ansatz
from repro.circuits.sweep import Sweep, SweepTemplate


@dataclasses.dataclass(frozen=True)
class QnnArchitecture:
    """A complete QNN model family for one benchmark task.

    Attributes:
        name: Task name, e.g. ``"mnist2"``.
        n_qubits: Logical qubit count (4 for all paper tasks).
        encoder_name: Key into :data:`repro.circuits.encoders.ENCODERS`.
        layer_names: Ordered layer types of the trainable ansatz.
        n_classes: Number of output classes (2 or 4).
    """

    name: str
    n_qubits: int
    encoder_name: str
    layer_names: tuple[str, ...]
    n_classes: int

    def build_ansatz(self) -> QuantumCircuit:
        """Fresh trainable ansatz (parameters initialized to zero)."""
        return build_layered_ansatz(self.n_qubits, list(self.layer_names))

    @functools.cached_property
    def num_parameters(self) -> int:
        """Trainable parameter count of the ansatz."""
        return self.build_ansatz().num_parameters

    @property
    def n_features(self) -> int:
        """Input feature count the encoder expects."""
        return _encoders.get_encoder(self.encoder_name)[1]

    def encode(self, x: Sequence[float]) -> QuantumCircuit:
        """Encoder circuit for one input example."""
        builder, _ = _encoders.get_encoder(self.encoder_name)
        return builder(x, self.n_qubits)

    def full_circuit(
        self, x: Sequence[float], theta: Sequence[float] | np.ndarray
    ) -> QuantumCircuit:
        """Encoder + ansatz circuit, ansatz bound to ``theta``.

        One row of :meth:`sweep_template`: the encoder's templates
        revalued with ``x``, every other template (and the structure
        signature) shared with the template, so serving admission and
        batching see the structure by identity.  The same circuit
        :meth:`_compose` builds — fingerprint, signature and theta —
        and the same errors for wrong feature or parameter counts.
        """
        template = self.sweep_template
        theta = np.asarray(list(theta), dtype=np.float64)
        if theta.size != template.num_parameters:
            raise ValueError(
                f"expected {template.num_parameters} parameters, got "
                f"{theta.size}"
            )
        n_features = self.n_features
        features = _encoders._as_features(
            x, n_features, self.encoder_name
        ).tolist()
        reference = template.reference
        templates = list(reference._templates)
        for pos, value in enumerate(features):
            templates[pos] = templates[pos].revalued((value,))
        return reference._with(templates, theta)

    def _compose(
        self, x: Sequence[float], theta: Sequence[float] | np.ndarray
    ) -> QuantumCircuit:
        """Encoder + ansatz built from scratch (:meth:`sweep_template`'s
        builder)."""
        ansatz = self.build_ansatz().bind(theta)
        return self.encode(x).compose(ansatz)

    @functools.cached_property
    def sweep_template(self) -> SweepTemplate:
        """The validated structure of :meth:`full_circuit`, built once.

        Checks the layout :meth:`sweep` and :meth:`full_circuit` rely
        on: the encoder's ops come first, one fixed single-angle op per
        feature, in feature order.
        """
        n_features = self.n_features
        probe = np.arange(1.0, n_features + 1.0)
        template = SweepTemplate(
            self._compose(probe, np.zeros(self.num_parameters))
        )
        encoder = template.templates[:n_features]
        if not np.array_equal(template.literals[:n_features], probe) or any(
            t.param_index is not None or len(t.params) != 1 for t in encoder
        ):
            raise ValueError(
                f"encoder {self.encoder_name!r} does not place one angle "
                f"per feature in feature order"
            )
        template.validate()
        return template

    def sweep(
        self,
        features: Sequence[Sequence[float]] | np.ndarray,
        theta: Sequence[float] | np.ndarray,
    ) -> Sweep:
        """The :meth:`full_circuit` of every feature row, as one sweep.

        The encoder's angles fill the first ``n_features`` columns in
        feature order; the trainable columns resolve to ``theta[i] +
        offset`` with zero offsets.  Row ``b`` executes bit-identically
        to ``full_circuit(features[b], theta)``.

        Args:
            features: ``(B, n_features)`` inputs (a single row may be
                given as a 1-D array).
            theta: The shared trainable parameter vector.
        """
        template = self.sweep_template
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[None, :]
        n_features = self.n_features
        if features.ndim != 2 or features.shape[1] != n_features:
            raise ValueError(
                f"{self.encoder_name} encoder expects {n_features} "
                f"features per row, got shape {features.shape}"
            )
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        if theta.size != template.num_parameters:
            raise ValueError(
                f"expected {template.num_parameters} parameters, got "
                f"{theta.size}"
            )
        size = features.shape[0]
        literals = np.tile(template.literals, (size, 1))
        literals[:, :n_features] = features
        return Sweep(template, literals, np.tile(theta, (size, 1)))

    def init_parameters(
        self, rng: np.random.Generator, scale: float = 0.1
    ) -> np.ndarray:
        """Small random initial angles (uniform in ``[-scale, scale]``)."""
        n = self.num_parameters
        return rng.uniform(-scale, scale, size=n)


def _repeat(block: Sequence[str], times: int) -> tuple[str, ...]:
    return tuple(list(block) * times)


ARCHITECTURES: dict[str, QnnArchitecture] = {
    "mnist2": QnnArchitecture(
        name="mnist2",
        n_qubits=4,
        encoder_name="image16",
        layer_names=("rzz", "ry"),
        n_classes=2,
    ),
    "fashion2": QnnArchitecture(
        name="fashion2",
        n_qubits=4,
        encoder_name="image16",
        layer_names=("rzz", "ry"),
        n_classes=2,
    ),
    "mnist4": QnnArchitecture(
        name="mnist4",
        n_qubits=4,
        encoder_name="image16",
        layer_names=_repeat(("rx", "ry", "rz", "cz"), 3),
        n_classes=4,
    ),
    "fashion4": QnnArchitecture(
        name="fashion4",
        n_qubits=4,
        encoder_name="image16",
        layer_names=_repeat(("rzz", "ry"), 3),
        n_classes=4,
    ),
    "vowel4": QnnArchitecture(
        name="vowel4",
        n_qubits=4,
        encoder_name="vowel10",
        layer_names=_repeat(("rzz", "rxx"), 2),
        n_classes=4,
    ),
}


def get_architecture(name: str) -> QnnArchitecture:
    """Look up a benchmark architecture by task name."""
    key = name.lower().replace("-", "").replace("_", "")
    if key not in ARCHITECTURES:
        raise KeyError(
            f"unknown architecture {name!r}; known: {sorted(ARCHITECTURES)}"
        )
    return ARCHITECTURES[key]
