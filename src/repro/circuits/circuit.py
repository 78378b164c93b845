"""The ``QuantumCircuit`` container.

A circuit is an ordered list of :class:`OpTemplate` placements plus a
trainable parameter vector ``theta``.  Resolution of trainable angles
(``theta[i] + offset``) happens lazily in :attr:`operations`, so rebinding
parameters between training steps costs one array assignment, and the
parameter-shift engine can cheaply produce shifted clones that share the
same structure.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np

from repro.circuits import fingerprint as _fingerprint
from repro.circuits.operation import BoundOp, OpTemplate
from repro.sim import gates as _gates


class QuantumCircuit:
    """An ``n_qubits`` parameterized quantum circuit.

    Args:
        n_qubits: Number of qubits.
        num_parameters: Length of the trainable parameter vector.  May be
            grown implicitly by :meth:`add_trainable` with a new index.
    """

    def __init__(self, n_qubits: int, num_parameters: int = 0):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = int(n_qubits)
        self._templates: list[OpTemplate] = []
        self._parameters = np.zeros(int(num_parameters), dtype=np.float64)
        self._structure: tuple | None = None
        self._structure_hash: int | None = None
        self._occurrences: dict[int, list[int]] | None = None

    # -- building -------------------------------------------------------

    def add(
        self, name: str, wires: Sequence[int] | int, *params: float
    ) -> "QuantumCircuit":
        """Append a fixed operation; returns self for chaining."""
        if isinstance(wires, (int, np.integer)):
            wires = (int(wires),)
        self._templates.append(
            OpTemplate(name=name, wires=tuple(wires), params=tuple(params))
        )
        self._structure = None
        self._structure_hash = None
        self._occurrences = None
        return self

    def add_trainable(
        self,
        name: str,
        wires: Sequence[int] | int,
        param_index: int,
    ) -> "QuantumCircuit":
        """Append a trainable single-parameter rotation; returns self."""
        if isinstance(wires, (int, np.integer)):
            wires = (int(wires),)
        template = OpTemplate(
            name=name, wires=tuple(wires), param_index=int(param_index)
        )
        self._templates.append(template)
        self._structure = None
        self._structure_hash = None
        self._occurrences = None
        if param_index >= self._parameters.size:
            grown = np.zeros(param_index + 1, dtype=np.float64)
            grown[: self._parameters.size] = self._parameters
            self._parameters = grown
        return self

    def append_template(self, template: OpTemplate) -> "QuantumCircuit":
        """Append a pre-built template (grows the parameter vector)."""
        self._templates.append(template)
        self._structure = None
        self._structure_hash = None
        self._occurrences = None
        if (
            template.param_index is not None
            and template.param_index >= self._parameters.size
        ):
            grown = np.zeros(template.param_index + 1, dtype=np.float64)
            grown[: self._parameters.size] = self._parameters
            self._parameters = grown
        return self

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Return a new circuit: self followed by ``other``.

        ``other``'s parameter indices are re-based after self's, so the
        composed circuit has ``self.num_parameters + other.num_parameters``
        trainable parameters and the concatenation of both vectors.
        """
        if other.n_qubits != self.n_qubits:
            raise ValueError("cannot compose circuits of different widths")
        out = QuantumCircuit(
            self.n_qubits, self.num_parameters + other.num_parameters
        )
        base = self.num_parameters
        # Templates are frozen and re-basing by 0 changes nothing, so
        # other's are reused as they are when self has no parameters.
        rebased = other._templates
        if base:
            rebased = [
                template
                if template.param_index is None
                else OpTemplate(
                    name=template.name,
                    wires=template.wires,
                    param_index=template.param_index + base,
                    offset=template.offset,
                )
                for template in rebased
            ]
        out._templates = self._templates + rebased
        out._parameters = np.concatenate(
            [self._parameters, other._parameters]
        )
        return out

    def copy(self) -> "QuantumCircuit":
        """Deep copy (templates and parameter vector).

        Bypasses ``__init__`` — every field is taken from ``self``
        (already validated), and the gradient engines mint thousands of
        copies per training step.
        """
        return self._with(list(self._templates), self._parameters.copy())

    def _with(
        self, templates: list[OpTemplate], parameters: np.ndarray
    ) -> "QuantumCircuit":
        """Same-structure circuit with the given templates and theta.

        The caller guarantees ``templates`` differ from this circuit's
        only in values (offsets, literal params), so the cached
        structure signature, key and occurrence map carry over.
        """
        out = object.__new__(QuantumCircuit)
        out.n_qubits = self.n_qubits
        out._templates = templates
        out._parameters = parameters
        out._structure = self._structure
        out._structure_hash = self._structure_hash
        out._occurrences = self._occurrences
        return out

    # -- parameters -----------------------------------------------------

    @property
    def num_parameters(self) -> int:
        """Length of the trainable parameter vector."""
        return int(self._parameters.size)

    @property
    def parameters(self) -> np.ndarray:
        """The trainable parameter vector (copy)."""
        return self._parameters.copy()

    def bind(self, theta: Iterable[float]) -> "QuantumCircuit":
        """Set the trainable parameter vector in place; returns self."""
        theta = np.asarray(list(theta), dtype=np.float64)
        if theta.size != self._parameters.size:
            raise ValueError(
                f"expected {self._parameters.size} parameters, got "
                f"{theta.size}"
            )
        self._parameters = theta.copy()
        return self

    def bound(self, theta: Iterable[float]) -> "QuantumCircuit":
        """Return a copy with the given parameter vector."""
        return self.copy().bind(theta)

    # -- structure queries ------------------------------------------------

    @property
    def templates(self) -> tuple[OpTemplate, ...]:
        """The structural operation templates, in order."""
        return tuple(self._templates)

    @property
    def operations(self) -> list[BoundOp]:
        """All operations with parameters resolved against ``theta``."""
        ops = []
        for template in self._templates:
            if template.param_index is None:
                params = template.params
            else:
                params = (
                    float(self._parameters[template.param_index])
                    + template.offset,
                )
            ops.append(
                BoundOp(
                    name=template.name,
                    wires=template.wires,
                    params=params,
                    param_index=template.param_index,
                )
            )
        return ops

    def structure_signature(self) -> tuple:
        """The circuit's structural identity, independent of angle values.

        Two circuits share a signature exactly when their template
        sequences agree on ``(name, wires, param_index)`` — the same
        templates placed on the same wires reading the same parameter
        slots.  Angle *values* (literal params, bound theta, shift
        offsets) are deliberately excluded, so a circuit, all of its
        parameter-shifted clones, and re-encodings of different data rows
        through the same encoder all share one signature and can be
        stacked into a single :class:`~repro.circuits.batch.CircuitBatch`.

        The signature is cached; building operations invalidate it, and
        :meth:`copy` / :meth:`shifted` propagate it (a shift changes only
        the offset, never the structure).
        """
        if self._structure is None:
            self._structure = (
                self.n_qubits,
                tuple(
                    (t.name, t.wires, t.param_index)
                    for t in self._templates
                ),
            )
        return self._structure

    def fingerprint(self) -> str:
        """Canonical execution identity, *including* angle values.

        The complement of :meth:`structure_signature`: a stable hex
        digest over the resolved operation sequence (names, wires, and
        numeric angles), so equal fingerprints mean a deterministic
        backend would produce bit-identical exact results.  Stable
        across processes, so safe to persist; keys ``NoisyBackend``'s
        transpile cache.  Not cached on the instance —
        ``bind`` mutates angles in place, so the digest is recomputed
        per call (see :func:`repro.circuits.fingerprint.
        circuit_fingerprint`).
        """
        return _fingerprint.circuit_fingerprint(self)

    def structure_key(self) -> int:
        """Hash of :meth:`structure_signature` (cached).

        A compact fingerprint for logging and quick same-structure
        checks.  Tuples do not cache their hash, so this memoizes it —
        ``group_by_structure`` buckets by this key first and only
        falls back to comparing full signatures within a bucket (an
        int hash can collide).
        """
        if self._structure_hash is None:
            self._structure_hash = hash(self.structure_signature())
        return self._structure_hash

    def occurrences_of(self, param_index: int) -> list[int]:
        """Positions of all gates that consume parameter ``param_index``.

        The full parameter -> positions map is built once and cached
        with the structure (the parameter-shift engine queries every
        selected parameter per step); building ops invalidate it.
        """
        if self._occurrences is None:
            occurrences: dict[int, list[int]] = {}
            for pos, template in enumerate(self._templates):
                if template.param_index is not None:
                    occurrences.setdefault(
                        template.param_index, []
                    ).append(pos)
            self._occurrences = occurrences
        return list(self._occurrences.get(int(param_index), ()))

    def shifted(self, position: int, delta: float) -> "QuantumCircuit":
        """Copy of the circuit with gate at ``position`` angle-shifted.

        This shifts one *gate occurrence*, not the shared parameter — the
        distinction matters when a parameter appears in several gates
        (Sec. 3.1: per-gate gradients are summed).
        """
        # Warm the signature cache first so the clone inherits it — a
        # shift changes an offset, never the structure, and grouping
        # then compares clones by cached-object identity.
        self.structure_signature()
        out = self.copy()
        out._templates[position] = out._templates[position].shifted(delta)
        return out

    def num_operations(self) -> int:
        """Total gate count."""
        return len(self._templates)

    def count_ops(self) -> dict[str, int]:
        """Histogram of gate names."""
        return dict(Counter(t.name for t in self._templates))

    def depth(self) -> int:
        """Circuit depth: longest chain of operations per wire frontier."""
        frontier = [0] * self.n_qubits
        for template in self._templates:
            level = max(frontier[w] for w in template.wires) + 1
            for wire in template.wires:
                frontier[wire] = level
        return max(frontier, default=0)

    def trainable_positions(self) -> list[int]:
        """Positions of all trainable operations, in circuit order."""
        return [
            pos
            for pos, template in enumerate(self._templates)
            if template.param_index is not None
        ]

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on problems.

        Mirrors the "created, validated, queued" pipeline of Sec. 3.2's
        TrainingEngine: backends validate circuits before execution.
        """
        used = set()
        for template in self._templates:
            _gates.get_gate(template.name)  # raises on unknown gates
            for wire in template.wires:
                if not 0 <= wire < self.n_qubits:
                    raise ValueError(
                        f"wire {wire} out of range in {template}"
                    )
            if template.param_index is not None:
                if template.param_index >= self.num_parameters:
                    raise ValueError(
                        f"param index {template.param_index} out of range"
                    )
                used.add(template.param_index)
        missing = set(range(self.num_parameters)) - used
        if missing:
            raise ValueError(
                f"parameters {sorted(missing)} are never used by any gate"
            )

    # -- pretty printing --------------------------------------------------

    def summary(self) -> str:
        """One-line human description, e.g. for logs and examples."""
        ops = ", ".join(
            f"{name}x{count}" for name, count in sorted(self.count_ops().items())
        )
        return (
            f"QuantumCircuit({self.n_qubits} qubits, "
            f"{self.num_parameters} params, depth {self.depth()}: {ops})"
        )

    def __repr__(self) -> str:
        return self.summary()

    def __len__(self) -> int:
        return len(self._templates)
