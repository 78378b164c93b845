"""Stacked same-structure circuits: the unit of batched execution.

All the circuits the training loop generates in one backend submission —
the forward circuits of a mini-batch, or the ``2 x |selected params|``
parameter-shifted clones per example — share one structural template
sequence and differ only in angle values.  ``CircuitBatch`` exploits
that: it stacks the resolved angles of ``B`` same-structure circuits
into per-operation arrays, so the batched simulator can evolve all
``B`` statevectors through each gate with a single stacked contraction
instead of ``B`` Python-level passes.

``group_by_structure`` is the partitioning step of the backend fast
path: it splits an arbitrary submission into same-structure groups
while remembering each circuit's original position, so results can be
reassembled in submission order.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit


class CircuitBatch:
    """``B`` structurally identical circuits with stacked angles.

    Args:
        circuits: Non-empty sequence of :class:`QuantumCircuit` objects
            that all share one :meth:`~QuantumCircuit.structure_signature`.

    Attributes:
        circuits: The wrapped circuits, in the order given.
        n_qubits: Common qubit count.
        templates: The common structural template sequence.
        size: Batch size ``B``.
    """

    def __init__(self, circuits: Sequence[QuantumCircuit]):
        circuits = list(circuits)
        if not circuits:
            raise ValueError("CircuitBatch needs at least one circuit")
        signature = circuits[0].structure_signature()
        for circuit in circuits[1:]:
            other = circuit.structure_signature()
            # Clones propagate the cached signature tuple, so the
            # common case is object identity — skip the deep tuple
            # comparison for them.
            if other is not signature and other != signature:
                raise ValueError(
                    "all circuits in a CircuitBatch must share one "
                    "structure signature"
                )
        self.circuits = circuits
        self.n_qubits = circuits[0].n_qubits
        self.templates = circuits[0].templates
        self.size = len(circuits)
        # Per-op (B, num_params) arrays of resolved angles.
        self._op_params: list[np.ndarray | None] = []
        self._stack_angles()

    def _stack_angles(self) -> None:
        # One vectorized resolution pass for every single-parameter op:
        # a (B, n_ops) matrix holds, per circuit, the op's literal angle
        # or shift offset; trainable columns then add the bound theta
        # entries in one fancy-indexed assignment.  Multi-parameter ops
        # (only u3 in the registry) fall back to a per-op gather.  The
        # arithmetic — float64 "theta[i] + offset" — is element-for-
        # element the same as the old per-circuit resolution, so the
        # stacked values stay bit-identical.
        templates = self.templates
        rows = [c._templates for c in self.circuits]
        # Clones share template objects except where they were edited
        # (a parameter shift touches one position), so resolve the
        # reference row once and patch only non-identical templates —
        # and only single-parameter positions carry a value at all.
        reference = rows[0]
        single = [
            pos
            for pos, t in enumerate(templates)
            if t.param_index is not None or len(t.params) == 1
        ]
        ref_values = [
            reference[pos].offset
            if reference[pos].param_index is not None
            else reference[pos].params[0]
            for pos in single
        ]
        packed = np.tile(ref_values, (len(rows), 1))
        for index, row in enumerate(rows[1:], 1):
            for column, pos in enumerate(single):
                t = row[pos]
                if t is not reference[pos]:
                    packed[index, column] = (
                        t.offset
                        if t.param_index is not None
                        else t.params[0]
                    )
        base = np.zeros((len(rows), len(templates)), dtype=np.float64)
        base[:, single] = packed
        trainable = [
            pos
            for pos, t in enumerate(templates)
            if t.param_index is not None
        ]
        if trainable:
            thetas = np.stack([c._parameters for c in self.circuits])
            indices = [templates[pos].param_index for pos in trainable]
            base[:, trainable] += thetas[:, indices]
        for pos, template in enumerate(templates):
            # Parameterless op: no literal params and no trainable slot.
            if template.param_index is None and not template.params:
                self._op_params.append(None)
                continue
            if template.param_index is None and len(template.params) != 1:
                # Multi-parameter fixed op: gather the full tuples.
                self._op_params.append(
                    np.array(
                        [row[pos].params for row in rows], dtype=np.float64
                    )
                )
                continue
            self._op_params.append(base[:, pos : pos + 1])

    # -- queries ---------------------------------------------------------

    def num_operations(self) -> int:
        """Gate count of the common structure."""
        return len(self.templates)

    def op_params(self, position: int) -> np.ndarray | None:
        """Resolved ``(B, num_params)`` angles of op ``position``.

        ``None`` for parameterless gates.
        """
        return self._op_params[position]

    @property
    def angles(self) -> np.ndarray:
        """Stacked first angles, shape ``(B, n_ops)``.

        Parameterless ops contribute a 0.0 column; multi-parameter gates
        (only ``u3`` in the registry) contribute their first angle — use
        :meth:`op_params` for the full tuple.
        """
        out = np.zeros((self.size, len(self.templates)), dtype=np.float64)
        for pos, values in enumerate(self._op_params):
            if values is not None:
                out[:, pos] = values[:, 0]
        return out

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"CircuitBatch({self.size} circuits, {self.n_qubits} qubits, "
            f"{len(self.templates)} ops)"
        )


def group_by_structure(
    circuits: Sequence[QuantumCircuit],
) -> list[tuple[list[int], list[QuantumCircuit]]]:
    """Partition circuits into same-structure groups, keeping positions.

    Buckets on the cached integer :meth:`~QuantumCircuit.structure_key`
    (hashing a deep signature tuple per dict operation dominated
    grouping cost for large sweeps) and confirms membership on the full
    signature within a bucket — clones share the cached signature
    object, so that check is usually pointer identity.

    Returns:
        One ``(positions, members)`` pair per distinct structure, in
        first-appearance order; ``positions`` are indices into the input
        sequence so callers can scatter per-group results back into
        submission order.
    """
    buckets: dict[int, list[tuple]] = {}
    order: list[tuple[list[int], list[QuantumCircuit]]] = []
    for position, circuit in enumerate(circuits):
        key = circuit.structure_key()
        signature = circuit.structure_signature()
        entry = None
        for candidate in buckets.setdefault(key, []):
            candidate_sig = candidate[0]
            if candidate_sig is signature or candidate_sig == signature:
                entry = candidate
                break
        if entry is None:
            entry = (signature, ([], []))
            buckets[key].append(entry)
            order.append(entry[1])
        positions, members = entry[1]
        positions.append(position)
        members.append(circuit)
    return order
