"""Stacked same-structure circuits: the circuits -> Sweep constructor.

All the circuits one backend submission groups together share one
structural template sequence and differ only in angle values.
``CircuitBatch`` stacks ``B`` such circuits into a
:class:`~repro.circuits.sweep.Sweep` — the angle-matrix value the
compiled plans execute — so circuit submissions and native sweeps run
through the same kernels.

``group_by_structure`` is the partitioning step of ``Backend.run``: it
splits an arbitrary submission into same-structure groups while
remembering each circuit's original position, so results can be
reassembled in submission order.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.sweep import Sweep, SweepTemplate


class CircuitBatch(Sweep):
    """``B`` structurally identical circuits as one :class:`Sweep`.

    Args:
        circuits: Non-empty sequence of :class:`QuantumCircuit` objects
            that all share one :meth:`~QuantumCircuit.structure_signature`.

    :meth:`circuits` returns the wrapped circuits themselves.
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
        template = SweepTemplate(circuits[0])
        literals, params = template.stack(circuits)
        super().__init__(template, literals, params)
        self._circuits = circuits

    def circuits(self) -> list[QuantumCircuit]:
        """The wrapped circuits, in the order given."""
        return list(self._circuits)


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
