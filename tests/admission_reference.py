"""Per-circuit reference reads for sweep admission.

:meth:`~repro.circuits.sweep.SweepTemplate.stack` reads only the
templates a row does not share with the row before it, and
:meth:`~repro.circuits.sweep.Sweep.row_keys` hashes the whole resolved
angle matrix at once.  The oracles here read every op of every circuit
on its own, through the public circuit API, so agreement with them is
evidence that the diff-and-fill stacking and the batched keys are
right, not just self-consistent.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _row(template, values_of) -> np.ndarray:
    """One value row: ``values_of(pos)`` written into op ``pos``'s
    columns; parameterless ops keep the template's unused 0.0."""
    row = template.literals.copy()
    for pos in range(len(template.templates)):
        columns = template.column_list(pos)
        if columns:
            row[columns] = values_of(pos)
    return row


def stack(template, circuits) -> tuple[np.ndarray, np.ndarray]:
    """The ``(literals, params)`` of ``circuits``, one op at a time."""
    literals = []
    for circuit in circuits:
        ops = circuit.templates
        literals.append(_row(template, lambda pos: (
            [ops[pos].offset] if ops[pos].param_index is not None
            else list(ops[pos].params)
        )))
    params = np.array([circuit.parameters for circuit in circuits])
    return np.array(literals).reshape(len(circuits), -1), params


def row_keys(template, circuits) -> list[bytes]:
    """Every circuit's cache key, hashed from its own resolved ops."""
    salt = bytes.fromhex(template.digest)
    keys = []
    for circuit in circuits:
        ops = circuit.operations
        angles = _row(template, lambda pos: list(ops[pos].params))
        keys.append(
            hashlib.blake2b(
                angles.tobytes(), digest_size=16, salt=salt
            ).digest()
        )
    return keys


def bits(matrix: np.ndarray) -> np.ndarray:
    """A float64 matrix as its int64 bit patterns (``0.0 != -0.0``)."""
    return np.ascontiguousarray(matrix, dtype=np.float64).view(np.int64)
