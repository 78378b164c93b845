"""Canonical circuit fingerprints: value-inclusive execution identity.

:meth:`QuantumCircuit.structure_signature` deliberately ignores angle
values so parameter-shifted clones can share one batched evolution.  A
*fingerprint* is the opposite: it identifies what a backend would
actually execute — the structure **and** every resolved angle — so two
circuits with equal fingerprints produce bit-identical exact-mode
results on a deterministic backend.  That makes the fingerprint the
natural key of the serving layer's exact-result cache
(:class:`repro.serving.ResultCache`).

The digest is computed over a canonical byte encoding (gate names with
length prefixes, wire indices as little-endian int64, resolved angles
as float64 bit patterns), so it is stable across processes and Python
hash randomization — unlike ``hash(...)`` — and safe to persist.

Everything in that encoding except the angles is a function of the
structure, so :class:`FingerprintLayout` builds it once per structure
with an 8-byte hole per angle: fingerprinting a row is filling the
holes and hashing the buffer.  A :class:`~repro.circuits.sweep.
SweepTemplate` keys all rows of an angle matrix this way in one
vectorized fill, and :func:`circuit_fingerprint` is the one-row case —
one encoding for both.
"""

from __future__ import annotations

import functools
import hashlib
import struct

import numpy as np

#: Bytes separating fields so variable-length names cannot alias wires.
_SEP = b"\x00"


@functools.lru_cache(maxsize=4096)
def _op_head(name: str, wires: tuple[int, ...]) -> bytes:
    """The encoding of one op up to its angles: name, then wires."""
    encoded = name.encode("utf-8")
    return b"".join(
        (
            struct.pack("<q", len(encoded)),
            encoded,
            _SEP,
            np.asarray(wires, dtype=np.int64).tobytes(),
            _SEP,
        )
    )


class FingerprintLayout:
    """The canonical byte encoding of one structure, angles left blank.

    Args:
        n_qubits: Register width.
        templates: The structure's
            :class:`~repro.circuits.operation.OpTemplate` sequence.
            A trainable op has one angle, a fixed op one per literal
            parameter.

    Attributes:
        n_angles: Angles per row, in op order (a ``u3`` contributes
            its three in parameter order).
    """

    def __init__(self, n_qubits: int, templates):
        parts = [struct.pack("<q", n_qubits)]
        holes: list[int] = []
        offset = len(parts[0])
        for template in templates:
            head = _op_head(template.name, template.wires)
            n_values = (
                1 if template.param_index is not None else len(template.params)
            )
            parts.extend((head, bytes(8 * n_values), _SEP))
            offset += len(head)
            holes.extend(range(offset, offset + 8 * n_values))
            offset += 8 * n_values + len(_SEP)
        self._buffer = np.frombuffer(b"".join(parts), dtype=np.uint8)
        self._holes = np.array(holes, dtype=np.intp)
        self.n_angles = len(holes) // 8

    def digests(self, angles) -> list[str]:
        """One hex digest per row of a ``(B, n_angles)`` angle matrix.

        Row ``b`` hashes exactly the bytes :func:`circuit_fingerprint`
        hashes for a circuit of this structure resolving to
        ``angles[b]``.
        """
        angles = np.ascontiguousarray(angles, dtype=np.float64)
        if angles.ndim != 2 or angles.shape[1] != self.n_angles:
            raise ValueError(
                f"expected (B, {self.n_angles}) angles, got {angles.shape}"
            )
        rows = np.tile(self._buffer, (angles.shape[0], 1))
        rows[:, self._holes] = angles.view(np.uint8)
        blake2b = hashlib.blake2b
        return [blake2b(row, digest_size=16).hexdigest() for row in rows]


def circuit_fingerprint(circuit) -> str:
    """Hex digest identifying a circuit *including* its angle values.

    Two circuits receive the same fingerprint exactly when they agree on
    qubit count and on the full resolved operation sequence — gate
    names, wire placements, and numeric parameters (trainable angles
    resolved against the bound ``theta``, shift offsets applied).
    Rebinding parameters therefore changes the fingerprint, while
    :meth:`~repro.circuits.QuantumCircuit.copy` preserves it.  Total:
    a NaN or infinite angle is hashed by its bit pattern (execution,
    not fingerprinting, rejects it).

    Args:
        circuit: A :class:`~repro.circuits.QuantumCircuit`.

    Returns:
        A 32-character hex string (128-bit BLAKE2b digest).
    """
    angles = np.array(
        [[value for op in circuit.operations for value in op.params]],
        dtype=np.float64,
    )
    layout = FingerprintLayout(circuit.n_qubits, circuit.templates)
    return layout.digests(angles)[0]
