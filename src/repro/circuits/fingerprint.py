"""Canonical circuit fingerprints: value-inclusive execution identity.

:meth:`QuantumCircuit.structure_signature` deliberately ignores angle
values so parameter-shifted clones can share one batched evolution.  A
*fingerprint* is the opposite: it identifies what a backend would
actually execute — the structure **and** every resolved angle — so two
circuits with equal fingerprints produce bit-identical exact-mode
results on a deterministic backend.  ``NoisyBackend``'s transpile cache
is keyed by it.

The digest is computed over a canonical byte encoding (gate names with
length prefixes, wire indices as little-endian int64, resolved angles
as float64 bit patterns), so it is stable across processes and Python
hash randomization — unlike ``hash(...)`` — and safe to persist.  The
serving layer's in-memory result cache needs no such stability and
keys rows by their angle bits alone
(:meth:`~repro.circuits.sweep.Sweep.row_keys`).
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
    parts = [struct.pack("<q", circuit.n_qubits)]
    for op in circuit.operations:
        parts.append(_op_head(op.name, op.wires))
        parts.append(struct.pack(f"<{len(op.params)}d", *op.params))
        parts.append(_SEP)
    return hashlib.blake2b(b"".join(parts), digest_size=16).hexdigest()
