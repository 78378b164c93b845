"""Exact-result LRU cache keyed by salted angle-bit digests.

Serving identical circuits twice is common at scale — validation sweeps
re-run the same encoder circuits, clients retry, hyper-parameter scans
share forward passes.  When execution is *deterministic* (exact
expectations, no shot sampling, no noise realization —
``Backend.results_deterministic()``), re-executing a circuit is pure
waste: the result is a function of its structure and resolved angles
alone, so :meth:`~repro.circuits.sweep.Sweep.row_keys` — a 16-byte
BLAKE2b digest of a row's angle bits, salted with its template's
structure digest — is a complete cache key.  The keys are never
persisted; :func:`~repro.circuits.circuit_fingerprint` is the stable
identity for that.

The service only enables this cache when **every** routed backend is
deterministic; sampled or noisy execution must re-run (each run is a
fresh random realization — serving a memoized draw would silently
correlate what callers assume are independent samples).  Entries are
expectation rows; a hit is copied out into the caller's array, so
callers can't poison cached rows.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np


class ResultCache:
    """Thread-safe LRU cache of expectation rows by row key.

    An exact result is its ``(n_qubits,)`` expectation row: exact
    execution draws no shots, so there is no outcome row or counts dict
    to keep.  Lookups and inserts take a whole work item's keys in one
    locked call.

    Args:
        capacity: Maximum entries kept; least-recently-used beyond that
            are evicted.

    Attributes:
        hits / misses / evictions: Telemetry counters.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._entries: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_many(self, keys) -> tuple[np.ndarray, np.ndarray | None]:
        """Look up row keys; counts a hit or miss for each.

        Returns:
            ``(hit, rows)`` — a boolean mask over ``keys`` and the hit
            keys' rows stacked in key order, a ``(hits, n_qubits)``
            array the caller owns (``None`` when nothing hit).
        """
        hit = np.zeros(len(keys), dtype=bool)
        found = []
        entries = self._entries
        with self._lock:
            for index, key in enumerate(keys):
                row = entries.get(key)
                if row is not None:
                    entries.move_to_end(key)
                    hit[index] = True
                    found.append(row)
            self.hits += len(found)
            self.misses += len(keys) - len(found)
        return hit, np.array(found) if found else None

    def put_many(self, keys, rows) -> None:
        """Insert (or refresh) ``keys[i] -> rows[i]`` for every key.

        ``rows`` is copied once, so later writes to the caller's array
        cannot reach the cache.
        """
        rows = np.array(rows)
        entries = self._entries
        with self._lock:
            for key, row in zip(keys, rows):
                entries[key] = row
                entries.move_to_end(key)
            while len(entries) > self.capacity:
                entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        with self._lock:
            return key in self._entries

    def _hit_rate_locked(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 before any lookup).

        Computed under the lock so concurrent lookups can never yield a
        torn ratio (e.g. a fresh ``hits`` over a stale total reading as
        ``hit_rate > 1``).
        """
        with self._lock:
            return self._hit_rate_locked()

    def clear(self) -> None:
        """Drop all entries; telemetry counters are kept."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Telemetry snapshot.

        All fields come from one locked read, so the dict is internally
        consistent (``hit_rate`` always equals ``hits / (hits +
        misses)`` over the same counter values) even while lookups are
        in flight on other threads.
        """
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self._hit_rate_locked(),
            }
