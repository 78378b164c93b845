"""Shared failure taxonomy for the resilience tier.

Every layer of the stack needs to answer one question about an
exception it catches: *is this worth retrying?*  A worker process that
died under memory pressure is; a ``ValueError`` from a malformed
circuit is not — it will fail identically on every attempt.  The
taxonomy encodes that split in the type system:

* :class:`TransientError` — the root of everything environmental:
  crashed workers, lost pipes, injected chaos.  Retry policies treat
  any ``TransientError`` subclass as retryable by default.
* deterministic exceptions (anything else) — never retried; the
  serving tier *bisects* the failing flush instead, so one poisoned
  circuit cannot take a coalesced batch of healthy ones down with it.

The module is import-leaf (stdlib only), so every subsystem — the
worker pool, the serving scheduler, the fault plane — can share these
types without an import cycle.
"""

from __future__ import annotations


class TransientError(RuntimeError):
    """An environmental failure that may succeed on retry."""


class InjectedFault(TransientError):
    """A failure raised on purpose by the deterministic fault plane.

    Subclasses :class:`TransientError` so injected flush failures
    exercise exactly the retry path a real transient failure would.
    """


class InvalidCircuitError(ValueError):
    """A circuit the simulators cannot run, rejected before execution.

    Raised when a submission's stacked angle matrix holds a NaN or an
    infinity: such a circuit would otherwise come back as NaN
    expectations (exact mode) or as a raw NumPy sampling error.  A
    ``ValueError``, not a :class:`TransientError` — it fails the same
    way on every attempt, so retry policies never retry it and the
    serving tier bisects it out of its flush.
    """


class DeadlineExceeded(RuntimeError):
    """A job's per-submission deadline elapsed before it finished."""


class JobCancelled(RuntimeError):
    """A job was cancelled by its client before it finished."""


class ResilienceWarning(UserWarning):
    """Emitted (once) when a tier degrades gracefully instead of failing."""


class FlushError(RuntimeError):
    """A serving flush failed; carries the full failure context.

    The bare backend exception tells a client *what* broke but not
    *where* in the pipeline — which backend, which coalesced flush,
    after how many attempts, on which worker.  The scheduler wraps the
    final exception of a failed flush in one of these (original
    chained as ``__cause__``) before setting it on each affected
    :class:`~repro.serving.ServiceJob` future.

    Attributes:
        backend: Name of the backend the failing attempt ran on
            (``None`` when the failure happened before routing).
        flush_key: The coalescing key ``(structure_signature, shots,
            purpose)`` of the failed flush.
        attempts: Execution attempts made before giving up.
        worker: Worker slot/shard identifier, when the failure came
            from the sharded tier (``None`` otherwise).
    """

    def __init__(
        self,
        message: str,
        backend: str | None = None,
        flush_key: tuple | None = None,
        attempts: int = 1,
        worker: int | None = None,
    ):
        super().__init__(message)
        self.backend = backend
        self.flush_key = flush_key
        self.attempts = int(attempts)
        self.worker = worker

    def context(self) -> dict:
        """The failure context as a dict (for logs and assertions)."""
        return {
            "backend": self.backend,
            "flush_key": self.flush_key,
            "attempts": self.attempts,
            "worker": self.worker,
        }
