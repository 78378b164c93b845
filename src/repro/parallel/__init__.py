"""Multi-process sharded execution under the batched engine.

The scale-out tier of the execution stack: PRs 1-3 vectorized the hot
path inside one process, ``repro.parallel`` shards that vectorized work
across a persistent pool of worker processes — the reproduction's
analogue of the paper's multi-device hardware queues (Sec. 3.2)::

    Backend.run / run_sweep ──> ShardedBackend._execute_sweep
                        │  ShardPlanner (cost-model chunking,
                        │   per-row SeedSequence substreams)
                        ▼
                    WorkerPool ── pipes ──> spawned workers, each
                        │                   hosting a backend replica
                        ▼                   rebuilt from a BackendSpec
                    gather in submission order; Backend.run /
                    run_sweep meter the submission once

Pieces: :class:`BackendSpec` (picklable backend recipe),
:class:`ShardPlanner` / :class:`Shard` (cost-balanced chunking + RNG
substreams), :class:`WorkerPool` (spawned workers, warm reuse, crash
retry), and :class:`ShardedBackend` (the drop-in ``Backend`` facade).

``REPRO_WORKERS=N`` in the environment (read by
:func:`default_workers`) turns the sharded path on by default wherever
a worker count is not given explicitly — the serving
``ExecutionService`` and the ``repro train`` / ``repro serve-bench``
commands all honor it, which is how CI exercises the whole test suite
through the worker pool.
"""

from __future__ import annotations

import os

from repro.parallel.backend import ShardedBackend
from repro.parallel.pool import (
    RestartBudgetExhausted,
    WorkerCrashError,
    WorkerError,
    WorkerHangError,
    WorkerPool,
)
from repro.parallel.shard import (
    Shard,
    ShardPlanner,
    circuit_cost,
    shard_timeout_s,
)
from repro.parallel.spec import BackendSpec

#: Environment variable holding the default worker count.
WORKERS_ENV = "REPRO_WORKERS"


def default_workers() -> int:
    """The ``REPRO_WORKERS`` worker count, or ``0`` (sharding off).

    Unset, empty, or unparsable values mean 0; negative values clamp
    to 0.  Callers treat 0 as "stay single-process".
    """
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


__all__ = [
    "BackendSpec",
    "RestartBudgetExhausted",
    "Shard",
    "ShardPlanner",
    "ShardedBackend",
    "WORKERS_ENV",
    "WorkerCrashError",
    "WorkerError",
    "WorkerHangError",
    "WorkerPool",
    "circuit_cost",
    "default_workers",
    "shard_timeout_s",
]
