"""Shard planning: split one structure group into per-worker chunks.

The unit of sharded execution is the same as the batched engine's: a
structure group — a :class:`~repro.circuits.sweep.Sweep` of rows over
one template.  The planner decides how many chunks a group is worth —
sending two tiny rows through two process pipes costs more than
evolving them in one stacked call — using the compiled plan's cost
estimate (:mod:`repro.scaling.cost_model` formulas): a group is split
only while each chunk keeps at least ``min_shard_cost`` estimated
flops, and never into more chunks than workers.

Randomness contract
-------------------
Shot sampling must stay reproducible when work moves between processes.
The planner threads per-row RNG substreams — spawned from the
owning backend's root :class:`numpy.random.SeedSequence` in submission
(group) order — into the shards, and workers sample each row's
counts from its own substream.  Because substreams are keyed by the
row's position in the submission rather than by which worker drew
them, a fixed ``(seed, shard plan)`` reproduces counts exactly — and in
fact the counts are invariant to the worker count entirely, so scaling
a sweep from 1 to 8 workers never changes a sampled result.  Exact
(expectation) execution consumes no randomness, so exact-mode sharding
is bit-identical to the single-process batched path by construction.
"""

from __future__ import annotations

import dataclasses
import weakref
from collections.abc import Sequence

import numpy as np

from repro.circuits.sweep import Sweep


def circuit_cost(circuit, plan, density: bool = False) -> float:
    """Estimated flops to simulate one circuit once.

    Prices the fused GEMM / diagonal / permutation steps of the
    circuit structure's compiled :class:`~repro.sim.compile.
    ExecutionPlan` (:meth:`~repro.sim.compile.ExecutionPlan.cost_ops`),
    so shard sizing follows what the workers replay.  Density-matrix
    evolution touches ``2^n`` times more amplitudes than a
    statevector, hence the ``density`` factor.
    """
    cost = plan.cost_ops()
    if density:
        cost *= 2.0 ** circuit.n_qubits
    return cost


#: Deliberately pessimistic flops/s for timeout derivation — a busy
#: machine running one worker per core should still clear a shard well
#: inside the allowance.  Timeouts bound *silence*, not accuracy: a
#: 100x-too-generous timeout still catches a truly hung worker, while a
#: tight one would kill healthy workers under load.
TIMEOUT_THROUGHPUT_FLOPS = 2e8

#: Fixed per-shard allowance covering pickle + pipe + dispatch latency.
TIMEOUT_FLOOR_S = 10.0

#: Multiplier between estimated runtime and the hang verdict.
TIMEOUT_SAFETY = 25.0


def shard_timeout_s(shard: "Shard", row_cost: float) -> float:
    """Progress-timeout allowance for one shard, from the cost model.

    Scales with the shard's estimated flop count (same estimate the
    planner splits by: rows times the structure's :func:`circuit_cost`,
    computed once per group), so a deep 20-qubit shard gets minutes
    where a toy shard gets the floor — one knob serves every workload
    without per-call tuning.
    """
    return TIMEOUT_FLOOR_S + TIMEOUT_SAFETY * (
        len(shard) * row_cost / TIMEOUT_THROUGHPUT_FLOPS
    )


@dataclasses.dataclass
class Shard:
    """One contiguous chunk of a structure group, bound to a worker.

    A shard names rows, not circuits: the facade slices the group's
    value matrices by :attr:`positions` into the shard's request.

    Attributes:
        worker: Pool worker slot this shard is planned onto.
        positions: Row indices into the *group* (not the submission),
            in group order, so the facade can scatter shard results
            back into group order.
        seeds: Per-row ``SeedSequence`` substreams (``None`` for
            exact execution, which consumes no randomness).
    """

    worker: int
    positions: list[int]
    seeds: list[np.random.SeedSequence] | None = None

    def __len__(self) -> int:
        return len(self.positions)


class ShardPlanner:
    """Splits structure groups into balanced per-worker shards.

    Args:
        n_workers: Pool size; the maximum number of shards per group.
        min_shard_cost: Do not split below this estimated per-shard
            flop count — the knee where process-pipe overhead beats the
            parallelism win.  ``0`` always splits to ``n_workers``
            chunks (useful for equivalence tests).
        density: Cost circuits as density-matrix evolutions (the noisy
            backend) rather than statevector ones.

    The worker replicas execute compiled plans (:mod:`repro.sim.
    compile`), so each structure is costed by its plan's fused step
    sequence rather than one GEMM per gate — a heavily-fused structure
    is not over-costed (and therefore over-split) by the per-gate
    model.  Costing plans are compiled (without a noise model — channel
    structure does not change how many circuits are worth one pipe
    round-trip) and cached per structure signature.
    """

    #: Default split floor: ~a few hundred microseconds of NumPy work,
    #: comfortably above the per-shard pickle + pipe round-trip cost.
    DEFAULT_MIN_SHARD_COST = 5e4

    def __init__(
        self,
        n_workers: int,
        min_shard_cost: float | None = None,
        density: bool = False,
    ):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = int(n_workers)
        self.min_shard_cost = float(
            self.DEFAULT_MIN_SHARD_COST
            if min_shard_cost is None
            else min_shard_cost
        )
        if self.min_shard_cost < 0:
            raise ValueError("min_shard_cost cannot be negative")
        self.density = bool(density)
        from repro.sim import compile as _compile

        self._plan_cache = _compile.PlanCache(maxsize=256)
        #: Row cost per sweep template, looked up by identity: a flush
        #: is planned and timed without re-hashing its signature.
        self._template_costs: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )

    def _costing_plan(self, structure):
        """Cached compiled plan of a structure, for costing only."""
        from repro.sim import compile as _compile

        return self._plan_cache.get_or_compile(
            structure.structure_signature(),
            lambda: _compile.compile_circuit(structure, mode="statevector"),
        )

    def row_cost(self, structure) -> float:
        """Estimated flops of one row of a structure (circuit or sweep).

        A sweep's figure is kept per template, so planning a flush and
        timing its shards price the structure once.
        """
        template = getattr(structure, "template", None)
        if template is not None:
            cost = self._template_costs.get(template)
            if cost is not None:
                return cost
        cost = circuit_cost(
            structure,
            density=self.density,
            plan=self._costing_plan(structure),
        )
        if template is not None:
            self._template_costs[template] = cost
        return cost

    def n_shards(self, rows) -> int:
        """How many chunks one same-structure group is worth.

        Args:
            rows: A :class:`~repro.circuits.sweep.Sweep`, or
                same-structure circuits.
        """
        group_size = len(rows)
        if group_size == 0:
            return 0
        # Same structure => same per-row cost: one estimate per group.
        structure = rows if isinstance(rows, Sweep) else rows[0]
        group_cost = group_size * self.row_cost(structure)
        if self.min_shard_cost > 0:
            affordable = max(1, int(group_cost // self.min_shard_cost))
        else:
            affordable = group_size
        return min(self.n_workers, group_size, affordable)

    def plan(
        self,
        rows,
        seeds: Sequence[np.random.SeedSequence] | None = None,
    ) -> list[Shard]:
        """Chunk one structure group into shards.

        Args:
            rows: The group — a :class:`~repro.circuits.sweep.Sweep`,
                or same-structure circuits in group order.
            seeds: One RNG substream per row (aligned with ``rows``),
                or ``None`` for exact execution.

        Returns:
            At most ``n_workers`` contiguous, near-equal shards in
            group order, assigned to distinct worker slots.  The plan
            is a pure function of ``(len(rows), structure, n_workers,
            min_shard_cost)`` — no randomness, no wall-clock — so a
            submission replans identically across runs, which is what
            makes a ``(seed, shard plan)`` pair reproducible.
        """
        if seeds is not None and len(seeds) != len(rows):
            raise ValueError(
                f"got {len(seeds)} seed substreams for "
                f"{len(rows)} rows"
            )
        n_shards = self.n_shards(rows)
        if n_shards == 0:
            return []
        # Chunk sizes as np.array_split cuts them: the first ``extra``
        # chunks hold one row more.
        size, extra = divmod(len(rows), n_shards)
        shards = []
        start = 0
        for worker in range(n_shards):
            stop = start + size + (worker < extra)
            shards.append(
                Shard(
                    worker=worker,
                    positions=list(range(start, stop)),
                    seeds=None if seeds is None else list(seeds[start:stop]),
                )
            )
            start = stop
        return shards
