"""Shard planning: split one structure group into per-worker chunks.

The unit of sharded execution is the same as the batched engine's: a
structure group (circuits sharing one
:meth:`~repro.circuits.QuantumCircuit.structure_signature`).  The
planner decides how many chunks a group is worth — sending two tiny
circuits through two process pipes costs more than evolving them in one
stacked call — using the gate/qubit cost estimates of
:mod:`repro.scaling.cost_model`: a group is split only while each chunk
keeps at least ``min_shard_cost`` estimated flops, and never into more
chunks than workers.

Randomness contract
-------------------
Shot sampling must stay reproducible when work moves between processes.
The planner threads per-circuit RNG substreams — spawned from the
owning backend's root :class:`numpy.random.SeedSequence` in submission
(group) order — into the shards, and workers sample each circuit's
counts from its own substream.  Because substreams are keyed by the
circuit's position in the submission rather than by which worker drew
them, a fixed ``(seed, shard plan)`` reproduces counts exactly — and in
fact the counts are invariant to the worker count entirely, so scaling
a sweep from 1 to 8 workers never changes a sampled result.  Exact
(expectation) execution consumes no randomness, so exact-mode sharding
is bit-identical to the single-process batched path by construction.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.scaling import cost_model


def circuit_cost(circuit, density: bool = False, plan=None) -> float:
    """Estimated flops to simulate one circuit once.

    Uses :func:`repro.scaling.cost_model.classical_ops` with the
    circuit's own gate counts in place of the paper's reference
    workload (single-qubit gates as rotations, multi-qubit gates as
    RZZ-class ops).  Density-matrix evolution touches ``2^n`` times
    more amplitudes than a statevector, hence the ``density`` factor.

    When the executing backend runs compiled fused plans, pass the
    circuit structure's :class:`~repro.sim.compile.ExecutionPlan` —
    the estimate then counts the plan's actual fused GEMM / diagonal /
    permutation steps (:meth:`~repro.sim.compile.ExecutionPlan.
    cost_ops`) instead of one GEMM per source gate, which keeps shard
    sizing accurate under fusion.
    """
    if plan is not None:
        cost = plan.cost_ops()
    else:
        single = sum(1 for t in circuit.templates if len(t.wires) == 1)
        multi = len(circuit.templates) - single
        workload = cost_model.CircuitWorkload(
            n_rotation_gates=single, n_rzz_gates=multi, n_circuits=1
        )
        cost = cost_model.classical_ops(circuit.n_qubits, workload)
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


def shard_timeout_s(
    shard: "Shard", density: bool = False, plan=None
) -> float:
    """Progress-timeout allowance for one shard, from the cost model.

    Scales with the shard's estimated flop count (same estimate the
    planner splits by), so a deep 20-qubit shard gets minutes where a
    toy shard gets the floor — one knob serves every workload without
    per-call tuning.
    """
    cost = sum(
        circuit_cost(c, density=density, plan=plan) for c in shard.circuits
    )
    return TIMEOUT_FLOOR_S + TIMEOUT_SAFETY * (
        cost / TIMEOUT_THROUGHPUT_FLOPS
    )


@dataclasses.dataclass
class Shard:
    """One contiguous chunk of a structure group, bound to a worker.

    Attributes:
        worker: Pool worker slot this shard is planned onto.
        positions: Indices into the *group* (not the submission) so the
            facade can scatter shard results back into group order.
        circuits: The chunk's circuits, in group order.
        seeds: Per-circuit ``SeedSequence`` substreams (``None`` for
            exact execution, which consumes no randomness).
    """

    worker: int
    positions: list[int]
    circuits: list
    seeds: list[np.random.SeedSequence] | None = None

    def __len__(self) -> int:
        return len(self.circuits)


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

    def _costing_plan(self, circuit):
        """Cached compiled plan of a structure, for costing only."""
        from repro.sim import compile as _compile

        return self._plan_cache.get_or_compile(
            circuit.structure_signature(),
            lambda: _compile.compile_circuit(circuit, mode="statevector"),
        )

    def n_shards(self, circuits: Sequence) -> int:
        """How many chunks one same-structure group is worth."""
        group_size = len(circuits)
        if group_size == 0:
            return 0
        # Same structure => same per-circuit cost; estimate from the
        # first member.
        group_cost = group_size * circuit_cost(
            circuits[0],
            density=self.density,
            plan=self._costing_plan(circuits[0]),
        )
        if self.min_shard_cost > 0:
            affordable = max(1, int(group_cost // self.min_shard_cost))
        else:
            affordable = group_size
        return min(self.n_workers, group_size, affordable)

    def plan(
        self,
        circuits: Sequence,
        seeds: Sequence[np.random.SeedSequence] | None = None,
    ) -> list[Shard]:
        """Chunk one structure group into shards.

        Args:
            circuits: Same-structure circuits, in group order.
            seeds: One RNG substream per circuit (aligned with
                ``circuits``), or ``None`` for exact execution.

        Returns:
            At most ``n_workers`` contiguous, near-equal shards in
            group order, assigned to distinct worker slots.  The plan
            is a pure function of ``(circuits, n_workers,
            min_shard_cost)`` — no randomness, no wall-clock — so a
            submission replans identically across runs, which is what
            makes a ``(seed, shard plan)`` pair reproducible.
        """
        circuits = list(circuits)
        if seeds is not None and len(seeds) != len(circuits):
            raise ValueError(
                f"got {len(seeds)} seed substreams for "
                f"{len(circuits)} circuits"
            )
        n_shards = self.n_shards(circuits)
        if n_shards == 0:
            return []
        shards = []
        positions = np.arange(len(circuits))
        for worker, chunk in enumerate(
            np.array_split(positions, n_shards)
        ):
            members = [int(i) for i in chunk]
            shards.append(
                Shard(
                    worker=worker,
                    positions=members,
                    circuits=[circuits[i] for i in members],
                    seeds=(
                        None
                        if seeds is None
                        else [seeds[i] for i in members]
                    ),
                )
            )
        return shards
