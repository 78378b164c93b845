"""Quantum state simulation substrate (statevector + density matrix).

Two engines, one per mode (``BatchedStatevector`` /
``BatchedDensityMatrix``), share one gate library
(:mod:`~repro.sim.gates`) and one way to evolve a state: a circuit
*structure* lowers once into a fused :class:`~repro.sim.compile.
ExecutionPlan` (gate fusion, constant folding, diagonal/permutation
kernels, precomposed noise superoperators) that the engine replays on
a ``(B, 2, ..., 2)`` tensor via ``evolve(..., plan=...)``.
``Statevector`` and ``DensityMatrix`` are batch-of-one views of those
engines: same evolution, readout and sampling code, single-state
shapes.  ``plan=None`` compiles the circuit's plan for that call, while
the backends cache plans per structure.  Results agree with a dense
reference within 1e-10 and are deterministic per seed.
"""

from repro.sim.adjoint import (
    adjoint_expectation_and_jacobian,
    adjoint_expectation_and_jacobian_batch,
    adjoint_jacobian,
)
from repro.sim.apply import kraus_to_superop
from repro.sim.batched import BatchedStatevector, run_circuit_batch
from repro.sim.batched_density import BatchedDensityMatrix, run_density_batch
from repro.sim.compile import (
    FUSE_MAX,
    AdjointPlan,
    ExecutionPlan,
    PlanCache,
    compile_circuit,
)
from repro.sim.density import DensityMatrix
from repro.sim.gates import (
    DIAGONAL_GATES,
    GATES,
    PERMUTATION_GATES,
    SHIFT_RULE_GATES,
    GateSpec,
    fixed_gate_matrix,
    get_gate,
    stacked_matrices,
)
from repro.sim.measurement import (
    apply_readout_error,
    apply_readout_error_batch,
    counts_to_probabilities,
    expectation_z_from_counts,
    expectation_z_from_prob_matrix,
    expectation_z_from_probabilities,
    readout_confusion_matrix,
    sample_counts_batch,
)
from repro.sim.statevector import Statevector, run_statevector

__all__ = [
    "DIAGONAL_GATES",
    "FUSE_MAX",
    "GATES",
    "PERMUTATION_GATES",
    "SHIFT_RULE_GATES",
    "AdjointPlan",
    "BatchedDensityMatrix",
    "BatchedStatevector",
    "DensityMatrix",
    "ExecutionPlan",
    "GateSpec",
    "PlanCache",
    "Statevector",
    "adjoint_expectation_and_jacobian",
    "adjoint_expectation_and_jacobian_batch",
    "adjoint_jacobian",
    "apply_readout_error",
    "apply_readout_error_batch",
    "compile_circuit",
    "counts_to_probabilities",
    "expectation_z_from_counts",
    "expectation_z_from_prob_matrix",
    "expectation_z_from_probabilities",
    "fixed_gate_matrix",
    "get_gate",
    "kraus_to_superop",
    "readout_confusion_matrix",
    "run_circuit_batch",
    "run_density_batch",
    "run_statevector",
    "sample_counts_batch",
    "stacked_matrices",
]
