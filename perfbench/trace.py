"""Span tracing from outside the program.

The traced run installs wrappers around the public functions of each
layer.  Every wrapper records a span — name, start, end, parent span
and step id — in memory; the spans are written as JSONL when the run
ends.  Each thread keeps its own parent stack, so the serving
scheduler's and dispatch thread's spans attach to roots of their own.

A wrapper is installed where the caller looks the name up: a function
imported by name into another module (``from repro.circuits.batch
import group_by_structure``) is replaced in that importing module, not
only where it is defined.  Methods are replaced on their defining
class.

Work done inside ``repro.parallel`` worker processes is out of reach
of these wrappers; it shows only as ``parallel.shard`` time.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import threading
import time
from multiprocessing.reduction import ForkingPickler

Span = collections.namedtuple(
    "Span", "id name start end parent step thread"
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.step = -1
        #: ``{step id: Counter}`` of counts recorded at span boundaries.
        self.step_counts: dict[int, collections.Counter] = (
            collections.defaultdict(collections.Counter)
        )
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._plan_costs: dict[int, tuple[object, float]] = {}

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, self.step,
                     threading.get_ident())
            )

    def count(self, name: str, value: float = 1) -> None:
        self.step_counts[self.step][name] += value

    # -- wrappers --------------------------------------------------------

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for name, owner, attr, counter in patch_table():
            self.patch(owner, attr, name, counter)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def plan_cost(self, plan) -> float:
        entry = self._plan_costs.get(id(plan))
        if entry is None or entry[0] is not plan:
            entry = self._plan_costs[id(plan)] = (plan, plan.cost_ops())
        return entry[1]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


# -- counters recorded at span boundaries --------------------------------

def _count_clones(tracer, args, kwargs, result):
    tracer.count("circuits.clones", len(result[0]))


def _count_compile(tracer, args, kwargs, result):
    tracer.count("sim.plan_misses")


def _count_kernel(tracer, args, kwargs, result):
    plan = kwargs.get("plan")
    if plan is None:
        return
    size = getattr(args[1], "size", 1)
    amplitudes = 4 ** plan.n_qubits if plan.mode == "density" else (
        2 ** plan.n_qubits
    )
    tracer.count("sim.kernel_ops", tracer.plan_cost(plan) * size)
    # Computed, not measured: every step reads and writes the whole
    # complex128 state tensor once.
    tracer.count(
        "sim.kernel_bytes", 2 * 16 * amplitudes * size * len(plan.steps)
    )


def _count_shards(tracer, args, kwargs, result):
    requests = args[1]
    tracer.count("parallel.flushes")
    tracer.count("parallel.shards", len(requests))
    tracer.count(
        "parallel.payload_bytes",
        sum(len(ForkingPickler.dumps(message)) for _, message in requests),
    )


def patch_table() -> list[tuple]:
    """``(span name, owner, attribute, counter)`` for every wrapper."""
    from repro.circuits import ansatz, batch, circuit
    from repro.gradients import adjoint_engine, parameter_shift
    from repro.hardware import backend
    from repro.parallel import backend as parallel_backend
    from repro.parallel import pool
    from repro.pruning import pruner
    from repro.serving import router, service
    from repro.sim import batched, batched_density, density, measurement
    from repro.sim import compile as plan_compiler
    from repro.sim import statevector
    from repro.training import engine

    table = [
        ("circuits.build", ansatz.QnnArchitecture, "full_circuit", None),
        ("circuits.clone", parameter_shift, "build_shifted_circuits",
         _count_clones),
        ("circuits.group", backend, "group_by_structure", None),
        ("circuits.group", adjoint_engine, "group_by_structure", None),
        ("circuits.stack", batch.CircuitBatch, "__init__", None),
        ("circuits.validate", circuit.QuantumCircuit, "validate", None),
        ("circuits.fingerprint", circuit.QuantumCircuit, "fingerprint",
         None),
        ("sim.compile", plan_compiler, "compile_circuit", _count_compile),
        ("sim.compile", plan_compiler.ExecutionPlan, "adjoint", None),
        ("sim.adjoint", plan_compiler.AdjointPlan, "run", None),
        ("hardware.run", backend.Backend, "run", None),
        ("hardware.run", parallel_backend.ShardedBackend, "run", None),
        ("gradients.ps", parameter_shift, "parameter_shift_jacobian_batch",
         None),
        ("gradients.ps", engine, "parameter_shift_jacobian_batch", None),
        ("gradients.adjoint", adjoint_engine,
         "adjoint_forward_and_jacobian_batch", None),
        ("gradients.adjoint", engine, "adjoint_forward_and_jacobian_batch",
         None),
        ("pruning.select", pruner.GradientPruner, "select", None),
        ("pruning.observe", pruner.GradientPruner, "observe", None),
        ("training.step", engine.TrainingEngine, "train_step", None),
        ("training.eval", engine.TrainingEngine, "evaluate", None),
        ("serving.submit", service.ExecutionService, "submit", None),
        ("serving.route", router.Router, "execute", None),
        ("parallel.shard", pool.WorkerPool, "run_shards", _count_shards),
    ]
    for state_class in (
        batched.BatchedStatevector,
        batched_density.BatchedDensityMatrix,
        statevector.Statevector,
        density.DensityMatrix,
    ):
        table.append(("sim.kernel", state_class, "evolve", _count_kernel))
    for state_class in (
        batched.BatchedStatevector, batched_density.BatchedDensityMatrix
    ):
        table.append(("sim.readout", state_class, "probabilities", None))
    table.append(
        ("sim.readout", batched.BatchedStatevector, "expectation_z", None)
    )
    for function in (
        "sample_outcome_matrix",
        "outcome_matrix_to_counts",
        "expectation_z_from_outcome_matrix",
        "apply_readout_error_batch",
    ):
        table.append(("sim.readout", measurement, function, None))
    return table
