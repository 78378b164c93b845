"""Throughput of the batched adjoint sweep vs parameter shift.

The Classical-Train gradient at paper depth: a wide-parameter sweep
(every trainable parameter differentiated) of 4 re-encoded examples of
the 16-layer ``ry / rzz / rz / cz`` ansatz at 10 qubits, with all 120
parameters in play.

Parameter shift pays ``2 x occurrences`` compiled circuit executions per
example (960 shifted clones per sweep here); the batched adjoint path
pays one vectorized forward pass plus one backward reverse-replay of
the compiled plan per structure group, regardless of parameter count.
Target: >= 3.9x.  Agreement is asserted alongside throughput — adjoint
Jacobians within 1e-8 of parameter shift, and the batched sweep
bit-identical to running each circuit as a batch of one.
"""

from __future__ import annotations

import time

import numpy as np

from harness import format_table, smoke_scaled
from repro.circuits import QuantumCircuit
from repro.circuits.layers import build_layered_ansatz
from repro.gradients.adjoint_engine import (
    adjoint_engine_jacobian_batch,
    adjoint_plan_for,
)
from repro.gradients.parameter_shift import parameter_shift_jacobian_batch
from repro.hardware import IdealBackend
from repro.sim.adjoint import adjoint_expectation_and_jacobian_batch

LAYERS = ["ry", "rzz", "rz", "cz"] * 4  # 16 layers
N_EXAMPLES = 4
IDEAL_QUBITS = 10
ROUNDS = smoke_scaled(3, 2)
TARGET_SPEEDUP = 3.9


def build_sweep_circuits(n_qubits: int) -> list[QuantumCircuit]:
    """4 re-encoded examples of one deep layered model."""
    rng = np.random.default_rng(11)
    ansatz = build_layered_ansatz(n_qubits, LAYERS)
    theta = rng.uniform(-1, 1, ansatz.num_parameters)
    circuits = []
    for _ in range(N_EXAMPLES):
        encoder = QuantumCircuit(n_qubits)
        for wire in range(n_qubits):
            encoder.add("ry", wire, float(rng.uniform(0, np.pi)))
        circuits.append(encoder.compose(ansatz.bound(theta)))
    return circuits


def best_of(rounds: int, sweep) -> tuple[float, object]:
    result = None
    best = np.inf
    for _ in range(rounds):
        start = time.perf_counter()
        result = sweep()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_adjoint_wide_parameter_sweep_speedup(benchmark):
    circuits = build_sweep_circuits(IDEAL_QUBITS)
    n_params = circuits[0].num_parameters
    param_indices = tuple(range(n_params))

    def run() -> float:
        shift_backend = IdealBackend(exact=True)
        adjoint_backend = IdealBackend(exact=True)

        shift_s, shift_jacs = best_of(
            ROUNDS,
            lambda: parameter_shift_jacobian_batch(
                circuits, shift_backend, param_indices=param_indices
            ),
        )
        adjoint_s, adjoint_jacs = best_of(
            ROUNDS,
            lambda: adjoint_engine_jacobian_batch(
                circuits, adjoint_backend, param_indices=param_indices
            ),
        )

        for adjoint_jac, shift_jac in zip(adjoint_jacs, shift_jacs):
            assert np.max(np.abs(adjoint_jac - shift_jac)) <= 1e-8

        n_clones = N_EXAMPLES * n_params * 2
        assert shift_backend.meter.circuits == ROUNDS * n_clones
        speedup = shift_s / adjoint_s
        print()
        print(format_table(
            ["engine", "sweep_s", "grad_entries", "entries_per_s"],
            [
                ["parameter shift", shift_s,
                 N_EXAMPLES * n_params,
                 int(N_EXAMPLES * n_params / shift_s)],
                ["batched adjoint", adjoint_s,
                 N_EXAMPLES * n_params,
                 int(N_EXAMPLES * n_params / adjoint_s)],
            ],
            title=(
                f"Adjoint wide-parameter sweep: {IDEAL_QUBITS}-qubit, "
                f"{len(LAYERS)}-layer, {n_params} params "
                f"({n_clones} shifted clones avoided)"
            ),
        ))
        cache = adjoint_backend.plan_cache.stats()
        print(f"plan cache: {cache['hits']} hits / {cache['misses']} "
              f"misses ({cache['size']} plans)")
        print(f"speedup: {speedup:.1f}x (target: >= {TARGET_SPEEDUP:.1f}x)")
        return speedup

    speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    assert speedup >= TARGET_SPEEDUP


def test_batched_sweep_bit_identical_to_batch_of_one():
    """Batching is a pure throughput move: per-circuit slices are exact."""
    circuits = build_sweep_circuits(IDEAL_QUBITS)
    backend = IdealBackend(exact=True)
    plan = adjoint_plan_for(circuits[0], backend)
    expectations, jacobians = adjoint_expectation_and_jacobian_batch(
        circuits, plan=plan
    )
    for index, circuit in enumerate(circuits):
        single_exp, single_jac = adjoint_expectation_and_jacobian_batch(
            [circuit], plan=plan
        )
        assert np.array_equal(expectations[index], single_exp[0])
        assert np.array_equal(jacobians[index], single_jac[0])
