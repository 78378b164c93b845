"""Throughput of batched noisy (density-matrix) execution.

A structure-grouped noisy parameter-shift sweep at the paper's scale:
4 qubits (the paper's QNN width), a (RZZ, RXX) ring ansatz with 8
trainable parameters, 4 re-encoded examples — ``4 x 8 x 2 = 64``
shifted clones sharing one structure signature, submitted as one
sweep.  ``NoisyBackend`` evolves the whole group as a single stacked
density-matrix plan replay; the baseline submits the same clones
circuit by circuit, each a batch of one through the same cached plan.
Target: >= 3x, with per-row observed distributions and sampled
gradients identical to the circuit-by-circuit baseline.

A report-only case prints the warm time per call of the benchmark's
mnist4 shift sweeps on ``ibmq_jakarta`` (8 examples, 18 and 36
shifted parameters: 288 and 576 rows), tagged by ``shift_sweep`` and
so contracted against the plan's Heisenberg-picture suffix, against
the same rows untagged (the general replay).  Rows must agree within
1e-12; there is no wall-clock gate.
"""

from __future__ import annotations

import time

import numpy as np

import dense_reference as ref
from harness import CircuitByCircuit, format_table, smoke_scaled
from repro.circuits import QuantumCircuit, Sweep, get_architecture
from repro.circuits.layers import build_layered_ansatz
from repro.gradients.parameter_shift import (
    parameter_shift_jacobian_batch,
    shift_sweep,
)
from repro.hardware import NoisyBackend

N_QUBITS = 4
N_EXAMPLES = 4
LAYERS = ["rzz", "rxx"]  # 4 + 4 = 8 trainable params
DEVICE = "ibmq_lima"
SHOTS = 1024
ROUNDS = smoke_scaled(3, 1)
TARGET_SPEEDUP = 3.0
#: Warm calls per path in the report-only suffix case.
SUFFIX_CALLS = smoke_scaled(30, 5)


def build_sweep_circuits() -> list[QuantumCircuit]:
    """4 re-encoded examples of one 8-parameter, 4-qubit model."""
    rng = np.random.default_rng(11)
    ansatz = build_layered_ansatz(N_QUBITS, LAYERS)
    assert ansatz.num_parameters == 8
    theta = rng.uniform(-1, 1, ansatz.num_parameters)
    circuits = []
    for _ in range(N_EXAMPLES):
        encoder = QuantumCircuit(N_QUBITS)
        for wire in range(N_QUBITS):
            encoder.add("ry", wire, float(rng.uniform(0, np.pi)))
        circuits.append(encoder.compose(ansatz.bound(theta)))
    return circuits


def make_backend(sequential: bool):
    backend = NoisyBackend.from_device_name(DEVICE, seed=0)
    return CircuitByCircuit(backend) if sequential else backend


def time_sweep(sequential: bool) -> tuple[float, int]:
    """Wall time of one noisy parameter-shift sweep."""
    circuits = build_sweep_circuits()
    backend = make_backend(sequential)
    start = time.perf_counter()
    parameter_shift_jacobian_batch(circuits, backend, shots=SHOTS)
    return time.perf_counter() - start, backend.meter.circuits


def time_both() -> tuple[float, float, int, int]:
    """Best-of-ROUNDS wall time of each path.  The paths alternate
    round by round, so a change in host speed mid-run slows both."""
    sequential_s = batched_s = np.inf
    for _ in range(ROUNDS):
        elapsed, n_sequential = time_sweep(sequential=True)
        sequential_s = min(sequential_s, elapsed)
        elapsed, n_batched = time_sweep(sequential=False)
        batched_s = min(batched_s, elapsed)
    return sequential_s, batched_s, n_sequential, n_batched


def test_noisy_parameter_shift_sweep_speedup(benchmark):
    sequential_s, batched_s, n_circuits, n_circuits_batched = (
        benchmark.pedantic(time_both, rounds=1, iterations=1)
    )
    assert n_circuits == n_circuits_batched == N_EXAMPLES * 8 * 2

    speedup = sequential_s / batched_s
    print()
    print(format_table(
        ["path", "sweep_s", "circuits", "circuits_per_s"],
        [
            ["circuit by circuit", sequential_s, n_circuits,
             int(n_circuits / sequential_s)],
            ["batched", batched_s, n_circuits,
             int(n_circuits / batched_s)],
        ],
        title=(
            f"Batched noisy execution: {N_QUBITS}-qubit 8-parameter "
            f"sweep on {DEVICE} ({n_circuits} shifted circuits)"
        ),
    ))
    print(f"speedup: {speedup:.1f}x (target: >= {TARGET_SPEEDUP:.0f}x)")
    assert speedup >= TARGET_SPEEDUP


def test_noisy_batched_distributions_match_sequential():
    """Per-row observed distributions: each row equals the circuit run
    alone, and the dense reference oracle within 1e-10."""
    circuits = build_sweep_circuits()
    backend = make_backend(sequential=False)
    stacked = backend.observed_probabilities_batch(circuits)
    for row, circuit in zip(stacked, circuits):
        assert np.array_equal(row, backend.observed_probabilities(circuit))
        want = ref.observed_probabilities(circuit, backend.noise_model)
        assert np.max(np.abs(row - want)) <= 1e-10

    # Full sweep: sampled counts and gradients are identical too (same
    # seeded RNG stream, consumed row by row in group order).
    jac_seq = parameter_shift_jacobian_batch(
        circuits, make_backend(sequential=True), shots=SHOTS
    )
    jac_bat = parameter_shift_jacobian_batch(
        circuits, make_backend(sequential=False), shots=SHOTS
    )
    for a, b in zip(jac_seq, jac_bat):
        assert np.array_equal(a, b)


def test_suffix_contraction_report():
    """Report-only: warm ms per call of tagged and untagged mnist4
    shift sweeps; rows agree within 1e-12."""
    arch = get_architecture("mnist4")
    rng = np.random.default_rng(5)
    base = arch.sweep(
        rng.uniform(0, np.pi, (8, arch.n_features)),
        arch.init_parameters(rng),
    )
    backend = NoisyBackend.from_device_name("ibmq_jakarta", seed=0)
    rows = []
    for n_selected in (18, 36):
        subset = sorted(rng.choice(36, n_selected, replace=False).tolist())
        tagged, _ = shift_sweep(base, subset)
        plain = Sweep(tagged.template, tagged.literals, tagged.params)
        got = backend.observed_probabilities_batch(tagged)
        want = backend.observed_probabilities_batch(plain)
        assert np.max(np.abs(got - want)) <= 1e-12
        suffix = backend._plan_for(tagged).suffix()
        early = int(
            (suffix._step_of[tagged.shifts[2]] <= suffix.boundary).sum()
        )
        times: dict[str, list[float]] = {"tagged": [], "untagged": []}
        for _ in range(SUFFIX_CALLS):
            for name, sweep in (("tagged", tagged), ("untagged", plain)):
                start = time.perf_counter()
                backend.observed_probabilities_batch(sweep)
                times[name].append(1e3 * (time.perf_counter() - start))
        tagged_ms, plain_ms = (
            float(np.median(times[name])) for name in ("tagged", "untagged")
        )
        rows.append([
            tagged.size,
            f"{suffix.boundary}/{len(suffix.plan.steps)}",
            early,
            tagged.size - early,
            tagged_ms,
            plain_ms,
            plain_ms / tagged_ms,
        ])
    print()
    print(format_table(
        [
            "rows", "boundary", "early", "late",
            "tagged_ms", "untagged_ms", "ratio",
        ],
        rows,
        title=(
            "mnist4 shift sweeps on ibmq_jakarta: Heisenberg-picture "
            "suffix (tagged) against the general replay, warm medians"
        ),
    ))
