"""Operand preparation scales with distinct angles, not with rows.

``repro.sim.compile._prepare_matrices`` builds an op whose angle
columns are bitwise identical across a sweep (every row's trainable
angles, in a validation pass) from row 0 alone, and
``_compose_factors`` composes a step's factors last first, so shared
factors at the end of a chain stay at batch 1 until the first per-row
factor.  The contract pinned here:

* every row is bitwise identical (signed zeros included) whether it
  runs alone, in a batch whose rows share theta (the shared path), in
  that batch plus one row that differs in one trainable column (the
  per-row path), or in a fresh prefix-trie sweep — on statevector,
  noisy density and adjoint plans.  The sweeps carry a column holding
  ``0.0`` in some rows and ``-0.0`` in others and one ``u3`` op (not
  closed-form);
* the fast path is taken: trainable positions of a shared-theta sweep
  prepare a leading dimension of 1, encoder positions one per row, and
  a trie's representative rows share every unshifted trainable column.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, build_layered_ansatz, get_architecture
from repro.circuits.sweep import Sweep, SweepTemplate
from repro.gradients.parameter_shift import shift_sweep
from repro.hardware import NoisyBackend
from repro.sim import BatchedDensityMatrix, BatchedStatevector, compile_circuit
from repro.sim import compile as sim_compile
from repro.sim.adjoint import adjoint_expectation_and_jacobian_batch

N_ROWS = 4
#: The ``exact_grad_10q`` benchmark's ansatz.
WIDE_LAYERS = ["ry", "rzz", "rz", "cz"] * 4


def mnist4_circuit() -> QuantumCircuit:
    """A ``u3`` ahead of the mnist4 encoder and ansatz."""
    arch = get_architecture("mnist4")
    head = QuantumCircuit(4).add("u3", 1, 0.3, -0.7, 1.1)
    return head.compose(
        arch.full_circuit(
            np.zeros(arch.n_features), np.zeros(arch.num_parameters)
        )
    )


def layered10_circuit() -> QuantumCircuit:
    """RY encoder and a ``u3`` ahead of the 10-qubit layered ansatz."""
    head = QuantumCircuit(10)
    for wire in range(10):
        head.add("ry", wire, 0.5)
    head.add("u3", 4, 0.3, -0.7, 1.1)
    return head.compose(build_layered_ansatz(10, WIDE_LAYERS))


def encoder_positions(circuit: QuantumCircuit) -> list[int]:
    return [
        position
        for position, t in enumerate(circuit.templates)
        if t.param_index is None and t.params and t.name != "u3"
    ]


def base_sweep(circuit: QuantumCircuit, seed: int = 0) -> Sweep:
    """``N_ROWS`` rows sharing theta, each with its own encoder angles;
    the first encoder column holds ``0.0, -0.0, 0.0, -0.0``."""
    rng = np.random.default_rng(seed)
    template = SweepTemplate(circuit)
    literals = np.tile(template.literals, (N_ROWS, 1))
    for position in encoder_positions(circuit):
        column = template.columns[position]
        literals[:, column] = rng.uniform(0.0, np.pi, (N_ROWS, 1))
    first = template.columns[encoder_positions(circuit)[0]]
    literals[:, first] = np.array([[0.0], [-0.0], [0.0], [-0.0]])
    theta = rng.uniform(-np.pi, np.pi, circuit.num_parameters)
    return Sweep(template, literals, np.tile(theta, (N_ROWS, 1)))


def with_per_row_theta(sweep: Sweep) -> Sweep:
    """The sweep plus a copy of row 0 whose parameter 1 differs."""
    params = np.concatenate([sweep.params, sweep.params[:1]])
    params[-1, 1] += 0.25
    literals = np.concatenate([sweep.literals, sweep.literals[:1]])
    return Sweep(sweep.template, literals, params)


def with_shift_rows(sweep: Sweep) -> Sweep:
    """The sweep, its parameter-shift rows over two parameters and its
    rows again (a repeated row is never distinct, so a trie forms)."""
    shifted, _ = shift_sweep(sweep, [1, 30])
    return Sweep(
        sweep.template,
        np.concatenate([sweep.literals, shifted.literals, sweep.literals]),
        np.concatenate([sweep.params, shifted.params, sweep.params]),
    )


def row(sweep: Sweep, index: int) -> Sweep:
    return Sweep(
        sweep.template,
        sweep.literals[index : index + 1],
        sweep.params[index : index + 1],
    )


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


def build_plan(circuit, mode: str):
    if mode == "density":
        backend = NoisyBackend.from_device_name("ibmq_jakarta")
        return compile_circuit(
            circuit, mode="density", noise_model=backend.noise_model
        )
    return compile_circuit(circuit, mode="statevector")


def runner(plan, mode: str):
    """The outputs of one fresh run of a sweep, as a list of arrays."""
    if mode == "adjoint":
        return lambda sweep: list(
            adjoint_expectation_and_jacobian_batch(sweep, plan=plan)
        )
    engine = BatchedDensityMatrix if mode == "density" else BatchedStatevector
    return lambda sweep: [
        engine(sweep.n_qubits, sweep.size).evolve(sweep, plan=plan).tensor
    ]


ENGINES = {
    "mnist4_statevector": (mnist4_circuit, "statevector"),
    "layered10_statevector": (layered10_circuit, "statevector"),
    "mnist4_jakarta_density": (mnist4_circuit, "density"),
    "layered10_adjoint": (layered10_circuit, "adjoint"),
}


def replay(run, sweep: Sweep, trie: bool):
    """Run ``sweep`` fresh, as a prefix trie or as the plain replay."""
    bound = 0 if trie else 2**62
    with mock.patch.object(sim_compile, "TRIE_MIN_WORK", bound):
        return run(sweep)


class TestRowsIgnoreTheirBatch:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_alone_shared_per_row_and_trie_bit_identical(self, engine):
        build, mode = ENGINES[engine]
        circuit = build()
        plan = build_plan(circuit, mode)
        run = runner(plan, mode)
        shared = base_sweep(circuit)
        per_row = with_per_row_theta(shared)
        trie = with_shift_rows(shared)
        with mock.patch.object(sim_compile, "TRIE_MIN_WORK", 0):
            assert plan._schedule(trie, fresh=True).leaves is not None
        batches = [
            replay(run, shared, trie=False),
            replay(run, per_row, trie=False),
            replay(run, trie, trie=True),
        ]
        repeat = trie.size - N_ROWS
        for index in range(N_ROWS):
            alone = replay(run, row(shared, index), trie=False)
            for outputs in batches:
                for want, got in zip(alone, outputs):
                    assert same_bits(want[0], got[index]), (engine, index)
            for want, got in zip(alone, batches[2]):
                assert same_bits(want[0], got[repeat + index])
        # The per-row path's extra row equals its own batch of one too.
        alone = replay(run, row(per_row, N_ROWS), trie=False)
        for want, got in zip(alone, batches[1]):
            assert same_bits(want[0], got[N_ROWS])


class TestSharedColumnsPrepareOnce:
    def test_trainable_positions_prepare_one_row(self):
        circuit = mnist4_circuit()
        plan = compile_circuit(circuit, mode="statevector")
        sweep = base_sweep(circuit)
        matrices = sim_compile._prepare_matrices(
            plan._param_groups, plan.n_source_ops, sweep
        )
        encoders = encoder_positions(circuit)
        trainable = [
            position
            for position, t in enumerate(circuit.templates)
            if t.param_index is not None
        ]
        assert len(encoders) == 16 and len(trainable) == 36
        for position in trainable:
            assert matrices[position].shape[0] == 1, position
        # Encoder columns differ per row; the first holds only signed
        # zeros, which differ bitwise.
        for position in encoders:
            assert matrices[position].shape[0] == N_ROWS, position
        # The shared u3 (not closed-form) prepares once as well.
        assert matrices[0].shape[0] == 1

    def test_one_differing_row_prepares_that_column_per_row(self):
        circuit = mnist4_circuit()
        plan = compile_circuit(circuit, mode="statevector")
        sweep = with_per_row_theta(base_sweep(circuit))
        matrices = sim_compile._prepare_matrices(
            plan._param_groups, plan.n_source_ops, sweep
        )
        for position, t in enumerate(circuit.templates):
            if t.param_index is not None:
                want = sweep.size if t.param_index == 1 else 1
                assert matrices[position].shape[0] == want, position

    def test_trie_representatives_share_unshifted_columns(self):
        circuit = mnist4_circuit()
        plan = compile_circuit(circuit, mode="statevector")
        trie = with_shift_rows(base_sweep(circuit))
        with mock.patch.object(sim_compile, "TRIE_MIN_WORK", 0):
            rows = plan._schedule(trie, fresh=True).rows
        matrices = sim_compile._prepare_matrices(
            plan._param_groups, plan.n_source_ops, trie, rows
        )
        for position, t in enumerate(circuit.templates):
            if t.param_index is not None:
                shifted = t.param_index in (1, 30)
                assert (matrices[position].shape[0] > 1) == shifted, position
