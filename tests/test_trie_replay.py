"""Prefix-trie plan replay: shared angle prefixes evolve once.

A fresh sweep whose rows share angle prefixes — parameter-shift rows
and their base row, duplicated rows, rows coalesced from several base
rows — replays as a prefix trie (``repro.sim.compile._prefix_trie``).
The contract pinned here:

* every row is ``np.array_equal`` to the same row run as a batch of
  one, and within 1e-10 of the dense reference, on statevector and
  density plans, the latter lowered from a full noise model or from a
  Kraus-only view of it;
* the trie engages only on what the input shows — rows that start
  equal, enough work (``TRIE_MIN_WORK``), rows not already distinct at
  the first parameterized step — and otherwise the plain replay runs.

Property tests lower ``TRIE_MIN_WORK`` to 0 so small circuits exercise
the trie; the gate tests use the real bound.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.circuits.sweep import Sweep, SweepTemplate
from repro.gradients.parameter_shift import shift_sweep
from repro.hardware import IdealBackend
from repro.noise.calibration import get_calibration
from repro.noise.model import NoiseModel
from repro.sim import BatchedDensityMatrix, BatchedStatevector, compile_circuit
from repro.sim import compile as sim_compile
from repro.sim.compile import WireChainStep

import dense_reference as ref

_ROTATIONS = ["rx", "ry", "rz"]
_PAIRS = ["rzz", "rxx", "cz", "cx"]


class KrausOnly:
    """Noise model view that offers only ``channels_for``."""

    def __init__(self, model):
        self.channels_for = model.channels_for


def layered_circuit(rng, n_qubits: int, n_layers: int, n_params: int):
    """Encoder, then layers of trainable rotations, entanglers and u3.

    Trainable gates draw their parameter from a pool smaller than the
    gate count, so some parameters drive several occurrences.
    """
    circuit = QuantumCircuit(n_qubits, num_parameters=n_params)
    for wire in range(n_qubits):
        circuit.add("ry", wire, float(rng.uniform(0, np.pi)))
    for _ in range(n_layers):
        for wire in range(n_qubits):
            name = _ROTATIONS[rng.integers(len(_ROTATIONS))]
            circuit.add_trainable(name, wire, int(rng.integers(n_params)))
        if n_qubits > 1:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            name = _PAIRS[rng.integers(len(_PAIRS))]
            if name in ("rzz", "rxx"):
                circuit.add_trainable(
                    name, (int(a), int(b)), int(rng.integers(n_params))
                )
            else:
                circuit.add(name, (int(a), int(b)))
        wire = int(rng.integers(n_qubits))
        circuit.add("u3", wire, *(float(x) for x in rng.uniform(-3, 3, 3)))
    return circuit.bind(rng.uniform(-np.pi, np.pi, n_params))


def shared_prefix_sweep(rng, circuit, n_bases: int, n_duplicates: int):
    """PGP-style shift rows of several base rows, coalesced, with repeats.

    Base rows differ in their encoder angles; two thetas are coalesced
    (as a serving flush would), each expanded by a parameter-shift
    sweep over a random parameter subset; ``n_duplicates`` rows are
    repeated.
    """
    template = SweepTemplate(circuit)
    n_qubits = circuit.n_qubits
    used = sorted(
        {t.param_index for t in circuit.templates if t.param_index is not None}
    )
    literals = np.tile(template.literals, (n_bases, 1))
    encoder = rng.uniform(0, np.pi, (max(1, n_bases // 2), n_qubits))
    literals[:, :n_qubits] = encoder[rng.integers(len(encoder), size=n_bases)]
    parts = []
    for _ in range(2):
        theta = rng.uniform(-np.pi, np.pi, circuit.num_parameters)
        base = Sweep(template, literals, np.tile(theta, (n_bases, 1)))
        subset = rng.choice(
            used, size=int(rng.integers(1, len(used) + 1)), replace=False
        )
        shifted, _ = shift_sweep(base, sorted(subset.tolist()))
        parts.extend([base, shifted])
    rows = np.concatenate([p.literals for p in parts])
    params = np.concatenate([p.params for p in parts])
    repeat = rng.integers(len(rows), size=n_duplicates)
    rows = np.concatenate([rows, rows[repeat]])
    params = np.concatenate([params, params[repeat]])
    order = rng.permutation(len(rows))
    return Sweep(template, rows[order], params[order])


def row(sweep: Sweep, index: int) -> Sweep:
    return Sweep(
        sweep.template,
        sweep.literals[index : index + 1],
        sweep.params[index : index + 1],
    )


def evolve(plan, sweep: Sweep, data=None):
    engine = (
        BatchedDensityMatrix if plan.mode == "density" else BatchedStatevector
    )
    state = engine(sweep.n_qubits, sweep.size, data=data)
    return state.evolve(sweep, plan=plan).tensor


def build_plan(circuit, engine: str):
    if engine == "statevector":
        return compile_circuit(circuit, mode="statevector"), None
    model = NoiseModel(get_calibration("ibmq_santiago"))
    if engine == "kraus":
        model = KrausOnly(model)
    plan = compile_circuit(circuit, mode="density", noise_model=model)
    assert any(isinstance(step, WireChainStep) for step in plan.steps)
    return plan, model


def is_trie(plan, sweep: Sweep) -> bool:
    return plan._schedule(sweep, fresh=True).leaves is not None


class TestTrieMatchesRows:
    @given(
        seed=st.integers(0, 2**32 - 1),
        engine=st.sampled_from(["statevector", "superop", "kraus"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_rows_bit_identical_to_batch_of_one_and_dense(self, seed, engine):
        rng = np.random.default_rng(seed)
        n_qubits = int(rng.integers(1, 4))
        circuit = layered_circuit(
            rng, n_qubits, n_layers=int(rng.integers(1, 4)),
            n_params=int(rng.integers(1, 5)),
        )
        sweep = shared_prefix_sweep(
            rng, circuit, n_bases=int(rng.integers(1, 4)),
            n_duplicates=int(rng.integers(1, 4)),
        )
        plan, model = build_plan(circuit, engine)
        with mock.patch.object(sim_compile, "TRIE_MIN_WORK", 0):
            # A duplicated row is never distinct at any step.
            assert is_trie(plan, sweep)
            stacked = evolve(plan, sweep)
        circuits = sweep.circuits()
        dim = 2**n_qubits
        for index in range(sweep.size):
            alone = evolve(plan, row(sweep, index))
            assert np.array_equal(alone[0], stacked[index])
        for index in rng.choice(sweep.size, size=min(4, sweep.size)):
            if model is None:
                want = ref.statevector(circuits[index])
                got = stacked[index].reshape(-1)
            else:
                want = ref.density_matrix(circuits[index], model)
                got = stacked[index].reshape(dim, dim)
            assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("engine", ["statevector", "superop"])
    def test_identical_rows_collapse_to_one_leaf(self, engine):
        rng = np.random.default_rng(7)
        circuit = layered_circuit(rng, 3, n_layers=2, n_params=3)
        template = SweepTemplate(circuit)
        sweep = Sweep(
            template,
            np.tile(template.literals, (6, 1)),
            np.tile(circuit.parameters, (6, 1)),
        )
        plan, _ = build_plan(circuit, engine)
        with mock.patch.object(sim_compile, "TRIE_MIN_WORK", 0):
            schedule = plan._schedule(sweep, fresh=True)
            stacked = evolve(plan, sweep)
        assert np.array_equal(schedule.leaves, np.zeros(6))
        alone = evolve(plan, row(sweep, 0))
        for index in range(6):
            assert np.array_equal(stacked[index], alone[0])

    def test_meter_counts_every_row(self):
        rng = np.random.default_rng(11)
        circuit = layered_circuit(rng, 3, n_layers=2, n_params=3)
        sweep = shared_prefix_sweep(rng, circuit, n_bases=3, n_duplicates=3)
        backend = IdealBackend(exact=True)
        with mock.patch.object(sim_compile, "TRIE_MIN_WORK", 0):
            got = backend.run_sweep(sweep, shots=0)
        assert backend.meter.circuits == sweep.size
        want = IdealBackend(exact=True).expectations(
            sweep.circuits(), shots=0
        )
        assert np.array_equal(got, want)


class TestTrieGates:
    def test_rows_distinct_at_first_parameterized_step_replay_plainly(self):
        rng = np.random.default_rng(3)
        circuit = layered_circuit(rng, 3, n_layers=3, n_params=4)
        template = SweepTemplate(circuit)
        literals = np.tile(template.literals, (5, 1))
        literals[:, :3] = rng.uniform(0, np.pi, (5, 3))
        sweep = Sweep(template, literals, np.tile(circuit.parameters, (5, 1)))
        plan = compile_circuit(circuit)
        with mock.patch.object(sim_compile, "TRIE_MIN_WORK", 0):
            assert plan._schedule(sweep, fresh=True) is plan._plain
            # A shared encoder row makes the same sweep a trie.
            literals[1, :3] = literals[0, :3]
            shared = Sweep(template, literals, sweep.params)
            assert is_trie(plan, shared)

    def test_work_below_bound_replays_plainly(self):
        rng = np.random.default_rng(4)
        circuit = layered_circuit(rng, 4, n_layers=3, n_params=4)
        template = SweepTemplate(circuit)
        plan, _ = build_plan(circuit, "superop")
        per_row = len(plan.steps) * 4**4
        small = sim_compile.TRIE_MIN_WORK // per_row
        large = small + 1

        def duplicated(rows):
            return Sweep(
                template,
                np.tile(template.literals, (rows, 1)),
                np.tile(circuit.parameters, (rows, 1)),
            )

        assert small * per_row < sim_compile.TRIE_MIN_WORK
        assert plan._schedule(duplicated(small), fresh=True) is plan._plain
        assert is_trie(plan, duplicated(large))
        stacked = evolve(plan, duplicated(large))
        alone = evolve(plan, duplicated(1))
        assert all(np.array_equal(r, alone[0]) for r in stacked)

    def test_unequal_starting_rows_are_not_shared(self):
        rng = np.random.default_rng(5)
        circuit = layered_circuit(rng, 2, n_layers=2, n_params=2)
        template = SweepTemplate(circuit)
        rows = 4
        sweep = Sweep(
            template,
            np.tile(template.literals, (rows, 1)),
            np.tile(circuit.parameters, (rows, 1)),
        )
        plan, model = build_plan(circuit, "superop")
        # Distinct mixed starting states under identical angle rows: a
        # trie would wrongly evolve one of them for all.
        data = []
        for _ in range(rows):
            vector = rng.normal(size=4) + 1j * rng.normal(size=4)
            vector /= np.linalg.norm(vector)
            pure = np.outer(vector, vector.conj())
            data.append(0.7 * pure + 0.3 * np.eye(4) / 4)
        data = np.array(data)
        with mock.patch.object(sim_compile, "TRIE_MIN_WORK", 0):
            assert is_trie(plan, sweep)
            stacked = evolve(plan, sweep, data=data)
            for index in range(rows):
                alone = evolve(
                    plan, row(sweep, index), data=data[index : index + 1]
                )
                assert np.array_equal(alone[0], stacked[index])
            assert not np.array_equal(stacked[0], stacked[1])
            # The fresh promise lasts one evolution only.
            state = BatchedDensityMatrix(2, rows)
            state.evolve(sweep, plan=plan)
            twice = state.evolve(sweep, plan=plan).tensor
        once = evolve(plan, row(sweep, 0))[0].reshape(4, 4)
        again = BatchedDensityMatrix(2, 1, data=once[None]).evolve(
            row(sweep, 0), plan=plan
        ).tensor
        for index in range(rows):
            assert np.array_equal(twice[index], again[0])
