"""Noisy shift sweeps contracted against a Heisenberg-picture suffix.

:func:`~repro.gradients.parameter_shift.shift_sweep` tags the sweep it
returns with each row's base row and shifted position
(``Sweep.shifts``); an untranspiled :class:`NoisyBackend` then runs it
through the plan's :class:`~repro.sim.compile.SuffixPlan` instead of
replaying every row's whole noisy suffix.  The contract pinned here:

* tagged rows agree with the same rows untagged (the forward replay)
  and with the dense reference within 1e-12;
* a row is ``np.array_equal`` whether it runs alone (one base row, one
  parameter) or inside a full, reordered or duplicated batch;
* on noisy plans only a trainable gate ahead of the encoder (data
  re-uploading) makes early rows, which replay their prefix, and they
  keep both contracts above;
* the suffix's data-first copy of the plan consumes every source
  position once, keeps each wire's order and replays like the forward
  plan;
* the base rows are prepared once per sweep and a forked row's operand
  once per distinct value of its step's angles, and registers wider
  than ``SUFFIX_MAX_QUBITS`` replay instead;
* the meter still counts every shifted row under ``"gradient"``, and
  the execute-batch fault site fires once per call;
* every other consumer — transpiled execution, ``IdealBackend``,
  ``ShardedBackend`` — returns exactly what it returns untagged.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.circuits.batch import CircuitBatch
from repro.circuits.layers import LAYER_BUILDERS, build_layered_ansatz
from repro.circuits.sweep import Sweep
from repro.gradients.parameter_shift import (
    SHIFT,
    parameter_shift_jacobian_batch,
    shift_sweep,
)
from repro.hardware import IdealBackend, NoisyBackend
from repro.parallel import ShardedBackend
from repro.resilience import faults
from repro.sim import compile as compile_module
from repro.sim.compile import SUFFIX_MAX_QUBITS, WireChainStep, _dedupe
from repro.training import TrainingConfig, TrainingEngine

import dense_reference as ref

_DEVICES = ["ibmq_santiago", "ibmq_lima", "ibmq_jakarta"]
_LAYERS = sorted(LAYER_BUILDERS)
_TRAINABLE_LAYERS = [name for name in _LAYERS if name != "cz"]


def untagged(sweep: Sweep) -> Sweep:
    """The same rows without the shift tag: the general replay."""
    return Sweep(sweep.template, sweep.literals, sweep.params)


def rows_of(sweep: Sweep, rows) -> Sweep:
    return Sweep(sweep.template, sweep.literals[rows], sweep.params[rows])


def base_circuits(
    rng, n_qubits, layers, n_rows, encode, shared_theta, first=()
):
    """An encoder (fixed angles, ``h``, ``cx``) and layered ansatz, one
    circuit per row; an extra ``ry`` reuses the ansatz's first
    parameter, so it has two occurrences.  Trainable ``first`` layers
    run before the encoder (data re-uploading)."""
    ansatz = build_layered_ansatz(n_qubits, layers)
    ansatz.add_trainable("ry", n_qubits - 1, 0)
    before = build_layered_ansatz(n_qubits, list(first))
    n_params = before.num_parameters + ansatz.num_parameters
    theta = rng.uniform(-np.pi, np.pi, n_params)
    circuits = []
    for _ in range(n_rows):
        circuit = QuantumCircuit(n_qubits)
        if encode:
            for wire in range(n_qubits):
                circuit.add("ry", wire, float(rng.uniform(0, np.pi)))
                circuit.add("rz", wire, float(rng.uniform(-np.pi, np.pi)))
            circuit.add("h", 0).add("cx", (0, 1))
        if not shared_theta:
            theta = rng.uniform(-np.pi, np.pi, n_params)
        circuits.append(before.compose(circuit).compose(ansatz).bind(theta))
    return circuits


@st.composite
def cases(draw, reupload=False):
    """Circuits, a parameter subset and a device.  ``reupload`` puts a
    trainable layer before the encoder, shifts one of its parameters
    and draws a noisy device (``noise_scale`` > 0)."""
    n_qubits = draw(st.integers(2, 3))
    layers = [draw(st.sampled_from(_TRAINABLE_LAYERS))] + draw(
        st.lists(st.sampled_from(_LAYERS), max_size=2)
    )
    first = [draw(st.sampled_from(_TRAINABLE_LAYERS))] if reupload else []
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    encode = reupload or draw(st.booleans())
    circuits = base_circuits(
        rng,
        n_qubits,
        layers,
        draw(st.integers(1, 3)),
        encode,
        # Without an encoder the rows differ only in theta.
        shared_theta=encode and draw(st.booleans()),
        first=first,
    )
    n_params = circuits[0].num_parameters
    subset = set(
        rng.choice(n_params, draw(st.integers(1, n_params)), replace=False)
    )
    if reupload:
        subset.add(0)  # a parameter of the layer before the encoder
    return {
        "circuits": circuits,
        "subset": sorted(int(i) for i in subset),
        "encode": encode,
        "device": draw(st.sampled_from(_DEVICES)),
        "scale": draw(
            st.sampled_from([0.4, 1.0] if reupload else [0.0, 0.4, 1.0])
        ),
        "shift": draw(st.sampled_from([SHIFT, 1e-3])),
    }


def mnist4_sweep(n_selected: int):
    """The benchmark's shift sweep on ``ibmq_jakarta``: 8 mnist4
    examples sharing theta, ``n_selected`` of 36 parameters shifted.
    Returns the backend, the base sweep and the tagged sweep."""
    backend = NoisyBackend.from_device_name("ibmq_jakarta", seed=0)
    engine = TrainingEngine(
        TrainingConfig(task="mnist4", steps=1, batch_size=8), backend
    )
    features = engine.train_data.features[:8]
    base = engine.architecture.sweep(features, engine.theta)
    rng = np.random.default_rng(n_selected)
    subset = sorted(rng.choice(36, n_selected, replace=False).tolist())
    tagged, _ = shift_sweep(base, subset)
    return backend, base, tagged


def early_rows(backend, tagged: Sweep) -> np.ndarray:
    """Which rows are shifted at or before the suffix boundary: they
    replay their prefix instead of forking at their own step."""
    suffix = backend._plan_for(tagged).suffix()
    return suffix._step_of[tagged.shifts[2]] <= suffix.boundary


def check_rows(case):
    """A case's tagged rows against the replay and the dense reference,
    alone and in a reordered, duplicated batch; returns the backend and
    the tagged sweep."""
    backend = NoisyBackend.from_device_name(
        case["device"], noise_scale=case["scale"]
    )
    base = CircuitBatch(case["circuits"])
    subset, shift = case["subset"], case["shift"]
    tagged, index_map = shift_sweep(base, subset, shift)
    assert tagged.shifts is not None
    got = backend.observed_probabilities_batch(tagged)
    want = backend.observed_probabilities_batch(untagged(tagged))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    repeats = 2 * len(index_map)
    early = np.flatnonzero(early_rows(backend, tagged))
    for row in {0, 1, repeats - 1, *early[:2]}:
        circuit = tagged.circuits()[row]
        np.testing.assert_allclose(
            got[row],
            ref.observed_probabilities(circuit, backend.noise_model),
            rtol=0,
            atol=1e-12,
        )

    # Alone: one base row, one parameter (all its occurrences).
    for b in range(base.size):
        for index in subset:
            alone, _ = shift_sweep(rows_of(base, [b]), [index], shift)
            pairs = [k for k, (i, _) in enumerate(index_map) if i == index]
            full = [b * repeats + 2 * k + s for k in pairs for s in (0, 1)]
            assert np.array_equal(
                backend.observed_probabilities_batch(alone), got[full]
            )

    # Reordered and duplicated base rows, parameters reversed.
    order = list(range(base.size))[::-1] + [0]
    shuffled, shuffled_map = shift_sweep(
        rows_of(base, order), subset[::-1], shift
    )
    again = backend.observed_probabilities_batch(shuffled)
    position_of = {position: k for k, (_, position) in enumerate(index_map)}
    for row in range(shuffled.size):
        b, rest = divmod(row, repeats)
        k = position_of[shuffled_map[rest // 2][1]]
        assert np.array_equal(
            again[row], got[order[b] * repeats + 2 * k + rest % 2]
        )
    return backend, tagged


class TestSuffixRows:
    @settings(max_examples=30, deadline=None)
    @given(case=cases())
    def test_rows_match_replay_dense_and_stand_alone(self, case):
        backend, tagged = check_rows(case)
        if case["encode"] and case["scale"] > 0:
            # Encoder first: its wire chains split off the ansatz's and
            # run first, so every row forks at its own step.
            assert not early_rows(backend, tagged).any()

    @settings(max_examples=20, deadline=None)
    @given(case=cases(reupload=True))
    def test_reuploading_rows_replay_their_prefix(self, case):
        """A trainable layer before the encoder keeps the early-row
        path: those rows replay their prefix through the boundary."""
        backend, tagged = check_rows(case)
        assert early_rows(backend, tagged).any()

    @pytest.mark.parametrize("n_selected", [18, 36])
    def test_mnist4_on_jakarta(self, n_selected):
        """The benchmark's sweeps: 8 examples, pruned and full."""
        backend, base, tagged = mnist4_sweep(n_selected)
        assert tagged.size == 2 * n_selected * 8
        # The encoder's 4 wire chains split off ansatz layer 1's and run
        # first, so every shifted row forks after the boundary.
        suffix = backend._plan_for(base).suffix()
        assert (suffix.boundary, len(suffix.plan.steps)) == (3, 35)
        got = backend.observed_probabilities_batch(tagged)
        want = backend.observed_probabilities_batch(untagged(tagged))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        circuits = tagged.circuits()
        for row in (0, tagged.size // 2 + 1, tagged.size - 1):
            np.testing.assert_allclose(
                got[row],
                ref.observed_probabilities(circuits[row], backend.noise_model),
                rtol=0,
                atol=1e-12,
            )


def fresh_evolve(plan, sweep: Sweep) -> np.ndarray:
    """Every row's ``(2^n, 2^n)`` density matrix after ``plan``."""
    dim = 2**sweep.n_qubits
    tensor = np.zeros((sweep.size, dim * dim), dtype=np.complex128)
    tensor[:, 0] = 1.0
    tensor = tensor.reshape((sweep.size,) + (2,) * (2 * sweep.n_qubits))
    return plan.run(tensor, sweep, fresh=True).reshape(-1, dim, dim)


def wire_tokens(plan) -> dict[int, list]:
    """Per wire, what acts on it in plan order: a wire chain's factors,
    or another step by the identity of its field values (which the
    suffix plan's copies share with the forward plan's steps)."""
    tokens: dict[int, list] = {w: [] for w in range(plan.n_qubits)}
    for step in plan.steps:
        if isinstance(step, WireChainStep):
            tokens[step.wire] += [id(f) for f in step.factors]
            continue
        token = tuple(
            id(getattr(step, f.name)) for f in dataclasses.fields(step)
        )
        for wire in step.wires:
            tokens[wire].append(token)
    return tokens


class TestDataFirstLowering:
    """The suffix plan's own data-first copy of the forward plan."""

    @settings(max_examples=30, deadline=None)
    @given(case=st.one_of(cases(), cases(reupload=True)))
    def test_copy_replays_the_forward_plan(self, case):
        backend = NoisyBackend.from_device_name(
            case["device"], noise_scale=case["scale"]
        )
        tagged, _ = shift_sweep(
            CircuitBatch(case["circuits"]), case["subset"], case["shift"]
        )
        sweep = untagged(tagged)
        plan = backend._plan_for(sweep)
        copy = plan.suffix().plan
        assert copy is not plan
        assert not set(map(id, copy.steps)) & set(map(id, plan.steps))

        # Each source position consumed exactly once, by both plans.
        consumed = [p for ps in copy._step_positions for p in ps]
        assert len(consumed) == len(set(consumed))
        assert sorted(consumed) == sorted(
            p for ps in plan._step_positions for p in ps
        )
        # Each wire's factors and steps keep their order.
        assert wire_tokens(copy) == wire_tokens(plan)

        got = fresh_evolve(copy, sweep)
        np.testing.assert_allclose(
            got, fresh_evolve(plan, sweep), rtol=0, atol=1e-12
        )
        circuits = sweep.circuits()
        for row in (0, sweep.size - 1):
            np.testing.assert_allclose(
                got[row],
                ref.density_matrix(circuits[row], backend.noise_model),
                rtol=0,
                atol=1e-12,
            )


def preparations(monkeypatch, suffix, tagged) -> list:
    """The ``rows`` argument of each ``_prepare_matrices`` call that one
    ``suffix.diagonals(tagged)`` call makes."""
    calls = []
    prepare = compile_module._prepare_matrices

    def record(groups, n_ops, params, rows=None):
        calls.append(rows)
        return prepare(groups, n_ops, params, rows)

    monkeypatch.setattr(compile_module, "_prepare_matrices", record)
    suffix.diagonals(tagged)
    return calls


class TestOperandLayer:
    """Each operand value is prepared and composed once per sweep."""

    @pytest.mark.parametrize("n_selected", [18, 36])
    def test_two_preparations_per_sweep(self, monkeypatch, n_selected):
        """The base rows once (operators, prefix replay and advance),
        then the forked rows' representatives."""
        backend, base, tagged = mnist4_sweep(n_selected)
        calls = preparations(
            monkeypatch, backend._plan_for(base).suffix(), tagged
        )
        assert len(calls) == 2
        assert calls[0] is None  # every base row

    @pytest.mark.parametrize("n_selected", [18, 36])
    def test_one_fork_operand_per_position_and_sign(
        self, monkeypatch, n_selected
    ):
        """With theta shared, a late step's rows hold two angle values
        per shifted position: one representative row each."""
        backend, base, tagged = mnist4_sweep(n_selected)
        suffix = backend._plan_for(base).suffix()
        _, forks = preparations(monkeypatch, suffix, tagged)
        positions = tagged.shifts.positions
        steps = suffix._step_of[positions]
        assert len(forks) == len(suffix.plan.steps)
        for index, selected in enumerate(forks):
            shifted = set(positions[steps == index].tolist())
            # Rows alternate plus, minus per shifted occurrence.
            signs = {(int(positions[r]), int(r % 2)) for r in selected}
            assert len(selected) == len(signs) == 2 * len(shifted)
            assert signs == {(p, sign) for p in shifted for sign in (0, 1)}


class TestDedupe:
    @pytest.mark.parametrize(
        "shape", [(1, 3), (1, 0), (6, 0), (40, 1), (40, 4), (200, 6)]
    )
    def test_agrees_with_unique(self, shape):
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        # Four values per column, so rows repeat; every other column
        # spans the int64 range, signs included.
        scale = np.where(np.arange(shape[1]) % 2, 1, 2**61)
        keys = rng.integers(-2, 2, shape) * scale
        first, inverse = _dedupe(keys)
        _, want_first, want_inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        assert np.array_equal(first, want_first)
        assert np.array_equal(inverse, want_inverse.reshape(-1))


class TestWidthBound:
    def test_wide_registers_replay(self):
        """Past ``SUFFIX_MAX_QUBITS`` the operators outgrow the replay:
        a 6-qubit tagged sweep replays, bit for bit its untagged rows,
        and its plan builds no suffix."""
        assert SUFFIX_MAX_QUBITS < 6
        rng = np.random.default_rng(6)
        circuits = base_circuits(
            rng, 6, ["ry", "rzz"], 2, encode=True, shared_theta=True
        )
        tagged, _ = shift_sweep(CircuitBatch(circuits), [0, 3, 7])
        backend = NoisyBackend.from_device_name("ibmq_jakarta")
        got = backend.observed_probabilities_batch(tagged)
        assert np.array_equal(
            got, backend.observed_probabilities_batch(untagged(tagged))
        )
        plan = backend._plan_for(tagged)
        assert plan._suffix is None and plan.suffix() is None


def small_gradient_case():
    rng = np.random.default_rng(7)
    circuits = base_circuits(
        rng, 3, ["ry", "rzz"], 2, encode=True, shared_theta=True
    )
    return CircuitBatch(circuits), [0, 2, 4]


class TestSuffixAccounting:
    def test_meter_counts_every_shifted_row(self):
        base, subset = small_gradient_case()
        backend = NoisyBackend.from_device_name("ibmq_lima", seed=3)
        _, index_map = shift_sweep(base, subset)
        parameter_shift_jacobian_batch(
            base, backend, shots=128, param_indices=subset
        )
        rows = 2 * len(index_map) * base.size
        # Parameter 0 occurs twice, the others once.
        assert rows == 2 * (len(subset) + 1) * base.size
        assert backend.meter.by_purpose == {"gradient": rows}
        assert backend.meter.shots == 128 * rows

    def test_fault_site_fires_once_per_call(self):
        base, subset = small_gradient_case()
        tagged, _ = shift_sweep(base, subset)
        backend = NoisyBackend.from_device_name("ibmq_lima", seed=3)
        never = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    site=faults.SITE_EXECUTE_BATCH, mode="delay", delay_s=0
                ),
            )
        )
        with faults.installed(never):
            backend.run_sweep(tagged, shots=64, purpose="gradient")
            backend.run_sweep(tagged, shots=64, purpose="gradient")
            hits = faults.ACTIVE.stats()["hits"]
        assert hits == {faults.SITE_EXECUTE_BATCH: 2}

    def test_sampled_results_follow_the_seed(self):
        base, subset = small_gradient_case()
        tagged, _ = shift_sweep(base, subset)
        runs = [
            NoisyBackend.from_device_name("ibmq_lima", seed=11).run_sweep(
                tagged, shots=512
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])


class TestOtherConsumersIgnoreTheTag:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: NoisyBackend.from_device_name(
                "ibmq_lima", seed=5, transpile=True
            ),
            lambda: IdealBackend(exact=True),
            lambda: IdealBackend(exact=False, seed=5),
        ],
        ids=["transpiled", "ideal-exact", "ideal-sampled"],
    )
    def test_run_sweep_equals_untagged(self, make):
        base, subset = small_gradient_case()
        tagged, _ = shift_sweep(base, subset)
        got = make().run_sweep(tagged, shots=256)
        want = make().run_sweep(untagged(tagged), shots=256)
        assert np.array_equal(got, want)

    def test_transpiled_probabilities_equal_untagged(self):
        base, subset = small_gradient_case()
        tagged, _ = shift_sweep(base, subset)
        backend = NoisyBackend.from_device_name("ibmq_lima", transpile=True)
        assert np.array_equal(
            backend.observed_probabilities_batch(tagged),
            backend.observed_probabilities_batch(untagged(tagged)),
        )

    def test_sharded_equals_untagged(self):
        base, subset = small_gradient_case()
        tagged, _ = shift_sweep(base, subset)
        results = []
        for sweep in (tagged, untagged(tagged)):
            with ShardedBackend(
                NoisyBackend.from_device_name("ibmq_lima", seed=9),
                workers=2,
                min_shard_cost=0,
            ) as sharded:
                results.append(
                    (
                        sharded.observed_probabilities_batch(sweep),
                        sharded.run_sweep(sweep, shots=256),
                    )
                )
        for got, want in zip(*results):
            assert np.array_equal(got, want)
