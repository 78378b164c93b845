"""Fused blocks up to three wires, lifted by one gather-map embedding.

``repro.sim.compile._embed`` lifts an op matrix onto any axes of a
fused block through a gather map and a 0/1 mask.  The contract pinned
here:

* at two wires the lift is bit-identical — signed zeros included — to
  the Kronecker formulas it replaced (``kron(U, I)``, ``kron(I, U)``
  and the SWAP-permuted 4x4); at three wires every placement equals the
  dense kron-and-permute reference (``tests/dense_reference.py``);
* the block width follows the register, ``min(FUSE_MAX, max(2,
  n // 2))``: every 1-5-qubit plan compiles to the plan recorded at
  v2.2.1 (``tests/data/plan_descriptors_v2_2_1.json``) and prepares no
  operand wider than 4x4, noisy density plans included;
* 6-10-qubit plans fuse at most three wires, agree with the dense
  reference within 1e-10, replay rows bit-identically whether trie,
  plain or alone, and give adjoint Jacobians within 1e-8 of parameter
  shift.
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.circuits import CircuitBatch
from repro.circuits.ansatz import get_architecture
from repro.circuits.sweep import Sweep, SweepTemplate
from repro.gradients.parameter_shift import (
    parameter_shift_jacobian_batch,
    shift_sweep,
)
from repro.hardware import IdealBackend, NoisyBackend
from repro.sim import BatchedStatevector, compile_circuit
from repro.sim import compile as sim_compile
from repro.sim.adjoint import adjoint_expectation_and_jacobian_batch

import dense_reference as ref
from test_compile import random_structure

#: Plan descriptors of :func:`pinned_plans`, recorded at v2.2.1 (the
#: last release with 2-wire fusion at every width) with
#: :func:`plan_descriptor`.
RECORDED_PLANS = (
    Path(__file__).with_name("data") / "plan_descriptors_v2_2_1.json"
)


_EYE2 = np.eye(2, dtype=np.complex128)


def parent_embed0(mats):
    """``kron(U, I)`` as the 2-wire compiler formed it before ``_embed``."""
    out = mats[..., :, None, :, None] * _EYE2[None, :, None, :]
    return out.reshape(mats.shape[:-2] + (4, 4))


def parent_embed1(mats):
    """``kron(I, U)``, likewise."""
    out = mats[..., None, :, None, :] * _EYE2[:, None, :, None]
    return out.reshape(mats.shape[:-2] + (4, 4))


def parent_swap(mats):
    """A 2-qubit op with its wire order reversed in the block."""
    perm = [0, 2, 1, 3]
    return mats[..., perm, :][..., :, perm]


def signed_zero_stack(rng, shape):
    """Random complex matrices with +0.0 and -0.0 in both parts.

    Parts are written in place: ``real + 1j * imag`` would turn every
    -0.0 imaginary part into +0.0.
    """
    out = np.empty(shape, dtype=np.complex128)
    for part in (out.real, out.imag):
        part[...] = rng.normal(size=shape)
        flat = part.reshape(-1)
        picks = rng.choice(flat.size, size=flat.size // 2, replace=False)
        flat[picks] = np.where(rng.random(picks.size) < 0.5, 0.0, -0.0)
    return out


def assert_bits_equal(got, want):
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        assert np.array_equal(
            np.signbit(getattr(got, part)), np.signbit(getattr(want, part))
        )


class TestEmbedding:
    @pytest.mark.parametrize("lead", [(), (1,), (7,), (64,)])
    def test_two_wire_lift_is_bit_identical_to_kron_formulas(self, lead):
        rng = np.random.default_rng(len(lead) + sum(lead))
        one = signed_zero_stack(rng, lead + (2, 2))
        two = signed_zero_stack(rng, lead + (4, 4))
        embed = sim_compile._embed
        assert_bits_equal(embed(((0,), 2), one), parent_embed0(one))
        assert_bits_equal(embed(((1,), 2), one), parent_embed1(one))
        assert_bits_equal(embed(((1, 0), 2), two), parent_swap(two))
        assert embed(((0, 1), 2), two) is two
        assert embed(((0,), 1), one) is one

    def test_kron_formulas_match_numpy_kron(self):
        rng = np.random.default_rng(3)
        one = signed_zero_stack(rng, (2, 2))
        eye = np.eye(2, dtype=np.complex128)
        assert_bits_equal(parent_embed0(one), np.kron(one, eye))
        assert_bits_equal(parent_embed1(one), np.kron(eye, one))

    @pytest.mark.parametrize(
        "axes",
        [(0,), (1,), (2,)]
        + [(a, b) for a in range(3) for b in range(3) if a != b]
        + [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)],
    )
    def test_three_wire_placements_match_kron_permute(self, axes):
        rng = np.random.default_rng(sum(axes) + 10 * len(axes))
        dim = 2 ** len(axes)
        mats = signed_zero_stack(rng, (5, dim, dim))
        got = sim_compile._embed((axes, 3), mats)
        assert got.shape == (5, 8, 8)
        for lifted, mat in zip(got, mats):
            assert_bits_equal(lifted, ref.kron_permute(mat, axes, 3))

    def test_kron_permute_matches_matrix_unit_embedding(self):
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for wires in [(2, 0), (1, 2), (0, 3)]:
            assert np.array_equal(
                ref.kron_permute(mat, wires, 4), ref.embed(mat, wires, 4)
            )

    def test_gather_maps_are_cached_per_axes_and_width(self):
        first = sim_compile._gather_map((2, 0), 3)
        assert sim_compile._gather_map((2, 0), 3) is first
        assert sim_compile._gather_map((0, 2), 3) is not first


def plan_descriptor(plan) -> list:
    """Step classes, wires and factor positions of a plan."""
    out = []
    for step in plan.steps:
        if hasattr(step, "factors"):
            positions = [factor.position for factor in step.factors]
        elif hasattr(step, "ops"):
            positions = [op.position for op in step.ops]
        else:
            positions = []
        wires = getattr(step, "wires", None) or (step.wire,)
        out.append([type(step).__name__, [int(w) for w in wires], positions])
    return out


def pinned_plans() -> dict:
    """``name -> (plan, params)``: the 1-5-qubit plans pinned to v2.2.1."""
    plans = {}
    for task in ("mnist2", "mnist4"):
        arch = get_architecture(task)
        rng = np.random.default_rng(len(task))
        sweep = arch.sweep(
            rng.uniform(0, np.pi, (2, arch.n_features)),
            rng.uniform(-1, 1, arch.num_parameters),
        )
        plans[task] = (compile_circuit(sweep), sweep)
        if task == "mnist4":
            backend = NoisyBackend.from_device_name("ibmq_jakarta")
            plans["mnist4_ibmq_jakarta"] = (backend._plan_for(sweep), sweep)
    for seed in range(8):
        rng = np.random.default_rng(4000 + seed)
        circuit = random_structure(rng, 2 + seed % 4, n_ops=24)
        theta = rng.uniform(-np.pi, np.pi, circuit.num_parameters)
        plans[f"random_{seed}"] = (
            compile_circuit(circuit),
            CircuitBatch([circuit.bound(theta)]),
        )
    return plans


def wide_structure(seed: int):
    rng = np.random.default_rng(5000 + seed)
    n_qubits = 6 + seed % 5
    return rng, random_structure(rng, n_qubits, n_ops=40)


class TestFusionWidth:
    def test_width_rule(self):
        assert sim_compile.FUSE_MAX == 3
        for n_qubits, width in [(1, 2), (5, 2), (6, 3), (10, 3), (16, 3)]:
            circuit = random_structure(
                np.random.default_rng(n_qubits), n_qubits, n_ops=8 * n_qubits
            )
            widths = [
                len(step.wires)
                for step in compile_circuit(circuit).steps
                if step.kind == "matmul"
            ]
            assert max(widths) == min(width, n_qubits)

    def test_narrow_plans_compile_as_recorded(self):
        recorded = json.loads(RECORDED_PLANS.read_text())
        plans = pinned_plans()
        assert sorted(plans) == sorted(recorded)
        for name, (plan, _) in plans.items():
            assert plan_descriptor(plan) == recorded[name], name

    def test_narrow_plans_prepare_nothing_wider_than_4x4(self):
        """A 4x4 cap keeps small registers' prepared stacks at the size
        of the state they act on (served 4-qubit flushes' memory)."""
        for name, (plan, params) in pinned_plans().items():
            assert plan.n_qubits <= 5, name
            matrices = sim_compile._prepare_matrices(
                plan._param_groups, plan.n_source_ops, params
            )
            for prepared in matrices:
                assert prepared is None or prepared.shape[-1] <= 4, name
            for step in plan.steps:
                if step.kind in ("matmul", "superop"):
                    operand = step.operand(matrices)
                    if operand is None:
                        operand = step.matrix
                    assert operand.shape[-2:] in ((2, 2), (4, 4)), name

    @pytest.mark.parametrize("seed", range(5))
    def test_wide_plans_fuse_at_most_three_wires(self, seed):
        _, circuit = wide_structure(seed)
        plan = compile_circuit(circuit)
        widths = [len(s.wires) for s in plan.steps if s.kind == "matmul"]
        assert max(widths) == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_wide_forward_matches_dense_reference(self, seed):
        rng, circuit = wide_structure(seed)
        circuits = [
            circuit.bound(rng.uniform(-np.pi, np.pi, circuit.num_parameters))
            for _ in range(3)
        ]
        batch = CircuitBatch(circuits)
        plan = compile_circuit(circuit)
        state = BatchedStatevector(circuit.n_qubits, 3).evolve(
            batch, plan=plan
        )
        for row, bound in zip(state.vectors, circuits):
            want = ref.statevector_by_gates(bound)
            assert np.max(np.abs(row - want)) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_wide_trie_plain_and_single_rows_bit_identical(self, seed):
        rng, circuit = wide_structure(seed)
        template = SweepTemplate(circuit)
        theta = rng.uniform(-np.pi, np.pi, (1, circuit.num_parameters))
        base = Sweep(template, template.literals[None, :], theta)
        shifted, _ = shift_sweep(base, list(range(circuit.num_parameters)))
        plan = compile_circuit(circuit)
        n_qubits = circuit.n_qubits

        def fresh(rows):
            return BatchedStatevector(n_qubits, rows).tensor

        with mock.patch.object(sim_compile, "TRIE_MIN_WORK", 0):
            assert plan._schedule(shifted, fresh=True).leaves is not None
            trie = plan.run(fresh(shifted.size), shifted, fresh=True)
        plain = plan.run(fresh(shifted.size), shifted, fresh=False)
        assert np.array_equal(trie, plain)
        for index in range(shifted.size):
            alone = Sweep(
                template,
                shifted.literals[index : index + 1],
                shifted.params[index : index + 1],
            )
            assert np.array_equal(plan.run(fresh(1), alone)[0], plain[index])

    @pytest.mark.parametrize("seed", range(5))
    def test_wide_adjoint_matches_parameter_shift(self, seed):
        rng, circuit = wide_structure(seed)
        circuits = [
            circuit.bound(rng.uniform(-np.pi, np.pi, circuit.num_parameters))
            for _ in range(2)
        ]
        _, jacobians = adjoint_expectation_and_jacobian_batch(circuits)
        shift = parameter_shift_jacobian_batch(
            circuits, IdealBackend(exact=True)
        )
        assert np.max(np.abs(jacobians - shift)) < 1e-8
