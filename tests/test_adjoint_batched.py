"""Batched, plan-aware adjoint gradients: agreement and bit-identity.

The contracts under test (the correctness spine of the adjoint path):

* the batched sweep over ``B`` same-structure circuits is bit-identical
  to running each circuit as a batch of one through the same plan;
* forward values agree with the dense reference oracle within 1e-10,
  and Jacobians agree with central differences of the oracle and with
  parameter shift within 1e-8, on logical and transpiled circuits,
  including multi-occurrence parameters;
* ``param_indices`` masking zeroes exactly the unselected columns;
* the circuit-major ``(B, 1 + T) + (2,)*n`` sweep agrees within 1e-12
  with Jacobians recorded from the observable-major sweep it replaced,
  on a 10-qubit plan with fused, diagonal and permutation steps and on
  multi-wire Z-word observables.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitBatch, QuantumCircuit, build_layered_ansatz
from repro.circuits.transpile import decompose_to_basis, transpile
from repro.gradients import (
    adjoint_engine_jacobian_batch,
    adjoint_forward_and_jacobian_batch,
    adjoint_plan_for,
)
from repro.gradients.parameter_shift import parameter_shift_jacobian_batch
from repro.hardware import IdealBackend, NoisyBackend
from repro.sim import BatchedStatevector, adjoint_jacobian
from repro.sim import compile as sim_compile
from repro.sim.adjoint import adjoint_expectation_and_jacobian_batch
from repro.training.config import TrainingConfig
from repro.training.engine import TrainingEngine
from repro.vqe import (
    VqeEngine,
    hardware_efficient_ansatz,
    transverse_field_ising,
)

import dense_reference as ref

N_QUBITS = 3
BATCH = 3
#: Central-difference step for the oracle Jacobian (truncation error
#: ~h^2, rounding ~1e-16 / h: both far below the 1e-8 tolerance).
ORACLE_STEP = 1e-5

#: Width and ansatz of the wide sweep case (the ``exact_grad_10q``
#: benchmark's ansatz).
WIDE_QUBITS = 10
WIDE_LAYERS = ["ry", "rzz", "rz", "cz"] * 4
#: Multi-wire Z-word observables: ``Z_0`` and ``Z_1 Z_2``.
Z_WORDS = [(0,), (1, 2)]
#: Jacobians of ``wide_circuits()`` (key ``wide``) and of
#: ``z_word_circuits()`` under ``Z_WORDS`` (key ``z_words``), recorded
#: from the observable-major ``((1 + T) * B, 2, ..., 2)`` reverse-replay
#: of v2.1.1.
RECORDED_JACOBIANS = (
    Path(__file__).with_name("data") / "adjoint_v2_1_1_jacobians.npz"
)

LAYER_SETS = st.lists(
    st.sampled_from(["rx", "ry", "rz", "rzz", "rxx", "rzx", "cz"]),
    min_size=1,
    max_size=4,
)


def make_batch(layers, seed: int, n_qubits: int = N_QUBITS) -> list:
    """BATCH same-structure circuits with independent random parameters."""
    base = build_layered_ansatz(n_qubits, layers)
    rng = np.random.default_rng(seed)
    return [
        base.bound(rng.uniform(-np.pi, np.pi, base.num_parameters))
        for _ in range(BATCH)
    ]


def oracle_expectations(circuit) -> np.ndarray:
    return ref.expectations_z(ref.probabilities(circuit))


def oracle_jacobian(circuit) -> np.ndarray:
    """``d<Z_k>/d theta_i`` by central differences of the dense oracle."""
    theta = np.asarray(circuit.parameters, dtype=np.float64)
    jacobian = np.empty((circuit.n_qubits, theta.size))
    for index in range(theta.size):
        step = np.zeros_like(theta)
        step[index] = ORACLE_STEP
        plus = oracle_expectations(circuit.bound(theta + step))
        minus = oracle_expectations(circuit.bound(theta - step))
        jacobian[:, index] = (plus - minus) / (2 * ORACLE_STEP)
    return jacobian


def wide_circuits(n_rows: int = 2, seed: int = 11) -> list:
    """Encoder rows in front of the 10-qubit benchmark ansatz.

    Each row's RY encoder angles fuse with the ansatz's first RY layer
    (fused steps that carry non-trainable angles), the RZZ/RZ/CZ layers
    lower to diagonal steps, and a trailing CX ladder lowers to
    permutation steps.
    """
    rng = np.random.default_rng(seed)
    ansatz = build_layered_ansatz(WIDE_QUBITS, WIDE_LAYERS)
    bound = ansatz.bound(rng.uniform(-1.0, 1.0, ansatz.num_parameters))
    circuits = []
    for row in rng.uniform(0.0, np.pi, (n_rows, WIDE_QUBITS)):
        encoder = QuantumCircuit(WIDE_QUBITS)
        for wire, angle in enumerate(row):
            encoder.add("ry", wire, float(angle))
        circuit = encoder.compose(bound)
        for wire in range(WIDE_QUBITS - 1):
            circuit.add("cx", (wire, wire + 1))
        circuits.append(circuit)
    return circuits


def z_word_circuits() -> list:
    return make_batch(["ry", "rzz", "rx", "cz", "rz"], seed=21)


def z_word_values(probs: np.ndarray, words) -> np.ndarray:
    """``(B, T)`` Z-word expectations of ``(B, 2^n)`` distributions."""
    n_qubits = int(np.log2(probs.shape[-1]))
    index = np.arange(probs.shape[-1])
    signs = np.array(
        [
            np.prod(
                [1 - 2 * ((index >> (n_qubits - 1 - w)) & 1) for w in word],
                axis=0,
            )
            for word in words
        ]
    )
    return probs @ signs.T


def shift_rule_jacobian(circuit, words) -> np.ndarray:
    """``(T, n_params)`` Z-word Jacobian by the two-term shift rule.

    Every parameter must occur once (as in ``build_layered_ansatz``);
    the shifted circuits run on the forward engine only.
    """
    theta = np.asarray(circuit.parameters, dtype=np.float64)
    shifted = []
    for index in range(theta.size):
        for sign in (1.0, -1.0):
            moved = theta.copy()
            moved[index] += sign * np.pi / 2
            shifted.append(circuit.bound(moved))
    probs = (
        BatchedStatevector(circuit.n_qubits, len(shifted))
        .evolve(CircuitBatch(shifted))
        .probabilities()
    )
    values = z_word_values(probs, words).reshape(theta.size, 2, -1)
    return ((values[:, 0] - values[:, 1]) / 2).T


def shared_param_circuit() -> QuantumCircuit:
    """Three parameters, two of which occur twice each."""
    circuit = QuantumCircuit(N_QUBITS)
    circuit.add_trainable("ry", 0, 0)
    circuit.add_trainable("rzz", (0, 1), 1)
    circuit.add_trainable("ry", 1, 0)  # param 0 again
    circuit.add_trainable("rx", 2, 2)
    circuit.add("cz", (1, 2))
    circuit.add_trainable("rzz", (1, 2), 1)  # param 1 again
    circuit.bind([0.4, -0.9, 1.3])
    return circuit


class TestBatchedBitIdentity:
    @given(layers=LAYER_SETS, seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_batched_equals_batch_of_one_and_references(self, layers, seed):
        circuits = make_batch(layers, seed)
        plan = sim_compile.compile_circuit(circuits[0], mode="statevector")
        expectations, jacobians = adjoint_expectation_and_jacobian_batch(
            circuits, plan=plan
        )

        for index, circuit in enumerate(circuits):
            # Bit-identical to the same plan run as a batch of one.
            single_exp, single_jac = adjoint_expectation_and_jacobian_batch(
                [circuit], plan=plan
            )
            assert np.array_equal(expectations[index], single_exp[0])
            assert np.array_equal(jacobians[index], single_jac[0])
            # Agreement with the dense oracle.
            assert np.allclose(
                expectations[index], oracle_expectations(circuit),
                atol=1e-10,
            )
            assert np.allclose(
                jacobians[index], oracle_jacobian(circuit), atol=1e-8
            )

        if circuits[0].num_parameters:
            # Agreement with parameter shift on the exact backend.
            backend = IdealBackend(exact=True)
            shift = parameter_shift_jacobian_batch(circuits, backend)
            for index in range(len(circuits)):
                assert np.allclose(jacobians[index], shift[index], atol=1e-8)

    def test_multi_occurrence_parameters_summed(self):
        circuit = shared_param_circuit()
        plan = sim_compile.compile_circuit(circuit, mode="statevector")
        batched = adjoint_jacobian(circuit, plan=plan)
        assert np.allclose(batched, oracle_jacobian(circuit), atol=1e-8)
        shift = parameter_shift_jacobian_batch(
            [circuit], IdealBackend(exact=True)
        )
        assert np.allclose(batched, shift[0], atol=1e-8)


class TestCircuitMajorSweep:
    """The reverse-replay over the ``(B, 1 + T) + (2,)*n`` stack."""

    @pytest.fixture(scope="class")
    def recorded(self):
        with np.load(RECORDED_JACOBIANS) as data:
            return {key: data[key] for key in data.files}

    @staticmethod
    def sweep_batch_of_one(circuits, plan, observables=None):
        """The batched sweep, checked slice by slice against batches
        of one through the same plan."""
        expectations, jacobians = adjoint_expectation_and_jacobian_batch(
            circuits, plan=plan, observables=observables
        )
        for index, circuit in enumerate(circuits):
            single_exp, single_jac = adjoint_expectation_and_jacobian_batch(
                [circuit], plan=plan, observables=observables
            )
            assert np.array_equal(expectations[index], single_exp[0])
            assert np.array_equal(jacobians[index], single_jac[0])
        return expectations, jacobians

    def test_gate_action_oracle_matches_dense_unitary(self):
        circuit = QuantumCircuit(3)
        circuit.add("ry", 1, 0.4).add("rzx", (2, 0), -0.8)
        circuit.add("cx", (0, 2)).add("rxx", (1, 2), 1.1).add("cz", (2, 1))
        assert np.allclose(
            ref.statevector_by_gates(circuit), ref.statevector(circuit),
            atol=1e-12,
        )

    def test_wide_fused_diag_permutation_sweep(self, recorded):
        circuits = wide_circuits()
        plan = sim_compile.compile_circuit(circuits[0], mode="statevector")
        assert set(plan.step_counts()) == {"matmul", "diag", "permutation"}
        expectations, jacobians = self.sweep_batch_of_one(circuits, plan)

        shift = parameter_shift_jacobian_batch(
            circuits, IdealBackend(exact=True)
        )
        for index, circuit in enumerate(circuits):
            probs = np.abs(ref.statevector_by_gates(circuit)) ** 2
            assert np.allclose(
                expectations[index], ref.expectations_z(probs), atol=1e-10
            )
            assert np.allclose(jacobians[index], shift[index], atol=1e-8)
        # Dense-oracle central differences of the first row.
        circuit = circuits[0]
        theta = np.asarray(circuit.parameters, dtype=np.float64)
        oracle = np.empty((WIDE_QUBITS, theta.size))
        for index in range(theta.size):
            step = np.zeros_like(theta)
            step[index] = ORACLE_STEP
            plus, minus = (
                ref.expectations_z(
                    np.abs(ref.statevector_by_gates(circuit.bound(value)))
                    ** 2
                )
                for value in (theta + step, theta - step)
            )
            oracle[:, index] = (plus - minus) / (2 * ORACLE_STEP)
        assert np.allclose(jacobians[0], oracle, atol=1e-8)
        assert np.allclose(
            jacobians, recorded["wide"], rtol=0.0, atol=1e-12
        )

    def test_reverse_replay_returns_kets_to_zero(self):
        """The sweep un-applies every step and hands the stack back in
        canonical axis order: each circuit's ket row is ``|0...0>``."""
        circuits = wide_circuits()
        batch = CircuitBatch(circuits)
        plan = sim_compile.compile_circuit(batch, mode="statevector")
        kets = BatchedStatevector(WIDE_QUBITS, batch.size).evolve(
            batch, plan=plan
        ).tensor
        combined = np.stack([kets, kets], axis=1)
        jacobian = np.zeros((batch.size, 1, batch.num_parameters))
        out = plan.adjoint().run(combined, batch, jacobian)
        assert out.shape == combined.shape
        zero = np.zeros(2**WIDE_QUBITS, dtype=np.complex128)
        zero[0] = 1.0
        for row in out.reshape(batch.size, 2, -1):
            assert np.allclose(row, zero, atol=1e-12)
        # An identity "observable" has no gradient.
        assert np.allclose(jacobian, 0.0, atol=1e-12)

    def test_multi_wire_z_words(self, recorded):
        circuits = z_word_circuits()
        plan = sim_compile.compile_circuit(circuits[0], mode="statevector")
        expectations, jacobians = self.sweep_batch_of_one(
            circuits, plan, observables=Z_WORDS
        )
        for index, circuit in enumerate(circuits):
            assert np.allclose(
                expectations[index],
                z_word_values(ref.probabilities(circuit)[None], Z_WORDS)[0],
                atol=1e-10,
            )
            theta = np.asarray(circuit.parameters, dtype=np.float64)
            oracle = np.empty((len(Z_WORDS), theta.size))
            for column in range(theta.size):
                step = np.zeros_like(theta)
                step[column] = ORACLE_STEP
                plus, minus = (
                    z_word_values(
                        ref.probabilities(circuit.bound(value))[None],
                        Z_WORDS,
                    )[0]
                    for value in (theta + step, theta - step)
                )
                oracle[:, column] = (plus - minus) / (2 * ORACLE_STEP)
            assert np.allclose(jacobians[index], oracle, atol=1e-8)
            assert np.allclose(
                jacobians[index],
                shift_rule_jacobian(circuit, Z_WORDS),
                atol=1e-8,
            )
        assert np.allclose(
            jacobians, recorded["z_words"], rtol=0.0, atol=1e-12
        )


class TestTranspiledCircuits:
    @given(layers=LAYER_SETS, seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_decomposed_circuits_agree(self, layers, seed):
        """Basis decomposition preserves the Jacobian (same wires)."""
        logical = make_batch(layers, seed)
        physical = [decompose_to_basis(circuit) for circuit in logical]
        plan = sim_compile.compile_circuit(physical[0], mode="statevector")
        _, jacobians = adjoint_expectation_and_jacobian_batch(
            physical, plan=plan
        )
        for index, circuit in enumerate(logical):
            assert np.allclose(
                jacobians[index], adjoint_jacobian(circuit), atol=1e-8
            )

    def test_routed_circuit_adjoint_matches_parameter_shift(self):
        """Self-consistency on a fully transpiled (routed) circuit."""
        logical = build_layered_ansatz(N_QUBITS, ["ry", "rzz", "rx"])
        rng = np.random.default_rng(5)
        logical.bind(rng.uniform(-np.pi, np.pi, logical.num_parameters))
        line = [(i, i + 1) for i in range(N_QUBITS - 1)]
        routed = transpile(logical, line, N_QUBITS).circuit
        physical = decompose_to_basis(routed)

        plan = sim_compile.compile_circuit(physical, mode="statevector")
        batched = adjoint_jacobian(physical, plan=plan)
        assert np.array_equal(batched.shape,
                              (N_QUBITS, physical.num_parameters))
        shift = parameter_shift_jacobian_batch(
            [physical], IdealBackend(exact=True)
        )
        assert np.allclose(batched, shift[0], atol=1e-8)
        assert np.allclose(batched, oracle_jacobian(physical), atol=1e-8)


class TestEngineEntryPoints:
    def test_param_indices_masking(self):
        circuits = make_batch(["ry", "rzz", "rx"], seed=3)
        backend = IdealBackend(exact=True)
        full = adjoint_engine_jacobian_batch(circuits, backend)
        selected = [0, 2]
        masked = adjoint_engine_jacobian_batch(
            circuits, backend, param_indices=selected
        )
        n_params = circuits[0].num_parameters
        for full_jac, masked_jac in zip(full, masked):
            for column in range(n_params):
                if column in selected:
                    assert np.array_equal(
                        masked_jac[:, column], full_jac[:, column]
                    )
                else:
                    assert np.all(masked_jac[:, column] == 0.0)

    @pytest.mark.parametrize("index", [-1, 99])
    def test_param_indices_out_of_range_rejected(self, index):
        """Like parameter shift: an index outside ``[0, n_params)``
        names a parameter the circuit does not use."""
        circuits = make_batch(["ry", "rzz", "rx"], seed=3)
        backend = IdealBackend(exact=True)
        for engine in (
            adjoint_engine_jacobian_batch, parameter_shift_jacobian_batch
        ):
            with pytest.raises(ValueError, match=f"parameter {index} is unused"):
                engine(circuits, backend, param_indices=[index])

    def test_unfused_backend_bit_identical_to_seed(self):
        """The engine's grouped sweep equals the single-circuit
        ``adjoint_jacobian`` entry point bit for bit, and replays the
        backend's cached plan rather than compiling its own."""
        circuits = make_batch(["ry", "rzz", "rx", "cz"], seed=7)
        backend = IdealBackend(exact=True)
        plan = adjoint_plan_for(circuits[0], backend)
        assert backend.plan_cache.stats()["misses"] == 1
        jacobians = adjoint_engine_jacobian_batch(circuits, backend)
        assert backend.plan_cache.stats()["misses"] == 1
        for jacobian, circuit in zip(jacobians, circuits):
            assert np.array_equal(jacobian, adjoint_jacobian(circuit))
            assert np.array_equal(
                jacobian, adjoint_jacobian(circuit, plan=plan)
            )

    def test_forward_values_match_backend_and_metering(self):
        circuits = make_batch(["ry", "rzz", "rx"], seed=9)
        backend = IdealBackend(exact=True)
        reference = backend.expectations(circuits, purpose="reference")
        before = dict(backend.meter.by_purpose)
        expectations, jacobians = adjoint_forward_and_jacobian_batch(
            circuits, backend=backend
        )
        assert np.allclose(expectations, reference, atol=1e-12)
        assert len(jacobians) == len(circuits)
        # The combined entry meters its forward values like a separate
        # forward submission would; the sweep itself runs no circuits.
        after = backend.meter.by_purpose
        assert after.get("forward", 0) - before.get("forward", 0) == len(
            circuits
        )
        assert "gradient" not in after
        adjoint_engine_jacobian_batch(circuits, backend)
        assert backend.meter.by_purpose == after

    def test_mixed_structure_submission(self):
        """Groups of different structures are swept separately and
        scattered back into submission order."""
        a = make_batch(["ry", "rzz"], seed=1)
        b = make_batch(["rx", "cz", "rz"], seed=2)
        mixed = [a[0], b[0], a[1], b[1]]
        jacobians = adjoint_engine_jacobian_batch(
            mixed, IdealBackend(exact=True)
        )
        for jacobian, circuit in zip(jacobians, mixed):
            assert np.array_equal(jacobian, adjoint_jacobian(circuit))


class TestValidation:
    def test_density_plan_rejected(self):
        circuit = shared_param_circuit()
        plan = sim_compile.compile_circuit(circuit, mode="density")
        with pytest.raises(ValueError, match="statevector"):
            plan.adjoint()

    def test_non_shift_rule_trainable_rejected_on_plan_path(self):
        circuit = QuantumCircuit(1)
        circuit.add_trainable("phase", 0, 0)
        circuit.bind([0.5])
        plan = sim_compile.compile_circuit(circuit, mode="statevector")
        with pytest.raises(ValueError, match="Pauli-rotation"):
            adjoint_jacobian(circuit, plan=plan)

    @pytest.mark.parametrize(
        "observables,message",
        [
            ([(5,)], "wire 5 out of range"),
            ([(-1,)], "wire -1 out of range"),
            ([(0, 0)], "repeats wire 0"),
            ([], "at least one observable"),
        ],
        ids=["wire-above-register", "negative-wire", "repeated-wire", "empty"],
    )
    def test_bad_observables_rejected(self, observables, message):
        circuits = make_batch(["ry", "rzz"], seed=4)
        with pytest.raises(ValueError, match=message):
            adjoint_expectation_and_jacobian_batch(
                circuits, observables=observables
            )

    def test_plan_without_param_indices_rejected(self):
        circuit = shared_param_circuit()
        plan = sim_compile.compile_circuit(circuit, mode="statevector")
        stripped = sim_compile.ExecutionPlan(
            plan.n_qubits, plan.mode, plan.steps, plan.n_source_ops
        )
        with pytest.raises(ValueError, match="parameter-index"):
            stripped.adjoint()


class TestDownstreamEngines:
    def test_vqe_adjoint_gradient_matches_parameter_shift(self):
        model = transverse_field_ising(3)
        ansatz = hardware_efficient_ansatz(3, n_layers=1, seed=2)
        backend = IdealBackend(exact=True)
        indices = np.arange(ansatz.num_parameters)
        adjoint = VqeEngine(
            model, ansatz, backend, gradient_engine="adjoint"
        ).gradient(indices)
        shift = VqeEngine(
            model, ansatz, IdealBackend(exact=True),
            gradient_engine="parameter_shift",
        ).gradient(indices)
        assert np.allclose(adjoint, shift, atol=1e-8)

    def test_vqe_adjoint_requires_exact_backend(self):
        model = transverse_field_ising(3)
        ansatz = hardware_efficient_ansatz(3, n_layers=1, seed=2)
        noisy = NoisyBackend.from_device_name("ibmq_lima", seed=0)
        with pytest.raises(ValueError, match="exact backend"):
            VqeEngine(model, ansatz, noisy, gradient_engine="adjoint")

    def test_training_step_fused_matches_unfused(self):
        """Training on the compiled adjoint sweep coincides with the
        parameter-shift reference step on an exact backend."""
        config = TrainingConfig(
            task="mnist2", steps=3, batch_size=4, shots=512,
            gradient_engine="adjoint", eval_every=0, eval_size=30, seed=0,
        )
        adjoint = TrainingEngine(config, IdealBackend(exact=True))
        shift = TrainingEngine(
            dataclasses.replace(config, gradient_engine="parameter_shift"),
            IdealBackend(exact=True),
        )
        for _ in range(config.steps):
            adjoint_record = adjoint.train_step()
            shift_record = shift.train_step()
            assert np.isclose(
                adjoint_record.loss, shift_record.loss, atol=1e-8
            )
        assert np.allclose(adjoint.theta, shift.theta, atol=1e-8)
        # One forward submission per step, no gradient circuits.
        by_purpose = adjoint.backend.meter.by_purpose
        assert by_purpose.get("forward", 0) == (
            config.steps * config.batch_size
        )
        assert "gradient" not in by_purpose
