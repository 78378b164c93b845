"""Compiled execution plans: fusion, specialization, caching, accuracy.

The plan layer's contract has three legs:

* plan replay agrees with the dense reference oracle
  (``tests/dense_reference.py``) within 1e-10 on every engine
  (statevector / density, single / batched, logical / transpiled, ideal
  / noisy with full or Kraus-only noise models), and is
  deterministic per seed;
* a single-state engine is a batch of one: its result is bit-identical
  to the circuit's row of a larger batch under the same plan;
* plans are compiled once per structure and cached (LRU with hit/miss
  counters), as is transpilation (fingerprint-keyed).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.circuits import CircuitBatch, QuantumCircuit
from repro.circuits.layers import build_layered_ansatz
from repro.circuits.transpile import transpile as transpile_circuit
from repro.gradients.parameter_shift import parameter_shift_jacobian_batch
from repro.hardware import IdealBackend, NoisyBackend
from repro.noise.calibration import get_calibration
from repro.noise.model import NoiseModel
from repro.parallel import BackendSpec, ShardPlanner
from repro.parallel.shard import circuit_cost
from repro.sim import (
    BatchedDensityMatrix,
    BatchedStatevector,
    DensityMatrix,
    PlanCache,
    Statevector,
    compile_circuit,
)
from repro.sim import compile as sim_compile
from repro.sim.compile import (
    ConstantStep,
    DiagStep,
    FusedStep,
    PermutationStep,
    WireChainStep,
)

import dense_reference as ref

#: Gate vocabulary for the property test: mixes matmul, diagonal, and
#: permutation gates, trainable / literal / parameterless flavours.
_ONE_QUBIT = ["h", "x", "s", "sx", "ry", "rx", "rz", "phase", "z", "t", "i", "y", "u3"]
_TWO_QUBIT = ["cx", "cz", "rzz", "rxx", "ryy", "rzx", "crz", "crx", "swap"]


def random_structure(rng, n_qubits, n_ops=16):
    circuit = QuantumCircuit(n_qubits)
    n_trainable = 0
    for _ in range(n_ops):
        if rng.random() < 0.6 or n_qubits < 2:
            name = _ONE_QUBIT[rng.integers(len(_ONE_QUBIT))]
            wires = int(rng.integers(n_qubits))
        else:
            name = _TWO_QUBIT[rng.integers(len(_TWO_QUBIT))]
            a, b = rng.choice(n_qubits, size=2, replace=False)
            wires = (int(a), int(b))
        if name in ("ry", "rx", "rz", "rzz", "rxx", "ryy", "rzx") and rng.random() < 0.5:
            circuit.add_trainable(name, wires, n_trainable)
            n_trainable += 1
        elif name in ("ry", "rx", "rz", "rzz", "rxx", "ryy", "rzx", "phase", "crz", "crx"):
            circuit.add(name, wires, float(rng.uniform(-np.pi, np.pi)))
        elif name == "u3":
            circuit.add(name, wires, *(float(x) for x in rng.uniform(-np.pi, np.pi, 3)))
        else:
            circuit.add(name, wires)
    return circuit


def rebind(circuit, rng):
    return circuit.bound(rng.uniform(-np.pi, np.pi, circuit.num_parameters))


def sweep_circuit(n_qubits=4, layers=("ry", "rzz", "rz", "cz"), reps=3, seed=5):
    """Encoder + deep layered ansatz, the training-loop circuit shape."""
    rng = np.random.default_rng(seed)
    ansatz = build_layered_ansatz(n_qubits, list(layers) * reps)
    circuit = QuantumCircuit(n_qubits)
    for wire in range(n_qubits):
        circuit.add("ry", wire, float(rng.uniform(0, np.pi)))
    full = circuit.compose(ansatz)
    return full.bind(rng.uniform(-np.pi, np.pi, full.num_parameters))


class KrausOnly:
    """Noise model view that offers only ``channels_for``."""

    def __init__(self, model):
        self.channels_for = model.channels_for


def oracle_shift_jacobian(circuit) -> np.ndarray:
    """Parameter-shift Jacobian (shifts of +-pi/2) on the dense oracle;
    exact for circuits whose parameters each drive one rotation."""
    theta = np.asarray(circuit.parameters, dtype=np.float64)
    jacobian = np.empty((circuit.n_qubits, theta.size))
    for index in range(theta.size):
        shift = np.zeros_like(theta)
        shift[index] = np.pi / 2
        plus = ref.probabilities(circuit.bound(theta + shift))
        minus = ref.probabilities(circuit.bound(theta - shift))
        jacobian[:, index] = (
            ref.expectations_z(plus) - ref.expectations_z(minus)
        ) / 2
    return jacobian


class TestCompilerLowering:
    def test_constant_run_folds_to_one_step(self):
        circuit = QuantumCircuit(2).add("h", 0).add("h", 1).add("cz", (0, 1))
        plan = compile_circuit(circuit)
        # h, h fuse; cz (diagonal) joins the same 2-wire block -> one
        # fused matmul step for all three.
        assert len(plan.steps) == 1
        assert plan.steps[0].kind == "matmul"
        assert isinstance(plan.steps[0], ConstantStep)

    def test_identity_cancellation_is_dropped(self):
        circuit = QuantumCircuit(2).add("cx", (0, 1)).add("cx", (0, 1))
        plan = compile_circuit(circuit)
        assert plan.steps == []

    def test_permutation_block_specializes(self):
        circuit = QuantumCircuit(2).add("x", 0).add("cx", (0, 1))
        plan = compile_circuit(circuit)
        assert len(plan.steps) == 1
        assert isinstance(plan.steps[0], PermutationStep)

    def test_diagonal_gates_merge_across_wires(self):
        circuit = QuantumCircuit(4)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            circuit.add_trainable("rzz", (a, b), len(circuit.templates))
        circuit.add("cz", (0, 1)).add("z", 2)
        circuit.bind(np.linspace(0.1, 0.4, 4))
        plan = compile_circuit(circuit)
        # The whole ring + trailing constants is one diagonal pass.
        assert len(plan.steps) == 1
        assert isinstance(plan.steps[0], DiagStep)

    def test_parameterized_fusion_across_disjoint_wires(self):
        circuit = QuantumCircuit(2, num_parameters=2)
        circuit.add_trainable("ry", 0, 0)
        circuit.add_trainable("ry", 1, 1)
        circuit.add("cx", (0, 1))
        circuit.bind([0.3, 0.7])
        plan = compile_circuit(circuit)
        assert len(plan.steps) == 1
        assert isinstance(plan.steps[0], FusedStep)

    def test_gemm_and_step_counts(self):
        circuit = sweep_circuit()
        plan = compile_circuit(circuit)
        counts = plan.step_counts()
        assert len(plan.steps) < circuit.num_operations()
        assert plan.cost_ops() > 0

    def test_noisy_plan_uses_wire_chains(self):
        model = NoiseModel(get_calibration("ibmq_lima"))
        plan = compile_circuit(
            sweep_circuit(), mode="density", noise_model=model
        )
        kinds = plan.step_counts()
        assert kinds.get("superop", 0) > 0
        assert set(kinds) <= {"superop", "matmul", "diag", "permutation"}
        assert any(isinstance(s, WireChainStep) for s in plan.steps)

    def test_kraus_only_model_lowers_to_wire_chains(self):
        """``channels_for`` alone lowers to the same wire chains, and the
        chains' superoperators are bit-identical to ``superop_for``'s."""
        model = NoiseModel(get_calibration("ibmq_manila"))
        circuit = sweep_circuit()
        plan = compile_circuit(
            circuit, mode="density", noise_model=KrausOnly(model)
        )
        full = compile_circuit(circuit, mode="density", noise_model=model)
        assert plan.describe() == full.describe()
        assert any(isinstance(s, WireChainStep) for s in plan.steps)
        lone = QuantumCircuit(2).add("rzz", (0, 1), 0.4)
        chains = compile_circuit(
            lone, mode="density", noise_model=KrausOnly(model)
        ).steps[1:]
        assert [step.wire for step in chains] == [0, 1]
        want = model.superop_for(lone.operations[0])
        for step in chains:
            (factor,) = step.factors
            assert np.array_equal(factor.matrix, want)

    def test_multi_wire_channel_is_rejected_at_compile_time(self):
        class PairChannel:
            def channels_for(self, op):
                yield [np.eye(4, dtype=complex)], (0, 1)

        circuit = QuantumCircuit(2).add("h", 0)
        with pytest.raises(ValueError, match="single-wire"):
            compile_circuit(
                circuit, mode="density", noise_model=PairChannel()
            )

    def test_scale_zero_model_compiles_pure_unitary(self):
        model = NoiseModel(get_calibration("ibmq_lima"), scale=0.0)
        plan = compile_circuit(
            sweep_circuit(), mode="density", noise_model=model
        )
        assert plan.step_counts().get("superop", 0) == 0

    def test_mode_validation(self):
        circuit = QuantumCircuit(1).add("h", 0)
        with pytest.raises(ValueError, match="mode"):
            compile_circuit(circuit, mode="bogus")
        with pytest.raises(ValueError, match="density"):
            compile_circuit(
                circuit,
                mode="statevector",
                noise_model=NoiseModel(get_calibration("ibmq_lima")),
            )

    def test_plan_mismatch_is_rejected(self):
        plan = compile_circuit(QuantumCircuit(2).add("h", 0))
        other = QuantumCircuit(2).add("h", 0).add("h", 1)
        with pytest.raises(ValueError, match="ops"):
            Statevector(2).evolve(other, plan=plan)
        with pytest.raises(ValueError, match="qubits"):
            Statevector(3).evolve(QuantumCircuit(3).add("h", 0), plan=plan)
        with pytest.raises(ValueError, match="statevector"):
            DensityMatrix(2).evolve(
                QuantumCircuit(2).add("h", 0), plan=plan
            )


class TestFusedEquivalence:
    """Fused plan replay vs the unfused dense reference, which builds
    every gate as a full Kronecker-product operator: within 1e-10 on all
    engines."""

    @pytest.mark.parametrize("seed", range(6))
    def test_statevector_property(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n_qubits = int(rng.integers(1, 5))
        base = random_structure(rng, n_qubits, n_ops=int(rng.integers(4, 24)))
        circuits = [rebind(base, rng) for _ in range(5)]
        plan = compile_circuit(base)
        batch = CircuitBatch(circuits)
        stacked = BatchedStatevector(n_qubits, 5).evolve(batch, plan=plan)
        for row, circuit in zip(stacked.vectors, circuits):
            assert np.max(np.abs(row - ref.statevector(circuit))) < 1e-10
            # The single-state engine is a batch of one: bit-identical.
            single = Statevector(n_qubits).evolve(circuit, plan=plan)
            assert np.array_equal(single.vector, row)

    @staticmethod
    def check_density_property(seed, kraus_only):
        rng = np.random.default_rng(2000 + seed)
        n_qubits = int(rng.integers(1, 4))
        model = NoiseModel(get_calibration("ibmq_santiago"))
        if kraus_only:
            model = KrausOnly(model)
        base = random_structure(rng, n_qubits, n_ops=int(rng.integers(4, 18)))
        circuits = [rebind(base, rng) for _ in range(4)]
        plan = compile_circuit(base, mode="density", noise_model=model)
        assert any(isinstance(s, WireChainStep) for s in plan.steps)
        batch = CircuitBatch(circuits)
        stacked = BatchedDensityMatrix(n_qubits, 4).evolve(batch, plan=plan)
        for row, circuit in enumerate(circuits):
            want = ref.density_matrix(circuit, model)
            assert np.max(np.abs(stacked.matrices[row] - want)) < 1e-10
            single = DensityMatrix(n_qubits).evolve(circuit, plan=plan)
            assert np.array_equal(single.matrix, stacked.matrices[row])

    @pytest.mark.parametrize("seed", range(4))
    def test_density_property_with_noise(self, seed):
        self.check_density_property(seed, kraus_only=False)

    @pytest.mark.parametrize("seed", range(4))
    def test_density_property_with_kraus_only_noise(self, seed):
        self.check_density_property(seed, kraus_only=True)

    def test_ideal_backend_fused_vs_unfused(self):
        rng = np.random.default_rng(30)
        base = random_structure(rng, 4, n_ops=20)
        circuits = [rebind(base, rng) for _ in range(6)]
        got = IdealBackend(exact=True).expectations(circuits)
        for row, circuit in zip(got, circuits):
            want = ref.expectations_z(ref.probabilities(circuit))
            assert np.max(np.abs(row - want)) < 1e-10

    @pytest.mark.parametrize("transpile", [False, True])
    def test_noisy_backend_fused_vs_unfused(self, transpile):
        rng = np.random.default_rng(31)
        circuit = QuantumCircuit(4, num_parameters=2)
        circuit.add("h", 0)
        circuit.add_trainable("rzz", (0, 1), 0)
        circuit.add("swap", (0, 3))
        circuit.add_trainable("ry", 2, 1)
        circuit.add("cx", (1, 2))
        circuits = [
            circuit.bound(rng.uniform(-np.pi, np.pi, 2)) for _ in range(3)
        ]
        backend = NoisyBackend.from_device_name(
            "ibmq_lima", seed=0, transpile=transpile
        )
        stacked = backend.observed_probabilities_batch(circuits)
        calibration = backend.calibration
        for row, logical in zip(stacked, circuits):
            physical, layout = logical, None
            if transpile:
                routed = transpile_circuit(
                    logical, calibration.coupling_map, calibration.n_qubits
                )
                physical, layout = routed.circuit, routed.final_layout
            want = ref.observed_probabilities(
                physical, backend.noise_model, layout, logical.n_qubits
            )
            assert np.max(np.abs(row - want)) < 1e-10

    def test_fused_sampling_deterministic_per_seed(self):
        circuits = [sweep_circuit(seed=s) for s in range(3)]
        runs = []
        for _ in range(2):
            backend = NoisyBackend.from_device_name("ibmq_lima", seed=42)
            runs.append(backend.run(circuits, shots=512))
        for a, b in zip(*runs):
            assert a.counts == b.counts
            assert np.array_equal(a.expectations, b.expectations)

    def test_fused_gradients_close_to_unfused(self):
        circuits = [sweep_circuit(seed=s) for s in range(2)]
        got = parameter_shift_jacobian_batch(
            circuits, IdealBackend(exact=True)
        )
        for jacobian, circuit in zip(got, circuits):
            want = oracle_shift_jacobian(circuit)
            assert np.max(np.abs(jacobian - want)) < 1e-10


class TestSeedPathBitIdentity:
    """Backends reproduce direct single-state evolution bit for bit, and
    both match the unfused dense reference."""

    def test_unfused_ideal_matches_direct_statevector(self):
        rng = np.random.default_rng(40)
        base = random_structure(rng, 3, n_ops=14)
        circuits = [rebind(base, rng) for _ in range(4)]
        backend = IdealBackend(exact=True)
        results = backend.run(circuits, shots=0)
        for circuit, result in zip(circuits, results):
            direct = Statevector(3).evolve(circuit)
            assert np.array_equal(
                result.expectations,
                np.asarray(direct.expectation_z(), dtype=np.float64),
            )
            want = ref.expectations_z(ref.probabilities(circuit))
            assert np.max(np.abs(result.expectations - want)) < 1e-10

    def test_unfused_noisy_matches_direct_density(self):
        circuits = [sweep_circuit(seed=s) for s in range(2)]
        backend = NoisyBackend.from_device_name("ibmq_lima", seed=1)
        model = backend.noise_model
        plan = compile_circuit(circuits[0], mode="density", noise_model=model)
        stacked = BatchedDensityMatrix(4, 2).evolve(
            CircuitBatch(circuits), plan=plan
        )
        for row, circuit in enumerate(circuits):
            direct = DensityMatrix(4).evolve(circuit, noise_model=model)
            assert np.array_equal(direct.matrix, stacked.matrices[row])
            want = ref.density_matrix(circuit, model)
            assert np.max(np.abs(direct.matrix - want)) < 1e-10
        # Readout on top: one circuit alone equals its row of the group.
        grouped = backend.observed_probabilities_batch(circuits)
        assert np.array_equal(
            backend.observed_probabilities(circuits[1]), grouped[1]
        )


class TestReplayBuffers:
    """Steps after the first write into the replay's own intermediates;
    the caller's tensor is never written, and results match the dense
    reference whichever step kind comes first."""

    @staticmethod
    def first_step_circuit(first: str) -> QuantumCircuit:
        circuit = QuantumCircuit(3, num_parameters=3)
        for wire in range(3):
            circuit.add_trainable(first, wire, wire)
        # cx spans all three wires with the open blocks: it closes them.
        circuit.add("rzz", (0, 2), 0.3).add("cx", (1, 2)).add("h", 0)
        circuit.add("ry", 2, 0.7).add("cz", (0, 1))
        return circuit

    @pytest.mark.parametrize("first", ["rz", "ry"])
    @pytest.mark.parametrize("mode", ["statevector", "density"])
    @pytest.mark.parametrize("fresh", [False, True])
    def test_input_tensor_is_never_written(self, first, mode, fresh):
        rng = np.random.default_rng(43)
        base = self.first_step_circuit(first)
        theta = rng.uniform(-np.pi, np.pi, 3)
        # Repeated rows share every prefix: the trie replays them.
        circuits = [base.bound(theta)] * 2 + [rebind(base, rng)]
        batch = CircuitBatch(circuits)
        model = None
        if mode == "density":
            model = NoiseModel(get_calibration("ibmq_santiago"))
        plan = compile_circuit(base, mode=mode, noise_model=model)
        kinds = {"rz": DiagStep, "ry": FusedStep}
        if model is None:
            assert isinstance(plan.steps[0], kinds[first])
        engine = BatchedDensityMatrix if model else BatchedStatevector
        tensor = engine(3, 3).tensor
        before = tensor.copy()
        with mock.patch.object(sim_compile, "TRIE_MIN_WORK", 0):
            assert (plan._schedule(batch, fresh).leaves is not None) == fresh
            out = plan.run(tensor, batch, fresh=fresh)
        assert np.array_equal(tensor, before)
        for row, circuit in zip(out, circuits):
            if model is None:
                want = ref.statevector(circuit)
            else:
                want = ref.density_matrix(circuit, model)
            assert np.max(np.abs(row.reshape(want.shape) - want)) < 1e-10


class TestPlanCache:
    def test_hit_miss_counting_and_eviction(self):
        cache = PlanCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b" (least recently used)
        assert cache.get("b") is None
        stats = cache.stats()
        assert stats == {
            "hits": 1,
            "misses": 2,
            "hit_rate": 1 / 3,
            "size": 2,
            "maxsize": 2,
        }
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 0

    def test_sweep_compiles_once(self):
        backend = IdealBackend(exact=True)
        circuits = [sweep_circuit(seed=s) for s in range(3)]
        parameter_shift_jacobian_batch(circuits, backend)
        stats = backend.plan_cache.stats()
        assert stats["size"] == 1  # one structure across all clones
        assert stats["misses"] == 1
        parameter_shift_jacobian_batch(circuits, backend)
        assert backend.plan_cache.stats()["misses"] == 1
        assert backend.plan_cache.stats()["hits"] >= 1

    def test_transpile_cache_hits_on_resubmission(self):
        backend = NoisyBackend.from_device_name(
            "ibmq_lima", seed=0, transpile=True
        )
        circuits = [sweep_circuit(seed=s) for s in range(2)]
        backend.run(circuits, shots=64)
        first = backend.transpile_cache.stats()
        assert first["misses"] == 2
        backend.run(circuits, shots=64)
        second = backend.transpile_cache.stats()
        assert second["misses"] == 2
        assert second["hits"] == 2

    def test_spec_rebuilt_replica_compiles_each_structure_once(self):
        replica = BackendSpec.from_backend(
            NoisyBackend.from_device_name("ibmq_lima")
        ).build()
        circuits = [sweep_circuit(seed=s) for s in range(3)]
        replica.run(circuits, shots=64)
        replica.run(circuits[:1], shots=64)
        stats = replica.plan_cache.stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)


class TestFusedCostModel:
    def test_planner_splits_less_under_fusion(self):
        # The planner splits by the plan's cost: what the workers replay.
        circuit = sweep_circuit()
        group = [circuit.copy() for _ in range(8)]
        planned = circuit_cost(circuit, plan=compile_circuit(circuit))
        floor = 1.5 * planned
        planner = ShardPlanner(8, min_shard_cost=floor)
        assert planner.n_shards(group) == int(8 * planned // floor) == 5

    def test_plan_provides_describe(self):
        plan = compile_circuit(sweep_circuit())
        text = plan.describe()
        assert "ExecutionPlan" in text and "steps" in text
