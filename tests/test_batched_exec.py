"""Batched execution: oracle agreement and batch invariances.

The batched engines are the only execution path, so their contract is
checked two ways:

* **oracle agreement** — results match the dense reference
  (``tests/dense_reference.py``) within 1e-10;
* **bit-exact invariances** — a circuit's exact result does not depend
  on the batch it rides in (a batch of one equals its row of a larger
  batch, single-state engines equal their batched row), sampled results
  consume the seeded RNG stream row by row so a group reproduces
  one-by-one submission, and metering / purpose accounting does not
  depend on how a submission was grouped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import (
    CircuitBatch,
    QuantumCircuit,
    get_architecture,
    group_by_structure,
)
from repro.gradients.finite_difference import finite_difference_jacobian
from repro.gradients.parameter_shift import parameter_shift_jacobian_batch
from repro.hardware import (
    IdealBackend,
    NoiseInjectionBackend,
    NoisyBackend,
)
from repro.noise.calibration import get_calibration
from repro.noise.model import NoiseModel
from repro.sim import (
    BatchedDensityMatrix,
    BatchedStatevector,
    DensityMatrix,
    Statevector,
    gates,
    run_circuit_batch,
    run_density_batch,
)

import dense_reference as ref

class KrausOnly:
    """Noise model view that offers only ``channels_for``."""

    def __init__(self, model):
        self.channels_for = model.channels_for


class ChannelAfterIdentity:
    """Noise model that follows each identity gate with one channel."""

    def __init__(self, kraus_ops, wires):
        self.channel = (kraus_ops, wires)

    def channels_for(self, op):
        return [self.channel] if op.name == "i" else []


#: Gate vocabulary for random structure generation.
_ONE_QUBIT = ["h", "x", "s", "sx", "ry", "rx", "rz", "phase"]
_TWO_QUBIT = ["cx", "cz", "rzz", "rxx", "rzx", "crz", "swap"]


def random_structure(
    rng: np.random.Generator, n_qubits: int, n_ops: int = 12
) -> QuantumCircuit:
    """A random circuit mixing fixed, literal-angle, and trainable ops."""
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
        if name in ("ry", "rx", "rz", "rzz", "rxx", "rzx") and rng.random() < 0.5:
            circuit.add_trainable(name, wires, n_trainable)
            n_trainable += 1
        elif name in ("ry", "rx", "rz", "rzz", "rxx", "rzx", "phase", "crz"):
            circuit.add(name, wires, float(rng.uniform(-np.pi, np.pi)))
        else:
            circuit.add(name, wires)
    return circuit


def rebind(circuit: QuantumCircuit, rng: np.random.Generator) -> QuantumCircuit:
    """Same-structure clone with fresh random trainable angles."""
    return circuit.bound(rng.uniform(-np.pi, np.pi, circuit.num_parameters))


class TestStructureKey:
    def test_shifted_clones_share_structure(self):
        circuit = random_structure(np.random.default_rng(0), 3)
        positions = circuit.trainable_positions()
        if not positions:
            pytest.skip("no trainable ops drawn")
        shifted = circuit.shifted(positions[0], np.pi / 2)
        assert shifted.structure_signature() == circuit.structure_signature()
        assert shifted.structure_key() == circuit.structure_key()

    def test_rebinding_preserves_structure(self):
        rng = np.random.default_rng(1)
        circuit = random_structure(rng, 3)
        assert (
            rebind(circuit, rng).structure_key() == circuit.structure_key()
        )

    def test_different_wires_different_structure(self):
        a = QuantumCircuit(2).add("h", 0)
        b = QuantumCircuit(2).add("h", 1)
        assert a.structure_signature() != b.structure_signature()

    def test_building_invalidates_cache(self):
        circuit = QuantumCircuit(2).add("h", 0)
        before = circuit.structure_signature()
        circuit.add("cx", (0, 1))
        assert circuit.structure_signature() != before

    def test_literal_angles_do_not_split_groups(self):
        a = QuantumCircuit(1).add("ry", 0, 0.3)
        b = QuantumCircuit(1).add("ry", 0, 1.7)
        assert a.structure_signature() == b.structure_signature()

    def test_group_by_structure_positions(self):
        rng = np.random.default_rng(2)
        base_a = random_structure(rng, 3)
        base_b = random_structure(rng, 3)
        mixed = [base_a, base_b, rebind(base_a, rng), rebind(base_b, rng)]
        groups = group_by_structure(mixed)
        assert sorted(p for ps, _ in groups for p in ps) == [0, 1, 2, 3]
        assert [ps for ps, _ in groups] == [[0, 2], [1, 3]]


class TestCircuitBatch:
    def test_rejects_mixed_structures(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="structure"):
            CircuitBatch([random_structure(rng, 3), random_structure(rng, 3)])

    def test_angles_shape(self):
        rng = np.random.default_rng(4)
        base = random_structure(rng, 3)
        batch = CircuitBatch([base, rebind(base, rng), rebind(base, rng)])
        assert batch.angles.shape == (3, base.num_operations())

    def test_uniform_detection(self):
        """A literal angle stacks as one value batch-wide; a trainable
        slot carries each row's own bound theta."""
        base = QuantumCircuit(2)
        base.add("ry", 0, 0.5).add_trainable("rz", 1, 0)
        other = base.bound([1.0])
        batch = CircuitBatch([base, other])
        literal, trainable = batch.op_params(0), batch.op_params(1)
        assert np.array_equal(literal, [[0.5], [0.5]])
        assert trainable[1, 0] == 1.0
        assert trainable[0, 0] != trainable[1, 0]


class TestBatchedStatevector:
    @pytest.mark.parametrize("n_qubits", [1, 2, 4])
    def test_evolution_bit_identical(self, n_qubits):
        rng = np.random.default_rng(10 + n_qubits)
        base = random_structure(rng, n_qubits)
        circuits = [rebind(base, rng) for _ in range(7)]
        stacked = run_circuit_batch(CircuitBatch(circuits)).vectors
        for row, circuit in zip(stacked, circuits):
            single = Statevector(n_qubits).evolve(circuit)
            assert np.array_equal(row, single.vector)
            assert np.max(np.abs(row - ref.statevector(circuit))) < 1e-10
        # A batch of one equals its row of the larger batch.
        alone = run_circuit_batch(CircuitBatch(circuits[2:3])).vectors
        assert np.array_equal(alone[0], stacked[2])

    def test_readout_bit_identical(self):
        rng = np.random.default_rng(20)
        base = random_structure(rng, 4)
        circuits = [rebind(base, rng) for _ in range(5)]
        state = run_circuit_batch(CircuitBatch(circuits))
        probs = state.probabilities()
        exps = state.expectation_z()
        for row in range(len(circuits)):
            single = Statevector(4).evolve(circuits[row])
            assert np.array_equal(probs[row], single.probabilities())
            assert np.array_equal(exps[row], single.expectation_z())

    def test_sampling_matches_sequential_stream(self):
        rng = np.random.default_rng(30)
        base = random_structure(rng, 3)
        circuits = [rebind(base, rng) for _ in range(4)]
        batch_counts = run_circuit_batch(CircuitBatch(circuits)).sample_counts(
            256, rng=np.random.default_rng(99)
        )
        sequential_rng = np.random.default_rng(99)
        for counts, circuit in zip(batch_counts, circuits):
            single = Statevector(3).evolve(circuit)
            assert counts == single.sample_counts(256, rng=sequential_rng)

    def test_shape_validation(self):
        batch = CircuitBatch([QuantumCircuit(2).add("h", 0)])
        with pytest.raises(ValueError, match="qubits"):
            BatchedStatevector(3, 1).evolve(batch)
        with pytest.raises(ValueError, match="circuits"):
            BatchedStatevector(2, 4).evolve(batch)

    def test_non_finite_data_rejected(self):
        for bad in (np.inf, np.nan, complex(0, np.inf)):
            with pytest.raises(ValueError, match="non-finite"):
                BatchedStatevector(1, 1, data=[bad, 0])
            with pytest.raises(ValueError, match="non-finite"):
                Statevector(1, data=[bad, 0])


class TestBackendEquivalence:
    def make_mixed(self, rng, n_structures=3, per_structure=4):
        circuits = []
        for _ in range(n_structures):
            base = random_structure(rng, 3)
            circuits.extend(rebind(base, rng) for _ in range(per_structure))
        order = rng.permutation(len(circuits))
        return [circuits[i] for i in order]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_mixed_structure_bit_identical(self, seed):
        circuits = self.make_mixed(np.random.default_rng(40 + seed))
        backend = IdealBackend(exact=True)
        grouped = backend.expectations(circuits, purpose="test")
        for row, circuit in zip(grouped, circuits):
            alone = backend.expectations([circuit], purpose="test")[0]
            assert np.array_equal(row, alone)
            want = ref.expectations_z(ref.probabilities(circuit))
            assert np.max(np.abs(row - want)) < 1e-10

    def test_sampled_same_structure_stream_identical(self):
        rng = np.random.default_rng(50)
        base = random_structure(rng, 3)
        circuits = [rebind(base, rng) for _ in range(6)]
        one_by_one = IdealBackend(exact=False, seed=7)
        singles = [one_by_one.run([c], shots=512)[0] for c in circuits]
        grouped = IdealBackend(exact=False, seed=7).run(circuits, shots=512)
        for a, b in zip(singles, grouped):
            assert a.counts == b.counts
            assert np.array_equal(a.expectations, b.expectations)

    def test_sampled_mixed_structure_statistically_matched(self):
        rng = np.random.default_rng(60)
        circuits = self.make_mixed(rng, n_structures=2, per_structure=3)
        exact = IdealBackend(exact=True).expectations(circuits)
        sampled = IdealBackend(exact=False, seed=0).expectations(
            circuits, shots=4096
        )
        assert np.max(np.abs(sampled - exact)) < 0.1

    def test_single_circuit_uses_sequential_path(self):
        """A one-circuit submission skips grouping and runs as a batch
        of one through the cached plan."""
        circuit = QuantumCircuit(2).add("h", 0).add("cx", (0, 1))
        backend = IdealBackend(exact=True)
        result = backend.run([circuit])[0]
        assert np.allclose(result.expectations, [0.0, 0.0], atol=1e-12)
        assert backend.plan_cache.stats()["misses"] == 1

    def test_gradients_bit_identical(self):
        rng = np.random.default_rng(70)
        arch = get_architecture("mnist2")
        theta = rng.uniform(-1, 1, arch.num_parameters)
        circuits = [
            arch.full_circuit(rng.uniform(0, np.pi, arch.n_features), theta)
            for _ in range(3)
        ]
        backend = IdealBackend(exact=True)
        together = parameter_shift_jacobian_batch(circuits, backend)
        for circuit, jacobian in zip(circuits, together):
            alone = parameter_shift_jacobian_batch([circuit], backend)[0]
            assert np.array_equal(jacobian, alone)

    def test_finite_difference_bit_identical(self):
        rng = np.random.default_rng(80)
        arch = get_architecture("mnist2")
        theta = rng.uniform(-1, 1, arch.num_parameters)
        circuit = arch.full_circuit(
            rng.uniform(0, np.pi, arch.n_features), theta
        )
        backend = IdealBackend(exact=True)
        grouped = finite_difference_jacobian(circuit, backend)
        eps = 1e-3
        sequential = np.zeros_like(grouped)
        for index in range(circuit.num_parameters):
            for position in circuit.occurrences_of(index):
                f_plus, f_minus = (
                    backend.run([circuit.shifted(position, delta)])[0]
                    .expectations
                    for delta in (+eps, -eps)
                )
                sequential[:, index] += (f_plus - f_minus) / (2.0 * eps)
        assert np.array_equal(grouped, sequential)
        finite = finite_difference_jacobian(circuit, backend, eps=1e-5)
        shift = parameter_shift_jacobian_batch([circuit], backend)[0]
        assert np.max(np.abs(finite - shift)) < 1e-8


class TestMeterAccounting:
    def test_exact_mode_consumes_zero_shots(self):
        backend = IdealBackend(exact=True)
        results = backend.run(
            [QuantumCircuit(1).add("h", 0)] * 4, shots=1024
        )
        assert all(r.shots == 0 for r in results)
        assert backend.meter.circuits == 4
        assert backend.meter.shots == 0

    def test_sampled_mode_meters_consumed_shots(self):
        backend = IdealBackend(exact=False, seed=0)
        backend.run([QuantumCircuit(1).add("h", 0)] * 4, shots=100)
        assert backend.meter.shots == 400

    def test_purpose_tags_identical_across_paths(self):
        rng = np.random.default_rng(90)
        circuits = [
            rebind(random_structure(rng, 2, n_ops=6), rng) for _ in range(3)
        ]
        grouped = IdealBackend(exact=True)
        grouped.run(circuits[:2], purpose="forward")
        grouped.run(circuits, purpose="gradient")
        one_by_one = IdealBackend(exact=True)
        for circuit in circuits[:2]:
            one_by_one.run([circuit], purpose="forward")
        for circuit in circuits:
            one_by_one.run([circuit], purpose="gradient")
        assert grouped.meter.snapshot() == one_by_one.meter.snapshot()
        assert grouped.meter.by_purpose == {"forward": 2, "gradient": 3}


def noisy_twins(device="ibmq_lima", transpile=False, seed=7):
    """Two identically seeded NoisyBackends: one fed circuit by circuit,
    one fed whole groups."""
    return tuple(
        NoisyBackend.from_device_name(device, seed=seed, transpile=transpile)
        for _ in range(2)
    )


def run_one_by_one(backend, circuits, shots):
    return [backend.run([circuit], shots=shots)[0] for circuit in circuits]


def device_circuit(rng, n_qubits=4):
    """A 4-qubit circuit mixing trainable, literal, and fixed ops —
    restricted to the vocabulary the transpiler decomposes."""
    circuit = QuantumCircuit(n_qubits, num_parameters=3)
    circuit.add("h", 0)
    circuit.add_trainable("rzz", (0, 1), 0)
    circuit.add_trainable("rxx", (2, 3), 1)
    circuit.add("swap", (0, 3))
    circuit.add("rx", 2, float(rng.uniform(-np.pi, np.pi)))
    circuit.add_trainable("ry", 1, 2)
    circuit.add("cx", (1, 2))
    return circuit.bind(rng.uniform(-np.pi, np.pi, 3))


class TestBatchedDensityMatrix:
    """The batched mixed-state engine slice-matches DensityMatrix."""

    def test_evolution_bit_identical_without_noise(self):
        rng = np.random.default_rng(100)
        base = random_structure(rng, 3)
        circuits = [rebind(base, rng) for _ in range(6)]
        stacked = run_density_batch(CircuitBatch(circuits))
        for row, circuit in zip(stacked.matrices, circuits):
            single = DensityMatrix(3).evolve(circuit)
            assert np.array_equal(row, single.matrix)
            assert np.max(np.abs(row - ref.density_matrix(circuit))) < 1e-10

    def test_evolution_bit_identical_with_noise_model(self):
        rng = np.random.default_rng(101)
        model = NoiseModel(get_calibration("ibmq_santiago"))
        base = random_structure(rng, 3)
        circuits = [rebind(base, rng) for _ in range(5)]
        stacked = run_density_batch(CircuitBatch(circuits), noise_model=model)
        for row in range(len(circuits)):
            single = DensityMatrix(3).evolve(
                circuits[row], noise_model=model
            )
            assert np.array_equal(
                stacked.probabilities()[row], single.probabilities()
            )
            want = ref.density_matrix(circuits[row], model)
            assert np.max(np.abs(stacked.matrices[row] - want)) < 1e-10

    def test_generic_kraus_path_bit_identical(self):
        rng = np.random.default_rng(102)
        model = NoiseModel(get_calibration("ibmq_manila"))
        base = random_structure(rng, 2)
        circuits = [rebind(base, rng) for _ in range(4)]
        stacked = run_density_batch(
            CircuitBatch(circuits), noise_model=KrausOnly(model)
        )
        for row in range(len(circuits)):
            single = DensityMatrix(2).evolve(
                circuits[row], noise_model=KrausOnly(model)
            )
            assert np.array_equal(
                stacked.probabilities()[row], single.probabilities()
            )
            want = ref.density_matrix(circuits[row], KrausOnly(model))
            assert np.max(np.abs(stacked.matrices[row] - want)) < 1e-10
        # One lowering: the Kraus-only view replays the full model's plan.
        full = run_density_batch(CircuitBatch(circuits), noise_model=model)
        assert np.array_equal(stacked.matrices, full.matrices)

    def test_sampling_matches_sequential_stream(self):
        rng = np.random.default_rng(103)
        model = NoiseModel(get_calibration("ibmq_lima"))
        base = random_structure(rng, 3)
        circuits = [rebind(base, rng) for _ in range(4)]
        batch_counts = run_density_batch(
            CircuitBatch(circuits), noise_model=model
        ).sample_counts(256, rng=np.random.default_rng(99))
        sequential_rng = np.random.default_rng(99)
        for counts, circuit in zip(batch_counts, circuits):
            single = DensityMatrix(3).evolve(circuit, noise_model=model)
            assert counts == single.sample_counts(256, rng=sequential_rng)

    def test_trace_and_purity(self):
        rng = np.random.default_rng(104)
        base = random_structure(rng, 2)
        circuits = [rebind(base, rng) for _ in range(3)]
        stacked = run_density_batch(CircuitBatch(circuits))
        assert np.allclose(stacked.trace(), 1.0, atol=1e-12)
        assert np.allclose(stacked.purity(), 1.0, atol=1e-12)

    def test_shape_validation(self):
        batch = CircuitBatch([QuantumCircuit(2).add("h", 0)])
        with pytest.raises(ValueError, match="qubits"):
            BatchedDensityMatrix(3, 1).evolve(batch)
        with pytest.raises(ValueError, match="circuits"):
            BatchedDensityMatrix(2, 4).evolve(batch)
        with pytest.raises(ValueError, match="data shape"):
            BatchedDensityMatrix(2, 2, data=np.eye(4))

    def test_non_finite_data_rejected(self):
        for bad in (np.inf, np.nan):
            data = np.zeros((1, 2, 2))
            data[0, 1, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                BatchedDensityMatrix(1, 1, data=data)
            with pytest.raises(ValueError, match="non-finite"):
                DensityMatrix(1, data=data[0])


class TestBatchOfOneViews:
    """``Statevector`` / ``DensityMatrix`` are row 0 of their batched
    twin: every public method, bit for bit."""

    def test_statevector_view(self):
        rng = np.random.default_rng(200)
        for n_qubits in (1, 2, 4):
            circuit = random_structure(rng, n_qubits)
            view = Statevector(n_qubits).evolve(circuit)
            twin = BatchedStatevector(n_qubits, 1).evolve(
                CircuitBatch([circuit])
            )
            assert np.array_equal(view.tensor, twin.tensor[0])
            assert np.array_equal(view.vector, twin.vectors[0])
            assert np.array_equal(view.copy().vector, twin.vectors[0])
            assert np.array_equal(
                view.probabilities(), twin.probabilities()[0]
            )
            exps = twin.expectation_z()[0]
            assert np.array_equal(view.expectation_z(), exps)
            for qubit in range(n_qubits):
                assert view.expectation_z(qubit) == exps[qubit]
                assert view.marginal_probability(qubit) == (
                    (1.0 - exps[qubit]) / 2.0
                )
            assert view.sample_counts(
                300, rng=np.random.default_rng(n_qubits)
            ) == twin.sample_counts(
                300, rng=np.random.default_rng(n_qubits)
            )[0]
            # No batched twin: checked against the twin's amplitudes.
            vector = twin.vectors[0]
            assert view.norm() == pytest.approx(np.linalg.norm(vector))
            assert view.fidelity(view) == pytest.approx(1.0)
            word = "XYZI"[:n_qubits]
            assert view.expectation_pauli(word) == pytest.approx(
                np.real(vector.conj() @ gates.pauli_word_matrix(word) @ vector),
                abs=1e-12,
            )

    def test_statevector_apply_gate(self):
        view = Statevector(3).apply_gate("h", [0]).apply_gate(
            "rzx", [2, 0], 0.7
        )
        twin = BatchedStatevector(3, 1)
        for op in (("h", [0]), ("rzx", [2, 0], 0.7)):
            twin.evolve(CircuitBatch([QuantumCircuit(3).add(*op)]))
        assert np.array_equal(view.tensor, twin.tensor[0])
        circuit = QuantumCircuit(3).add("h", [0]).add("rzx", [2, 0], 0.7)
        assert np.allclose(
            view.vector, ref.statevector(circuit), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("noise", [None, "superop", "kraus"])
    def test_density_view(self, noise):
        rng = np.random.default_rng(201)
        model = None
        if noise is not None:
            model = NoiseModel(get_calibration("ibmq_lima"))
            if noise == "kraus":
                model = KrausOnly(model)
        for n_qubits in (1, 3):
            circuit = random_structure(rng, n_qubits)
            view = DensityMatrix(n_qubits).evolve(circuit, noise_model=model)
            twin = BatchedDensityMatrix(n_qubits, 1).evolve(
                CircuitBatch([circuit]), noise_model=model
            )
            assert np.array_equal(view.matrix, twin.matrices[0])
            assert np.array_equal(view.copy().matrix, twin.matrices[0])
            assert np.array_equal(
                view.probabilities(), twin.probabilities()[0]
            )
            exps = twin.expectation_z()[0]
            assert np.array_equal(view.expectation_z(), exps)
            for qubit in range(n_qubits):
                assert view.expectation_z(qubit) == exps[qubit]
            assert view.trace() == twin.trace()[0]
            assert view.purity() == twin.purity()[0]
            assert view.sample_counts(
                300, rng=np.random.default_rng(n_qubits)
            ) == twin.sample_counts(
                300, rng=np.random.default_rng(n_qubits)
            )[0]

    def test_density_apply_gate_and_channel(self):
        from repro.noise.channels import amplitude_damping

        kraus = amplitude_damping(0.2)
        view = (
            DensityMatrix(2)
            .apply_gate("h", [0])
            .apply_channel(kraus, [0])
            .apply_gate("cx", [0, 1])
        )
        # The channel as noise after an identity gate: the same one-op
        # circuits on the batched engine, and the dense oracle.
        noise = ChannelAfterIdentity(kraus, (0,))
        twin = BatchedDensityMatrix(2, 1)
        twin.evolve(CircuitBatch([QuantumCircuit(2).add("h", [0])]))
        twin.evolve(
            CircuitBatch([QuantumCircuit(2).add("i", [0])]), noise_model=noise
        )
        twin.evolve(CircuitBatch([QuantumCircuit(2).add("cx", [0, 1])]))
        assert np.array_equal(view.matrix, twin.matrices[0])
        circuit = QuantumCircuit(2).add("h", [0]).add("i", [0])
        circuit.add("cx", [0, 1])
        assert np.allclose(
            view.matrix,
            ref.density_matrix(circuit, noise),
            rtol=0,
            atol=1e-12,
        )


class TestNoisyBatchedEquivalence:
    """NoisyBackend's grouped execution vs one-by-one submission."""

    @pytest.mark.parametrize("transpile", [False, True])
    def test_observed_probabilities_bit_identical(self, transpile):
        rng = np.random.default_rng(110)
        circuits = [device_circuit(rng) for _ in range(6)]
        backend, _ = noisy_twins(transpile=transpile)
        stacked = backend.observed_probabilities_batch(circuits)
        for row, circuit in zip(stacked, circuits):
            assert np.array_equal(row, backend.observed_probabilities(circuit))

    @pytest.mark.parametrize("transpile", [False, True])
    def test_single_structure_counts_identical(self, transpile):
        rng = np.random.default_rng(111)
        circuits = [device_circuit(rng) for _ in range(5)]
        one_by_one, grouped = noisy_twins(transpile=transpile)
        singles = run_one_by_one(one_by_one, circuits, 512)
        results = grouped.run(circuits, shots=512)
        for a, b in zip(singles, results):
            assert a.counts == b.counts
            assert np.array_equal(a.expectations, b.expectations)
            assert a.shots == b.shots == 512
        assert one_by_one.meter.snapshot() == grouped.meter.snapshot()

    def test_mixed_structures_follow_group_order_contract(self):
        # Grouped execution consumes the RNG stream group by group in
        # first-appearance order; one-by-one submission reproduces that
        # by running the circuits re-ordered into group order.
        rng = np.random.default_rng(112)
        structure_a = device_circuit(rng)
        structure_b = QuantumCircuit(4, num_parameters=1)
        structure_b.add("h", 2)
        structure_b.add_trainable("rzz", (2, 3), 0)
        structure_b.bind([0.4])
        mixed = [
            structure_a,
            structure_b,
            rebind(structure_a, rng),
            structure_b.bound([1.1]),
        ]
        group_order = [mixed[0], mixed[2], mixed[1], mixed[3]]

        one_by_one, grouped = noisy_twins()
        reference = {
            id(circuit): result
            for circuit, result in zip(
                group_order, run_one_by_one(one_by_one, group_order, 256)
            )
        }
        results = grouped.run(mixed, shots=256)
        for circuit, result in zip(mixed, results):
            assert result.counts == reference[id(circuit)].counts

    def test_exact_expectations_unchanged(self):
        """Exact expectations are the oracle's, through readout error."""
        rng = np.random.default_rng(113)
        circuit = device_circuit(rng)
        backend, _ = noisy_twins()
        want = ref.expectations_z(
            ref.observed_probabilities(circuit, backend.noise_model)
        )
        assert np.max(np.abs(backend.exact_expectations(circuit) - want)) < (
            1e-10
        )

    def test_parameter_shift_gradients_identical(self):
        rng = np.random.default_rng(114)
        circuits = [device_circuit(rng) for _ in range(2)]
        together = parameter_shift_jacobian_batch(
            circuits,
            NoisyBackend.from_device_name("ibmq_santiago", seed=5),
            shots=256,
        )
        backend = NoisyBackend.from_device_name("ibmq_santiago", seed=5)
        for circuit, jacobian in zip(circuits, together):
            alone = parameter_shift_jacobian_batch(
                [circuit], backend, shots=256
            )[0]
            assert np.array_equal(jacobian, alone)

    def test_noise_scale_zero_still_batches(self):
        rng = np.random.default_rng(115)
        circuits = [device_circuit(rng) for _ in range(3)]
        one_by_one, grouped = (
            NoisyBackend.from_device_name("ibmq_lima", seed=3, noise_scale=0.0)
            for _ in range(2)
        )
        for a, b in zip(
            run_one_by_one(one_by_one, circuits, 128),
            grouped.run(circuits, shots=128),
        ):
            assert a.counts == b.counts
        stacked = grouped.observed_probabilities_batch(circuits)
        for row, circuit in zip(stacked, circuits):
            assert np.max(np.abs(row - ref.probabilities(circuit))) < 1e-10
