"""Tests for the QuantumCircuit container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.operation import OpTemplate
from repro.sim import Statevector


def simple_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2)
    circuit.add("h", 0)
    circuit.add_trainable("ry", 0, 0)
    circuit.add_trainable("rzz", (0, 1), 1)
    return circuit


class TestBuilding:
    def test_add_and_count(self):
        circuit = simple_circuit()
        assert len(circuit) == 3
        assert circuit.count_ops() == {"h": 1, "ry": 1, "rzz": 1}

    def test_int_wire_accepted(self):
        circuit = QuantumCircuit(1)
        circuit.add("h", 0)
        assert circuit.templates[0].wires == (0,)

    def test_parameter_vector_grows(self):
        circuit = QuantumCircuit(2)
        circuit.add_trainable("rx", 0, 5)
        assert circuit.num_parameters == 6

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)


class TestParameters:
    def test_bind_and_resolve(self):
        circuit = simple_circuit()
        circuit.bind([0.3, -0.8])
        ops = circuit.operations
        assert np.isclose(ops[1].params[0], 0.3)
        assert np.isclose(ops[2].params[0], -0.8)

    def test_bind_wrong_length(self):
        with pytest.raises(ValueError, match="expected 2"):
            simple_circuit().bind([0.1])

    def test_bound_returns_copy(self):
        circuit = simple_circuit().bind([0.0, 0.0])
        clone = circuit.bound([1.0, 2.0])
        assert np.allclose(circuit.parameters, [0.0, 0.0])
        assert np.allclose(clone.parameters, [1.0, 2.0])

    def test_parameters_property_is_a_copy(self):
        circuit = simple_circuit().bind([0.1, 0.2])
        vec = circuit.parameters
        vec[0] = 99.0
        assert np.isclose(circuit.parameters[0], 0.1)


class TestShifting:
    def test_shifted_changes_only_target_occurrence(self):
        circuit = simple_circuit().bind([0.5, 0.7])
        shifted = circuit.shifted(1, np.pi / 2)
        ops = shifted.operations
        assert np.isclose(ops[1].params[0], 0.5 + np.pi / 2)
        assert np.isclose(ops[2].params[0], 0.7)
        # Original unaffected.
        assert np.isclose(circuit.operations[1].params[0], 0.5)

    def test_occurrences_of_shared_parameter(self):
        circuit = QuantumCircuit(1)
        circuit.add_trainable("rx", 0, 0)
        circuit.add("h", 0)
        circuit.add_trainable("rx", 0, 0)
        assert circuit.occurrences_of(0) == [0, 2]

    def test_shift_fixed_position_rejected(self):
        with pytest.raises(ValueError, match="fixed"):
            simple_circuit().shifted(0, 0.1)


class TestCompose:
    def test_compose_rebases_parameters(self):
        first = QuantumCircuit(2)
        first.add_trainable("rx", 0, 0)
        first.bind([0.1])
        second = QuantumCircuit(2)
        second.add_trainable("ry", 1, 0)
        second.bind([0.2])
        combined = first.compose(second)
        assert combined.num_parameters == 2
        assert np.allclose(combined.parameters, [0.1, 0.2])
        assert combined.templates[1].param_index == 1

    @staticmethod
    def rebuilt(first, second):
        """``first.compose(second)`` with every trainable template of
        ``second`` rebuilt, re-based by ``first``'s parameter count."""
        base = first.num_parameters
        out = QuantumCircuit(first.n_qubits, base + second.num_parameters)
        out._templates = list(first.templates) + [
            t if t.param_index is None else OpTemplate(
                name=t.name, wires=t.wires,
                param_index=t.param_index + base, offset=t.offset,
            )
            for t in second.templates
        ]
        out._parameters = np.concatenate(
            [first.parameters, second.parameters]
        )
        return out

    @staticmethod
    def ansatz():
        second = QuantumCircuit(3)
        second.add_trainable("ry", 0, 0)
        second.add("cz", (0, 2))
        second.append_template(
            OpTemplate(name="rzz", wires=(1, 2), param_index=1, offset=0.3)
        )
        second.add_trainable("rx", 2, 0)
        return second.bind([0.4, -1.1])

    @pytest.mark.parametrize("first_params", [0, 2])
    def test_compose_matches_rebuilt_templates(self, first_params):
        first = QuantumCircuit(3, first_params)
        for wire in range(3):
            first.add("ry", wire, 0.25 * (wire + 1))
        if first_params:
            first.add_trainable("rz", 1, 1)
            first.bind([0.7, -0.2])
        second = self.ansatz()
        combined = first.compose(second)
        expected = self.rebuilt(first, second)
        assert combined.structure_signature() == (
            expected.structure_signature()
        )
        assert combined.fingerprint() == expected.fingerprint()
        assert combined.templates == expected.templates
        assert np.array_equal(combined.parameters, expected.parameters)
        # With nothing to re-base by, second's templates are reused.
        tail = combined.templates[len(first):]
        reused = [a is b for a, b in zip(tail, second.templates)]
        assert all(reused) == (first_params == 0)

    def test_compose_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            QuantumCircuit(2).compose(QuantumCircuit(3))

    def test_compose_execution_order(self):
        first = QuantumCircuit(1)
        first.add("x", 0)
        second = QuantumCircuit(1)
        second.add("h", 0)
        state = Statevector(1).evolve(first.compose(second))
        # X then H on |0> -> H|1> = (|0> - |1>)/sqrt2.
        assert np.allclose(
            state.vector, [1 / np.sqrt(2), -1 / np.sqrt(2)]
        )


class TestStructureQueries:
    def test_depth_parallel_gates(self):
        circuit = QuantumCircuit(2)
        circuit.add("h", 0).add("h", 1)  # parallel -> depth 1
        assert circuit.depth() == 1
        circuit.add("cx", (0, 1))  # sequential -> depth 2
        assert circuit.depth() == 2

    def test_depth_empty(self):
        assert QuantumCircuit(2).depth() == 0

    def test_trainable_positions(self):
        circuit = simple_circuit()
        assert circuit.trainable_positions() == [1, 2]

    def test_summary_mentions_counts(self):
        text = simple_circuit().summary()
        assert "2 qubits" in text and "2 params" in text


class TestValidation:
    def test_valid_circuit_passes(self):
        simple_circuit().bind([0.0, 0.0]).validate()

    def test_unused_parameter_rejected(self):
        circuit = QuantumCircuit(1, num_parameters=2)
        circuit.add_trainable("rx", 0, 0)
        with pytest.raises(ValueError, match="never used"):
            circuit.validate()

    def test_repeated_wire_rejected_by_add(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError, match="repeats a wire"):
            circuit.add("cx", [1, 1])
        assert len(circuit) == 0

    def test_repeated_wire_rejected_by_add_trainable(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError, match="repeats a wire"):
            circuit.add_trainable("crz", [0, 0], 0)
        assert len(circuit) == 0 and circuit.num_parameters == 0

    def test_copy_preserves_everything(self):
        circuit = simple_circuit().bind([0.4, 0.5])
        clone = circuit.copy()
        assert clone.count_ops() == circuit.count_ops()
        assert np.allclose(clone.parameters, circuit.parameters)
        clone.bind([9.0, 9.0])
        assert np.isclose(circuit.parameters[0], 0.4)
