"""Fingerprints, the persisted identity, and the result-cache row keys.

The golden digests below were produced by the original per-op
``circuit_fingerprint`` encoding; they pin the byte layout, so keys
persisted by one version keep matching the next.  The in-memory keys a
:class:`~repro.circuits.sweep.Sweep` computes for the serving cache
(:meth:`~repro.circuits.sweep.Sweep.row_keys`) are salted angle-bit
digests instead: they must agree however the same rows are built, equal
a per-circuit oracle, and split on every bit of an angle, on the
structure and on the parameter count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admission_reference as ref
from repro.circuits import (
    ARCHITECTURES,
    CircuitBatch,
    QuantumCircuit,
    circuit_fingerprint,
)
from repro.circuits.sweep import Sweep, SweepTemplate
from repro.gradients.parameter_shift import build_shifted_circuits, shift_sweep

ANGLES = st.floats(
    min_value=-2 * np.pi, max_value=2 * np.pi,
    allow_nan=False, allow_infinity=False,
)


def fixed_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3)
    circuit.add("h", 0).add("ry", 1, 0.3).add_trainable("rx", 0, 0)
    circuit.add("cz", (0, 1)).add_trainable("rzz", (1, 2), 1)
    return circuit.bind([0.25, -1.5])


def shared_parameter_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3)
    circuit.add("ry", 0, 0.7).add_trainable("rx", 0, 0)
    circuit.add("cx", (0, 1)).add_trainable("rzz", (1, 2), 1)
    circuit.add_trainable("ry", 2, 0)
    return circuit.bind([0.4, 1.1])


def u3_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2)
    circuit.add("u3", 1, 0.1, -0.2, 0.3).add_trainable("ry", 0, 0)
    circuit.add("cx", (0, 1))
    return circuit.bind([0.9])


GOLDEN = {
    "fixed": (fixed_circuit, "cd7528e74308dca504243f1c3bdf1c95"),
    "shifted": (
        lambda: fixed_circuit().shifted(2, np.pi / 2),
        "9aa3a1ac45f9a185982e0406fd74893a",
    ),
    "shared_parameter": (
        shared_parameter_circuit, "eb2fd5d5c557035d95be1bfb57bd7c08"
    ),
    "u3": (u3_circuit, "6ce20ff822d23a7511ea85d065f97ebe"),
    "nan_angle": (
        lambda: QuantumCircuit(2).add("ry", 0, float("nan")).add(
            "cx", (0, 1)
        ),
        "c2038c66e668c3c09762f57ed35ad9bf",
    ),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest_is_stable(self, name):
        build, digest = GOLDEN[name]
        circuit = build()
        assert circuit_fingerprint(circuit) == digest
        assert circuit.fingerprint() == digest

    def test_fingerprint_is_total_on_non_finite_angles(self):
        """Only execution rejects NaN; fingerprinting never raises."""
        for angle in (float("nan"), float("inf"), -float("inf")):
            circuit = QuantumCircuit(1).add("ry", 0, angle)
            assert len(circuit_fingerprint(circuit)) == 32


def stacked(template, circuits) -> Sweep:
    """``circuits`` admitted onto ``template``, as the service admits."""
    return Sweep(template, *template.stack(circuits))


class TestBatchedKeys:
    """:meth:`Sweep.row_keys` keys a whole angle matrix in one call."""

    @pytest.mark.parametrize("task", sorted(ARCHITECTURES))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_keys_agree_across_row_sources(self, task, data):
        """Equal structure and equal angle bits give equal keys, whether
        the rows are a sweep, a circuit list on another template, a
        CircuitBatch or shift_sweep, and they equal the oracle."""
        arch = ARCHITECTURES[task]
        rows = data.draw(st.integers(min_value=1, max_value=4))
        features = np.array(
            data.draw(
                st.lists(
                    ANGLES,
                    min_size=rows * arch.n_features,
                    max_size=rows * arch.n_features,
                )
            )
        ).reshape(rows, arch.n_features)
        theta = np.array(
            data.draw(
                st.lists(
                    ANGLES,
                    min_size=arch.num_parameters,
                    max_size=arch.num_parameters,
                )
            )
        )
        sweep = arch.sweep(features, theta)
        circuits = [arch.full_circuit(x, theta) for x in features]
        # A template built from another row's values, as a service's
        # cached template is.
        other = SweepTemplate(
            arch.full_circuit(features[-1] + 1.0, theta - 0.5)
        )
        want = ref.row_keys(sweep.template, circuits)
        assert sweep.row_keys() == want
        assert CircuitBatch(circuits).row_keys() == want
        assert stacked(other, circuits).row_keys() == want

        subset = [0, arch.num_parameters - 1]
        shifted, _ = shift_sweep(sweep, subset)
        clones = [
            clone
            for circuit in circuits
            for clone in build_shifted_circuits(circuit, subset)[0]
        ]
        want = ref.row_keys(other, clones)
        assert shifted.row_keys() == want
        assert CircuitBatch(clones).row_keys() == want
        assert stacked(other, clones).row_keys() == want

    def test_u3_and_shared_parameter_rows(self):
        for circuit in (u3_circuit(), shared_parameter_circuit()):
            clones = [circuit.shifted(p, 0.5) for p in range(len(circuit))
                      if circuit.templates[p].param_index is not None]
            rows = [circuit, *clones]
            batch = CircuitBatch(rows)
            assert batch.row_keys() == ref.row_keys(batch.template, rows)
            assert [CircuitBatch([c]).row_keys()[0] for c in rows] == (
                batch.row_keys()
            )
            assert len(set(batch.row_keys())) == len(rows)

    @pytest.mark.parametrize(
        "build", [fixed_circuit, shared_parameter_circuit, u3_circuit]
    )
    def test_keys_split_signed_zero_in_every_column(self, build):
        """Zero and negative zero are different angle bits, so they key
        apart in any column — fixed, trainable, extra or unused."""
        template = SweepTemplate(build())
        width = template.n_columns
        params = np.zeros((width + 1, template.num_parameters))
        literals = np.zeros((width + 1, width))
        literals[np.arange(1, width + 1), np.arange(width)] = -0.0
        # A trainable column resolves to offset + theta: -0.0 + 0.0 is
        # 0.0, so its theta carries the sign too.
        for column, param in zip(
            template.trainable_columns, template.trainable_params
        ):
            params[column + 1, param] = -0.0
        sweep = Sweep(template, literals, params)
        for column in range(width):
            assert np.signbit(sweep.angles[column + 1, column])
        keys = sweep.row_keys()
        assert all(len(key) == 16 for key in keys)
        assert len(set(keys)) == width + 1

    def test_keys_split_structure_and_parameter_count(self):
        """Rows with identical angle bits key apart when the gate, the
        wires, the register width or the parameter count differs."""
        variants = [
            QuantumCircuit(2).add("ry", 0, 0.3),
            QuantumCircuit(2).add("rx", 0, 0.3),
            QuantumCircuit(2).add("ry", 1, 0.3),
            QuantumCircuit(3).add("ry", 0, 0.3),
            QuantumCircuit(2).add_trainable("ry", 0, 0).bind([0.3]),
            # The same structure with an unused second parameter.
            QuantumCircuit(2, 2).add_trainable("ry", 0, 0).bind([0.3, 0.0]),
        ]
        assert variants[4].structure_signature() == (
            variants[5].structure_signature()
        )
        angles = {CircuitBatch([c]).angles.tobytes() for c in variants}
        assert len(angles) == 1
        keys = [CircuitBatch([c]).row_keys()[0] for c in variants]
        assert len(set(keys)) == len(variants)

    def test_zero_column_rows_share_one_key(self):
        empty = QuantumCircuit(2)
        keys = CircuitBatch([empty, empty.copy()]).row_keys()
        assert keys[0] == keys[1]
        assert keys[0] != CircuitBatch([QuantumCircuit(3)]).row_keys()[0]
