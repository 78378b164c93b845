"""Admission cost of a served job: stacking its rows and keying them.

``ExecutionService.submit`` turns every structure group of a job into
angle-matrix rows (:meth:`~repro.circuits.sweep.SweepTemplate.stack`)
and keys each row for the exact-result cache
(:meth:`~repro.circuits.sweep.Sweep.row_keys`), in the submitting
thread.  Three groups that serving sees:

* a 1-row inference job (an mnist4 ``full_circuit`` row on a template
  cached from an earlier row);
* the 72-row parameter-shift group of one mnist4 example, all 36
  parameters selected;
* 128 shift clones of four separately composed 10-qubit circuits
  (16 parameters each), the circuit-list form of a 10-qubit gradient.

Microseconds per job are printed for the stack, the keys and the
whole admission (stack, ``Sweep`` construction, keys); no wall-clock
bound is asserted.  Stacked literals must equal a per-circuit template
read bit for bit, and keys a per-circuit hash of resolved angles
(``tests/admission_reference.py``).
"""

from __future__ import annotations

import time

import numpy as np

import admission_reference as ref
from harness import format_table, smoke_scaled
from repro.circuits import QuantumCircuit, get_architecture
from repro.circuits.ansatz import build_layered_ansatz
from repro.circuits.sweep import Sweep, SweepTemplate
from repro.gradients.parameter_shift import build_shifted_circuits

ROUNDS = smoke_scaled(15, 3)


def groups() -> list[tuple[str, SweepTemplate, list]]:
    rng = np.random.default_rng(0)
    arch = get_architecture("mnist4")
    theta = rng.uniform(-1.0, 1.0, arch.num_parameters)

    def row():
        return arch.full_circuit(
            rng.uniform(0.0, np.pi, arch.n_features), theta
        )

    # A service's cached template: built from an earlier row.
    served = SweepTemplate(row())
    shifted, _ = build_shifted_circuits(row(), range(arch.num_parameters))

    ansatz = build_layered_ansatz(10, ["ry", "rzz", "rz", "cz"] * 4)
    bound = ansatz.bound(rng.uniform(-1.0, 1.0, ansatz.num_parameters))
    clones = []
    for _ in range(4):
        encoder = QuantumCircuit(10)
        for wire, angle in enumerate(rng.uniform(0.0, np.pi, 10)):
            encoder.add("ry", wire, float(angle))
        clones.extend(
            build_shifted_circuits(encoder.compose(bound), range(16))[0]
        )
    return [
        ("1-row inference", served, [row()]),
        ("72-row mnist4 shift", served, shifted),
        ("128-row 10q clones", SweepTemplate(clones[0]), clones),
    ]


def per_call_us(fn, calls: int) -> float:
    """Median over ``ROUNDS`` rounds of ``calls`` back-to-back calls."""
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return 1e6 * float(np.median(samples))


def test_admission_cost():
    rows = []
    for name, template, circuits in groups():
        literals, params = template.stack(circuits)
        want_literals, want_params = ref.stack(template, circuits)
        assert np.array_equal(ref.bits(literals), ref.bits(want_literals))
        assert np.array_equal(ref.bits(params), ref.bits(want_params))
        sweep = Sweep(template, literals, params)
        assert sweep.row_keys() == ref.row_keys(template, circuits)

        def admit():
            return Sweep(template, *template.stack(circuits)).row_keys()

        calls = 200 if len(circuits) == 1 else 10
        rows.append([
            name,
            str(len(circuits)),
            f"{per_call_us(lambda: template.stack(circuits), calls):.1f}",
            f"{per_call_us(sweep.row_keys, calls):.1f}",
            f"{per_call_us(admit, calls):.1f}",
        ])
    print()
    print(format_table(
        ["group", "rows", "stack us", "keys us", "admission us"], rows
    ))
