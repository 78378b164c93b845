"""Overhead of the fault-injection plane (``repro.resilience``).

The resilience acceptance criterion: with no fault plan installed, the
injection sites must cost nothing measurable — each site is a single
``if faults.ACTIVE is not None`` check on a module global.  This
benchmark times a call-heavy serving-style workload (many one-circuit
``Backend.run`` calls, each crossing the ``backend.execute_batch``
site) three ways:

* **disabled** — no plan installed (``faults.ACTIVE is None``), the
  production default;
* **armed, never firing** — a plan installed whose trigger
  (``at=10**9``) never matches, so every call pays the full
  ``fire()`` bookkeeping (hit counter, spec matching) without any
  injected fault;
* and asserts both stay within a lenient ratio of each other.  The two
  arms are timed in adjacent pairs on one warm backend (alternating
  which goes first), and the ratio is the median over pairs: a shift
  in host speed between rounds — frequency scaling, load from other
  processes — then skews at most the one pair it falls in, instead of
  every round of whichever arm happened to be timing.  The
  bound is deliberately loose (wall-clock noise on contended CI
  runners dwarfs a branch on a global), but a plane that accidentally
  grew per-call work — RNG draws, lock contention, string formatting —
  on the disabled path would blow straight through it.

``REPRO_BENCH_SMOKE=1`` shrinks the call count, same assertion.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from harness import format_table, smoke_scaled
from repro.circuits import QuantumCircuit
from repro.hardware import IdealBackend
from repro.resilience import FaultPlan, FaultSpec, faults

N_QUBITS = 4
N_CALLS = smoke_scaled(64, 32)
ROUNDS = smoke_scaled(9, 9)
#: Lenient: timing noise, not the branch, sets the floor here.
MAX_RATIO = 1.5


def build_circuits() -> list[QuantumCircuit]:
    rng = np.random.default_rng(5)
    circuits = []
    for _ in range(N_CALLS):
        circuit = QuantumCircuit(N_QUBITS)
        for wire in range(N_QUBITS):
            circuit.add("ry", wire, float(rng.uniform(0, np.pi)))
        for wire in range(N_QUBITS - 1):
            circuit.add("cx", (wire, wire + 1))
        circuits.append(circuit)
    return circuits


def never_firing_plan() -> FaultPlan:
    return FaultPlan(
        specs=(
            FaultSpec(
                site=faults.SITE_EXECUTE_BATCH,
                mode="exception",
                at=(10**9,),
            ),
        ),
        seed=0,
    )


def time_calls(backend, circuits, armed: bool) -> float:
    """Wall time of one round: N_CALLS one-circuit runs."""
    plane = (
        faults.installed(never_firing_plan()) if armed else nullcontext()
    )
    with plane:
        start = time.perf_counter()
        for circuit in circuits:
            backend.run([circuit], shots=0)
        return time.perf_counter() - start


def test_disabled_fault_plane_has_no_measurable_overhead():
    circuits = build_circuits()
    backend = IdealBackend(exact=True, seed=0)
    backend.run(circuits[:1], shots=0)  # warm plan cache off the clock

    assert faults.ACTIVE is None, "no fault plan may leak into benchmarks"
    pairs = []
    for round_ in range(ROUNDS):
        order = (False, True) if round_ % 2 == 0 else (True, False)
        times = {armed: time_calls(backend, circuits, armed) for armed in order}
        assert faults.ACTIVE is None
        pairs.append((times[False], times[True]))
    disabled_s = min(disabled for disabled, _ in pairs)
    armed_s = min(armed for _, armed in pairs)

    ratio = float(np.median([armed / disabled for disabled, armed in pairs]))
    print()
    print(format_table(
        ["plane", "wall_s", "calls_per_s"],
        [
            ["disabled (ACTIVE is None)", disabled_s,
             int(N_CALLS / disabled_s)],
            ["armed, never firing", armed_s, int(N_CALLS / armed_s)],
        ],
        title=(
            f"Fault-plane overhead: {N_CALLS} one-circuit runs, "
            f"{N_QUBITS} qubits (best of {ROUNDS} paired rounds)"
        ),
    ))
    print(
        f"armed/disabled ratio, median over pairs: {ratio:.2f} "
        f"(bound: <= {MAX_RATIO})"
    )
    # Symmetric bound: neither arm may be measurably slower than the
    # other — the disabled path is a single branch on a module global,
    # and the armed-but-quiet path only increments a counter.
    assert ratio <= MAX_RATIO
    assert 1 / ratio <= MAX_RATIO
