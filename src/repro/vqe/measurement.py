"""Measuring Pauli-sum expectations on Z-basis-only hardware.

Real devices (and our backend substrate) measure in the computational
basis.  A term like ``XIZY`` is measured by appending basis-rotation
gates — ``H`` for X, ``S† H`` for Y — and reading the rotated qubits in Z.
Terms sharing a measurement basis share one circuit; per group, each
term's value is the expectation of the *product* of its qubits' readout
bits (+1/-1), estimated from the sampled counts.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.sim import measurement as _measurement
from repro.vqe.hamiltonian import Hamiltonian


def basis_rotation_circuit(basis: str) -> QuantumCircuit:
    """Gates mapping the given per-qubit bases onto the Z axis.

    ``X -> H``; ``Y -> Sdg then H``; ``Z``/``I`` -> nothing.
    """
    circuit = QuantumCircuit(len(basis))
    for wire, axis in enumerate(basis.upper()):
        if axis in ("Z", "I"):
            continue
        if axis == "X":
            circuit.add("h", wire)
        elif axis == "Y":
            circuit.add("sdg", wire)
            circuit.add("h", wire)
        else:
            raise ValueError(f"invalid basis letter {axis!r}")
    return circuit


def pauli_product_expectation(
    probabilities: np.ndarray, word: str
) -> float:
    """<product of Z over the word's non-identity qubits> from outcome
    probabilities (after basis rotation)."""
    n_qubits = len(word)
    if probabilities.size != 2**n_qubits:
        raise ValueError("probability vector does not match word width")
    tensor = probabilities.reshape((2,) * n_qubits)
    active = [k for k, c in enumerate(word.upper()) if c != "I"]
    if not active:
        return 1.0
    signs = np.ones_like(tensor)
    for qubit in active:
        shape = [1] * n_qubits
        shape[qubit] = 2
        signs = signs * np.array([1.0, -1.0]).reshape(shape)
    return float((tensor * signs).sum())


def measure_hamiltonian(
    circuit: QuantumCircuit,
    hamiltonian: Hamiltonian,
    backend,
    shots: int = 1024,
    purpose: str = "vqe-energy",
) -> float:
    """Estimate ``<H>`` of the circuit's output state on a backend.

    One measured circuit per measurement-basis group: the ansatz circuit
    is extended with the group's basis rotations, sampled, and every term
    in the group is evaluated from the same counts.

    Returns:
        The estimated energy (exact if the backend is exact).
    """
    if circuit.n_qubits != hamiltonian.n_qubits:
        raise ValueError("circuit/Hamiltonian width mismatch")
    groups = hamiltonian.measurement_groups()
    bases = sorted(groups)
    measured = [
        circuit.compose(basis_rotation_circuit(basis)) for basis in bases
    ]
    results = backend.run(measured, shots=shots, purpose=purpose)

    energy = 0.0
    for basis, rotated, result in zip(bases, measured, results):
        if result.outcomes is not None:
            probabilities = _measurement.outcome_probabilities(
                result.outcomes
            )
        else:
            # Exact backends return expectations but no counts; fall back
            # to an exact statevector evaluation of this rotated circuit,
            # replaying the backend's cached plan when it has one.
            from repro.gradients.adjoint_engine import adjoint_plan_for
            from repro.sim.statevector import Statevector

            probabilities = Statevector(circuit.n_qubits).evolve(
                rotated, plan=adjoint_plan_for(rotated, backend)
            ).probabilities()
        for term in groups[basis]:
            energy += term.coefficient * pauli_product_expectation(
                probabilities, term.word
            )
    return float(energy)


def circuits_per_energy(hamiltonian: Hamiltonian) -> int:
    """How many measured circuits one energy evaluation costs."""
    return len(hamiltonian.measurement_groups())
