"""Parameter-shift gradients evaluated on a backend (Sec. 3.1-3.2).

For every trainable parameter ``theta_i`` the rule of Eq. 2 runs the
circuit twice — once with the gate's angle shifted by ``+pi/2`` and once
by ``-pi/2`` — and halves the difference of the measured expectation
vectors:

    d f(theta) / d theta_i = ( f(theta_i + pi/2) - f(theta_i - pi/2) ) / 2

The shift is applied per *gate occurrence*: when one parameter appears in
several gates, each occurrence is shifted separately and the contributions
are summed (end of Sec. 3.1).  Unlike finite differences this is the exact
derivative on a noise-free device; on a noisy device it inherits the
device's errors, which is precisely the effect gradient pruning targets.

Cost: ``2 * (number of shifted gate occurrences)`` circuit executions per
Jacobian — linear in parameter count, which is what makes on-chip training
scale where classical simulation cannot.

A Jacobian sweep never builds the shifted circuits one by one: the
base rows are stacked into one :class:`~repro.circuits.sweep.Sweep`
(an angle matrix over a shared structure template), and
:func:`shift_sweep` repeats every row ``2 x |shifted occurrences|``
times and writes the ``± pi/2`` offsets into the shifted occurrence
columns — the rows :func:`build_shifted_circuits` would build, in its
order, executing bit-identically.  The whole sweep goes to the backend
in one ``run_sweep`` call, which on the simulator backends evolves it
as one stacked tensor.  :func:`shift_sweep` also tags the sweep with
each row's base row and shifted position (``Sweep.shifts``, a
:class:`~repro.circuits.sweep.Shifts`): an untranspiled
:class:`~repro.hardware.NoisyBackend` contracts the rows against the
plan's Heisenberg-picture suffix instead of replaying it per row.
Every other consumer ignores the tag, and sweeps rebuilt from a
sweep's rows (serving admission, shards) drop it.

``backend`` may equally be a :class:`~repro.serving.ServiceExecutor`:
the sweep is then submitted as it is to the shared
:class:`~repro.serving.ExecutionService`, whose scheduler coalesces
this caller's shifted rows with every other client's same-structure
traffic before executing — the service-backed gradient path.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuits.batch import CircuitBatch, group_by_structure
from repro.circuits.sweep import Shifts, Sweep
from repro.sim import gates as _gates

#: The two-term shift for generators with eigenvalues +/-1 (Eq. 2).
SHIFT = np.pi / 2.0


def check_shiftable(circuit, param_indices: Sequence[int]) -> None:
    """Raise if any selected parameter sits in a non-shift-rule gate."""
    templates = circuit.templates
    for index in param_indices:
        positions = circuit.occurrences_of(index)
        if not positions:
            raise ValueError(f"parameter {index} is unused in the circuit")
        for pos in positions:
            name = templates[pos].name
            if name not in _gates.SHIFT_RULE_GATES:
                raise ValueError(
                    f"parameter {index} lies in gate {name!r}, which the "
                    f"two-term parameter-shift rule does not cover"
                )


def build_shifted_circuits(
    circuit, param_indices: Sequence[int]
) -> tuple[list, list[tuple[int, int]]]:
    """All ``theta+`` / ``theta-`` circuits for the selected parameters.

    Returns:
        ``(circuits, index_map)`` where circuits alternate
        ``[plus, minus, plus, minus, ...]`` and ``index_map[k]`` is the
        ``(param_index, occurrence_position)`` the k-th *pair* belongs to.
    """
    # Warm the structure-signature cache before cloning: every shifted
    # clone then inherits the cached tuple (a shift never changes the
    # structure), so downstream grouping and batching compare
    # signatures by object identity instead of recomputing them per
    # clone.
    circuit.structure_signature()
    circuits = []
    index_map: list[tuple[int, int]] = []
    for index in param_indices:
        for position in circuit.occurrences_of(index):
            circuits.append(circuit.shifted(position, +SHIFT))
            circuits.append(circuit.shifted(position, -SHIFT))
            index_map.append((index, position))
    return circuits, index_map


def shift_sweep(
    sweep: Sweep, param_indices: Sequence[int], shift: float = SHIFT
) -> tuple[Sweep, list[tuple[int, int]]]:
    """:func:`build_shifted_circuits` for every row of a sweep, as a sweep.

    Row ``b`` of ``sweep`` expands to ``2 x len(index_map)`` rows,
    alternating ``plus, minus`` per shifted occurrence: the offset
    column of that occurrence carries ``offset ± shift`` — exactly the
    float64 offset :meth:`~repro.circuits.OpTemplate.shifted` stores —
    and every other value is the base row's.  The default shift is
    the two-term rule's ``pi/2``; finite differences pass ``eps``.

    Returns:
        ``(shifted, index_map)``; ``index_map[k]`` is the
        ``(param_index, occurrence_position)`` of each row's k-th pair.
    """
    template = sweep.template
    index_map = [
        (index, position)
        for index in param_indices
        for position in template.occurrences_of(index)
    ]
    repeats = 2 * len(index_map)
    literals = np.repeat(sweep.literals, repeats, axis=0)
    params = np.repeat(sweep.params, repeats, axis=0)
    # A trainable op's offset lives in the column of its own position.
    occurrences = np.array(
        [position for _, position in index_map], dtype=np.intp
    )
    columns = np.tile(occurrences, sweep.size)
    plus = (
        np.arange(sweep.size)[:, None] * repeats
        + 2 * np.arange(len(index_map))
    ).ravel()
    literals[plus, columns] += shift
    literals[plus + 1, columns] -= shift
    shifted = Sweep(template, literals, params)
    shifted.shifts = Shifts(
        sweep,
        np.arange(sweep.size).repeat(repeats),
        np.tile(occurrences.repeat(2), sweep.size),
    )
    return shifted, index_map


def parameter_shift_jacobian(
    circuit,
    backend,
    shots: int = 1024,
    param_indices: Sequence[int] | None = None,
    purpose: str = "gradient",
) -> np.ndarray:
    """Jacobian ``d<Z_k>/d theta_i`` via parameter shift on a backend.

    Args:
        circuit: Bound :class:`repro.circuits.QuantumCircuit`.
        backend: Any :class:`repro.hardware.Backend`; its noise and shot
            statistics flow straight into the gradient estimates.
        shots: Shots per shifted circuit (paper: 1024).
        param_indices: Subset of parameters to differentiate; ``None``
            means all.  Gradient pruning passes the sampled subset here —
            skipped parameters simply never generate circuits, which is
            where the circuit-run savings come from.
        purpose: Usage-meter tag.

    Returns:
        Array of shape ``(n_qubits, n_params)``; columns not in
        ``param_indices`` are zero.
    """
    return parameter_shift_jacobian_batch(
        [circuit], backend, shots=shots,
        param_indices=param_indices, purpose=purpose,
    )[0]


def parameter_shift_jacobian_batch(
    circuits,
    backend,
    shots: int = 1024,
    param_indices: Sequence[int] | None = None,
    purpose: str = "gradient",
) -> list[np.ndarray]:
    """Jacobians for several circuits, one backend submission per structure.

    The TrainingEngine differentiates every example of a mini-batch with
    the same pruned parameter subset; all shifted rows of a structure
    go to the backend as one :func:`shift_sweep`, which mirrors how
    jobs are batched to real devices and amortizes per-call overhead.

    Args:
        circuits: A :class:`~repro.circuits.sweep.Sweep` (one row per
            example) or a sequence of circuits, which are grouped by
            structure — each group runs as one sweep, in first-
            appearance order, the order ``Backend.run`` executes a
            mixed submission's groups in.

    Returns:
        One ``(n_qubits, n_params)`` Jacobian per input row.
    """
    if isinstance(circuits, Sweep):
        groups = [(range(circuits.size), circuits)]
    else:
        groups = [
            (positions, CircuitBatch(members))
            for positions, members in group_by_structure(list(circuits))
        ]
    jacobians: list = [None] * sum(len(p) for p, _ in groups)
    for positions, sweep in groups:
        indices = (
            list(range(sweep.num_parameters))
            if param_indices is None
            else [int(i) for i in param_indices]
        )
        check_shiftable(sweep.template, indices)
        jacobian = np.zeros(
            (sweep.size, sweep.n_qubits, sweep.num_parameters),
            dtype=np.float64,
        )
        if indices:
            shifted, index_map = shift_sweep(sweep, indices)
            expectations = backend.run_sweep(
                shifted, shots=shots, purpose=purpose
            ).reshape(sweep.size, len(index_map), 2, sweep.n_qubits)
            halves = 0.5 * (expectations[:, :, 0] - expectations[:, :, 1])
            for pair, (param_index, _) in enumerate(index_map):
                jacobian[:, :, param_index] += halves[:, pair]
        for position, row in zip(positions, jacobian):
            jacobians[position] = row
    return jacobians


def parameter_shift_forward_and_jacobian(
    circuit,
    backend,
    shots: int = 1024,
    param_indices: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Unshifted expectations plus the shift-rule Jacobian.

    Mirrors Sec. 3.2: the forward (unshifted) run supplies the logits for
    the classical softmax/cross-entropy stage, the shifted runs supply the
    upstream Jacobian.
    """
    forward = backend.expectations(
        [circuit], shots=shots, purpose="forward"
    )[0]
    jacobian = parameter_shift_jacobian(
        circuit, backend, shots=shots, param_indices=param_indices
    )
    return forward, jacobian
