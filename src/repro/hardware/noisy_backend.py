"""Noisy device emulation: the stand-in for the paper's real IBM machines.

``NoisyBackend`` executes circuits by exact density-matrix evolution with
the device's Kraus noise model interleaved after every gate, pushes the
outcome distribution through the readout confusion matrices, and samples
the requested number of shots.  The result has every noise ingredient the
paper's on-chip training contends with:

* stochastic gate error (depolarizing, scaled with each gate's CX cost),
* decoherence over gate durations (T1/T2 thermal relaxation),
* coherent calibration bias (systematic RZ over-rotation),
* readout assignment error, and
* finite-shot statistical noise (1024 shots by default, as in the paper).

Two fidelity levels:

* ``transpile=False`` (default): noise is attached to the *logical* gates
  with decomposition-cost scaling — fast (4-qubit density matrices) and
  faithful in error structure; used by the training benchmarks.
* ``transpile=True``: circuits are routed onto the device coupling map and
  decomposed to the native basis first, and noise is applied per physical
  gate — slower, used by the realism tests and examples.

Execution
---------
Every submission is grouped by structure (a
:class:`~repro.circuits.sweep.Sweep` is one group) and each group
replays its
cached compiled density plan (:mod:`repro.sim.compile`) on one stacked
:class:`~repro.sim.batched_density.BatchedDensityMatrix` — unitary
fusion between noise insertion points and precomposed per-wire channel
superoperators — followed by batch-wide readout-confusion application,
layout marginalization, and a single vectorized multinomial draw.  A
single circuit is a batch of one, so a circuit's *observed*
distribution is bit-identical whichever group it rides in; sampled
counts consume the seeded RNG stream row by row in group order (the
contract :func:`~repro.sim.measurement.sample_outcome_matrix`
documents).  In transpiled mode, circuits are additionally grouped by
their *post-transpile* structure and layout before stacking.

A parameter-shift sweep (one :func:`~repro.gradients.parameter_shift.
shift_sweep` tags with ``Sweep.shifts``) skips the per-row replay in
untranspiled mode: the plan's :class:`~repro.sim.compile.SuffixPlan`
carries the outcome projectors backwards through the shared noisy
suffix once and contracts each shifted row against them right after
its shifted step, so a row costs its own step, not the rest of the
circuit.  Its distributions equal the replay's to roundoff and are
bit-identical whatever batch a row rides in; readout confusion and
the seeded multinomial draw consume them in the same row order.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.batch import CircuitBatch
from repro.circuits.sweep import Sweep
from repro.circuits.transpile import transpile as _transpile
from repro.hardware.backend import Backend
from repro.noise.calibration import DeviceCalibration, get_calibration
from repro.noise.model import NoiseModel
from repro.sim import compile as _compile
from repro.sim import measurement as _measurement
from repro.sim.batched_density import BatchedDensityMatrix


class NoisyBackend(Backend):
    """Density-matrix emulator of one calibrated device.

    Args:
        calibration: Device snapshot (or use :func:`from_device_name`).
        seed: Shot-sampler seed.
        transpile: Route + decompose onto the physical device first.
        noise_scale: Global noise multiplier (0 = noise-free device).
        include_coherent: Include the systematic over-rotation term.
        plan_cache_size: LRU capacity of :attr:`plan_cache`.
        transpile_cache_size: LRU capacity of :attr:`transpile_cache`
            (used only with ``transpile=True``).
    """

    def __init__(
        self,
        calibration: DeviceCalibration,
        seed: int | None = None,
        transpile: bool = False,
        noise_scale: float = 1.0,
        include_coherent: bool = True,
        plan_cache_size: int = 128,
        transpile_cache_size: int = 256,
    ):
        super().__init__(seed=seed)
        self.calibration = calibration
        self.name = calibration.name
        self.transpile = bool(transpile)
        self.noise_model = NoiseModel(
            calibration,
            level="physical" if transpile else "logical",
            scale=noise_scale,
            include_coherent=include_coherent,
        )
        #: Structure-keyed LRU of compiled density plans.  Plans embed
        #: this backend's (immutable) noise model, so the cache is valid
        #: for the backend's lifetime.
        self.plan_cache = _compile.PlanCache(plan_cache_size)
        #: Fingerprint-keyed LRU of ``(physical_circuit, final_layout)``
        #: transpilation results — ``transpile=True`` used to re-route
        #: and re-decompose identical circuits on every submission.
        self.transpile_cache = _compile.PlanCache(transpile_cache_size)

    @classmethod
    def from_device_name(cls, name: str, **kwargs) -> "NoisyBackend":
        """Build a backend from a device name like ``"ibmq_santiago"``."""
        return cls(get_calibration(name), **kwargs)

    # -- execution --------------------------------------------------------

    def _prepare(self, circuit):
        """Transpile if configured; returns (circuit, logical->wire map).

        Transpilation results are cached by :meth:`~repro.circuits.
        QuantumCircuit.fingerprint` (structure *and* angle values — a
        routed circuit bakes resolved angles into its decomposition), so
        resubmitting an identical circuit never re-routes.  The cached
        physical circuit is shared between hits; downstream execution
        treats circuits as read-only.
        """
        if not self.transpile:
            return circuit, tuple(range(circuit.n_qubits))
        key = circuit.fingerprint()
        cached = self.transpile_cache.get(key)
        if cached is not None:
            return cached
        result = _transpile(
            circuit,
            self.calibration.coupling_map,
            self.calibration.n_qubits,
        )
        prepared = (result.circuit, result.final_layout)
        self.transpile_cache.put(key, prepared)
        return prepared

    def _plan_for(self, physical) -> "_compile.ExecutionPlan":
        """Cached compiled density plan for a *post-transpile* circuit.

        Keyed by the physical circuit's structure signature; the noise
        model (and, through it, the logical/physical channel level) is
        fixed per backend, so it never enters the key.
        """
        return self.plan_cache.get_or_compile(
            physical.structure_signature(),
            lambda: _compile.compile_circuit(
                physical, mode="density", noise_model=self.noise_model
            ),
        )

    def observed_probabilities(self, circuit) -> np.ndarray:
        """Exact *observed* outcome distribution (noise + readout error).

        This is the distribution shots are drawn from; exposed separately
        so analyses can separate systematic error from shot noise.
        """
        return self.observed_probabilities_batch([circuit])[0]

    def observed_probabilities_batch(self, circuits) -> np.ndarray:
        """Stacked observed distributions for same-structure circuits.

        Row ``i`` is bit-identical to ``observed_probabilities(
        circuits[i])`` (a batch of one).  Circuits are grouped by
        *post-transpile* structure signature and layout (routing is
        deterministic, so
        one logical structure normally yields one group — but the
        batched evolution contract requires identical physical template
        sequences, so this groups rather than assumes) and each group
        is evolved as one :class:`BatchedDensityMatrix`, with readout
        confusion and layout marginalization applied batch-wide.

        Args:
            circuits: Non-empty sequence sharing one logical
                :meth:`~repro.circuits.QuantumCircuit.
                structure_signature`, or a
                :class:`~repro.circuits.sweep.Sweep` of rows (evolved
                as it stands; transpiled execution routes each row's
                circuit, since routing bakes in angles).

        Returns:
            ``(len(circuits), 2^n_logical)`` observed distributions, in
            submission order.
        """
        if isinstance(circuits, Sweep):
            if not self.transpile:
                identity = tuple(range(circuits.n_qubits))
                return self._observed_rows(
                    circuits, identity, circuits.n_qubits
                )
            circuits = circuits.circuits()
        circuits = list(circuits)
        if not circuits:
            raise ValueError("need at least one circuit")
        logical_qubits = circuits[0].n_qubits
        prepared = [self._prepare(circuit) for circuit in circuits]
        groups: dict[tuple, list[int]] = {}
        for index, (physical, layout) in enumerate(prepared):
            key = (physical.structure_signature(), layout)
            groups.setdefault(key, []).append(index)
        rows = np.empty(
            (len(circuits), 2**logical_qubits), dtype=np.float64
        )
        for indices in groups.values():
            rows[indices] = self._observed_rows(
                CircuitBatch([prepared[i][0] for i in indices]),
                prepared[indices[0]][1],
                logical_qubits,
            )
        return rows

    def _observed_rows(
        self, sweep: Sweep, layout: tuple[int, ...], logical_qubits: int
    ) -> np.ndarray:
        """Observed distributions of one post-transpile structure group.

        One batched density evolution, readout confusion applied
        batch-wide, then the layout traced down to the logical qubits.
        A shift sweep (``sweep.shifts``) contracts its rows against the
        plan's Heisenberg-picture suffix instead of replaying it, up to
        :data:`~repro.sim.compile.SUFFIX_MAX_QUBITS` qubits.
        """
        plan = self._plan_for(sweep)
        suffix = None if sweep.shifts is None else plan.suffix()
        if suffix is None:
            rho = BatchedDensityMatrix(sweep.n_qubits, sweep.size)
            probs = rho.evolve(sweep, plan=plan).probabilities()
        else:
            probs = _measurement.normalized_probabilities(
                suffix.diagonals(sweep)
            )
        confusions = self.noise_model.readout_confusions(sweep.n_qubits)
        probs = _measurement.apply_readout_error_batch(probs, confusions)
        marginal = _layout_to_marginalize(
            sweep.n_qubits, layout, logical_qubits
        )
        if marginal is not None:
            probs = _marginalize_layout_batch(
                probs, sweep.n_qubits, marginal, logical_qubits
            )
        return probs

    def _execute_sweep(self, sweep: Sweep, shots: int):
        """Vectorized noisy execution of one same-structure sweep.

        One batched density evolution, then a single vectorized
        multinomial draw over the stacked observed distributions — the
        RNG stream is consumed row by row, so a single-structure
        submission samples bit-identically to submitting its circuits
        one by one.  Transpiled execution routes each row's circuit
        (routing bakes in angles), so it materializes the rows first.
        """
        probs = self.observed_probabilities_batch(sweep)
        outcomes = _measurement.sample_outcome_matrix(
            probs, shots, self._rng
        )
        return (
            _measurement.expectation_z_from_outcome_matrix(outcomes),
            outcomes,
        )

    def exact_expectations(self, circuit) -> np.ndarray:
        """Noisy-but-shot-free expectations (infinite-shot limit)."""
        probs = self.observed_probabilities(circuit)
        return _measurement.expectation_z_from_probabilities(probs)

    def __repr__(self) -> str:
        return (
            f"NoisyBackend({self.name}, transpile={self.transpile}, "
            f"scale={self.noise_model.scale})"
        )


def _layout_to_marginalize(
    physical_qubits: int,
    layout: tuple[int, ...],
    logical_qubits: int,
) -> tuple[int, ...] | None:
    """The layout to trace the physical distribution down with, if any.

    ``None`` when the distribution already is the logical one (identity
    layout on an unpadded register); an identity layout over a *padded*
    register still needs the ancilla wires traced out.
    """
    if layout != tuple(range(logical_qubits)):
        return layout
    if physical_qubits != logical_qubits:
        return tuple(range(logical_qubits))
    return None


def _marginalize_layout_batch(
    probs: np.ndarray,
    physical_qubits: int,
    layout: tuple[int, ...],
    logical_qubits: int,
) -> np.ndarray:
    """Extract the logical qubits' joint distributions from physical rows.

    ``layout[k]`` is the physical wire holding logical qubit ``k``; all
    other physical wires of the ``(B, 2^p)`` stack are traced out.
    """
    batch = probs.shape[0]
    tensor = probs.reshape((batch,) + (2,) * physical_qubits)
    keep = list(layout[:logical_qubits])
    drop = [q for q in range(physical_qubits) if q not in keep]
    if drop:
        tensor = tensor.sum(axis=tuple(q + 1 for q in drop))
    remaining_positions = {
        physical: position
        for position, physical in enumerate(sorted(keep))
    }
    perm = [remaining_positions[physical] + 1 for physical in keep]
    # Remaining axes are the kept wires in ascending physical order; put
    # them into logical order (output axis k = physical wire layout[k]).
    if perm != list(range(1, len(keep) + 1)):
        tensor = np.transpose(tensor, axes=[0] + perm)
    return tensor.reshape(batch, -1)
