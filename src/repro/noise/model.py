"""Per-device noise models: calibration data -> Kraus channels per gate.

A :class:`NoiseModel` answers one question for the density-matrix backend:
*which channels follow each circuit operation?*  Two abstraction levels are
supported:

* ``"physical"`` — intended for circuits already transpiled to the
  ``{cx, rx, ry, rz}`` basis; every gate gets its native error channel.
* ``"logical"`` (default) — the circuit keeps its logical vocabulary
  (RZZ/RXX/...); each logical gate's error budget is scaled by the number
  of native CX / single-qubit gates its decomposition would use
  (:data:`repro.circuits.transpile.CX_COST`).  This keeps 4-qubit density
  simulation on 16x16 matrices while preserving each device's error
  ranking, which is what the paper's experiments actually exercise.

The error composition per gate: depolarizing (stochastic gate error)
+ thermal relaxation over the gate duration (T1/T2) + a small coherent
RZ over-rotation (calibration bias), followed at measurement time by the
per-qubit readout confusion matrix (applied by the backend, not here).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.circuits.transpile import CX_COST
from repro.noise import channels as _channels
from repro.noise.calibration import DeviceCalibration
from repro.sim import gates as _gates

_TWO_QUBIT = {name for name, spec in _gates.GATES.items()
              if spec.num_wires == 2}


class NoiseModel:
    """Maps circuit operations to trailing Kraus channels.

    Args:
        calibration: The device calibration snapshot to derive errors from.
        level: ``"logical"`` or ``"physical"`` (see module docstring).
        scale: Global multiplier on all error rates — ``scale=0`` recovers
            the noise-free device; >1 emulates a worse machine.  Used by
            the Fig. 2b/2c analyses to sweep noise strength.
        include_coherent: Include the systematic RZ over-rotation term.
    """

    def __init__(
        self,
        calibration: DeviceCalibration,
        level: str = "logical",
        scale: float = 1.0,
        include_coherent: bool = True,
    ):
        if level not in ("logical", "physical"):
            raise ValueError("level must be 'logical' or 'physical'")
        if scale < 0:
            raise ValueError("scale must be non-negative")
        self.calibration = calibration
        self.level = level
        self.scale = float(scale)
        self.include_coherent = bool(include_coherent)
        self._cache: dict[tuple[str, int], list[list[np.ndarray]]] = {}

    # -- channel construction -------------------------------------------

    def _single_qubit_channels(
        self, depol_p: float, duration_ns: float, coherent: float
    ) -> list[list[np.ndarray]]:
        """Channels applied (in order) to one qubit after a gate."""
        out: list[list[np.ndarray]] = []
        depol_p = min(1.0, depol_p * self.scale)
        if depol_p > 0:
            out.append(_channels.depolarizing(depol_p, 1))
        t1_ns = self.calibration.t1_us * 1e3
        t2_ns = self.calibration.t2_us * 1e3
        if duration_ns > 0 and self.scale > 0:
            out.append(
                _channels.thermal_relaxation(
                    duration_ns * self.scale, t1_ns, t2_ns
                )
            )
        if self.include_coherent and coherent != 0.0:
            out.append(
                _channels.coherent_overrotation(coherent * self.scale, "z")
            )
        return out

    def _channels_for_gate(
        self, name: str, n_wires: int
    ) -> list[list[np.ndarray]]:
        """Per-*qubit* channel stack for a gate type (cached)."""
        key = (name, n_wires)
        if key in self._cache:
            return self._cache[key]
        calib = self.calibration
        if self.level == "physical":
            if name == "cx":
                sq_equiv = calib.cx_gate_error / 2.0
                duration = calib.cx_gate_ns
            else:
                sq_equiv = calib.sq_gate_error
                duration = calib.sq_gate_ns
            channels = self._single_qubit_channels(
                sq_equiv, duration, calib.coherent_z_error
            )
        else:
            # Logical level: scale by decomposition cost.
            cx_cost = CX_COST.get(name, 0) if n_wires == 2 else 0
            if n_wires == 2:
                sq_equiv = (
                    cx_cost * calib.cx_gate_error / 2.0
                    + calib.sq_gate_error
                )
                duration = (
                    cx_cost * calib.cx_gate_ns + calib.sq_gate_ns
                )
            else:
                sq_equiv = calib.sq_gate_error
                duration = calib.sq_gate_ns
            channels = self._single_qubit_channels(
                sq_equiv, duration, calib.coherent_z_error
            )
        self._cache[key] = channels
        return channels

    # -- public API -------------------------------------------------------

    def channels_for(
        self, op
    ) -> Iterable[tuple[list[np.ndarray], tuple[int, ...]]]:
        """Yield ``(kraus_ops, wires)`` channels to apply after ``op``.

        Errors are applied independently per touched qubit, which is the
        standard approximation for superconducting devices (crosstalk is
        folded into the CX error rate).

        ``op`` may be a resolved :class:`~repro.circuits.operation.
        BoundOp` or a bare :class:`~repro.circuits.operation.OpTemplate`
        — channels depend only on the gate name and wire count, never on
        angle values, which is what lets the batched density engine
        build one channel stack and apply it to a whole
        :class:`~repro.sim.batched_density.BatchedDensityMatrix`.
        """
        if self.scale == 0.0:
            return
        stacks = self._channels_for_gate(op.name, len(op.wires))
        for wire in op.wires:
            for kraus_ops in stacks:
                yield kraus_ops, (wire,)

    def superop_for(self, op) -> np.ndarray | None:
        """Composed 4x4 channel matrix applied per touched qubit of ``op``.

        The whole per-qubit channel stack (depolarizing + thermal
        relaxation + coherent bias) collapsed into a single
        superoperator — bit for bit the matrix the plan compiler builds
        from :meth:`channels_for` for each touched wire.  Returns
        ``None`` when the model is noise-free (``scale == 0``).  Like
        :meth:`channels_for`, accepts a ``BoundOp`` or an
        ``OpTemplate``; the returned (cached) matrix is
        angle-independent.
        """
        if self.scale == 0.0:
            return None
        key = ("superop", op.name, len(op.wires))
        cached = self._cache.get(key)
        if cached is not None:
            return cached[0]
        from repro.sim.apply import kraus_to_superop

        superop = np.eye(4, dtype=np.complex128)
        for kraus_ops in self._channels_for_gate(op.name, len(op.wires)):
            superop = kraus_to_superop(kraus_ops) @ superop
        self._cache[key] = [superop]
        return superop

    def readout_confusions(
        self, qubits: Sequence[int] | int
    ) -> list[np.ndarray]:
        """Per-qubit readout confusion matrices for the measured qubits."""
        if isinstance(qubits, (int, np.integer)):
            qubits = range(int(qubits))
        calib = self.calibration
        p01 = min(1.0, calib.readout_p01 * self.scale)
        p10 = min(1.0, calib.readout_p10 * self.scale)
        matrix = _gates.np.array(
            [[1.0 - p10, p01], [p10, 1.0 - p01]], dtype=np.float64
        )
        return [matrix.copy() for _ in qubits]

    def expected_gate_error(self, circuit) -> float:
        """Crude total error budget of a circuit (sum of gate errors).

        Useful for ranking devices and for the Fig. 2c analysis of which
        machine produces noisier gradients.
        """
        calib = self.calibration
        total = 0.0
        for op in circuit.operations:
            if len(op.wires) == 2:
                cost = CX_COST.get(op.name, 1) if self.level == "logical" else 1
                if op.name == "cx":
                    cost = 1
                total += cost * calib.cx_gate_error
            else:
                total += calib.sq_gate_error
        return total * self.scale

    def __repr__(self) -> str:
        return (
            f"NoiseModel({self.calibration.name}, level={self.level!r}, "
            f"scale={self.scale})"
        )


def noise_model_for(
    device_name: str,
    level: str = "logical",
    scale: float = 1.0,
    include_coherent: bool = True,
) -> NoiseModel:
    """Convenience: build a noise model from a device name."""
    from repro.noise.calibration import get_calibration

    return NoiseModel(
        get_calibration(device_name),
        level=level,
        scale=scale,
        include_coherent=include_coherent,
    )
