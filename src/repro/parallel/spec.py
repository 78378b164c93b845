"""Picklable backend recipes: how a worker process rebuilds its replica.

A live :class:`~repro.hardware.Backend` cannot cross the process
boundary — it owns a mid-stream RNG ``Generator`` and a meter with a
``threading.Lock``.  What *can* cross is the recipe it was built from:
``BackendSpec`` captures everything needed to reconstruct an equivalent
``IdealBackend`` or ``NoisyBackend`` inside a spawned worker (noise
model settings, transpile option, seed), in a frozen dataclass whose
fields are all plain picklable values.

The spec is the process-boundary half of the contract
``ShardedBackend`` relies on; the other half — circuits, operations,
noise models, and results pickling faithfully — is pinned down by the
round-trip tests in ``tests/test_parallel.py``.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.backend import Backend, IdealBackend
from repro.hardware.noisy_backend import NoisyBackend
from repro.noise.calibration import (
    CALIBRATIONS,
    DeviceCalibration,
    get_calibration,
)


@dataclasses.dataclass(frozen=True)
class BackendSpec:
    """Recipe for rebuilding one simulator backend in another process.

    Attributes:
        kind: ``"ideal"`` or ``"noisy"``.
        exact: Ideal backends only — exact expectations vs shot
            sampling (ignored for noisy backends, which always sample).
        seed: Sampler seed the replica is built with.  Inside a pool,
            shot sampling uses the per-circuit RNG substreams carried
            by each shard (see :mod:`repro.parallel.shard`) rather
            than the replica's own stream, so this mostly matters for
            specs built and run outside a pool.
        device: Registry name of the calibration (``None`` when the
            calibration is carried inline).
        calibration: Inline :class:`DeviceCalibration` for noisy
            backends built from snapshots not in the registry.
        transpile: Noisy backends — route/decompose onto the device.
        noise_scale: Noisy backends — global error-rate multiplier.
        include_coherent: Noisy backends — include the systematic RZ
            over-rotation term.
    """

    kind: str
    exact: bool = True
    seed: int | None = None
    device: str | None = None
    calibration: DeviceCalibration | None = None
    transpile: bool = False
    noise_scale: float = 1.0
    include_coherent: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("ideal", "noisy"):
            raise ValueError(
                f"unknown backend kind {self.kind!r}; expected 'ideal' "
                f"or 'noisy'"
            )
        if self.kind == "noisy":
            if self.device is None and self.calibration is None:
                raise ValueError(
                    "a noisy BackendSpec needs a device name or an "
                    "inline calibration"
                )

    # -- capture ---------------------------------------------------------

    @classmethod
    def from_backend(cls, backend: Backend) -> "BackendSpec":
        """Capture a live ``IdealBackend`` / ``NoisyBackend`` as a spec.

        Exact types only — a *subclass* may override execution in ways
        the spec cannot represent, and rebuilding it as its base class
        inside a worker would silently change behavior.

        Raises:
            TypeError: ``backend`` is not exactly one of the two
                simulator backends.
        """
        if type(backend) is IdealBackend:
            return cls(
                kind="ideal",
                exact=backend.exact,
                seed=backend._seed,
            )
        if type(backend) is NoisyBackend:
            calibration = backend.calibration
            device = None
            if (
                calibration.name in CALIBRATIONS
                and get_calibration(calibration.name) == calibration
            ):
                # Registry snapshot: ship the name, not the payload.
                device = calibration.name
                calibration = None
            return cls(
                kind="noisy",
                exact=False,
                seed=backend._seed,
                device=device,
                calibration=calibration,
                transpile=backend.transpile,
                noise_scale=backend.noise_model.scale,
                include_coherent=backend.noise_model.include_coherent,
            )
        raise TypeError(
            f"cannot derive a BackendSpec from {type(backend).__name__}; "
            f"only IdealBackend and NoisyBackend replicas can be "
            f"rebuilt inside a worker process"
        )

    # -- rebuild ---------------------------------------------------------

    def build(self, seed: int | None = None) -> Backend:
        """Construct the backend this spec describes.

        Args:
            seed: Overrides the spec's stored seed (the pool uses this
                to give each worker replica a well-defined stream).
        """
        seed = self.seed if seed is None else seed
        if self.kind == "ideal":
            return IdealBackend(exact=self.exact, seed=seed)
        calibration = self.calibration
        if calibration is None:
            calibration = get_calibration(self.device)
        return NoisyBackend(
            calibration,
            seed=seed,
            transpile=self.transpile,
            noise_scale=self.noise_scale,
            include_coherent=self.include_coherent,
        )

    # -- queries ---------------------------------------------------------

    @property
    def samples(self) -> bool:
        """Whether the described backend draws random shot samples."""
        return self.kind == "noisy" or not self.exact

    def describe(self) -> str:
        """Short human-readable label (used for backend names)."""
        if self.kind == "ideal":
            return "ideal" if self.exact else "ideal_sampled"
        return self.device or self.calibration.name
