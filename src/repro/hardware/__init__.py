"""Hardware substrate: backends, jobs, provider, runtime models."""

from repro.hardware.backend import (
    Backend,
    CircuitRunMeter,
    ExecutionResult,
    IdealBackend,
)
from repro.hardware.job import (
    Job,
    JobError,
    JobIdAllocator,
    JobStatus,
    reset_job_ids,
    submit_job,
)
from repro.hardware.noise_injection import NoiseInjectionBackend
from repro.hardware.noisy_backend import NoisyBackend
from repro.hardware.provider import QuantumProvider
from repro.hardware.runtime_model import (
    QuantumRuntimeModel,
    quantum_memory_gb,
    quantum_runtime_seconds,
)

__all__ = [
    "Backend",
    "CircuitRunMeter",
    "ExecutionResult",
    "IdealBackend",
    "Job",
    "JobError",
    "JobIdAllocator",
    "JobStatus",
    "NoiseInjectionBackend",
    "NoisyBackend",
    "QuantumProvider",
    "QuantumRuntimeModel",
    "quantum_memory_gb",
    "quantum_runtime_seconds",
    "reset_job_ids",
    "submit_job",
]
