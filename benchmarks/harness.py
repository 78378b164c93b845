"""Shared utilities for the experiment benchmarks.

Each benchmark file regenerates one table or figure of the paper at a
CI-friendly scale (fewer steps / smaller batches / smaller validation
subsets than the paper's multi-day hardware runs, with fixed seeds).  The
*shape* of each result — method orderings, crossovers, error laws — is
asserted; absolute accuracies are printed for EXPERIMENTS.md.

Scale knobs live here so all benchmarks stay consistent.
"""

from __future__ import annotations

import os

import numpy as np

from repro.hardware import Backend, IdealBackend, NoisyBackend
from repro.pruning import PruningHyperparams
from repro.training import TrainingConfig, TrainingEngine


def smoke_mode() -> bool:
    """True when CI asks for the reduced-size benchmark pass.

    ``REPRO_BENCH_SMOKE=1`` shrinks the *throughput* benchmarks (fewer
    rounds / submissions, same speedup assertions) so their performance
    targets are exercised on every push without the multi-minute
    table/figure regenerations.  The accuracy benchmarks ignore the
    flag — their method-ordering assertions need the full CI scale.
    """
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def smoke_scaled(full: int, smoke: int) -> int:
    """Pick a size knob depending on :func:`smoke_mode`."""
    return smoke if smoke_mode() else full

# --- benchmark scale (paper-scale values in comments) -----------------------

#: Per-task (steps, batch_size).  Paper-scale runs use thousands of
#: steps; these CI-scale settings are the smallest that reproduce the
#: method ordering reliably.  Vowel-4 needs the largest batches (its
#: loss surface is the most rugged; the paper itself only reaches
#: 0.31-0.37 accuracy on it).
TASK_SCALE = {
    "mnist2": (30, 6),
    "fashion2": (30, 6),
    "mnist4": (24, 8),
    "fashion4": (24, 8),
    "vowel4": (24, 12),
}
SHOTS = 1024           # paper: 1024
EVAL_SIZE = 80         # paper: 300 validation samples
SEED = 7

#: Per-task device assignment (Table 1 caption).
TASK_DEVICES = {
    "mnist4": "ibmq_jakarta",
    "mnist2": "ibmq_jakarta",
    "fashion4": "ibmq_manila",
    "fashion2": "ibmq_santiago",
    "vowel4": "ibmq_lima",
}

#: Per-task pruning settings.  The paper uses r=0.5, w_a=1, w_p=2
#: everywhere except Fashion-4 (r=0.7); at this reduced step budget the
#: harsher ratio has not yet paid off, so the bench keeps r=0.5 there
#: too (deviation documented in EXPERIMENTS.md).
TASK_PRUNING = {
    "mnist2": PruningHyperparams(1, 2, 0.5),
    "mnist4": PruningHyperparams(1, 2, 0.5),
    "fashion2": PruningHyperparams(1, 2, 0.5),
    "fashion4": PruningHyperparams(1, 2, 0.5),
    "vowel4": PruningHyperparams(1, 2, 0.5),
}


def steps_for(task: str) -> int:
    return TASK_SCALE[task][0]


def base_config(task: str, **overrides) -> TrainingConfig:
    """CI-scale config for one task, with the paper's hyper-parameters."""
    steps, batch_size = TASK_SCALE[task]
    settings = dict(
        task=task,
        steps=steps,
        batch_size=batch_size,
        shots=SHOTS,
        optimizer="adam",
        lr_max=0.3,
        lr_min=0.03,
        eval_every=0,
        eval_size=EVAL_SIZE,
        seed=SEED,
    )
    settings.update(overrides)
    return TrainingConfig(**settings)


def run_classical_train(task: str, **overrides):
    """Classical-Train: adjoint gradients, exact simulation."""
    seed = overrides.get("seed", SEED)
    engine = TrainingEngine(
        base_config(task, gradient_engine="adjoint", **overrides),
        IdealBackend(exact=True, seed=seed),
    )
    engine.train()
    return engine


def run_qc_train(task: str, device: str | None = None, pruning=None,
                 sampler: str = "probabilistic", **overrides):
    """QC-Train (pruning=None) or QC-Train-PGP on the task's device."""
    device = device or TASK_DEVICES[task]
    seed = overrides.get("seed", SEED)
    backend = NoisyBackend.from_device_name(device, seed=seed)
    engine = TrainingEngine(
        base_config(
            task,
            gradient_engine="parameter_shift",
            pruning=pruning,
            pruning_sampler=sampler,
            **overrides,
        ),
        backend,
    )
    engine.train()
    return engine


class CircuitByCircuit:
    """Circuit-by-circuit submission: every circuit is its own
    ``inner.run([c])`` call, a batch of one — the baseline the batched
    benchmarks compare structure-grouped execution against.  Offers the
    executor surface the gradient engines call (``run_sweep``,
    ``expectations``, ``meter``); a sweep runs as its rows' circuits."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.meter = inner.meter

    def expectations(self, circuits, shots: int = 1024, purpose="run"):
        return np.stack([
            self.inner.run([c], shots=shots, purpose=purpose)[0].expectations
            for c in circuits
        ])

    def run_sweep(self, sweep, shots: int = 1024, purpose="run"):
        return self.expectations(
            sweep.circuits(), shots=shots, purpose=purpose
        )


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Fixed-width text table for benchmark output."""
    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows))
        if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
