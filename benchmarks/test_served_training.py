"""QC-Train-PGP steps through the serving tier against direct execution.

The paper submits each training step's shifted circuits to a machine
queue; ``ExecutionService(workers=0).executor()`` is that queue in
this repo.  Five mnist4 QC-Train-PGP steps run twice — directly on a
backend and through a single-client service executor — and the
trained parameters are compared:

* on the exact ideal backend the served theta must be bit-identical
  to the direct one (served rows are the flush's result rows);
* on the ``ibmq_jakarta`` noisy emulator two served runs with one seed
  must give equal theta (sampled rows are reproducible per seed).

The served/direct step-time ratio is printed (the serving tier's
target is 1.2x); no wall-clock bound is asserted.
"""

from __future__ import annotations

import time

import numpy as np

from harness import format_table
from repro.hardware import IdealBackend, NoisyBackend
from repro.pruning import PruningHyperparams
from repro.serving import ExecutionService
from repro.training import TrainingConfig, TrainingEngine

STEPS = 5
BATCH = 8
SHOTS = 1024
SEED = 3
PGP = PruningHyperparams(
    accumulation_window=1, pruning_window=2, ratio=0.5
)


def train(backend) -> tuple[np.ndarray, float]:
    """Theta after ``STEPS`` steps, and the median step wall time."""
    config = TrainingConfig(
        task="mnist4",
        steps=STEPS,
        batch_size=BATCH,
        shots=SHOTS,
        optimizer="adam",
        pruning=PGP,
        eval_every=0,
        seed=SEED,
    )
    engine = TrainingEngine(config, backend)
    times = []
    for _ in range(STEPS):
        start = time.perf_counter()
        engine.train_step()
        times.append(time.perf_counter() - start)
    return engine.theta.copy(), float(np.median(times))


def served(backend) -> tuple[np.ndarray, float]:
    with ExecutionService(backend, workers=0) as service:
        return train(service.executor())


def jakarta() -> NoisyBackend:
    return NoisyBackend.from_device_name("ibmq_jakarta", seed=SEED)


def test_served_training_matches_direct():
    direct_theta, direct_s = train(IdealBackend(exact=True))
    served_theta, served_s = served(IdealBackend(exact=True))
    assert np.array_equal(served_theta, direct_theta)

    noisy_direct_theta, noisy_direct_s = train(jakarta())
    first_theta, first_s = served(jakarta())
    second_theta, _ = served(jakarta())
    assert np.array_equal(first_theta, second_theta)

    rows = [
        ["ideal (exact)", f"{1e3 * direct_s:.1f}", f"{1e3 * served_s:.1f}",
         f"{served_s / direct_s:.2f}x"],
        ["ibmq_jakarta", f"{1e3 * noisy_direct_s:.1f}",
         f"{1e3 * first_s:.1f}", f"{first_s / noisy_direct_s:.2f}x"],
    ]
    print()
    print(format_table(
        ["backend", "direct ms/step", "served ms/step", "served/direct"],
        rows,
    ))
    print(
        "served theta equals direct on ibmq_jakarta: "
        f"{np.array_equal(first_theta, noisy_direct_theta)}"
    )
