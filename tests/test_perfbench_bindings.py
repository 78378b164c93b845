"""The benchmark's bindings to the program.

``perfbench`` reaches into the program from outside: the tracer wraps
functions it finds through class ``__dict__`` entries and module
attributes, and the ``qc_train_pgp`` workload times every call of
``repro.training.engine.parameter_shift_jacobian_batch``.  A rename or
a moved call site would crash ``--trace 1`` or silently empty a timer;
these tests fail first.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.trace import Tracer, patch_table  # noqa: E402

from repro.hardware import NoisyBackend  # noqa: E402
from repro.pruning import PruningHyperparams  # noqa: E402
from repro.training import TrainingConfig, TrainingEngine  # noqa: E402
from repro.training import engine as training_engine  # noqa: E402


def _lookup(owner, attr):
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _engine(gradient_engine="parameter_shift"):
    config = TrainingConfig(
        task="mnist4",
        steps=10,
        batch_size=2,
        shots=64,
        gradient_engine=gradient_engine,
        pruning=PruningHyperparams(
            accumulation_window=1, pruning_window=2, ratio=0.5
        ),
        eval_every=0,
        eval_size=4,
        eval_shots=64,
        seed=0,
    )
    backend = NoisyBackend.from_device_name("ibmq_jakarta", seed=0)
    return TrainingEngine(config, backend)


def test_tracer_installs_and_uninstalls():
    originals = [
        (owner, attr, _lookup(owner, attr))
        for _, owner, attr, _ in patch_table()
    ]
    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert _lookup(owner, attr) is not original
        engine = _engine()
        engine.train_step()
        engine.evaluate()
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert _lookup(owner, attr) is original
    names = {span.name for span in tracer.spans}
    assert {
        "training.step", "training.eval", "gradients.ps", "sim.kernel",
        "sim.readout",
    } <= names


def test_train_step_calls_the_timed_gradient_entry_point_once(monkeypatch):
    calls = []
    original = training_engine.parameter_shift_jacobian_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(
        training_engine, "parameter_shift_jacobian_batch", counting
    )
    engine = _engine()
    theta = engine.theta.copy()
    engine.train_step()
    assert len(calls) == 1
    assert not np.array_equal(engine.theta, theta)
