"""Learning-rate schedulers.

The paper's Table 3 experiments control the learning rate "by a cosine
scheduler from 0.3 in the beginning to 0.03 in the end"; that scheduler
(plus a constant and a step scheduler for ablations) lives here.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.ml.optim import Optimizer


class Scheduler(abc.ABC):
    """Computes the learning rate for a given step and pushes it
    into the wrapped optimizer."""

    def __init__(self, optimizer: Optimizer, total_steps: int):
        if total_steps < 1:
            raise ValueError("total_steps must be positive")
        self.optimizer = optimizer
        self.total_steps = int(total_steps)
        self._step = 0

    @abc.abstractmethod
    def lr_at(self, step: int) -> float:
        """Learning rate at a given 0-based step index."""

    def step(self) -> float:
        """Advance one step; sets and returns the new learning rate."""
        lr = self.lr_at(self._step)
        self.optimizer.set_lr(lr)
        self._step = min(self._step + 1, self.total_steps)
        return lr


class CosineScheduler(Scheduler):
    """Cosine annealing from ``lr_max`` down to ``lr_min``.

    ``lr(t) = lr_min + (lr_max - lr_min) * (1 + cos(pi t / T)) / 2``.
    The paper's setting is ``lr_max=0.3, lr_min=0.03``.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        total_steps: int,
        lr_max: float = 0.3,
        lr_min: float = 0.03,
    ):
        super().__init__(optimizer, total_steps)
        if lr_min <= 0 or lr_max < lr_min:
            raise ValueError("need 0 < lr_min <= lr_max")
        self.lr_max = float(lr_max)
        self.lr_min = float(lr_min)

    def lr_at(self, step: int) -> float:
        horizon = max(1, self.total_steps - 1)
        progress = min(1.0, max(0.0, step / horizon))
        cosine = 0.5 * (1.0 + np.cos(np.pi * progress))
        return self.lr_min + (self.lr_max - self.lr_min) * cosine


class ConstantScheduler(Scheduler):
    """Fixed learning rate (keeps whatever the optimizer started with)."""

    def lr_at(self, step: int) -> float:
        """The optimizer's current rate, unchanged."""
        return self.optimizer.lr


class StepDecayScheduler(Scheduler):
    """Multiply the base LR by ``gamma`` every ``period`` steps."""

    def __init__(
        self,
        optimizer: Optimizer,
        total_steps: int,
        period: int,
        gamma: float = 0.5,
    ):
        super().__init__(optimizer, total_steps)
        if period < 1:
            raise ValueError("period must be positive")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        self.period = int(period)
        self.gamma = float(gamma)
        self._base_lr = optimizer.lr

    def lr_at(self, step: int) -> float:
        return self._base_lr * self.gamma ** (step // self.period)
