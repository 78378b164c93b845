"""Probabilistic gradient pruner: the full per-step policy of Alg. 1.

``GradientPruner`` is consulted once per training step:

1. :meth:`select` returns the parameter indices whose gradients should be
   evaluated this step — all of them during the accumulation window, a
   magnitude-sampled subset during the pruning window;
2. after the gradients are computed, :meth:`observe` feeds their
   magnitudes back (accumulation steps only).

The pruner also keeps savings statistics so experiments can verify the
paper's ``r * w_p / (w_a + w_p)`` evaluation-savings claim empirically.
"""

from __future__ import annotations

import numpy as np

from repro.pruning.accumulator import MagnitudeAccumulator
from repro.pruning.samplers import SAMPLERS
from repro.pruning.schedule import (
    Phase,
    PruningHyperparams,
    PruningScheduleState,
)


class GradientPruner:
    """Stateful pruning policy.

    Args:
        n_params: Number of trainable parameters.
        hyperparams: ``w_a`` / ``w_p`` / ``r`` settings.
        sampler: ``"probabilistic"`` (paper) or ``"deterministic"``
            (Table 2 baseline).
        seed: RNG seed for the probabilistic sampler.
    """

    def __init__(
        self,
        n_params: int,
        hyperparams: PruningHyperparams | None = None,
        sampler: str = "probabilistic",
        seed: int | None = None,
    ):
        if sampler not in SAMPLERS:
            raise ValueError(
                f"unknown sampler {sampler!r}; known: {sorted(SAMPLERS)}"
            )
        self.n_params = int(n_params)
        self.hyperparams = hyperparams or PruningHyperparams()
        self.sampler_name = sampler
        self._sampler = SAMPLERS[sampler]
        self._rng = np.random.default_rng(seed)
        self._schedule = PruningScheduleState(self.hyperparams)
        self._accumulator = MagnitudeAccumulator(self.n_params)
        self._step = 0
        self._pending_phase: Phase | None = None
        self.evaluated_gradients = 0
        self.possible_gradients = 0
        #: Times each parameter was selected during *pruning* steps —
        #: exposes the sampling-bias difference between probabilistic and
        #: deterministic pruning (Table 2's mechanism).
        self.prune_selection_counts = np.zeros(self.n_params, dtype=np.int64)
        self._prune_steps = 0

    # -- per-step protocol ----------------------------------------------

    def select(self) -> np.ndarray:
        """Parameter indices to evaluate at the current step."""
        phase = self._schedule.phase_at(self._step)
        if self._schedule.is_stage_start(self._step):
            self._accumulator.reset()
        if phase is Phase.ACCUMULATE:
            selected = np.arange(self.n_params, dtype=np.int64)
        elif self.sampler_name == "probabilistic":
            selected = self._sampler(
                self._accumulator.magnitudes,
                self.hyperparams.ratio,
                self._rng,
            )
        else:
            selected = self._sampler(
                self._accumulator.magnitudes, self.hyperparams.ratio
            )
        self._pending_phase = phase
        self.evaluated_gradients += int(selected.size)
        self.possible_gradients += self.n_params
        if phase is Phase.PRUNE:
            self.prune_selection_counts[selected] += 1
            self._prune_steps += 1
        return selected

    def observe(self, gradients: np.ndarray) -> None:
        """Feed back the gradients evaluated after :meth:`select`.

        Magnitudes are accumulated only in accumulation steps, matching
        Alg. 1 (lines 4-9); pruning-step gradients do not contaminate the
        distribution that was used to sample them.
        """
        if self._pending_phase is None:
            raise RuntimeError("observe() called before select()")
        if self._pending_phase is Phase.ACCUMULATE:
            self._accumulator.update(gradients)
        self._pending_phase = None
        self._step += 1

    # -- introspection ----------------------------------------------------

    @property
    def step(self) -> int:
        """Number of completed select/observe cycles."""
        return self._step

    def distribution(self) -> np.ndarray:
        """The sampling distribution the next pruning step would use."""
        return self._accumulator.distribution()

    @property
    def empirical_savings(self) -> float:
        """Measured fraction of gradient evaluations skipped so far."""
        if self.possible_gradients == 0:
            return 0.0
        return 1.0 - self.evaluated_gradients / self.possible_gradients

    def never_selected_fraction(self) -> float:
        """Fraction of parameters never chosen in any pruning step.

        Deterministic top-k permanently starves low-magnitude parameters
        (high fraction); probabilistic sampling gives everyone a chance
        (fraction decays toward zero with more pruning steps) — the
        degree-of-freedom argument behind Table 2.
        """
        if self._prune_steps == 0:
            return 0.0
        return float((self.prune_selection_counts == 0).mean())

    def __repr__(self) -> str:
        hp = self.hyperparams
        return (
            f"GradientPruner(w_a={hp.accumulation_window}, "
            f"w_p={hp.pruning_window}, r={hp.ratio}, "
            f"sampler={self.sampler_name!r}, step={self._step})"
        )


class NoPruner:
    """Null policy used by the QC-Train baseline: evaluate everything."""

    def __init__(self, n_params: int):
        self.n_params = int(n_params)
        self.evaluated_gradients = 0
        self.possible_gradients = 0

    def select(self) -> np.ndarray:
        """All parameter indices (nothing is ever pruned)."""
        self.evaluated_gradients += self.n_params
        self.possible_gradients += self.n_params
        return np.arange(self.n_params, dtype=np.int64)

    def observe(self, gradients: np.ndarray) -> None:
        """No state to update."""

    @property
    def empirical_savings(self) -> float:
        """Always zero: no evaluations are skipped."""
        return 0.0
