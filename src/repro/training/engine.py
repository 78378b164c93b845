"""The QOC TrainingEngine (Alg. 1 and Sec. 3.2).

One engine covers all four experimental settings of the paper:

* **Classical-Train** — ``gradient_engine="adjoint"`` on an ideal backend:
  exact noise-free simulation (Table 1's "Simu." column when evaluated on
  the ideal backend, and the "Classical-Train / QC" row when the trained
  parameters are evaluated on a noisy device);
* **QC-Train** — ``gradient_engine="parameter_shift"`` on a noisy backend
  with ``pruning=None``: in-situ gradients, every parameter every step;
* **QC-Train-PGP** — same, with :class:`PruningHyperparams` enabled:
  probabilistic gradient pruning per Alg. 1;
* baselines — ``finite_difference`` / ``spsa`` gradient engines.

Each step performs the three parts of Sec. 3.2: (1) Jacobian via parameter
shift on the quantum device, (2) downstream gradient via classical
softmax/cross-entropy backprop, (3) chain-rule dot product and optimizer
update.

Every circuit of a task shares one structure, so a step never builds
circuits one by one: the mini-batch is one
:meth:`~repro.circuits.QnnArchitecture.sweep` (an angle matrix over the
architecture's cached template), and the parameter-shift rows are a
vectorized expansion of it.  The forward pass and the gradient pass
are one ``run_sweep`` call each, which the simulator backends execute
as one stacked-tensor evolution rather than ``O(batch x params)``
individual simulations.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.ansatz import QnnArchitecture, get_architecture
from repro.data.dataset import BatchSampler, Dataset
from repro.data.splits import load_task
from repro.gradients.adjoint_engine import (
    adjoint_engine_jacobian_batch,
    adjoint_forward_and_jacobian_batch,
)
from repro.gradients.finite_difference import (
    finite_difference_jacobian_batch,
)
from repro.gradients.parameter_shift import parameter_shift_jacobian_batch
from repro.gradients.spsa import spsa_jacobian_batch
from repro.ml.loss import cross_entropy
from repro.ml.optim import make_optimizer
from repro.ml.schedulers import CosineScheduler
from repro.pruning.pruner import GradientPruner, NoPruner
from repro.training.config import TrainingConfig
from repro.training.evaluator import evaluate_accuracy
from repro.training.heads import (
    expectation_grad_from_logit_grad,
    logits_from_expectations,
)
from repro.training.history import EvalRecord, StepRecord, TrainingHistory

#: Meter purposes that count as training inferences (Fig. 6 x-axis).
_TRAINING_PURPOSES = ("forward", "gradient", "fd-gradient", "spsa-gradient")


class TrainingEngine:
    """Runs Alg. 1 against a training backend.

    Args:
        config: The run configuration.
        train_backend: Backend used for forward passes and gradient
            circuits ("the quantum device").
        eval_backend: Backend used for validation accuracy; defaults to
            the training backend (the paper validates on the same
            machine it trains on).
        train_data / val_data: Optional pre-loaded datasets; generated
            from ``config.task`` when omitted.
        service: Optional :class:`repro.serving.ExecutionService`.  When
            given, all circuit execution is submitted through the
            service's coalescing scheduler instead of driving the
            backend synchronously — concurrent engines sharing one
            service have their forward and gradient circuits batched
            together.  ``train_backend`` may then be ``None`` (the
            service's routed pool executes); an explicitly passed
            backend still wins for the role it was passed for.
    """

    def __init__(
        self,
        config: TrainingConfig,
        train_backend=None,
        eval_backend=None,
        train_data: Dataset | None = None,
        val_data: Dataset | None = None,
        service=None,
    ):
        if train_backend is None and service is None:
            raise ValueError(
                "TrainingEngine needs a train_backend or a service"
            )
        if service is not None and train_backend is None:
            train_backend = service.executor(name="train")
        if service is not None and eval_backend is None:
            # Validation yields to training traffic in the shared queue.
            eval_backend = service.executor(priority=1, name="eval")
        self.config = config
        self.service = service
        self.backend = train_backend
        self.eval_backend = eval_backend or train_backend
        self.architecture: QnnArchitecture = get_architecture(config.task)

        if train_data is None or val_data is None:
            loaded_train, loaded_val = load_task(
                config.task, seed=config.seed
            )
            train_data = train_data or loaded_train
            val_data = val_data or loaded_val
        self.train_data = train_data
        self.val_data = val_data

        rng = np.random.default_rng(config.seed)
        self.theta = self.architecture.init_parameters(
            rng, scale=config.init_scale
        )
        self.sampler = BatchSampler(
            train_data, config.batch_size, seed=config.seed + 1
        )
        self.optimizer = make_optimizer(config.optimizer, lr=config.lr_max)
        self.scheduler = CosineScheduler(
            self.optimizer, config.steps,
            lr_max=config.lr_max, lr_min=config.lr_min,
        )
        n_params = self.architecture.num_parameters
        if config.pruning is None:
            self.pruner = NoPruner(n_params)
        else:
            self.pruner = GradientPruner(
                n_params,
                hyperparams=config.pruning,
                sampler=config.pruning_sampler,
                seed=config.seed + 2,
            )
        self._spsa_rng = np.random.default_rng(config.seed + 3)
        self.history = TrainingHistory()
        self._step = 0

    # -- inference accounting ---------------------------------------------

    def training_inferences(self) -> int:
        """Cumulative circuits run on the training backend for training."""
        by_purpose = self.backend.meter.by_purpose
        return sum(by_purpose.get(p, 0) for p in _TRAINING_PURPOSES)

    # -- gradient dispatch --------------------------------------------------

    def _jacobians(self, sweep, selected: np.ndarray) -> list[np.ndarray]:
        engine = self.config.gradient_engine
        indices = [int(i) for i in selected]
        if engine == "parameter_shift":
            return parameter_shift_jacobian_batch(
                sweep, self.backend,
                shots=self.config.shots, param_indices=indices,
            )
        if engine == "adjoint":
            return adjoint_engine_jacobian_batch(
                sweep, self.backend, param_indices=indices
            )
        if engine == "finite_difference":
            return finite_difference_jacobian_batch(
                sweep, self.backend,
                shots=self.config.shots, param_indices=indices,
            )
        if engine == "spsa":
            return spsa_jacobian_batch(
                sweep, self.backend,
                shots=self.config.shots, rng=self._spsa_rng,
            )
        raise ValueError(f"unknown gradient engine {engine!r}")

    # -- one step of Alg. 1 -------------------------------------------------

    def train_step(self) -> StepRecord:
        """Sample a mini-batch, compute (pruned) gradients, update theta."""
        config = self.config
        features, labels = self.sampler.sample()

        # Which parameters get their gradients evaluated this step.
        selected = self.pruner.select()
        mask = np.zeros(self.architecture.num_parameters, dtype=bool)
        mask[selected] = True

        sweep = self.architecture.sweep(features, self.theta)

        # Parts 1 + 2 (Fig. 4): forward expectations and Jacobians.  The
        # adjoint engine computes both from a single batched sweep per
        # structure group — the forward state feeds the backward
        # reverse-replay directly, so no circuit is simulated twice.
        # Other engines run a forward submission, then their own
        # gradient circuits.
        if config.gradient_engine == "adjoint":
            expectations, jacobians = adjoint_forward_and_jacobian_batch(
                sweep,
                backend=self.backend,
                param_indices=[int(i) for i in selected],
            )
        else:
            expectations = self.backend.run_sweep(
                sweep, shots=config.shots, purpose="forward"
            )
            jacobians = self._jacobians(sweep, selected)

        # Part 2 (Fig. 4 right): classical loss backprop.
        logits = logits_from_expectations(
            expectations, self.architecture.n_classes
        )
        loss, logit_grads = cross_entropy(logits, labels)
        expectation_grads = expectation_grad_from_logit_grad(
            logit_grads, self.architecture.n_qubits
        )

        # Part 3: chain rule, summed over the batch (cross_entropy's grad
        # already carries the 1/batch factor).
        grads = np.zeros_like(self.theta)
        for jacobian, expectation_grad in zip(jacobians, expectation_grads):
            grads += jacobian.T @ expectation_grad

        self.pruner.observe(grads)
        lr = self.scheduler.step()
        self.optimizer.step(self.theta, grads, mask)

        phase = (
            "prune"
            if selected.size < self.architecture.num_parameters
            else "full"
        )
        record = StepRecord(
            step=self._step,
            loss=loss,
            lr=lr,
            n_selected=int(selected.size),
            phase=phase,
            inferences=self.training_inferences(),
        )
        self.history.record_step(record)
        self._step += 1
        return record

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, backend=None, max_examples: int | None = None) -> float:
        """Validation accuracy of the current parameters."""
        config = self.config
        backend = backend or self.eval_backend
        return evaluate_accuracy(
            self.architecture,
            self.theta,
            self.val_data,
            backend,
            shots=config.eval_shots,
            max_examples=(
                max_examples if max_examples is not None
                else config.eval_size
            ),
            seed=config.seed + 4,
        )

    # -- full run ---------------------------------------------------------------

    def train(self, verbose: bool = False) -> TrainingHistory:
        """Run ``config.steps`` steps with periodic validation."""
        config = self.config
        for step in range(config.steps):
            record = self.train_step()
            should_eval = (
                config.eval_every > 0
                and (step + 1) % config.eval_every == 0
            )
            if should_eval or step == config.steps - 1:
                acc = self.evaluate()
                self.history.record_eval(
                    EvalRecord(
                        step=step,
                        accuracy=acc,
                        inferences=self.training_inferences(),
                    )
                )
                if verbose:
                    print(
                        f"step {step + 1:4d}/{config.steps}  "
                        f"loss={record.loss:.4f}  acc={acc:.3f}  "
                        f"inferences={self.training_inferences()}"
                    )
        return self.history
