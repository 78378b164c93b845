"""The three benchmark workloads.

Each workload builds its inputs from the seed alone, times its own
parts with ``time.perf_counter`` around calls into the program's public
functions, and returns per-step counts the harness checks for exact
repetition.  Every call the traced run must see goes through a module
attribute (``parameter_shift.build_shifted_circuits``), so the tracer's
wrappers are the ones called.

A step returns a dict with:

* ``busy_s`` - wall time of the whole step, evaluation included;
  ``circuits`` - every circuit metered in that window (throughput is
  ``circuits`` over ``busy_s``);
* ``step_s`` - the step's latency; ``eval_s`` / ``grad_s`` - the
  latencies of its forward-only and gradient parts (``None`` when the
  step has none).  These may nest inside each other;
* ``phase`` - the PGP phase the step ran in; ``counts`` - integers that
  must repeat exactly for every step of one phase;
* ``ops`` / ``failed`` - operations attempted and failed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits import QuantumCircuit, get_architecture
from repro.circuits.layers import build_layered_ansatz
from repro.gradients import adjoint_engine, parameter_shift
from repro.hardware import IdealBackend, NoisyBackend
from repro.parallel import ShardedBackend
from repro.pruning import GradientPruner, PruningHyperparams
from repro.serving import ExecutionService
from repro.training import TrainingConfig, TrainingEngine
from repro.training import engine as training_engine

from perfbench import reference

#: The paper's PGP setting: w_a = 1, w_p = 2, r = 0.5.
PGP = PruningHyperparams(
    accumulation_window=1, pruning_window=2, ratio=0.5
)


def _no_trace(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Workload:
    """Interface the harness drives; ``trace`` wraps benchmark-side calls."""

    name = ""
    #: Why the workload exists (printed with its results).
    why = ""
    #: Processes the workload keeps busy (see ``calib.Calibrator``).
    PROCESSES = 1
    trace = staticmethod(_no_trace)

    def __init__(self, seed: int):
        self.seed = int(seed)

    def setup(self):
        raise NotImplementedError

    def step(self, state) -> dict:
        raise NotImplementedError

    def check(self, state) -> list[str]:
        """Output checks after the timed loop; returns failure messages."""
        return []

    def plan_caches(self, state) -> list:
        """Plan caches whose misses after warm-up must stay 0."""
        return [state["backend"].plan_cache]

    def teardown(self, state) -> None:
        pass

    def close(self) -> None:
        """Undo what ``__init__`` installed; called once, last."""


class _GradTimer:
    """Times each call of a function looked up in a module's globals."""

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.original = getattr(module, attr)
        self.last_s = 0.0

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return self.original(*args, **kwargs)
            finally:
                self.last_s = time.perf_counter() - start

        setattr(module, attr, timed)

    def remove(self) -> None:
        setattr(self.module, self.attr, self.original)


class QcTrainPgp(Workload):
    """QC-Train-PGP on mnist4 against the ibmq_jakarta noisy emulator."""

    name = "qc_train_pgp"
    why = (
        "the paper's on-chip training loop: each step builds 296 or 584 "
        "circuits, mostly shifted clones, so IR construction, grouping, "
        "angle stacking and 1024-shot readout outweigh the 4-qubit "
        "density kernels; validation runs forward circuits only, the "
        "control for changes to the clone path"
    )
    BATCH = 8
    SHOTS = 1024
    EVAL_EVERY = 4
    EVAL_SIZE = 80
    #: Steps (setup step included) the same-seed replay check covers.
    REPLAY_STEPS = 7

    def __init__(self, seed: int):
        super().__init__(seed)
        self.timer = _GradTimer(
            training_engine, "parameter_shift_jacobian_batch"
        )

    def setup(self):
        backend = NoisyBackend.from_device_name("ibmq_jakarta", seed=self.seed)
        config = TrainingConfig(
            task="mnist4",
            steps=1_000_000,
            batch_size=self.BATCH,
            shots=self.SHOTS,
            optimizer="adam",
            pruning=PGP,
            eval_every=0,
            eval_size=self.EVAL_SIZE,
            eval_shots=self.SHOTS,
            seed=self.seed,
        )
        state = {
            "backend": backend,
            "engine": TrainingEngine(config, backend),
            "steps": 0,
            "failures": [],
            "theta_at_replay": None,
        }
        self._advance(state)
        return state

    def _advance(self, state) -> dict:
        engine, meter = state["engine"], state["backend"].meter
        before = meter.snapshot()
        start = time.perf_counter()
        record = engine.train_step()
        step_s = time.perf_counter() - start
        window = meter.diff(before)
        expected = 2 * record.n_selected * self.BATCH + self.BATCH
        if window["circuits"] != expected:
            state["failures"].append(
                f"step {state['steps']}: metered {window['circuits']} "
                f"circuits, expected 2*{record.n_selected}*{self.BATCH}"
                f"+{self.BATCH} = {expected}"
            )
        state["steps"] += 1
        if state["steps"] == self.REPLAY_STEPS:
            state["theta_at_replay"] = engine.theta.copy()
        eval_s = None
        if state["steps"] % self.EVAL_EVERY == 0:
            eval_start = time.perf_counter()
            engine.evaluate()
            eval_s = time.perf_counter() - eval_start
        busy_s = time.perf_counter() - start
        return {
            "busy_s": busy_s,
            "step_s": step_s,
            "eval_s": eval_s,
            "grad_s": self.timer.last_s,
            "phase": record.phase,
            "counts": {
                "circuits": window["circuits"],
                "shots": window["shots"],
                "selected": record.n_selected,
            },
            # Validation circuits included.
            "circuits": meter.circuits - before["circuits"],
            "shots": meter.shots - before["shots"],
            "selected": record.n_selected,
            "possible": engine.architecture.num_parameters,
            "ops": 1 if eval_s is None else 2,
            "failed": 0,
        }

    def step(self, state) -> dict:
        return self._advance(state)

    def check(self, state) -> list[str]:
        failures = list(state["failures"])
        replay = self.setup()
        try:
            while replay["steps"] < self.REPLAY_STEPS:
                self._advance(replay)
        finally:
            self.teardown(replay)
        if state["theta_at_replay"] is None:
            failures.append("run too short for the same-seed replay check")
        elif not np.array_equal(
            state["theta_at_replay"], replay["theta_at_replay"]
        ):
            failures.append("same-seed replay gave a different theta")
        return failures

    def close(self) -> None:
        self.timer.remove()


class ExactGrad10q(Workload):
    """Exact 10-qubit gradients: parameter shift and adjoint per step."""

    name = "exact_grad_10q"
    why = (
        "kernel-bound where qc_train_pgp is IR-bound: a 128-circuit "
        "parameter-shift sweep and an adjoint pass that replays the same "
        "compiled plans backwards with 4 circuits of IR, so a change "
        "that speeds forward replay but costs backward replay shows here"
    )
    N_QUBITS = 10
    LAYERS = ["ry", "rzz", "rz", "cz"] * 4
    N_EXAMPLES = 4
    SUBSET = 16
    POOL = 64
    LEARNING_RATE = 0.02
    TOLERANCE_PS = 1e-8
    TOLERANCE_DENSE = 1e-10

    def setup(self):
        rng = np.random.default_rng(self.seed)
        ansatz = build_layered_ansatz(self.N_QUBITS, self.LAYERS)
        state = {
            "backend": IdealBackend(exact=True),
            "ansatz": ansatz,
            "theta": rng.uniform(-1.0, 1.0, ansatz.num_parameters),
            "inputs": rng.uniform(0.0, np.pi, (self.POOL, self.N_QUBITS)),
            "steps": 0,
            "failures": [],
            "probe": None,
        }
        self._advance(state)
        return state

    def _circuits(self, state) -> list:
        bound = state["ansatz"].bound(state["theta"])
        first = self.N_EXAMPLES * state["steps"]
        circuits = []
        for k in range(self.N_EXAMPLES):
            row = state["inputs"][(first + k) % self.POOL]
            encoder = QuantumCircuit(self.N_QUBITS)
            for wire, angle in enumerate(row):
                encoder.add("ry", wire, float(angle))
            circuits.append(encoder.compose(bound))
        return circuits

    def _advance(self, state) -> dict:
        backend = state["backend"]
        n_params = state["ansatz"].num_parameters
        before = backend.meter.circuits
        start = time.perf_counter()
        circuits = self.trace("circuits.build", self._circuits, state)
        subset = [
            (self.SUBSET * state["steps"] + j) % n_params
            for j in range(self.SUBSET)
        ]
        shifted = parameter_shift.parameter_shift_jacobian_batch(
            circuits, backend, shots=0, param_indices=subset
        )
        adjoint_start = time.perf_counter()
        _, jacobians = adjoint_engine.adjoint_forward_and_jacobian_batch(
            circuits, backend
        )
        grad_s = time.perf_counter() - adjoint_start
        state["theta"] = state["theta"] - self.LEARNING_RATE * sum(
            jacobian.sum(axis=0) for jacobian in jacobians
        )
        step_s = time.perf_counter() - start
        eval_start = time.perf_counter()
        forward = backend.expectations(
            circuits, shots=0, purpose="validation"
        )
        eval_s = time.perf_counter() - eval_start
        busy_s = time.perf_counter() - start

        worst = max(
            float(np.max(np.abs(ps[:, subset] - adj[:, subset])))
            for ps, adj in zip(shifted, jacobians)
        )
        if worst > self.TOLERANCE_PS:
            state["failures"].append(
                f"step {state['steps']}: adjoint and parameter-shift "
                f"Jacobians differ by {worst:.3e}"
            )
        if state["probe"] is None:
            state["probe"] = (circuits[0], forward[0].copy())
        state["steps"] += 1
        circuits_run = backend.meter.circuits - before
        return {
            "busy_s": busy_s,
            "step_s": step_s,
            "eval_s": eval_s,
            "grad_s": grad_s,
            "phase": "step",
            "counts": {"circuits": circuits_run},
            "circuits": circuits_run,
            "shots": 0,
            "ops": 1,
            "failed": 0,
        }

    def step(self, state) -> dict:
        return self._advance(state)

    def check(self, state) -> list[str]:
        failures = list(state["failures"])
        circuit, measured = state["probe"]
        dense = reference.expectations_z(circuit)
        error = float(np.max(np.abs(dense - measured)))
        if error > self.TOLERANCE_DENSE:
            failures.append(
                f"expectations differ from the dense reference by "
                f"{error:.3e}"
            )
        return failures


class ServeSharded(Workload):
    """Multi-tenant serving over a 2-worker sharded service."""

    name = "serve_sharded"
    why = (
        "the only workload through the queue, coalescer, result cache, "
        "router and shard scatter/gather; at 4 qubits the kernels are "
        "negligible, so serving and pickled-circuit IPC dominate, and "
        "replayed versus fresh circuits are the cache's hit and miss paths"
    )
    PROCESSES = 2
    TENANTS = 4
    INFERENCE_JOBS = 8
    REPLAYS = 2
    WORKERS = 2
    #: Flush size: every wave's buckets (24 fresh inference circuits;
    #: 144 or 288 gradient circuits) split into whole flushes, so flush
    #: composition never depends on timing.  With the service defaults
    #: (256 circuits or 5 ms) submission takes longer than the deadline,
    #: and each wave's flushes were split by deadlines in 3 to 8 ways.
    FLUSH = 24
    #: Safety net only: every wave's buckets flush by size.
    MAX_DELAY_S = 1.0
    DRIFT = 0.01
    POOL = 256
    SAMPLE_EVERY = 5

    def setup(self):
        rng = np.random.default_rng(self.seed)
        arch = get_architecture("mnist4")
        n_params = arch.num_parameters
        backend = IdealBackend(exact=True)
        # Built here rather than by ExecutionService(workers=2): the
        # default cost floor keeps any 4-qubit flush under ~77 circuits
        # on a single worker, so no 24-circuit flush would scatter.  With
        # the floor at 0 every flush goes out as 2 shards: 18 shard
        # messages per wave, against about 5.5 with the service defaults.
        sharded = ShardedBackend(
            backend, workers=self.WORKERS, min_shard_cost=0
        )
        service = ExecutionService(
            sharded,
            workers=0,
            max_batch_size=self.FLUSH,
            max_delay_s=self.MAX_DELAY_S,
        )
        tenants = [
            {
                "theta": rng.uniform(-1.0, 1.0, n_params),
                "pruner": GradientPruner(
                    n_params, hyperparams=PGP, seed=self.seed + t
                ),
                "previous": [],
            }
            for t in range(self.TENANTS)
        ]
        state = {
            "arch": arch,
            "backend": backend,
            "sharded": sharded,
            "service": service,
            "tenants": tenants,
            "inputs": rng.uniform(0.0, np.pi, (self.POOL, arch.n_features)),
            "rng": rng,
            "waves": 0,
            "samples": [],
        }
        self._wave(state)
        return state

    def _wave(self, state) -> dict:
        service, arch = state["service"], state["arch"]
        inputs, rng = state["inputs"], state["rng"]
        fresh_per_tenant = self.INFERENCE_JOBS - self.REPLAYS
        wave = state["waves"]
        meter_before = state["backend"].meter.circuits
        scheduler_before = service.scheduler.stats()
        resilience_before = service.resilience_stats()
        start = time.perf_counter()

        inference = []
        for t, tenant in enumerate(state["tenants"]):
            first = (wave * self.TENANTS + t) * fresh_per_tenant
            fresh = [
                arch.full_circuit(inputs[(first + k) % self.POOL],
                                  tenant["theta"])
                for k in range(fresh_per_tenant)
            ]
            # The first wave has nothing to replay yet.
            circuits = fresh + tenant["previous"]
            jobs = [
                service.submit([c], shots=0, purpose="inference")
                for c in circuits
            ]
            inference.append((circuits, jobs))
            tenant["previous"] = fresh[: self.REPLAYS]

        gradient = []
        gradient_start = time.perf_counter()
        for t, tenant in enumerate(state["tenants"]):
            selected = [int(i) for i in tenant["pruner"].select()]
            base = arch.full_circuit(
                inputs[(wave * self.TENANTS + t) % self.POOL],
                tenant["theta"],
            )
            shifted, index_map = parameter_shift.build_shifted_circuits(
                base, selected
            )
            job = service.submit(shifted, shots=0, purpose="gradient")
            gradient.append((shifted, index_map, job, len(selected)))

        failed = 0
        hits = 0
        inference_results = []
        for circuits, jobs in inference:
            results = []
            for job in jobs:
                try:
                    results.extend(job.result())
                except Exception:  # a failed job counts; the wave goes on
                    failed += 1
                    results.append(None)
                hits += job.cache_hits
            inference_results.append((circuits, results))
        inference_s = time.perf_counter() - start

        # Inference flushes run first, so waiting for them does not
        # hold up the gradient jobs' completion.
        gathered = []
        for _, _, job, _ in gradient:
            try:
                gathered.append(job.result())
            except Exception:  # a failed job counts; the wave goes on
                failed += 1
                gathered.append(None)
        grad_s = time.perf_counter() - gradient_start

        selected_total = 0
        gradient_results = []
        for tenant, (shifted, index_map, _, n_selected), results in zip(
            state["tenants"], gradient, gathered
        ):
            selected_total += n_selected
            if results is None:
                tenant["pruner"].observe(np.zeros(arch.num_parameters))
                continue
            grads = np.zeros(arch.num_parameters)
            for pair, (index, _) in enumerate(index_map):
                grads[index] += 0.5 * float(
                    np.sum(results[2 * pair].expectations
                           - results[2 * pair + 1].expectations)
                )
            tenant["pruner"].observe(grads)
            tenant["theta"] = tenant["theta"] + self.DRIFT * (
                rng.standard_normal(arch.num_parameters)
            )
            gradient_results.append((shifted, results))
        step_s = time.perf_counter() - start

        if wave % self.SAMPLE_EVERY == 0:
            self._sample(state, inference_results, gradient_results)
        scheduler = service.scheduler.stats()
        resilience = service.resilience_stats()
        failed += (
            resilience["restarts"] - resilience_before["restarts"]
            + resilience["fallbacks"] - resilience_before["fallbacks"]
        )
        state["waves"] += 1
        circuits_run = state["backend"].meter.circuits - meter_before
        inference_jobs = sum(len(jobs) for _, jobs in inference)
        lookups = inference_jobs + sum(
            len(shifted) for shifted, *_ in gradient
        )
        flushes = scheduler["flushes"] - scheduler_before["flushes"]
        return {
            # Inference and gradient jobs overlap inside the wave.
            "busy_s": step_s,
            "step_s": step_s,
            "eval_s": inference_s,
            "grad_s": grad_s,
            "phase": "full" if selected_total == self.TENANTS * (
                arch.num_parameters
            ) else "prune",
            "counts": {
                "circuits": circuits_run,
                "cache_hits": hits,
                "flushes": flushes,
                "deadline_flushes": scheduler["deadline_flushes"]
                - scheduler_before["deadline_flushes"],
                "selected": selected_total,
            },
            "circuits": circuits_run,
            "shots": 0,
            "selected": selected_total,
            "possible": self.TENANTS * arch.num_parameters,
            "cache_lookups": lookups,
            "flush_capacity": flushes * self.FLUSH,
            "dispatched": scheduler["circuits_dispatched"]
            - scheduler_before["circuits_dispatched"],
            "restarts": resilience["restarts"]
            - resilience_before["restarts"],
            "ops": inference_jobs + len(gradient),
            "failed": failed,
        }

    def _sample(self, state, inference_results, gradient_results) -> None:
        """Keep a seeded sample of served results for the check."""
        rng = np.random.default_rng((self.seed, state["waves"]))
        for circuits, results in inference_results + gradient_results:
            k = int(rng.integers(len(circuits)))
            if results[k] is not None:
                state["samples"].append(
                    (circuits[k], results[k].expectations.copy())
                )

    def step(self, state) -> dict:
        return self._wave(state)

    def check(self, state) -> list[str]:
        if not state["samples"]:
            return ["no served results were sampled"]
        circuits = [circuit for circuit, _ in state["samples"]]
        direct = IdealBackend(exact=True).run(circuits, shots=0)
        mismatched = sum(
            not np.array_equal(served, result.expectations)
            for (_, served), result in zip(state["samples"], direct)
        )
        if mismatched:
            return [
                f"{mismatched} of {len(circuits)} sampled service results "
                f"differ from direct in-process Backend.run"
            ]
        return []

    def plan_caches(self, state) -> list:
        # The workers' caches are out of reach; a traced run counts the
        # compiles in this process (the shard planner's cost plans).
        return []

    def teardown(self, state) -> None:
        state["service"].stop()
        state["sharded"].close()


WORKLOADS = {w.name: w for w in (QcTrainPgp, ExactGrad10q, ServeSharded)}
