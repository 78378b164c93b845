"""The harness: set up, run the timed loop, calibrate, check, report.

One run measures one workload.  The workload is set up
``SETUP_REPEATS`` times (``setup_s`` is the median), then stepped in a
closed loop for ``--seconds``, with the calibration kernel after every
setup and every step.  Each timing is divided by the calibration run
right after it and reported in reference-host units (see
:mod:`perfbench.calib`); the table beside the JSON line also shows the
raw figures and the calibration median.

With ``--trace 1`` the loop alternates blocks of ``TRACE_BLOCK`` plain
and traced steps: the plain blocks give the untraced ``step_ms_p50``
the tracing overhead is measured against, the traced ones the spans and
per-layer metrics.
"""

from __future__ import annotations

import collections
import json
import multiprocessing
import resource
import statistics
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path

from perfbench import load_spec, stats
from perfbench.calib import REFERENCE_S, Calibrator, environment
from perfbench.trace import Tracer
from perfbench.workloads import PGP, WORKLOADS

SETUP_REPEATS = 5
MIN_STEPS = 5
TRACE_BLOCK = 6
MAX_FAILED_STEPS = 10
OUT_DIR = Path(__file__).resolve().parent / "out"

#: What each per-layer metric should move (printed beside it).  Names
#: and units come from ``BENCHMARK.json``; ``*_ms`` are self times per
#: step unless noted.
MOVES = {
    "circuits.build_ms": "step_ms_p50, circuits_per_s",
    "circuits.clone_ms": "step_ms_p50 on qc_train_pgp",
    "circuits.group_ms": "step_ms_p50, circuits_per_s",
    "circuits.stack_ms": "step_ms_p50, circuits_per_s",
    "circuits.validate_ms": "step_ms_p50 on serve_sharded",
    "circuits.fingerprint_ms": "step_ms_p50",
    "circuits.clones": "circuits.clone_ms",
    "circuits.share": "step_ms_p50",
    "sim.compile_ms": "setup_s (per setup)",
    "sim.plan_misses": "step_ms_p50 (must be 0)",
    "sim.kernel_ms": "step_ms_p50, grad_ms_p50 on exact_grad_10q",
    "sim.kernel_ops": "sim.kernel_ms",
    "sim.kernel_bytes": "sim.kernel_ms (computed, not measured)",
    "sim.readout_ms": "step_ms_p50 on qc_train_pgp",
    "sim.adjoint_ms": "grad_ms_p50 on exact_grad_10q",
    "hardware.run_self_ms": "circuits_per_s",
    "hardware.circuits": "circuits_per_s / steps_per_s",
    "hardware.shots": "circuits_per_s",
    "gradients.ps_self_ms": "step_ms_p50",
    "gradients.adjoint_self_ms": "grad_ms_p50 on exact_grad_10q",
    "pruning.skipped_frac": "circuits_per_s / steps_per_s",
    "pruning.ms": "step_ms_p50",
    "training.self_ms": "step_ms_p50 on qc_train_pgp",
    "training.eval_ms": "eval_ms_p50 (median eval pass)",
    "serving.submit_ms": "step_ms_p50, steps_per_s on serve_sharded",
    "serving.route_ms": "step_ms_p50 on serve_sharded",
    "serving.flushes": "step_ms_p50 on serve_sharded",
    "serving.batch_fill": "steps_per_s on serve_sharded",
    "serving.cache_hit_rate": "circuits_per_s on serve_sharded",
    "parallel.shard_ms": "step_ms_p50 on serve_sharded",
    "parallel.shards": "step_ms_p50 on serve_sharded (per flush)",
    "parallel.payload_kb": "step_ms_p50 on serve_sharded (per flush)",
    "parallel.restarts": "success_rate",
    "unattributed_ms": "time in a step no span covers",
    "tracing_overhead_ms": "traced minus untraced step_ms_p50",
}

#: Span names whose self time makes up each ``*_ms`` layer metric.
_SELF_TIME_SPANS = {
    "circuits.build_ms": ["circuits.build"],
    "circuits.clone_ms": ["circuits.clone"],
    "circuits.group_ms": ["circuits.group"],
    "circuits.stack_ms": ["circuits.stack"],
    "circuits.validate_ms": ["circuits.validate"],
    "circuits.fingerprint_ms": ["circuits.fingerprint"],
    "sim.kernel_ms": ["sim.kernel"],
    "sim.readout_ms": ["sim.readout"],
    "sim.adjoint_ms": ["sim.adjoint"],
    "hardware.run_self_ms": ["hardware.run"],
    "gradients.ps_self_ms": ["gradients.ps"],
    "gradients.adjoint_self_ms": ["gradients.adjoint"],
    "pruning.ms": ["pruning.select", "pruning.observe"],
    "training.self_ms": ["training.step", "training.eval"],
    "serving.submit_ms": ["serving.submit"],
    "serving.route_ms": ["serving.route"],
    "parallel.shard_ms": ["parallel.shard"],
    "unattributed_ms": ["bench.step"],
}


def _peak_rss_mb() -> float:
    """Peak RSS of the largest process: this one or a joined worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _join_children() -> None:
    """Wait for every process the run started, the resource tracker too.

    Starting a spawned process also starts multiprocessing's resource
    tracker, which nothing waits for: it exits when this process does
    and stays a zombie until init reaps it.  Closing its pipe once the
    workers are joined stops it, and ``_stop`` waits for it.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _skipped_frac(records) -> float:
    """Share of gradient evaluations PGP skipped, over whole stages.

    Any ``w_a + w_p`` consecutive steps hold exactly one PGP stage, so
    counting whole stages only makes the figure independent of where
    the timed loop happened to stop.
    """
    pruned = [r for r in records if "possible" in r]
    pruned = pruned[: len(pruned) // PGP.stage_length * PGP.stage_length]
    if not pruned:
        return 0.0
    selected = sum(r["selected"] for r in pruned)
    return 1.0 - selected / sum(r["possible"] for r in pruned)


def _plan_misses(workload, state) -> int:
    return sum(cache.stats()["misses"] for cache in workload.plan_caches(state))


def _traced_counts(counts) -> dict:
    """Exact-repeat counters only a traced step can see."""
    out = {
        "clones": counts.get("circuits.clones", 0),
        # Every compile in this process, not only the workload's caches.
        "plan_misses": counts.get("sim.plan_misses", 0),
    }
    flushes = counts.get("parallel.flushes", 0)
    if flushes:
        out["shards_per_flush"] = counts["parallel.shards"] / flushes
        out["payload_kb_per_flush"] = round(
            counts["parallel.payload_bytes"] / flushes / 1024, 3
        )
    return out


def _exact_counters(records) -> tuple[dict, bool]:
    """Per-phase counters and whether each held one value all run."""
    seen: dict = collections.defaultdict(lambda: collections.defaultdict(set))
    for record in records:
        phase = seen[record["phase"]]
        for key, value in record["counts"].items():
            phase[key].add(value)
    stable = all(
        len(values) == 1 for phase in seen.values()
        for values in phase.values()
    )
    counters = {
        phase: {
            key: (next(iter(values)) if len(values) == 1
                  else sorted(values))
            for key, values in sorted(keys.items())
        }
        for phase, keys in sorted(seen.items())
    }
    return counters, stable


def _end_to_end(spec, records, setups, attempted, failed) -> dict:
    """End-to-end metrics, each with its normalized and raw figure.

    Throughput divides by ``busy_s``, the wall time of each whole step
    (evaluation included), so nested latencies are never counted twice.
    """
    def series(key):
        rows = [r for r in records if r[key] is not None]
        return (
            [r[key] * 1e3 * r["scale"] for r in rows],
            [r[key] * 1e3 for r in rows],
        )

    steps, raw_steps = series("step_s")
    evals, raw_evals = series("eval_s")
    grads, raw_grads = series("grad_s")
    busy = sum(r["busy_s"] for r in records)
    busy_normalized = sum(r["busy_s"] * r["scale"] for r in records)
    circuits = sum(r["circuits"] for r in records)
    figures = {
        "setup_s": (
            statistics.median(s * scale for s, scale in setups),
            statistics.median(s for s, _ in setups), len(setups),
        ),
        "steps_per_s": (len(records) / busy_normalized,
                        len(records) / busy, len(records)),
        "circuits_per_s": (circuits / busy_normalized, circuits / busy,
                           len(records)),
    }
    for name, normalized, raw, q in (
        ("step_ms_p50", steps, raw_steps, 50),
        ("step_ms_p90", steps, raw_steps, 90),
        ("eval_ms_p50", evals, raw_evals, 50),
        ("grad_ms_p50", grads, raw_grads, 50),
    ):
        figures[name] = (stats.percentile(normalized, q),
                         stats.percentile(raw, q), len(normalized))
    figures["peak_rss_mb"] = (_peak_rss_mb(), None, 1)
    figures["success_rate"] = (1.0 - failed / attempted, None, attempted)
    metrics = {}
    for entry in spec["end_to_end"]:
        value, raw, n = figures[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"],
                                  "n": n, "raw": raw}
    metrics["step_ms_p90"]["reportable"] = stats.tail_reportable(steps, 90)
    return metrics


def _per_layer(spec, tracer, records, traced_steps, setup_scale,
               untraced_p50) -> dict:
    """Per-layer metrics from the spans and counts of traced steps."""
    self_s = stats.self_times(tracer.spans)
    traced = [r for r in records if r["step"] in traced_steps]
    scale_of = {r["step"]: r["scale"] for r in traced}
    n = max(len(traced), 1)
    by_name = collections.defaultdict(float)
    samples = collections.Counter()
    step_total = 0.0
    setup_compile = 0.0
    eval_ms = []
    for span in tracer.spans:
        if span.step == -1 and span.name == "sim.compile":
            setup_compile += self_s[span.id] * setup_scale
        if span.step not in scale_of:
            continue
        scale = scale_of[span.step]
        by_name[span.name] += self_s[span.id] * scale
        samples[span.name] += 1
        if span.name == "bench.step":
            step_total += (span.end - span.start) * scale
        elif span.name == "training.eval":
            eval_ms.append((span.end - span.start) * 1e3 * scale)
    counts = collections.Counter()
    for step in traced_steps:
        counts.update(tracer.step_counts.get(step, {}))

    values = {}
    for metric, names in _SELF_TIME_SPANS.items():
        values[metric] = sum(by_name[x] for x in names) * 1e3 / n
    circuits_self = sum(
        v for k, v in by_name.items() if k.startswith("circuits.")
    )
    flushes = counts["parallel.flushes"]
    traced_p50 = stats.percentile(
        [r["step_s"] * 1e3 * r["scale"] for r in traced], 50
    ) if traced else 0.0
    values.update({
        "circuits.clones": counts["circuits.clones"] / n,
        "circuits.share": 100.0 * circuits_self / step_total
        if step_total else 0.0,
        "sim.compile_ms": setup_compile * 1e3 / SETUP_REPEATS,
        "sim.plan_misses": counts["sim.plan_misses"],
        "sim.kernel_ops": counts["sim.kernel_ops"] / n,
        "sim.kernel_bytes": counts["sim.kernel_bytes"] / n,
        "hardware.circuits": sum(r["circuits"] for r in traced) / n,
        "hardware.shots": sum(r["shots"] for r in traced) / n,
        "pruning.skipped_frac": _skipped_frac(records),
        "training.eval_ms": statistics.median(eval_ms) if eval_ms else 0.0,
        "serving.flushes": sum(
            r["counts"].get("flushes", 0) for r in traced) / n,
        "serving.batch_fill": _ratio(records, "dispatched",
                                     "flush_capacity"),
        "serving.cache_hit_rate": sum(
            r["counts"].get("cache_hits", 0) for r in records
        ) / max(sum(r.get("cache_lookups", 0) for r in records), 1),
        "parallel.shards": counts["parallel.shards"] / flushes
        if flushes else 0.0,
        "parallel.payload_kb": counts["parallel.payload_bytes"] / 1024
        / flushes if flushes else 0.0,
        "parallel.restarts": sum(r.get("restarts", 0) for r in records),
        "tracing_overhead_ms": traced_p50 - untraced_p50,
    })
    metrics = {
        entry["name"]: {"value": float(values[entry["name"]]),
                        "unit": entry["unit"]}
        for entry in spec["per_layer"]
    }
    layers = collections.defaultdict(lambda: [0.0, 0])
    for name, seconds in by_name.items():
        layer = name.split(".")[0]
        layers[layer][0] += seconds * 1e3 / n
        layers[layer][1] += samples[name]
    return {"metrics": metrics, "layers": dict(layers),
            "traced_steps": len(traced), "traced_step_ms": step_total
            * 1e3 / n}


def _ratio(records, top: str, bottom: str) -> float:
    denominator = sum(r.get(bottom, 0) for r in records)
    return sum(r.get(top, 0) for r in records) / denominator if (
        denominator) else 0.0


def _compare_counters(path: Path, counters: dict) -> str:
    """Compare with the counters the previous run stored, then store."""
    current = json.loads(json.dumps(counters))
    note = f"stored in {path.name} for the next run"
    if path.exists():
        earlier = json.loads(path.read_text())
        note = (
            "identical to the previous run's" if earlier == current
            else f"DIFFER from the previous run's {earlier}"
        )
    path.write_text(json.dumps(current, indent=1, sort_keys=True))
    return note


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One benchmark run; prints the report and the JSON result line."""
    workload = WORKLOADS[name](seed)
    calibrator = Calibrator(workload.PROCESSES)
    tracer = Tracer() if trace else None

    def traced_call(fn, *args):
        if tracer is None:
            return fn(*args)
        tracer.install()
        workload.trace = tracer.call
        try:
            return fn(*args)
        finally:
            tracer.uninstall()
            del workload.trace

    setups = []
    state = None
    try:
        for _ in range(3):
            calibrator.run()
        calibrator.samples.clear()
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.teardown(state)
                state = None
            start = time.perf_counter()
            state = traced_call(workload.setup)
            elapsed = time.perf_counter() - start
            setups.append(
                (elapsed, stats.host_scale(REFERENCE_S, calibrator.run()))
            )

        records: list[dict] = []
        traced_steps: set[int] = set()
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        index = 0
        while index < MIN_STEPS or time.perf_counter() < deadline:
            in_trace = tracer is not None and (index // TRACE_BLOCK) % 2 == 1
            misses = _plan_misses(workload, state)
            try:
                if in_trace:
                    tracer.step = index
                    out = traced_call(
                        tracer.call, "bench.step", workload.step, state
                    )
                    traced_steps.add(index)
                else:
                    out = workload.step(state)
            except Exception:  # a failed step counts; the run goes on
                traceback.print_exc(file=sys.stderr)
                attempted += 1
                failed += 1
                if failed > MAX_FAILED_STEPS:
                    break
                continue
            finally:
                index += 1
            out["scale"] = stats.host_scale(REFERENCE_S, calibrator.run())
            out["step"] = index - 1
            out["counts"]["plan_misses"] = (
                _plan_misses(workload, state) - misses
            )
            if in_trace:
                out["counts"].update(
                    _traced_counts(tracer.step_counts.get(index - 1, {}))
                )
            records.append(out)
            attempted += out["ops"]
            failed += out["failed"]
        failures = workload.check(state)
    finally:
        if state is not None:
            workload.teardown(state)
        workload.close()
        calibrator.close()
        _join_children()

    spec = load_spec()
    plain = [r for r in records if r["step"] not in traced_steps]
    metrics = _end_to_end(spec, plain, setups, attempted, failed)
    counters, stable = _exact_counters(records)
    misses = sum(r["counts"]["plan_misses"] for r in records)
    if misses:
        failures.append(f"{misses} plan misses after warm-up (must be 0)")
    if not stable:
        failures.append("exact-repeat counters varied within the run")
    layered = None
    if tracer is not None:
        layered = _per_layer(
            spec, tracer, records, traced_steps,
            statistics.median(scale for _, scale in setups),
            metrics["step_ms_p50"]["value"],
        )

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    counter_note = _compare_counters(
        OUT_DIR / f"{name}-trace{int(trace)}-counters.json", counters
    )
    correct = not failures
    _print_report(workload, seed, seconds, trace, calibrator,
                  metrics, counters, stable, counter_note, failures,
                  layered)
    if tracer is not None:
        spans_path = OUT_DIR / f"{stem}-spans.jsonl"
        tracer.write_jsonl(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
    reported = layered["metrics"] if layered else {
        key: {"value": float(m["value"]), "unit": m["unit"]}
        for key, m in metrics.items()
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": environment(),
        "calibration_median_s": statistics.median(calibrator.samples),
        "end_to_end": metrics, "per_layer": layered,
        "counters": counters, "counters_stable": stable,
        "failures": failures,
        "series": {
            "step": [r["step"] for r in records],
            "step_s": [r["step_s"] for r in records],
            "calibration_s": calibrator.samples[SETUP_REPEATS:],
            "setup_s": [elapsed for elapsed, _ in setups],
            "setup_scale": [scale for _, scale in setups],
        },
    }, indent=1, default=float))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": reported,
    }))
    return 0 if correct else 1


def _print_report(workload, seed, seconds, trace, calibrator,
                  metrics, counters, stable, counter_note, failures,
                  layered) -> None:
    env = environment()
    print(f"perfbench {workload.name}  seed={seed}  seconds={seconds}  "
          f"trace={int(trace)}")
    print(f"why: {workload.why}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    calibration = statistics.median(calibrator.samples)
    print(f"calibration: median {calibration * 1e3:.3f} ms over "
          f"{len(calibrator.samples)} runs; reference "
          f"{REFERENCE_S * 1e3:.3f} ms; each timing is scaled by "
          f"reference / the calibration run after it")
    print(f"{'metric':<16}{'value':>14}  {'unit':<6}{'n':>6}"
          f"{'raw (this host)':>18}")
    for name, m in metrics.items():
        unit = m["unit"]
        raw = "" if m["raw"] is None else f"{m['raw']:.4f}"
        note = ""
        if m.get("reportable") is False:
            note = "  (fewer than 10 samples beyond p90)"
        print(f"{name:<16}{m['value']:>14.4f}  {unit:<6}{m['n']:>6}"
              f"{raw:>18}{note}")
    state = "constant within the run" if stable else "VARIED within the run"
    print(f"exact-repeat counters per phase ({state}; {counter_note}):")
    for phase, values in counters.items():
        body = "  ".join(f"{k}={v}" for k, v in values.items())
        print(f"  {phase}: {body}")
    if failures:
        print("checks FAILED:")
        for failure in failures:
            print(f"  {failure}")
    else:
        print(f"checks: all {workload.name} output checks passed")
    if layered is None:
        return
    print(f"per-layer self time over {layered['traced_steps']} traced "
          f"steps ({layered['traced_step_ms']:.2f} ms per traced step):")
    print(f"  {'layer':<11}{'ms/step':>10}{'share':>8}{'spans':>9}")
    for layer, (ms, n) in sorted(
        layered["layers"].items(), key=lambda item: -item[1][0]
    ):
        if not n:
            continue
        share = 100.0 * ms / layered["traced_step_ms"] if (
            layered["traced_step_ms"]) else 0.0
        label = "unattributed" if layer == "bench" else layer
        print(f"  {label:<11}{ms:>10.3f}{share:>7.1f}%{n:>9}")
    if workload.name == "serve_sharded":
        print("  note: sim kernels run inside the worker processes, out of "
              "reach of the wrappers; they show only as parallel.shard_ms."
              "  Shares add past 100%: the scheduler and dispatch threads "
              "run beside the driver thread")
    print(f"{'per-layer metric':<26}{'value':>14}  {'unit':<6}should move")
    for name, m in layered["metrics"].items():
        print(f"{name:<26}{m['value']:>14.4f}  {m['unit']:<6}"
              f"{MOVES.get(name, '')}")
