#!/usr/bin/env python3
"""divseed benchmark.

    python3 perfbench/run.py --workload run-default --seed 1 --seconds 40 --trace 0

Run from the root of a divseed checkout; the program is imported from its
src/ directory. One process runs one workload as a closed loop: an untimed
warm-up, then iterations back to back: two, then more while the fastest so
far still fits in --seconds. Every iteration's outputs are checked against
the first one's. With --trace 0 the end-to-end metrics are reported (wall_s
and cpu_s of the fastest iteration, see perfbench/README.md); with --trace 1
untraced and traced iterations alternate and the per-layer metrics are
reported.
Human-readable lines come first, the result file (with an environment
fingerprint) goes to perfbench/results/, and the last line of standard
output is one JSON object. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# divseed and numpy (and the benchmark modules that import them) are imported
# inside functions: main() must first pin BLAS threads and put src/ on the path.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(BENCH_DIR, "work")

# One BLAS thread per process, in the benchmark and every process it starts:
# with the default threading, identical --jobs 2 runs are not repeatable.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 9
# Iterations a run makes however short --seconds is: wall_s and cpu_s
# take the fastest of them, and a traced run needs an untraced and a traced one.
MIN_ITERATIONS = 2
SETUP_CODE = "import numpy, divseed.cli; numpy.ones((64, 64)) @ numpy.ones((64, 64))"
STAGES = ("gen-data", "train-loc", "sample", "train-seg", "eval")
STRATEGIES = ("diverse", "top_k", "spatial", "dense")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and written with the end-to-end metrics but not declared in
# BENCHMARK.json: failed_ratio is 0 on correct code, and the test mIoU
# spreads by 0.08-0.20 (quartile distance over median) across 10 seeds.
REPORTED = {"miou": "ratio", "failed_ratio": "ratio"}
COUNTERS = {
    "tensor.bytes_written": "bytes",
    "tensor.bytes_read": "bytes",
    "localization.steps": "count",
    "localization.restarts": "count",
    "localization.clamp_events": "count",
    "localization.useful_ratio": "ratio",
    "sampling.points": "count",
    "sampling.greedy_steps": "count",
    "sampling.random_bg_fallbacks": "count",
    "segmentation.train_points": "count",
    "pipeline.unstaged_s": "s",
    "pipeline.pool.task_bytes": "bytes",
    "pipeline.pool.child_cpu_s": "s",
    "pipeline.artifact_mismatch_vs_jobs1": "count",
    "trace.overhead_s": "s",
    "trace.uncovered_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from perftrace import FUNCTIONS, NN_OPS, STRATEGY_SPANS, span_name

    units = {}
    for qualified, attr, _, _ in FUNCTIONS:
        name = span_name(qualified, attr)
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.us_per_call": "us"})
    for name in STRATEGY_SPANS:
        units.update({f"{name}.{s}.s": "s" for s in STRATEGIES})
    for _, attr, suffix in NN_OPS:
        units.update({f"nn.{attr}.{suffix}.calls": "count",
                      f"nn.{attr}.{suffix}.us_per_call": "us"})
    units.update({f"pipeline.stage.{s}.s": "s" for s in STAGES})
    units.update(COUNTERS)
    return units


def summarize(values: list[float], fastest: bool = False) -> dict:
    """Median (or, with fastest, the minimum) with its sample count and
    spread."""
    if not values:
        return {"value": 0.0, "n": 0}
    q1, median, q3 = (statistics.quantiles(values, n=4)
                      if len(values) > 1 else (values[0],) * 3)
    return {"value": min(values) if fastest else median,
            "stat": "min" if fastest else "median", "n": len(values),
            "median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values)}


def setup_times(repeats: int) -> list[float]:
    """Wall time of fresh interpreters importing divseed and numpy and
    finishing one BLAS call, as every CLI invocation does."""
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def fingerprint(jobs: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        **{k: os.environ.get(k) for k in BLAS_ENV},
        "jobs": jobs,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def _cpu() -> float:
    """CPU seconds of this process and its reaped children."""
    return sum(
        u.ru_utime + u.ru_stime
        for u in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def measure(workload, seconds: float, tracer=None) -> list[dict]:
    """Warm-up, then the timed closed loop: at least MIN_ITERATIONS, then
    more while the fastest one so far still fits in the remaining seconds.
    With a tracer, even iterations run untraced and odd ones traced."""
    workload.warm_up()
    iterations = []
    started = time.perf_counter()
    while True:
        index = len(iterations)
        traced = tracer is not None and index % 2 == 1
        it = {"traced": traced, "errors": []}
        try:
            c0, t0 = _cpu(), time.perf_counter()
            if traced:
                with tracer.iteration_span(index):
                    raw = workload.run()
            else:
                raw = workload.run()
            it["wall"], it["cpu"] = time.perf_counter() - t0, _cpu() - c0
            outcome = workload.finish(raw)
            it["errors"] = workload.check(outcome)
            it["miou"] = outcome.miou
            it["stages"] = outcome.stages
            it["mismatch"] = workload.artifact_mismatch(outcome)
        except Exception:
            it["errors"] = [traceback.format_exc()]
        iterations.append(it)
        for error in it["errors"]:
            print(f"iteration {index} failed: {error}", file=sys.stderr)
        walls = [it["wall"] for it in iterations if "wall" in it]
        fastest = min(walls, default=0.0)
        if (len(iterations) >= MIN_ITERATIONS
                and time.perf_counter() - started + fastest > seconds):
            break
    return iterations


def end_to_end_metrics(iterations: list[dict], setup: list[float]) -> dict:
    done = [it for it in iterations if "wall" in it]
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": summarize([it["wall"] for it in done], fastest=True),
        "cpu_s": summarize([it["cpu"] for it in done], fastest=True),
        "setup_s": summarize(setup),
        "peak_rss_mb": {"value": (usage + child) / 1024.0, "n": 1},
    }


COUNTED = ("tensor.bytes_written", "tensor.bytes_read", "localization.restarts",
           "localization.clamp_events", "sampling.points", "sampling.greedy_steps",
           "sampling.random_bg_fallbacks", "segmentation.train_points",
           "pipeline.pool.task_bytes", "pipeline.pool.child_cpu_s")


def per_layer_metrics(iterations: list[dict], tracer) -> dict:
    """Per-layer values of every traced iteration (the stage timer, the
    artifact comparison and the tracing overhead also use untraced ones),
    summarized like the end-to-end metrics."""
    from perftrace import self_times

    units = per_layer_units()
    done = [it for it in iterations if "wall" in it]
    plain = [it for it in done if not it["traced"]]
    per_it = {i: dict.fromkeys(units, 0.0) for i in tracer.counters_by_iteration}
    own = self_times(tracer.spans)
    calls, inclusive = {}, {}
    for sid, _, name, tag, start, end, i in tracer.spans:
        key = (i, name)
        calls[key] = calls.get(key, 0) + 1
        inclusive[key] = inclusive.get(key, 0.0) + (end - start)
        values = per_it[i]
        if f"{name}.self_s" in units:
            values[f"{name}.self_s"] += own[sid]
        if f"{name}.{tag}.s" in units:
            values[f"{name}.{tag}.s"] += end - start
        if name == "iteration":
            values["trace.uncovered_ratio"] = own[sid] / (end - start)
    for (i, name), count in calls.items():
        if f"{name}.calls" in units:
            per_it[i][f"{name}.calls"] = count
            per_it[i][f"{name}.us_per_call"] = inclusive[i, name] / count * 1e6

    for i, values in per_it.items():
        counters = tracer.counters_by_iteration[i]
        for key in COUNTED:
            values[key] = counters.get(key, 0.0)
        values["localization.steps"] = values["nn.adam_step.loc.calls"]
        classes = counters.get("localization.classes", 0.0)
        attempts = classes + counters.get("localization.restarts", 0.0)
        values["localization.useful_ratio"] = classes / attempts if attempts else 0.0

    samples = {name: [values[name] for values in per_it.values()] for name in units}
    for stage in STAGES:
        samples[f"pipeline.stage.{stage}.s"] = [it["stages"].get(stage, 0.0) for it in plain]
    samples["pipeline.unstaged_s"] = [
        it["wall"] - sum(it["stages"].values()) if it["stages"] else 0.0 for it in plain
    ]
    samples["pipeline.artifact_mismatch_vs_jobs1"] = [it["mismatch"] for it in done]
    untraced_wall = statistics.median([it["wall"] for it in plain]) if plain else 0.0
    samples["trace.overhead_s"] = [
        it["wall"] - untraced_wall for it in done if it["traced"]
    ]
    return {name: summarize(samples[name]) for name in units}


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, setup_repeats: int = SETUP_REPEATS,
                  results_dir: str = RESULTS_DIR, work_dir: str = WORK_DIR) -> dict:
    """Measure one workload and write its result file; returns the result.
    tiny runs the warm-up's config instead (for the benchmark's tests)."""
    from perftrace import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[workload_name]
    scratch = os.path.join(work_dir, f"{workload_name}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        env = fingerprint(cls.jobs)
        setup = [] if trace else setup_times(setup_repeats)
        tracer = Tracer() if trace else None
        workload = cls.tiny(seed, scratch) if tiny else cls(seed, scratch)
        iterations = measure(workload, seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(iterations)
    failed = sum(bool(it["errors"]) for it in iterations)
    if trace:
        metrics = per_layer_metrics(iterations, tracer)
        units = per_layer_units()
    else:
        metrics = end_to_end_metrics(iterations, setup)
        units = END_TO_END
    for name, m in metrics.items():
        m["unit"] = units[name]
    reported = {
        "miou": summarize([it["miou"] for it in iterations if "miou" in it]),
        "failed_ratio": {"value": failed / attempted, "n": attempted},
    }
    for name, m in reported.items():
        m["unit"] = REPORTED[name]
    result = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": env,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "iterations": [
            {k: v for k, v in it.items() if k in ("traced", "wall", "cpu", "errors")}
            for it in iterations
        ],
        "metrics": metrics,
        "reported": reported,
    }
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{workload_name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if trace:
        tracer.write(stem + ".spans.jsonl")
    return result


def _fmt(name: str, m: dict) -> str:
    line = f"{name:48s} {m['value']:14.6g} {m['unit']}"
    if m["n"] > 1 and "q1" in m:
        median = f", median {m['median']:.6g}" if m["stat"] == "min" else ""
        line += f"  ({m['stat']} of {m['n']}{median}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g})"
    elif m["n"]:
        line += f"  (n={m['n']})"
    return line


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "divseed", "__init__.py")):
        print(f"error: no divseed sources under {SRC}; run from a divseed checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, want one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in result["fingerprint"].items():
        print(f"# {key}: {value}")
    for name, m in {**result["metrics"], **result["reported"]}.items():
        print(_fmt(name, m))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
