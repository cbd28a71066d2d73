"""One benchmark run: set-up, measured rounds, checks, metrics, result file."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import bootstrap
import gauge
import tracing
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORK = HERE / "_work"
SETUP_REPEATS = 9


def load_spec() -> dict:
    return json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def machine() -> dict:
    """The facts of the machine that a run's figures depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {name: os.environ.get(name) for name in bootstrap.THREAD_VARS},
        "platform": platform.platform(),
    }


def op_figures(op_seconds: np.ndarray, work: np.ndarray) -> dict:
    return {
        "work_per_s": float(np.median(work / op_seconds)),
        "op_ms_p50": 1e3 * float(np.percentile(op_seconds, 50)),
        "op_ms_p90": 1e3 * float(np.percentile(op_seconds, 90)),
    }


def end_to_end(setups: list[float], setup_gauge: gauge.Gauge, rounds: list[workloads.Round],
               rss_mib: float) -> tuple[dict, dict]:
    """The end-to-end metrics at quiet-machine speed (see ``gauge``), and the
    same figures as the wall clock read them."""
    work = np.concatenate([r.op_work for r in rounds]).astype(float)
    wall = np.concatenate([r.op_seconds for r in rounds])
    scaled = np.concatenate([r.gauge.scaled(r.op_seconds) for r in rounds])
    metrics = {
        "setup_s": float(np.median(setup_gauge.scaled(setups))),
        "peak_rss_mib": rss_mib,
        **op_figures(scaled, work),
    }
    raw = {"setup_s": float(np.median(setups)), **op_figures(wall, work),
           "ref_us_median": 1e6 * float(np.median([s for r in rounds for s in r.gauge.samples]))}
    return metrics, raw


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    work_dir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](seed, work_dir)
        tracer = tracing.Tracer() if trace else None
        with tracer or nullcontext():
            setups = []
            setup_gauge = gauge.Gauge("dispatch")
            for _ in range(SETUP_REPEATS):
                gc.collect()  # no set-up pays for the garbage of the one before
                setup_gauge.sample()
                start = time.perf_counter()
                state = workload.setup()
                setups.append(time.perf_counter() - start)
            tensors_before = tracer.tensors if tracer else 0
            window_start = time.perf_counter_ns()
            start = time.perf_counter()
            rounds = []
            while len(rounds) < workload.min_rounds or time.perf_counter() - start < seconds:
                rounds.append(workload.round(state, len(rounds)))
            window = (window_start, time.perf_counter_ns())
            tensors = tracer.tensors - tensors_before if tracer else 0
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = workload.check(state, rounds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e, wall_clock = end_to_end(setups, setup_gauge, rounds, rss_mib)
    layer = None
    if tracer:
        layer = tracing.layer_metrics(tracer, name, window, tensors,
                                      [m["name"] for m in spec["per_layer"]])
    listed, values = (spec["per_layer"], layer) if trace else (spec["end_to_end"], e2e)
    result = {
        "correct": not problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": 0,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
        "problems": problems,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(),
        "setup_s": setups,
        "rounds": [{"seconds": r.seconds, "ops": r.ops, "work": sum(r.op_work),
                    "op_seconds_sum": sum(r.op_seconds)} for r in rounds],
        "end_to_end": e2e, "wall_clock": wall_clock, "per_layer": layer,
        **result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(RESULTS / f"{stem}-spans.jsonl")
    return result
