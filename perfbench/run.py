"""Campaign benchmark for the STL-compaction flow at DEFAULT scale.

Usage (from the repository root)::

    python3 perfbench/run.py --workload du_edit --seed 2022 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 2022

Workloads are ``du_edit``, ``sp_signature`` and ``sfu_pool`` (see
``workloads.py`` and ``BENCHMARK.json``); ``all`` runs each in its own
Python process and prints one table.  With ``--trace 0`` the run repeats
the workload's cold and warm passes until ``--seconds`` of them have been
measured (at least once) and reports the end-to-end metrics: medians of
the pass times, the peak resident set, the quality numbers, and the median
set-up time of several fresh processes.  With ``--trace 1`` it runs one
rep with every layer's public call wrapped (``layers.py``, ``spans.py``)
and reports the per-layer metrics; the spans and the quality numbers go to
``.bench_trace/`` at the repository root.

Every line but the last is for people; the last is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch caches
live under ``.bench_tmp/`` at the repository root and are removed on exit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

#: Environment variables that would otherwise change a run.
ISOLATED_ENV = ("REPRO_JOBS", "REPRO_CACHE_DIR")
for _name in ISOLATED_ENV:
    os.environ.pop(_name, None)

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

#: Fresh processes timed for ``setup_s`` before the timed reps and again
#: after them (the median of all is reported, so that a slow spell of the
#: machine during either half moves it little).
SETUP_SAMPLES = 6


def metric_units(kind):
    """{metric name: unit} of ``end_to_end`` or ``per_layer``, in
    BENCHMARK.json order."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def measure_setup(name, seed, work_dir):
    """Seconds from starting each of :data:`SETUP_SAMPLES` fresh processes
    to built modules and a ready cache directory."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for __ in range(SETUP_SAMPLES):
        started = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name,
             str(seed), work_dir],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(probe.stdout.split()[-1]) - started)
    return samples


def timed_run(workload, seconds):
    """Reps until *seconds* of pass time are measured; the first rep is
    checked in full, later ones must reproduce its numbers."""
    reps, measured = [], 0.0
    while not reps or measured < seconds:
        rep = workload.run_rep()
        workload.check(rep, first=reps[0] if reps else None)
        reps.append(rep)
        measured += rep.cold_s + rep.warm_s
    metrics = {
        "cold_s": statistics.median(rep.cold_s for rep in reps),
        "warm_s": statistics.median(rep.warm_s for rep in reps),
        # Later reps start from the first rep's heap; its peak is the one
        # every run measures alike.
        "peak_rss_mb": reps[0].peak_rss_mb,
    }
    metrics.update(workloads.quality_metrics(reps[0].cold))
    return reps, metrics


def traced_run(workload, trace_dir, seed):
    tracer = Tracer()
    layers.install(tracer)
    try:
        rep = workload.run_rep(span=tracer.span)
    finally:
        tracer.unwrap()
    workload.check(rep)
    os.makedirs(trace_dir, exist_ok=True)
    tracer.dump(os.path.join(trace_dir, "{}-seed{}.json".format(
        workload.name, seed)),
        quality=workloads.quality_metrics(rep.cold))
    return [rep], layers.per_layer_metrics(tracer, rep.metrics)


def run_workload(name, seed, seconds, trace):
    units = metric_units("per_layer" if trace else "end_to_end")
    os.makedirs(ROOT / ".bench_tmp", exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=name + "-", dir=ROOT / ".bench_tmp")
    try:
        workload = workloads.WORKLOADS[name](seed, work_dir)
        if trace:
            reps, values = traced_run(workload, ROOT / ".bench_trace", seed)
        else:
            setup = measure_setup(name, seed, work_dir)
            reps, values = timed_run(workload, seconds)
            setup += measure_setup(name, seed, work_dir)
            values["setup_s"] = statistics.median(setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failures = [(index, op, reason) for index, rep in enumerate(reps, 1)
                for op, reason in rep.failures.items()]
    for index, op, reason in failures:
        print("FAILED: rep {} {}: {}".format(index, op, reason))
    for metric, unit in units.items():
        print("{:<16} {:<28} {:>16.6g} {}".format(name, metric,
                                                  values[metric], unit))
    return {
        "correct": not failures,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": len(failures),
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
    }


def run_all(args):
    """Every workload in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, check=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "/" + metric] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
