#!/usr/bin/env python3
"""Benchmark of diffsys: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py                      # every workload, end-to-end metrics
    python3 bench/run.py --workload exact_scan --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload monodromy_cli --trace 1   # per-layer metrics
    python3 bench/run.py --quick              # self-check: one passed op per workload

Each workload run is one process (``bench/worker.py``) with one BLAS and
OpenMP thread, importing diffsys from ``src``; workloads run one after the
other, never more processes at once than CPUs.  Set-up time is the median
over the run's own process and SETUP_PROBES extra processes that only set up.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the machine and program versions
go to ``bench/out/`` next to each result.  Exits non-zero without a result
when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import checks  # bench/ is on sys.path as the script's directory

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("exact_scan", "immersion_ladder", "monodromy_cli")
SETUP_PROBES = 8
RUN_TIMEOUT_S = 170  # per worker; with the set-up probes (about 3 s) a run ends within 180 s


class BenchError(RuntimeError):
    pass


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child_env():
    env = dict(os.environ)
    env.update(
        PYTHONPATH=SRC,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def _git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git repository
    (git is kept from searching the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "threads": {"OPENBLAS_NUM_THREADS": 1, "OMP_NUM_THREADS": 1, "diffsys --threads": 1},
    }


def _launch(argv):
    """Run one worker; returns (seconds from launch to READY, the worker's
    later stdout lines parsed)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + argv
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        lines = [json.loads(line) for line in proc.stdout]
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != '"READY"' or code != 0:
        raise BenchError(f"worker {' '.join(argv)} exited {code} before finishing")
    return ready, lines


def run_workload(name, seed, seconds, trace, quick=False):
    """One measured run of one workload; returns the result object printed last
    and a record of the run."""
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        argv.append("--quick")
    setups = []
    if not trace and not quick:
        setups = [_launch(argv + ["--setup-only"])[0] for _ in range(SETUP_PROBES)]
    setup, lines = _launch(argv)
    setups.append(setup)
    if not lines:
        raise BenchError(f"worker {' '.join(argv)} printed no summary")
    ops, summary = lines[:-1], lines[-1]

    checker = checks.OutputChecker(name)
    errors, passed_times = [], []
    for op in ops:
        if op["failed"]:
            continue
        op_errors = checker.op(op["op"], op["output"])
        errors += [f"op {op['op']}: {e}" for e in op_errors]
        if not op_errors:
            passed_times.append(op["seconds"])
    errors += checker.finish(summary.get("finish"))

    spec = _spec()
    if trace:
        values = summary["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(passed_times) / summary["timed_s"],
            "op_p50_s": statistics.median(passed_times) if passed_times else None,
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {
        "correct": not errors and bool(passed_times),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["failed"]),
        "metrics": metrics,
    }
    record = {
        "errors": errors[:50],
        "setup_samples_s": setups,
        "timed_s": summary["timed_s"],
        "numpy": summary["numpy"],
        "ops": [{"op": op["op"], "seconds": op["seconds"], "failed": op["failed"]} for op in ops],
    }
    return result, record


def _save(name, seed, trace, result, record, env):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "trace": trace, "environment": env,
                   "result": result, "run": record}, fh, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description="diffsys benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="run length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one passed op per workload, all checks on")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "diffsys", "__init__.py")):
        print(f"bench: no diffsys package under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            result, record = run_workload(name, args.seed, seconds, args.trace, args.quick)
            _save(name, args.seed, args.trace, result, record, env)
            results[name] = result
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric} = {v['value']} {v['unit']}")
            for error in record["errors"]:
                print(f"  error: {error}")
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 1 if args.quick and not final["correct"] else 0


if __name__ == "__main__":
    sys.exit(main())
