"""oodseg benchmark: one workload per process, metrics as JSON on the last line.

    python3 bench/run.py --workload desk-train --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics of an untraced run.  They are
CPU times of the benchmark process, which runs BLAS on one thread (see
``workloads.py`` for why).
``--trace 1`` runs the workload twice in the same process, untraced and
then traced, and prints the per-layer metrics of the traced pass with the
tracing overhead between the two and the wrappers' calibrated cost.  ``--workload all`` runs each workload
in a child process of its own, one after the other.  Every run also
prints its environment and checks and writes them, with the spans of a
traced run, under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("desk-train", "paste-heavy", "infer-cli", "ablate-grid")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_cpu_s": "1/s",
    "op_cpu_ms_p50": "ms",
    "op_cpu_ms_p75": "ms",
    "session_cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Set before numpy loads.  One BLAS thread keeps the process's CPU time
# equal to its work: a second pool thread on a two-core shared host spins,
# waits for the hypervisor, and measures the scheduler.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """What a number depends on; figures compare only within one environment."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')} ({deps.get('openblas configuration', '').strip()})"
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(blas.split()),
        "blas_threads": _blas_threads(),
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE", ""),
        **{var: os.environ.get(var, "") for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _run_pass(workload, seed, seconds, workdir, points):
    from tracer import Tracer

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    with Tracer(points) as tracer:
        outcome = workload(seed, seconds, workdir, tracer)
    return outcome, tracer


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    source = ROOT / "src" / "oodseg"
    if not source.is_dir():
        print(f"no oodseg sources at {source}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    tic = time.process_time()
    sys.path.insert(0, str(source.parent))
    import oodseg.cli  # noqa: F401  (import time is part of set-up)

    import_s = time.process_time() - tic
    if Path(oodseg.__file__).resolve().parent != source:
        print(f"imported oodseg from {oodseg.__file__}, not {source}", file=sys.stderr)
        return 2

    from tracer import PER_LAYER_UNITS, PROBE_TARGETS, TRACE_POINTS, per_layer_metrics, wrapper_cost
    from workloads import WORKLOADS, end_to_end_metrics

    workload = WORKLOADS[name]
    probes = [p for p in TRACE_POINTS if p.target in PROBE_TARGETS.get(name, ())]
    out_dir = BENCH / "out"
    workdir = out_dir / f"work-{name}-{seed}-{os.getpid()}"
    try:
        plain, _ = _run_pass(workload, seed, seconds, workdir, probes)
        outcomes = [plain]
        if trace:
            traced, tracer = _run_pass(workload, seed, seconds, workdir, TRACE_POINTS)
            outcomes.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = per_layer_metrics(tracer.spans, traced.ops)
        metrics.update(traced.quality)
        per_op_plain = plain.timed_cpu_s / plain.ops
        metrics["trace.overhead_frac"] = (traced.timed_cpu_s / traced.ops) / per_op_plain - 1.0
        metrics["timing.cpu_share"] = plain.timed_cpu_s / plain.timed_s
        # the wrappers' direct cost: calibrated per span, plus the hooks' measured time
        timed = [s for s in tracer.spans if s.run_id == "timed"]
        cost = len(timed) * wrapper_cost() + sum(s.hook_s for s in timed)
        metrics["trace.cost_frac"] = cost / (traced.timed_s - cost)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(plain, import_s)
        metrics["peak_rss_mb"] = _peak_rss_mb()
        units = E2E_UNITS
    metrics = {key: metrics[key] for key in units}
    checks: dict[str, bool] = {}
    for outcome in outcomes:
        for key, ok in outcome.checks.items():
            checks[key] = checks.get(key, True) and ok
    result = {
        "correct": all(checks.values()),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }

    env = environment()
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  ops {plain.ops}")
    for key, value in env.items():
        print(f"env   {key:<22} {value}")
    for key, ok in checks.items():
        print(f"check {key:<40} {'ok' if ok else 'FAILED'}")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    for key, value in metrics.items():
        print(f"metric {key:<26} {value:>14.6g} {units[key]}")

    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}-trace{int(trace)}"
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "env": env,
              "checks": checks, "result": result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        with open(stem.with_suffix(".spans.csv"), "w") as fh:
            fh.write("id,name,start,end,parent,run_id,error\n")
            for i, s in enumerate(tracer.spans):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{parent},{s.run_id},{s.error or ''}\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a child process of its own, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
