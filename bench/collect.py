"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/collect.py --seeds 0 1 2 3 4 5 6 7 8 9 --out bench/out/runs.jsonl
    python3 bench/collect.py --summary bench/baseline/trace0.jsonl

Each run is ``bench/run.py`` in a child process; one JSON line per run
(the run's own record: workload, seed, environment, checks and result,
plus wall seconds and exit code) is appended to ``--out``.  The summary
gives, per workload and metric, the median, the quartiles
(``statistics.quantiles(n=4)``) and their distance as a share of the
median, which is the spread BENCHMARK.json's bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import WORKLOAD_NAMES  # noqa: E402


def collect(out: Path, workloads, seeds, seconds: float, trace: int) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    for name in workloads:
        for seed in seeds:
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            tic = time.perf_counter()
            proc = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True, check=False)
            wall = time.perf_counter() - tic
            # run.py's own record adds the environment and the checks to the result
            saved = BENCH / "out" / f"{name}-seed{seed}-trace{trace}.json"
            if proc.returncode == 0 and saved.exists():
                record = json.loads(saved.read_text())
            else:
                record = {"workload": name, "seed": seed, "trace": trace, "result": None}
                sys.stderr.write(proc.stderr[-4000:])
            record.update(wall=wall, rc=proc.returncode)
            with open(out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{name} seed {seed}: rc {proc.returncode}, {wall:.1f} s", flush=True)


def summary(paths) -> None:
    runs = defaultdict(list)
    for path in paths:
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            runs[(record["workload"], record["trace"])].append(record)
    for (name, trace), records in sorted(runs.items()):
        ok = [r for r in records if r["result"] is not None]
        correct = sum(1 for r in ok if r["result"]["correct"])
        walls = [r["wall"] for r in records]
        print(f"== {name} trace {trace}: {len(records)} runs, {correct} correct, "
              f"wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        if not ok:
            continue
        print(f"   {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>11} unit")
        for metric, first in ok[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][metric]["value"] for r in ok]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"   {metric:<26} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>11.4f} {first['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=BENCH / "out" / "runs.jsonl")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOAD_NAMES), choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--seconds", type=float,
                        default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", nargs="+", metavar="JSONL", help="only summarize these files")
    args = parser.parse_args(argv)
    if args.summary:
        summary(args.summary)
        return 0
    collect(args.out, args.workloads, args.seeds, args.seconds, args.trace)
    summary([args.out])
    return 0


if __name__ == "__main__":
    sys.exit(main())
