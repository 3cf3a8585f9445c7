"""The four benchmark workloads.

Each workload is one closed loop driven by a single client in this
process: the next request starts when the previous one returned.  All
randomness comes from the benchmark seed, which serves as the data,
frozen-model and train seed alike.  oodseg is always called through
module attributes (``trainer.train``, ``cli.main``) so that an installed
``Tracer`` sees every call.

A workload returns an ``Outcome``: raw timings for the end-to-end
metrics, the checks it made, and the deterministic quality numbers.

Times are CPU time of this process (``time.process_time``), not wall
time.  On a host of few shared cores the hypervisor takes the CPU away
for a varying share of a run; that share is not the program's cost, and
CPU time leaves it out.  BLAS runs one thread (``run.py`` sets it), so
CPU time is the work done, with no spinning pool threads in it.  The
trainer's own per-iteration clock is pointed at the same CPU clock while
it trains (``cpu_clock_in_trainer``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oodseg import cli, synthworld, tensorio, trainer

SETUP_REPS = 3   # set-ups per run; setup_s reports their median
N_TRAIN, N_EVAL = 48, 16

# Training lengths scale with --seconds at these rates, which match the
# reference machine, so a run measures for about --seconds there while the
# work (and with it every count and quality number) stays fixed for a seed.
DESK_ITERS_PER_S = 5.5
PASTE_ITERS_PER_S = 6.0
ABLATE_ARM_ITERS_PER_S = 1.5   # per arm; ablate trains four arms in a row
MIN_ITERS = 10
SETUP_HEAD_ITERS = 10          # the short head infer-cli scores with


cpu = time.process_time


@contextlib.contextmanager
def cpu_clock_in_trainer():
    """Make ``TrainLog.records[].ms`` CPU milliseconds: the trainer times
    each iteration with ``time.perf_counter``, looked up on its ``time``."""
    saved = trainer.time
    trainer.time = types.SimpleNamespace(perf_counter=cpu)
    try:
        yield
    finally:
        trainer.time = saved


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)    # CPU s per set-up
    op_ms: list[float] = field(default_factory=list)      # CPU ms per op
    session_s: list[float] = field(default_factory=list)  # CPU s per session
    timed_s: float = 0.0         # wall time of the timed phase
    timed_cpu_s: float = 0.0     # CPU time of the timed phase
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=lambda: _quality(0.0, 0.0, 0.0))  # zeros if never evaluated

    @property
    def ops(self) -> int:
        return len(self.op_ms)

    def check(self, name: str, ok: bool) -> None:
        """Record a correctness check; a failure counts as a failed operation."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        self.attempted += 1
        self.failed += 0 if ok else 1


@dataclass
class World:
    images: list
    eval_set: list
    frozen: object
    digest: str


def build_world(seed: int) -> World:
    """The in-memory world ``gen-data`` and ``fit-frozen`` would write for
    this seed (same scene streams, same default config)."""
    spec = synthworld.SceneSpec()
    images = [synthworld.generate_scene(spec, np.random.default_rng([seed, 2, i]))[0] for i in range(N_TRAIN)]
    eval_set = []
    for i in range(N_EVAL):
        image, _, anomaly = synthworld.generate_scene(spec, np.random.default_rng([seed, 3, i]), anomalies=True)
        eval_set.append((image, anomaly.astype(np.uint8)))
    frozen = synthworld.fit_frozen_decoder(spec, feature_dim=16, n_scenes=100, seed=seed)
    return World(images, eval_set, frozen, synthworld.frozen_digest(frozen))


def _setup_in_memory(seed: int, tracer, out: Outcome) -> World:
    world = None
    for rep in range(SETUP_REPS):
        tracer.run_id = f"setup-{rep}"
        tic = cpu()
        world = build_world(seed)
        out.setup_s.append(cpu() - tic)
    return world


def _iterations(rate: float, seconds: float) -> int:
    return max(MIN_ITERS, round(rate * seconds))


def _finite_results(results) -> bool:
    return all(math.isfinite(v) for r in results.values() for v in (r.ap, r.auroc, r.fpr95))


def _quality(combined_auroc: float, combined_ap: float, jem_auroc: float) -> dict[str, float]:
    return {
        "quality.combined_auroc": combined_auroc,
        "quality.combined_ap": combined_ap,
        "quality.jem_auroc": jem_auroc,
    }


def _training(seed: int, seconds: float, tracer, rate: float, **overrides) -> Outcome:
    out = Outcome()
    world = _setup_in_memory(seed, tracer, out)
    iterations = _iterations(rate, seconds)
    cfg = trainer.TrainConfig(iterations=iterations, warmup_iters=iterations // 10, seed=seed, **overrides)

    tracer.run_id = "timed"
    tic, tic_cpu = time.perf_counter(), cpu()
    with cpu_clock_in_trainer():
        head, log = trainer.train(world.images, world.frozen, cfg)
    out.op_ms = [r.ms for r in log.records]
    out.attempted += iterations
    out.failed += log.aborted
    results = trainer.evaluate(head, world.frozen, world.eval_set, lam=cfg.lam)
    out.timed_s, out.timed_cpu_s = time.perf_counter() - tic, cpu() - tic_cpu
    out.session_s.append(out.timed_cpu_s)
    out.attempted += 1

    tracer.run_id = "check"
    out.check("every score finite", _finite_results(results))
    out.check("evaluation repeats exactly", trainer.evaluate(head, world.frozen, world.eval_set, cfg.lam) == results)
    # eta is nan by design under per-region refinement, so only losses are checked
    out.check("every loss finite", all(math.isfinite(r.l_a) and math.isfinite(r.l_o) for r in log.records))
    out.check("train log complete", len(log.records) + log.aborted == iterations)
    out.check("frozen digest unchanged", synthworld.frozen_digest(world.frozen) == world.digest)
    out.quality = _quality(results["combined"].auroc, results["combined"].ap, results["jem"].auroc)
    return out


def desk_train(seed: int, seconds: float, workdir: Path, tracer) -> Outcome:
    return _training(seed, seconds, tracer, DESK_ITERS_PER_S)


def paste_heavy(seed: int, seconds: float, workdir: Path, tracer) -> Outcome:
    return _training(seed, seconds, tracer, PASTE_ITERS_PER_S, n_patches=40, per_region=True, batch_size=4)


def _cli(argv: list[str]) -> int:
    # commands print progress; keep stdout for the benchmark's own report
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _seed_sets(seed: int) -> list[str]:
    return ["--set", f"data.seed={seed}", "--set", f"frozen.seed={seed}", "--set", f"train.seed={seed}"]


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite_rows(rows, columns=("ap", "auroc", "fpr95")) -> bool:
    try:
        return all(math.isfinite(float(row[c])) for row in rows for c in columns)
    except (KeyError, ValueError):
        return False


def infer_cli(seed: int, seconds: float, workdir: Path, tracer) -> Outcome:
    """Setup: a CLI-built world and a short head.  Timed: score every eval
    image in turn, then evaluate the split, until ``seconds`` have passed."""
    out = Outcome()
    root = None
    for rep in range(SETUP_REPS):
        tracer.run_id = f"setup-{rep}"
        root = workdir / f"setup-{rep}"
        data, frozen, head = root / "data", root / "frozen", root / "head"
        tic = cpu()
        codes = [
            _cli(["gen-data", "--out", str(data)] + _seed_sets(seed)),
            _cli(["fit-frozen", "--out", str(frozen)] + _seed_sets(seed)),
            _cli(
                ["train", "--data", str(data), "--frozen", str(frozen), "--out", str(head)]
                + _seed_sets(seed)
                + ["--set", f"train.iterations={SETUP_HEAD_ITERS}", "--set", "train.warmup_iters=1"]
            ),
        ]
        out.setup_s.append(cpu() - tic)
        out.attempted += len(codes)
        out.check("every CLI exit code is 0", codes == [0, 0, 0])
    digest = (frozen / "digest.txt").read_text().strip()
    images = sorted((data / "eval").glob("scene_*.ppm"))
    score_map_path, heatmap = root / "score" / "map.tnsr", root / "score" / "map.pgm"
    eval_out = root / "eval"
    base = ["--head", str(head / "head"), "--frozen", str(frozen)]

    tracer.run_id = "timed"
    start, start_cpu = time.perf_counter(), cpu()
    deadline = start + seconds
    first_eval = None
    while True:
        for image in images:
            argv = ["score"] + base + ["--image", str(image), "--out", str(score_map_path), "--heatmap", str(heatmap)]
            tic = cpu()
            code = _cli(argv)
            out.op_ms.append(1000.0 * (cpu() - tic))
            out.attempted += 1
            out.check("every CLI exit code is 0", code == 0)
            values = tensorio.read_tensor(score_map_path) if code == 0 else np.empty(0)
            out.check("every score finite", values.shape == (64, 64) and bool(np.isfinite(values).all()))
        tic = cpu()
        code = _cli(["eval"] + base + ["--data", str(data), "--out", str(eval_out)])
        out.session_s.append(cpu() - tic)
        out.attempted += 1
        out.check("every CLI exit code is 0", code == 0)
        rows = _read_csv(eval_out / "eval.csv") if code == 0 else []
        out.check("eval.csv has all 7 scorers", [r.get("scorer") for r in rows] == list(trainer.SCORERS))
        out.check("every score finite", _finite_rows(rows))
        recorded = (eval_out / "frozen_digest.txt").read_text().strip() if code == 0 else ""
        out.check("frozen digest unchanged", recorded == digest)
        first_eval = first_eval or rows
        if time.perf_counter() >= deadline:
            break
    out.timed_s, out.timed_cpu_s = time.perf_counter() - start, cpu() - start_cpu

    tracer.run_id = "check"
    out.check("frozen digest unchanged", synthworld.frozen_digest(synthworld.load_frozen(frozen)) == digest)
    by_scorer = {r["scorer"]: r for r in first_eval}
    if "combined" in by_scorer and "jem" in by_scorer:
        combined, jem = by_scorer["combined"], by_scorer["jem"]
        out.quality = _quality(float(combined["auroc"]), float(combined["ap"]), float(jem["auroc"]))
    return out


def ablate_grid(seed: int, seconds: float, workdir: Path, tracer) -> Outcome:
    """One ``ablate`` command into a fresh directory: world preparation on
    disk, four training arms and five evaluations, all in series."""
    out = Outcome()
    world = _setup_in_memory(seed, tracer, out)
    arm_iters = _iterations(ABLATE_ARM_ITERS_PER_S, seconds)
    argv = ["ablate", "--out", str(workdir / "ablate")] + _seed_sets(seed)
    argv += ["--set", f"train.iterations={arm_iters}", "--set", f"train.warmup_iters={arm_iters // 10}"]

    tracer.run_id = "timed"
    first_span = len(tracer.spans)
    tic, tic_cpu = time.perf_counter(), cpu()
    with cpu_clock_in_trainer():
        code = _cli(argv)
    out.timed_s, out.timed_cpu_s = time.perf_counter() - tic, cpu() - tic_cpu
    out.session_s.append(out.timed_cpu_s)
    out.attempted += 1
    out.check("every CLI exit code is 0", code == 0)

    # per-arm training logs come from the cli.train trace point, which
    # stays installed in untraced runs
    spans = tracer.spans[first_span:]
    arms = [s for s in spans if s.source == "oodseg.cli:train" and "log" in s.attrs]
    for span in arms:
        log = span.attrs["log"]
        out.op_ms += [r.ms for r in log.records]
        out.attempted += span.attrs["iterations"]
        out.failed += log.aborted

    tracer.run_id = "check"
    out.check("four training arms ran", len(arms) == 4)
    rows = _read_csv(workdir / "ablate" / "ablate.csv") if code == 0 else []
    out.check("ablate.csv has all 6 rows", len(rows) == 6)
    out.check("every score finite", bool(rows) and _finite_rows(rows))
    recorded = (workdir / "ablate" / "frozen_digest.txt").read_text().strip() if code == 0 else ""
    out.check("frozen digest unchanged", recorded == world.digest)
    by_arm = {r["arm"]: r for r in rows}
    if "both" in by_arm and "jem" in by_arm:
        both, jem = by_arm["both"], by_arm["jem"]
        out.quality = _quality(float(both["auroc"]), float(both["ap"]), float(jem["auroc"]))
    return out


WORKLOADS = {
    "desk-train": desk_train,
    "paste-heavy": paste_heavy,
    "infer-cli": infer_cli,
    "ablate-grid": ablate_grid,
}


def end_to_end_metrics(out: Outcome, import_s: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced run (peak RSS is added by the
    caller); ``import_s`` is the CPU time of importing oodseg."""
    p50, p75 = np.percentile(out.op_ms, [50, 75])
    return {
        "setup_s": import_s + statistics.median(out.setup_s),
        "ops_per_cpu_s": 1000.0 * out.ops / sum(out.op_ms),
        "op_cpu_ms_p50": float(p50),
        "op_cpu_ms_p75": float(p75),
        "session_cpu_s": statistics.median(out.session_s),
    }
