"""Paired in-process CPU timing of two source trees, for speed claims.

Loads the ``oodseg`` package of two ``src/`` trees side by side in one
process, as the packages ``side_a`` and ``side_b``, and alternates the same
op on the same inputs between them: A then B in even pairs, B then A in odd
ones, so that neither side always runs first.  The ops:

* ``desk-1x1``: a desk training (the default config: batch 8, 10 patches,
  a 3x32 1x1 head) of ``--iters`` iterations with a 10% warmup share;
* ``desk-3x3``: the same with ``head.kernel_size=3``;
* ``paste-heavy``: the same loop with 40 patches, per-region refinement
  and batch 4;
* ``score``: one ``score --heatmap`` request through the CLI per eval image;
* ``eval``: one ``eval`` request through the CLI over the whole eval split;
* ``eval-3x3``: the same with a 3x3 head, whose eval bands take their
  im2col buffers from the head's workspace across images.

Pair ``i`` trains with seed ``i``.  The inputs are one world built on disk
by side A's CLI (``gen-data`` and ``fit-frozen`` at their defaults, and
10-iteration 1x1 and 3x3 heads for ``score`` and the ``eval`` ops), which
each side reads with its own loaders.  Every pair checks that both sides
return equal bytes: the head's tensors and the log's fields but its
wall-time column, the score map and heatmap files, or ``eval.csv``.  A
difference stops the run.

Per op it prints each side's median CPU ms per iteration (per request for
``score`` and the ``eval`` ops), the median of the paired differences
B - A with a bootstrap 95% interval of that median (Kalibera & Jones, ISMM
2013), the pairs B won, and each side's ``tracemalloc`` peak over one more
untimed op.
Both sides share one allocator, so peak RSS stays a separate-process
metric.  An A/A run, the same tree on both sides, should give intervals
that hold zero, but one 16-pair interval can exclude zero for code that did
not change.  So a speed claim needs a second run with ``--a`` and ``--b``
exchanged, and reports both runs.

    python tests/ab_timing.py --a HEAD~1 --b HEAD              # two commits
    python tests/ab_timing.py --a /path/to/other/src --b src   # a directory
    python tests/ab_timing.py --a src --b src --ops desk-1x1   # A/A

A side that is not a directory is a git revision, whose ``src/`` is copied
with ``git archive`` into a temporary directory.  Compare a directory only
with a directory made the same way.  BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` is set.  The file name has no ``test_`` prefix, so
pytest does not collect it.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads BLAS

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
OPS = ("desk-1x1", "desk-3x3", "paste-heavy", "score", "eval", "eval-3x3")
REQUESTS = ("score", "eval", "eval-3x3")  # the ops that run CLI requests, not a training
SCORE_HEAD_ITERS = 10
BOOTSTRAP = 10_000


def load_tree(name: str, src: Path):
    """The ``oodseg`` package under ``src``, imported as package ``name``."""
    pkg = src / "oodseg"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("cli", "head", "synthworld", "trainer"):
        importlib.import_module(f"{name}.{sub}")  # and bound as an attribute of the package
    return module


def resolve_src(side: str, tmp: Path) -> Path:
    """``side`` as a directory (a tree or its ``src/``), else the ``src/`` of
    git revision ``side``, extracted with ``git archive``."""
    path = Path(side)
    if path.is_dir():
        return path.resolve() if (path / "oodseg").is_dir() else (path / "src").resolve()
    blob = subprocess.run(["git", "-C", str(REPO), "archive", side, "src"], check=True, capture_output=True).stdout
    dest = tmp / side.replace("/", "_")
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def cli(side, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = side.cli.main(argv)
    if code != 0:
        raise SystemExit(f"{side.__name__}: {argv[0]} exited {code}")


def build_world(side, root: Path) -> dict:
    """The on-disk world every op reads, written by ``side``'s CLI."""
    world = {"data": root / "data", "frozen": root / "frozen"}
    cli(side, ["gen-data", "--out", str(world["data"])])
    cli(side, ["fit-frozen", "--out", str(world["frozen"])])
    for k in (1, 3):
        cli(side, ["train", "--data", str(world["data"]), "--frozen", str(world["frozen"]),
                   "--out", str(root / f"train{k}"), "--set", f"train.iterations={SCORE_HEAD_ITERS}",
                   "--set", "train.warmup_iters=1", "--set", f"head.kernel_size={k}"])
        world[f"head{k}"] = root / f"train{k}" / "head"
    world["images"] = sorted((world["data"] / "eval").glob("scene_*.ppm"))
    return world


class Op:
    """One op for one side: ``run(pair)`` returns (CPU seconds per unit, bytes to compare)."""

    def __init__(self, op: str, side, world: dict, iters: int, out: Path):
        self.op, self.side, self.world, self.iters, self.out = op, side, world, iters, out
        self.units = {"score": len(world["images"]), "eval": 1, "eval-3x3": 1}.get(op, iters)
        if op not in REQUESTS:
            self.images = side.synthworld.load_train_images(world["data"])
            self.frozen = side.synthworld.load_frozen(world["frozen"])

    def run(self, pair: int) -> tuple[float, bytes]:
        tic = time.process_time()
        if self.op == "score":
            result = self._score()
        elif self.op in REQUESTS:
            result = self._eval()
        else:
            result = self._train(pair)
        return (time.process_time() - tic) / self.units, result

    def _train(self, pair: int) -> bytes:
        trainer, head = self.side.trainer, self.side.head
        extra = {"n_patches": 40, "per_region": True, "batch_size": 4} if self.op == "paste-heavy" else {}
        cfg = trainer.TrainConfig(iterations=self.iters, warmup_iters=self.iters // 10, seed=pair, **extra)
        head_cfg = head.HeadConfig(feature_dim=self.frozen.feature_dim, kernel_size=3 if self.op == "desk-3x3" else 1)
        params, log = trainer.train(self.images, self.frozen, cfg, head_cfg)
        records = [dataclasses.replace(r, ms=0.0) for r in log.records]
        return b"".join(arr.tobytes() for _, arr in params.arrays()) + repr((records, log.aborted)).encode()

    def _score(self) -> bytes:
        got = []
        for image in self.world["images"]:
            tnsr, pgm = self.out / "map.tnsr", self.out / "map.pgm"
            cli(self.side, ["score", "--head", str(self.world["head1"]), "--frozen", str(self.world["frozen"]),
                            "--image", str(image), "--out", str(tnsr), "--heatmap", str(pgm)])
            got.append(tnsr.read_bytes() + pgm.read_bytes())
        return b"".join(got)

    def _eval(self) -> bytes:
        out = self.out / "eval"
        head = self.world["head3" if self.op == "eval-3x3" else "head1"]
        cli(self.side, ["eval", "--head", str(head), "--frozen", str(self.world["frozen"]),
                        "--data", str(self.world["data"]), "--out", str(out)])
        return (out / "eval.csv").read_bytes()


def traced_peak_mb(op: Op) -> float:
    tracemalloc.start()
    try:
        op.run(0)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def bootstrap_median_ci(diffs: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    """95% percentile interval of the median of ``diffs``, resampled with replacement."""
    medians = np.median(rng.choice(diffs, size=(BOOTSTRAP, diffs.size)), axis=1)
    lo, hi = np.percentile(medians, [2.5, 97.5])
    return float(lo), float(hi)


def compare(name: str, a: Op, b: Op, pairs: int) -> str:
    a.run(0), b.run(0)  # warm-up, untimed
    times = np.empty((pairs, 2))
    for pair in range(pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        results = {}
        for i in order:
            times[pair, i], results[i] = (a, b)[i].run(pair)
        if results[0] != results[1]:
            raise SystemExit(f"{name}: the sides returned different bytes in pair {pair}")
    ms = times * 1000.0
    diffs = ms[:, 1] - ms[:, 0]
    lo, hi = bootstrap_median_ci(diffs, np.random.default_rng(0))
    base = float(np.median(ms[:, 0]))
    med = float(np.median(diffs))
    peaks = traced_peak_mb(a), traced_peak_mb(b)
    return (f"{name:<12} A {base:8.2f} ms  B {np.median(ms[:, 1]):8.2f} ms  "
            f"B-A {med:+7.2f} ms ({100 * med / base:+5.1f}%)  95% [{lo:+7.2f}, {hi:+7.2f}] "
            f"({100 * lo / base:+5.1f}% to {100 * hi / base:+5.1f}%)  B faster {int((diffs < 0).sum())}/{pairs}  "
            f"tracemalloc peak A {peaks[0]:.2f} MB  B {peaks[1]:.2f} MB")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", required=True, help="side A: a src/ directory or tree, or a git revision")
    parser.add_argument("--b", required=True, help="side B: likewise")
    parser.add_argument("--ops", nargs="+", choices=OPS, default=list(OPS))
    parser.add_argument("--pairs", type=int, default=16)
    parser.add_argument("--iters", type=int, default=10, help="training iterations per op (default 10)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="ab_timing_") as tmp:
        tmp = Path(tmp)
        srcs = [resolve_src(side, tmp) for side in (args.a, args.b)]
        sides = [load_tree(name, src) for name, src in zip(("side_a", "side_b"), srcs)]
        print(f"A {srcs[0]}\nB {srcs[1]}\nnumpy {np.__version__}, OPENBLAS_NUM_THREADS="
              f"{os.environ['OPENBLAS_NUM_THREADS']}, {args.pairs} pairs, {args.iters} iterations per training op")
        world = build_world(sides[0], tmp / "world")
        for name in args.ops:
            a, b = (Op(name, side, world, args.iters, tmp / f"out_{i}") for i, side in enumerate(sides))
            print(compare(name, a, b, args.pairs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
