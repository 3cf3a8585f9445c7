"""Seeded run of every CLI subcommand, for byte-identity checks between trees.

Runs gen-data, fit-frozen, five train variants, eval with and without a
head, score for every scorer plus a heatmap, ablate, and sweeps over
patches, gamma and lambda, all on one small seeded config.  Everything
lands under OUT, so two source trees compare with one ``diff -r``:

    python tests/byte_identity.py /tmp/a --src /path/to/tree_a/src
    python tests/byte_identity.py /tmp/b --src /path/to/tree_b/src
    diff -r /tmp/a /tmp/b

The script works from inside OUT with relative paths, so echoed configs do
not differ by location.  ``steps.txt`` records each step's exit code, its
stdout and the last line of its stderr; two closing steps pass a
non-finite ``--lam`` to ``eval`` and ``score``.  The file name has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

SMALL = [
    "--set", "data.train_scenes=8",
    "--set", "data.eval_scenes=4",
    "--set", "frozen.fit_scenes=20",
    "--set", "train.iterations=30",
    "--set", "train.warmup_iters=5",
    "--set", "train.seed=3",
]

TRAIN_VARIANTS = {
    "default": [],
    "otsu": ["--set", "train.refine_mode=otsu"],
    "none": ["--set", "train.refine_mode=none"],
    "per_region": ["--set", "train.per_region=true"],
    # most crops become polygons here (few at the defaults), so Harris,
    # hull and raster changes all reach the bytes
    "polygons": ["--set", "patch.harris_thresh_frac=1e-4", "--set", "patch.harris_nms_radius=1"],
}

SWEEPS = {"patches": ["3", "5"], "gamma": ["5", "15"], "lambda": ["0.25", "1"]}


def steps() -> list[tuple[str, list[str]]]:
    world = ["--data", "data", "--frozen", "frozen"]
    head = ["--head", "train_default/head", "--frozen", "frozen"]
    score = ["score", *head, "--image", "data/eval/scene_0000.ppm"]
    out = [
        ("gen-data", ["gen-data", *SMALL, "--out", "data"]),
        ("fit-frozen", ["fit-frozen", *SMALL, "--out", "frozen"]),
    ]
    for name, sets in TRAIN_VARIANTS.items():
        out.append((f"train-{name}", ["train", *SMALL, *sets, *world, "--out", f"train_{name}"]))
    out += [
        ("eval-head", ["eval", *head, "--data", "data", "--out", "eval_head"]),
        ("eval-headless", ["eval", "--frozen", "frozen", "--data", "data", "--out", "eval_headless"]),
    ]
    for scorer in ("combined", "tae", "tore", "jem", "msp", "entropy", "max_logit"):
        out.append((f"score-{scorer}", [*score, "--scorer", scorer, "--out", f"score/{scorer}.tnsr"]))
    out += [
        ("score-heatmap", [*score, "--out", "score/heat.tnsr", "--heatmap", "score/heat.pgm"]),
        ("ablate", ["ablate", *SMALL, "--out", "ablate"]),
    ]
    for param, values in SWEEPS.items():
        argv = ["sweep", *SMALL, "--out", f"sweep_{param}", "--param", param, "--values", *values]
        out.append((f"sweep-{param}", argv))
    out += [
        ("eval-lam-nan", ["eval", *head, "--data", "data", "--out", "eval_nan", "--lam", "nan"]),
        ("score-lam-nan", [*score, "--out", "score/nan.tnsr", "--lam", "nan"]),
    ]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="output directory (created; should not exist yet)")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree to import oodseg from (default: this checkout's src)")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import oodseg
    from oodseg.cli import main as oodseg_main

    if Path(oodseg.__file__).resolve().parent != src / "oodseg":
        print(f"imported oodseg from {oodseg.__file__}, not {src}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    log = []
    for name, argv in steps():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = oodseg_main(argv)
        last_err = (stderr.getvalue().strip().splitlines() or [""])[-1]
        log.append(f"== {name}: exit {rc}\n{stdout.getvalue()}stderr: {last_err}\n")
        print(f"{name}: exit {rc}", file=sys.stderr)
    Path("steps.txt").write_text("".join(log))
    return 0


if __name__ == "__main__":
    sys.exit(main())
