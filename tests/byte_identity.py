"""Seeded run of every CLI subcommand, for byte-identity checks between trees.

Runs gen-data, fit-frozen, twelve train variants, eval with and without a
head, score for every scorer plus a heatmap, eval and score with the 3x3
head and with a legacy head, ablate, and sweeps over patches, gamma and
lambda, all on one small seeded config.  The legacy head is the ``lam``
variant's head as older versions wrote it: without a ``lam=`` line, so it
scores at 0.5, and with the lines of a head that had a conv bias.  Two more
gen-data steps write a larger dataset into ``regen`` and then a smaller one
over it, so the removal of an earlier export's extra scene files and the
diamond anomaly shape (first drawn by eval scene 4) reach the bytes.
Everything lands under OUT, so two source trees compare with one ``diff -r``:

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
import shutil
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
    # the batched search's count-weighted objective
    "per_region_otsu": ["--set", "train.per_region=true", "--set", "train.refine_mode=otsu"],
    "per_region_none": ["--set", "train.per_region=true", "--set", "train.refine_mode=none"],
    # the benchmark's paste-heavy shape: later patches cover whole earlier regions
    "paste_heavy": [
        "--set", "train.n_patches=40", "--set", "train.per_region=true", "--set", "train.batch_size=4",
    ],
    # most crops become polygons here (few at the defaults), so Harris,
    # hull and raster changes all reach the bytes; see STEP_CONSTANTS
    "polygons": [],
    # 3x3 kernels take the im2col path (_cols/_input_grad) that 1x1 kernels skip
    "kernel3": ["--set", "head.kernel_size=3"],
    # a second 3x3 shape through the head's workspace: 16-channel columns in
    # every block, so block 0's im2col buffers are no smaller than the rest
    "kernel3_hidden16": ["--set", "head.kernel_size=3", "--set", "head.hidden=16"],
    # one block: the backward recomputes only the last block's ReLU output
    "blocks1": ["--set", "head.blocks=1"],
    # its head.txt records lam=0.25, which eval and score then default to
    "lam": ["--set", "train.lam=0.25"],
}

# step -> oodseg.patches constants set for that step only
STEP_CONSTANTS = {"train-polygons": {"HARRIS_THRESH_FRAC": 1e-4, "HARRIS_NMS_RADIUS": 1}}


def legacy_head() -> None:
    """``legacy_head/``, read by the legacy-head steps: ``train_lam/head`` as
    written before lam was recorded, with the lines of a head written with a
    conv bias."""
    shutil.copytree("train_lam/head", "legacy_head")
    manifest = Path("legacy_head/head.txt")
    lines = [line for line in manifest.read_text().splitlines() if not line.startswith("lam=")]
    manifest.write_text("\n".join(lines + ["use_batchnorm=1", "bn_epsilon=1e-05", "bn_momentum=0.9"]) + "\n")


SWEEPS = {"patches": ["3", "5"], "gamma": ["5", "15"], "lambda": ["0.25", "1"]}


def steps() -> list[tuple[str, list[str]]]:
    world = ["--data", "data", "--frozen", "frozen"]
    head = ["--head", "train_default/head", "--frozen", "frozen"]
    score = ["score", *head, "--image", "data/eval/scene_0000.ppm"]
    out = [
        ("gen-data", ["gen-data", *SMALL, "--out", "data"]),
        ("fit-frozen", ["fit-frozen", *SMALL, "--out", "frozen"]),
        # the smaller export deletes train scenes 8-9 and eval scene 5, and keeps eval scene 4
        ("gen-data-larger", ["gen-data", *SMALL, "--set", "data.train_scenes=10", "--set", "data.eval_scenes=6",
                             "--out", "regen"]),
        ("gen-data-smaller", ["gen-data", *SMALL, "--set", "data.eval_scenes=5", "--out", "regen"]),
    ]
    for name, sets in TRAIN_VARIANTS.items():
        out.append((f"train-{name}", ["train", *SMALL, *sets, *world, "--out", f"train_{name}"]))
    head3 = ["--head", "train_kernel3/head", "--frozen", "frozen"]
    legacy = ["--head", "legacy_head", "--frozen", "frozen"]
    out += [
        ("eval-head", ["eval", *head, "--data", "data", "--out", "eval_head"]),
        ("eval-headless", ["eval", "--frozen", "frozen", "--data", "data", "--out", "eval_headless"]),
        # a 3x3 head's eval bands carry halo rows, which 1x1 heads do not
        ("eval-kernel3", ["eval", *head3, "--data", "data", "--out", "eval_kernel3"]),
        ("score-kernel3", ["score", *head3, "--image", "data/eval/scene_0000.ppm", "--out", "score/kernel3.tnsr",
                           "--heatmap", "score/kernel3.pgm"]),
        ("eval-legacy-head", ["eval", *legacy, "--data", "data", "--out", "eval_legacy_head"]),
        ("score-legacy-head", ["score", *legacy, "--image", "data/eval/scene_0000.ppm",
                               "--out", "score/legacy.tnsr"]),
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
    import oodseg.patches
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
        if name == "eval-legacy-head":
            legacy_head()
        constants = STEP_CONSTANTS.get(name, {})
        saved = {key: getattr(oodseg.patches, key) for key in constants}
        vars(oodseg.patches).update(constants)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = oodseg_main(argv)
        finally:
            vars(oodseg.patches).update(saved)
        last_err = (stderr.getvalue().strip().splitlines() or [""])[-1]
        log.append(f"== {name}: exit {rc}\n{stdout.getvalue()}stderr: {last_err}\n")
        print(f"{name}: exit {rc}", file=sys.stderr)
    Path("steps.txt").write_text("".join(log))
    return 0


if __name__ == "__main__":
    sys.exit(main())
