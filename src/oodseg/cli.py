"""Command-line front end.

Subcommands cover the whole pipeline: ``gen-data`` writes a synthetic
dataset, ``fit-frozen`` fits and stores the frozen encoder/decoder,
``train`` fits the anomaly head, ``score``/``eval`` apply it, and
``ablate``/``sweep`` run the comparison grids.  Configuration comes from
a JSON file validated strictly against the default schema (unknown keys
are rejected), with ``--set section.key=value`` overrides.  The schema's
``scene``, ``head``, ``train`` and ``patch`` sections are the fields of
the matching config dataclasses.  Every run directory receives the
effective config and, where a frozen model is involved, its digest.

Exit codes: 0 success, 2 configuration error, 3 missing or corrupt
artifact, 4 run failure (degenerate training or evaluation), 1 unexpected
error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from .estimators import HEAD_SCORERS, SCORERS, score_map, save_score_map
from .head import HeadConfig, load_head, read_head_manifest, save_head
from .losses import DegeneratePartitionError
from .metrics import MetricInputError
from .patches import DonorTooSmallError, PatchConfig
from .refine import EmptyPastedRegionError
from .synthworld import (
    ArtifactError,
    BadValueError,
    FrozenModel,
    SceneSpec,
    decoder_accuracy,
    export_dataset,
    fit_frozen_decoder,
    frozen_digest,
    load_eval_set,
    load_frozen,
    load_train_images,
    save_frozen,
)
from .tensorio import NetpbmError, TensorFormatError, read_ppm, write_pgm
from .trainer import (
    TrainConfig,
    TrainingAbortedError,
    TrainingDivergedError,
    evaluate,
    train,
    write_eval_csv,
    write_trainlog_csv,
)


class ConfigError(ValueError):
    pass


# Config sections backed by a dataclass: their keys, defaults and types are
# the dataclass fields.  HeadConfig.feature_dim comes from the frozen model
# and TrainConfig.patch from the "patch" section, so neither is a key.
SECTIONS = {"scene": SceneSpec, "head": HeadConfig, "train": TrainConfig, "patch": PatchConfig}

DEFAULT_CONFIG: dict = {
    name: {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}
    for name, cls in SECTIONS.items()
}
DEFAULT_CONFIG["data"] = {"train_scenes": 48, "eval_scenes": 16, "seed": 0}
DEFAULT_CONFIG["frozen"] = {"feature_dim": 16, "fit_scenes": 100, "seed": 0}


def _merge_strict(base: dict, override: dict, path: str = "") -> None:
    for key, value in override.items():
        here = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here!r} must be an object")
            _merge_strict(base[key], value, here + ".")
        else:
            base[key] = _coerce(here, base[key], value)


def _coerce(name: str, default, value):
    # bool first: bool is an int subclass and must not satisfy int slots
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{name!r} must be a boolean, got {value!r}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name!r} must be an integer, got {value!r}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name!r} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{name!r} must be finite, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{name!r} must be a string, got {value!r}")
        return value
    raise ConfigError(f"{name!r} has unsupported type")


def _parse_set(expr: str) -> dict:
    """``section.key=value`` as a one-entry override for ``_merge_strict``.

    The text is read as its default's type; text that does not parse stays
    a string, which ``_coerce`` rejects for a non-string slot.
    """
    key, sep, raw = expr.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set wants section.key=value, got {expr!r}")
    parts = key.split(".")
    if len(parts) != 2:
        raise ConfigError(f"--set key must be section.key, got {key!r}")
    section, name = parts
    default = DEFAULT_CONFIG.get(section, {}).get(name)
    value = raw
    if isinstance(default, bool):
        value = {"true": True, "1": True, "false": False, "0": False}.get(raw.lower(), raw)
    elif isinstance(default, (int, float)):
        with contextlib.suppress(ValueError):
            value = type(default)(raw)
    return {section: {name: value}}


def load_config(path: str | None, sets: list[str]) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a JSON object")
        _merge_strict(config, loaded)
    for expr in sets or []:
        _merge_strict(config, _parse_set(expr))
    return config


def _echo_config(config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


def _section(config: dict, name: str, **extra):
    """The dataclass of section ``name``; invalid values are config errors."""
    try:
        return SECTIONS[name](**config[name], **extra)
    except ValueError as exc:
        raise ConfigError(f"{name} config invalid: {exc}") from exc


def _train_config(config: dict) -> TrainConfig:
    return _section(config, "train", patch=_section(config, "patch"))


def _gen_data(config: dict, out: Path) -> None:
    data = config["data"]
    export_dataset(
        _section(config, "scene"),
        n_train=data["train_scenes"],
        n_eval=data["eval_scenes"],
        out_dir=out,
        seed=data["seed"],
    )


def _fit_frozen(config: dict, out: Path) -> FrozenModel:
    fz = config["frozen"]
    model = fit_frozen_decoder(
        _section(config, "scene"),
        feature_dim=fz["feature_dim"],
        n_scenes=fz["fit_scenes"],
        seed=fz["seed"],
    )
    save_frozen(model, out)
    return model


def cmd_gen_data(args) -> int:
    config = load_config(args.config, args.set)
    out = Path(args.out)
    _gen_data(config, out)
    _echo_config(config, out)
    return 0


def cmd_fit_frozen(args) -> int:
    config = load_config(args.config, args.set)
    out = Path(args.out)
    model = _fit_frozen(config, out)
    _echo_config(config, out)
    acc = decoder_accuracy(model, _section(config, "scene"))
    print(f"frozen model {frozen_digest(model)[:12]} decoder accuracy {acc:.4f}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config, args.set)
    cfg = _train_config(config)  # before any file is read
    images = load_train_images(args.data)
    frozen = load_frozen(args.frozen)
    head_cfg = _section(config, "head", feature_dim=frozen.feature_dim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    head, log = train(images, frozen, cfg, head_cfg)
    digest = frozen_digest(frozen)
    save_head(head, out / "head", extra={"frozen_digest": digest})
    write_trainlog_csv(log, out / "trainlog.csv")
    (out / "frozen_digest.txt").write_text(digest + "\n")
    _echo_config(config, out)
    print(f"trained {cfg.iterations} iterations, {log.aborted} aborted; head -> {out / 'head'}")
    return 0


def _load_matched_head(head_dir: str, frozen) -> "HeadParams":
    head = load_head(head_dir)
    recorded = read_head_manifest(head_dir).get("frozen_digest")
    if recorded is None:
        raise ArtifactError(f"head checkpoint under {head_dir} records no frozen_digest")
    if recorded != frozen_digest(frozen):
        raise ArtifactError(
            f"head checkpoint was trained against frozen model {recorded[:12]}, "
            f"got {frozen_digest(frozen)[:12]}"
        )
    return head


def cmd_score(args) -> int:
    _coerce("--lam", 0.5, args.lam)  # finite, before any file is touched
    if args.head is None and args.scorer in HEAD_SCORERS:
        raise ConfigError(f"--scorer {args.scorer} needs --head; without one, use a baseline scorer")
    frozen = load_frozen(args.frozen)
    head = _load_matched_head(args.head, frozen) if args.head else None
    image = read_ppm(args.image)
    from .synthworld import frozen_encoder, seg_logits_map

    feats = frozen_encoder(frozen, image)
    seg = seg_logits_map(frozen, feats)
    sm = score_map(head, feats, seg, lam=args.lam, scorer=args.scorer)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_score_map(sm, out)
    if args.heatmap:
        lo, hi = sm.values.min(), sm.values.max()
        norm = (sm.values - lo) / (hi - lo) if hi > lo else np.zeros_like(sm.values)
        write_pgm(args.heatmap, np.clip(np.rint(255.0 * norm), 0, 255).astype(np.uint8))
    return 0


def cmd_eval(args) -> int:
    _coerce("--lam", 0.5, args.lam)  # finite, before any file is touched
    frozen = load_frozen(args.frozen)
    head = _load_matched_head(args.head, frozen) if args.head else None
    eval_set = load_eval_set(args.data)
    results = evaluate(head, frozen, eval_set, lam=args.lam)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_eval_csv(results, out / "eval.csv")
    (out / "frozen_digest.txt").write_text(frozen_digest(frozen) + "\n")
    (out / "config.json").write_text(
        json.dumps({"lam": args.lam, "head": args.head, "frozen": args.frozen, "data": args.data}, indent=2)
        + "\n"
    )
    for name, r in results.items():
        print(f"{name}: ap={r.ap:.4f} auroc={r.auroc:.4f} fpr95={r.fpr95:.4f}")
    return 0


def _prepare_world(config: dict, out: Path):
    """Dataset + frozen model built from ``config`` under the run dir."""
    data_dir = out / "data"
    frozen_dir = out / "frozen"
    _gen_data(config, data_dir)
    _fit_frozen(config, frozen_dir)
    return load_train_images(data_dir), load_frozen(frozen_dir), load_eval_set(data_dir)


def _train_arm(images, frozen, cfg: TrainConfig, head_cfg: HeadConfig) -> "HeadParams":
    head, _ = train(images, frozen, cfg, head_cfg)
    return head


def _write_grid(out: Path, name: str, lines: list[str], frozen: FrozenModel, config: dict) -> None:
    (out / name).write_text("\n".join(lines) + "\n")
    (out / "frozen_digest.txt").write_text(frozen_digest(frozen) + "\n")
    _echo_config(config, out)
    for line in lines:
        print(line)


# arm -> (TrainConfig overrides, or None for no head; the scorer its row reports)
ABLATE_ARMS = {
    "jem": (None, "jem"),
    "tae_only": ({"w_o": 0.0}, "tae"),
    "tore_only": ({"w_a": 0.0}, "tore"),
    "both": ({}, "combined"),
    "margin_static": ({"margin": "static"}, "combined"),
}


def cmd_ablate(args) -> int:
    config = load_config(args.config, args.set)
    base = _train_config(config)  # every section is checked before the world is built
    head_cfg = _section(config, "head", feature_dim=config["frozen"]["feature_dim"])  # the world's
    arms = {
        arm: (None if overrides is None else dataclasses.replace(base, **overrides), scorer)
        for arm, (overrides, scorer) in ABLATE_ARMS.items()
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    images, frozen, eval_set = _prepare_world(config, out)
    rows = {}
    for arm, (cfg, scorer) in arms.items():
        head = None if cfg is None else _train_arm(images, frozen, cfg, head_cfg)
        rows[arm] = (scorer, evaluate(head, frozen, eval_set, base.lam)[scorer])
    rows["margin_dynamic"] = rows["both"]  # same training, named for the margin table
    lines = ["arm,scorer,ap,auroc,fpr95,n_pos,n_neg"]
    for arm, (scorer, r) in rows.items():
        lines.append(f"{arm},{scorer},{r.ap!r},{r.auroc!r},{r.fpr95!r},{r.n_pos},{r.n_neg}")
    _write_grid(out, "ablate.csv", lines, frozen, config)
    return 0


SWEEP_PARAMS = {"lambda": "lam", "gamma": "gamma", "patches": "n_patches"}  # --param -> train key


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.set)
    if args.param not in SWEEP_PARAMS:
        raise ConfigError(f"--param must be one of {sorted(SWEEP_PARAMS)}, got {args.param!r}")
    key = SWEEP_PARAMS[args.param]
    head_cfg = _section(config, "head", feature_dim=config["frozen"]["feature_dim"])  # the world's
    cfgs = []
    for raw in args.values:  # typed and checked like --set, before any work
        run_cfg = copy.deepcopy(config)
        _merge_strict(run_cfg, _parse_set(f"train.{key}={raw}"))
        cfgs.append(_train_config(run_cfg))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    images, frozen, eval_set = _prepare_world(config, out)
    lines = ["param,value,ap,auroc,fpr95"]
    for cfg in cfgs:
        head = _train_arm(images, frozen, cfg, head_cfg)
        r = evaluate(head, frozen, eval_set, lam=cfg.lam)["combined"]
        lines.append(f"{args.param},{getattr(cfg, key)!r},{r.ap!r},{r.auroc!r},{r.fpr95!r}")
    _write_grid(out, "sweep.csv", lines, frozen, config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oodseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", default=None, help="JSON config file (defaults apply if omitted)")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    with_config(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("fit-frozen", help="fit and store the frozen encoder/decoder")
    with_config(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_frozen)

    p = sub.add_parser("train", help="train the anomaly head")
    with_config(p)
    p.add_argument("--data", required=True)
    p.add_argument("--frozen", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score one image into a TNSR map")
    p.add_argument("--head", default=None)
    p.add_argument("--frozen", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scorer", default="combined", choices=SCORERS)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--heatmap", default=None, help="optional PGM visualization")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="evaluate scorers against eval ground truth")
    p.add_argument("--head", default=None)
    p.add_argument("--frozen", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lam", type=float, default=0.5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="estimator and margin ablation grid")
    with_config(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="sensitivity sweep over one parameter")
    with_config(p)
    p.add_argument("--out", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--values", nargs="+", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BadValueError, DonorTooSmallError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArtifactError, TensorFormatError, NetpbmError, FileNotFoundError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 3
    except (
        TrainingAbortedError,
        TrainingDivergedError,
        DegeneratePartitionError,
        EmptyPastedRegionError,
        MetricInputError,
    ) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 4
    except Exception:  # noqa: BLE001 - last-resort diagnostic
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
