"""Command-line front end.

Subcommands cover the whole pipeline: ``gen-data`` writes a synthetic
dataset, ``fit-frozen`` fits and stores the frozen encoder/decoder,
``train`` fits the anomaly head, ``score``/``eval`` apply it, and
``ablate``/``sweep`` run the comparison grids.  Configuration comes from
a JSON file validated strictly against the default schema (unknown keys
are rejected), with ``--set section.key=value`` overrides.  Every run
directory receives the effective config and, where a frozen model is
involved, its digest.

Exit codes: 0 success, 2 configuration error, 3 missing or corrupt
artifact, 4 run failure (degenerate training or evaluation), 1 unexpected
error.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from .estimators import SCORERS, score_map, save_score_map
from .head import HeadConfig, load_head, read_head_manifest, save_head
from .losses import DegeneratePartitionError
from .metrics import MetricInputError
from .patches import PatchConfig
from .refine import EmptyPastedRegionError
from .synthworld import (
    ArtifactError,
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
    evaluate,
    train,
    write_eval_csv,
    write_trainlog_csv,
)


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG: dict = {
    "scene": {
        "height": 64,
        "width": 64,
        "classes": 4,
        "shapes_min": 3,
        "shapes_max": 6,
        "anomaly_shapes_min": 1,
        "anomaly_shapes_max": 3,
        "noise": 0.03,
    },
    "data": {"train_scenes": 48, "eval_scenes": 16, "seed": 0},
    "frozen": {"feature_dim": 16, "fit_scenes": 100, "ridge_lambda": 0.01, "seed": 0},
    "head": {
        "blocks": 3,
        "hidden": 32,
        "kernel_size": 1,
        "use_batchnorm": True,
        "bn_momentum": 0.9,
        "bn_epsilon": 1e-5,
    },
    "train": {
        "iterations": 2000,
        "batch_size": 8,
        "warmup_iters": 200,
        "gamma": 15.0,
        "n_patches": 10,
        "lam": 0.5,
        "lr": 1e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "adam_eps": 1e-8,
        "seed": 0,
        "refine_mode": "eq11",
        "per_region": False,
        "margin": "dynamic",
        "w_a": 1.0,
        "w_o": 1.0,
        "max_abort_frac": 0.1,
        "timing": False,
    },
    "patch": {
        "harris_k": 0.04,
        "harris_sigma": 1.0,
        "harris_thresh_frac": 0.01,
        "harris_nms_radius": 2,
        "min_side": 8,
        "crop_min_div": 16,
        "crop_max_div": 4,
        "policy": "convex",
    },
}


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
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{name!r} must be a string, got {value!r}")
        return value
    raise ConfigError(f"{name!r} has unsupported type")


def _parse_set(expr: str):
    key, sep, raw = expr.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set wants section.key=value, got {expr!r}")
    parts = key.split(".")
    if len(parts) != 2:
        raise ConfigError(f"--set key must be section.key, got {key!r}")
    return parts[0], parts[1], raw


def _apply_sets(config: dict, sets: list[str]) -> None:
    for expr in sets:
        section, key, raw = _parse_set(expr)
        if section not in config or key not in config[section]:
            raise ConfigError(f"unknown config key {section}.{key!r}")
        default = config[section][key]
        if isinstance(default, bool):
            if raw.lower() in ("true", "1"):
                value = True
            elif raw.lower() in ("false", "0"):
                value = False
            else:
                raise ConfigError(f"{section}.{key!r} must be true/false, got {raw!r}")
        elif isinstance(default, int):
            try:
                value = int(raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key!r} must be an integer, got {raw!r}") from exc
        elif isinstance(default, float):
            try:
                value = float(raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key!r} must be a number, got {raw!r}") from exc
        else:
            value = raw
        config[section][key] = value


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
    _apply_sets(config, sets or [])
    return config


def _echo_config(config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


def _scene_spec(config: dict) -> SceneSpec:
    try:
        return SceneSpec(**config["scene"])
    except ValueError as exc:
        raise ConfigError(f"scene config invalid: {exc}") from exc


def _patch_config(config: dict) -> PatchConfig:
    try:
        return PatchConfig(**config["patch"])
    except ValueError as exc:
        raise ConfigError(f"patch config invalid: {exc}") from exc


def _train_config(config: dict) -> TrainConfig:
    section = dict(config["train"])
    section.pop("timing")
    try:
        return TrainConfig(patch=_patch_config(config), **section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train config invalid: {exc}") from exc


def _head_config(config: dict, feature_dim: int) -> HeadConfig:
    try:
        return HeadConfig(feature_dim=feature_dim, **config["head"])
    except ValueError as exc:
        raise ConfigError(f"head config invalid: {exc}") from exc


def cmd_gen_data(args) -> int:
    config = load_config(args.config, args.set)
    spec = _scene_spec(config)
    out = Path(args.out)
    export_dataset(
        spec,
        n_train=config["data"]["train_scenes"],
        n_eval=config["data"]["eval_scenes"],
        out_dir=out,
        seed=config["data"]["seed"],
    )
    _echo_config(config, out)
    return 0


def cmd_fit_frozen(args) -> int:
    config = load_config(args.config, args.set)
    spec = _scene_spec(config)
    fz = config["frozen"]
    model = fit_frozen_decoder(
        spec,
        feature_dim=fz["feature_dim"],
        n_scenes=fz["fit_scenes"],
        ridge_lam=fz["ridge_lambda"],
        seed=fz["seed"],
    )
    out = Path(args.out)
    digest = save_frozen(model, out)
    _echo_config(config, out)
    acc = decoder_accuracy(model, spec)
    print(f"frozen model {digest[:12]} decoder accuracy {acc:.4f}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config, args.set)
    images = load_train_images(args.data)
    frozen = load_frozen(args.frozen)
    cfg = _train_config(config)
    head_cfg = _head_config(config, frozen.feature_dim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    head, log = train(images, frozen, cfg, head_cfg)
    digest = frozen_digest(frozen)
    save_head(head, out / "head", extra={"frozen_digest": digest})
    write_trainlog_csv(log, out / "trainlog.csv", timing=config["train"]["timing"])
    (out / "frozen_digest.txt").write_text(digest + "\n")
    _echo_config(config, out)
    print(f"trained {cfg.iterations} iterations, {log.aborted} aborted; head -> {out / 'head'}")
    return 0


def _load_matched_head(head_dir: str, frozen) -> "HeadParams":
    head = load_head(head_dir)
    manifest = read_head_manifest(head_dir)
    recorded = manifest.get("frozen_digest")
    if recorded is not None and recorded != frozen_digest(frozen):
        raise ArtifactError(
            f"head checkpoint was trained against frozen model {recorded[:12]}, "
            f"got {frozen_digest(frozen)[:12]}"
        )
    return head


def cmd_score(args) -> int:
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
    """Dataset + frozen model under the run dir (reused if already present)."""
    data_dir = out / "data"
    frozen_dir = out / "frozen"
    if not (data_dir / "manifest.json").exists():
        spec = _scene_spec(config)
        export_dataset(
            spec,
            n_train=config["data"]["train_scenes"],
            n_eval=config["data"]["eval_scenes"],
            out_dir=data_dir,
            seed=config["data"]["seed"],
        )
    if not (frozen_dir / "digest.txt").exists():
        fz = config["frozen"]
        model = fit_frozen_decoder(
            _scene_spec(config),
            feature_dim=fz["feature_dim"],
            n_scenes=fz["fit_scenes"],
            ridge_lam=fz["ridge_lambda"],
            seed=fz["seed"],
        )
        save_frozen(model, frozen_dir)
    images = load_train_images(data_dir)
    frozen = load_frozen(frozen_dir)
    eval_set = load_eval_set(data_dir)
    return images, frozen, eval_set


def _train_arm(config: dict, images, frozen, **overrides) -> "HeadParams":
    base = _train_config(config)
    cfg = TrainConfig(**{**base.__dict__, **overrides})
    head_cfg = _head_config(config, frozen.feature_dim)
    head, _ = train(images, frozen, cfg, head_cfg)
    return head


def cmd_ablate(args) -> int:
    config = load_config(args.config, args.set)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    images, frozen, eval_set = _prepare_world(config, out)
    lam = config["train"]["lam"]

    rows: list[tuple[str, str]] = []
    results: dict[str, dict] = {}

    results["jem"] = evaluate(None, frozen, eval_set, lam)
    rows.append(("jem", "jem"))

    head_tae = _train_arm(config, images, frozen, w_o=0.0)
    results["tae_only"] = evaluate(head_tae, frozen, eval_set, lam)
    rows.append(("tae_only", "tae"))

    head_tore = _train_arm(config, images, frozen, w_a=0.0)
    results["tore_only"] = evaluate(head_tore, frozen, eval_set, lam)
    rows.append(("tore_only", "tore"))

    head_both = _train_arm(config, images, frozen)
    results["both"] = evaluate(head_both, frozen, eval_set, lam)
    rows.append(("both", "combined"))

    head_static = _train_arm(config, images, frozen, margin="static")
    results["margin_static"] = evaluate(head_static, frozen, eval_set, lam)
    rows.append(("margin_static", "combined"))

    results["margin_dynamic"] = results["both"]  # same training, named for the margin table
    rows.append(("margin_dynamic", "combined"))

    lines = ["arm,scorer,ap,auroc,fpr95,n_pos,n_neg"]
    for arm, scorer in rows:
        r = results[arm][scorer]
        lines.append(f"{arm},{scorer},{r.ap!r},{r.auroc!r},{r.fpr95!r},{r.n_pos},{r.n_neg}")
    (out / "ablate.csv").write_text("\n".join(lines) + "\n")
    (out / "frozen_digest.txt").write_text(frozen_digest(frozen) + "\n")
    _echo_config(config, out)
    for line in lines:
        print(line)
    return 0


SWEEP_PARAMS = {"lambda": ("train", "lam"), "gamma": ("train", "gamma"), "patches": ("train", "n_patches")}


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.set)
    if args.param not in SWEEP_PARAMS:
        raise ConfigError(f"--param must be one of {sorted(SWEEP_PARAMS)}, got {args.param!r}")
    section, key = SWEEP_PARAMS[args.param]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    images, frozen, eval_set = _prepare_world(config, out)
    lines = ["param,value,ap,auroc,fpr95"]
    for raw in args.values:
        value = int(raw) if args.param == "patches" else float(raw)
        run_cfg = copy.deepcopy(config)
        run_cfg[section][key] = value
        head = _train_arm(run_cfg, images, frozen)
        results = evaluate(head, frozen, eval_set, lam=run_cfg["train"]["lam"])
        r = results["combined"]
        lines.append(f"{args.param},{value!r},{r.ap!r},{r.auroc!r},{r.fpr95!r}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    (out / "frozen_digest.txt").write_text(frozen_digest(frozen) + "\n")
    _echo_config(config, out)
    for line in lines:
        print(line)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArtifactError, TensorFormatError, NetpbmError, FileNotFoundError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 3
    except (
        TrainingAbortedError,
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
