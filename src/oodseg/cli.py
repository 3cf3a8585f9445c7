"""Command-line front end.

Subcommands cover the whole pipeline: ``gen-data`` writes a synthetic
dataset, ``fit-frozen`` fits and stores the frozen encoder/decoder,
``train`` fits the anomaly head, ``score``/``eval`` apply it, and
``ablate``/``sweep`` run the comparison grids.  Configuration comes from
a JSON file validated strictly against the default schema (unknown keys
are rejected), with ``--set section.key=value`` overrides.  The schema's
``scene``, ``head`` and ``train`` sections are the fields of the matching
config dataclasses.  Once a command has its results, its run
directory receives the config sections (or, for ``eval``, the arguments) it
read and, where a frozen model was used, that model's digest.

Exit codes: 0 success, 2 configuration error, 3 missing or corrupt
artifact or a file that cannot be read or written, 4 run failure
(degenerate training or evaluation), 1 unexpected error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import functools
import hashlib
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from .estimators import HEAD_SCORERS, SCORERS, score_map, save_score_map
from .head import HeadConfig, load_head, save_head
from .metrics import MetricInputError
from .patches import DonorTooSmallError
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
# the dataclass fields.  HeadConfig.feature_dim comes from the frozen model,
# so it is not a key.
SECTIONS = {"scene": SceneSpec, "head": HeadConfig, "train": TrainConfig}

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
        except OSError as exc:  # missing, a directory, unreadable: the config is at fault, not an artifact
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a JSON object")
        _merge_strict(config, loaded)
    for expr in sets or []:
        _merge_strict(config, _parse_set(expr))
    return config


def _record_run(out: Path, record: dict, frozen: FrozenModel | None = None) -> str:
    """Write ``config.json`` (what the command read) and, where a frozen model
    was used, ``frozen_digest.txt``; returns the SHA-256 of ``config.json``."""
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(text)
    if frozen is not None:
        (out / "frozen_digest.txt").write_text(frozen_digest(frozen) + "\n")
    return hashlib.sha256(text.encode()).hexdigest()


@contextlib.contextmanager
def _blame(name: str, errors=BadValueError):
    """Re-raise ``errors`` as a config error that names section ``name``."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{name} config invalid: {exc}") from exc


def _section(config: dict, name: str, **extra):
    """The dataclass of section ``name``; invalid values are config errors."""
    with _blame(name, ValueError):
        return SECTIONS[name](**config[name], **extra)


def _world_head(config: dict) -> HeadConfig:
    """The head section at the feature_dim of the world that ``config`` builds."""
    dim = config["frozen"]["feature_dim"]
    if dim < 1:  # else the head section would take the blame
        raise ConfigError(f"frozen config invalid: feature_dim must be >= 1, got {dim}")
    return _section(config, "head", feature_dim=dim)


def _gen_data(config: dict, out: Path) -> None:
    data, scene = config["data"], _section(config, "scene")
    with _blame("data"):
        export_dataset(scene, data["train_scenes"], data["eval_scenes"], out, data["seed"])


def _fit_frozen(config: dict) -> FrozenModel:
    fz, scene = config["frozen"], _section(config, "scene")
    with _blame("frozen"):
        return fit_frozen_decoder(scene, fz["feature_dim"], fz["fit_scenes"], fz["seed"])


def cmd_gen_data(args) -> int:
    config = load_config(args.config, args.set)
    out = Path(args.out)
    _gen_data(config, out)
    _record_run(out, {k: config[k] for k in ("scene", "data")})
    return 0


def cmd_fit_frozen(args) -> int:
    config = load_config(args.config, args.set)
    out = Path(args.out)
    model = _fit_frozen(config)
    save_frozen(model, out)
    acc = decoder_accuracy(model, _section(config, "scene"))
    print(f"frozen model {frozen_digest(model)[:12]} decoder accuracy {acc:.4f}")
    _record_run(out, {k: config[k] for k in ("scene", "frozen")})
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config, args.set)
    cfg = _section(config, "train")  # before any file is read
    out = Path(args.out)  # created only once training has finished, but checked now
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not nearest.is_dir():
        raise ArtifactError(f"cannot create --out {out}: {nearest} is not a directory")
    images = load_train_images(args.data)
    frozen = load_frozen(args.frozen)
    head_cfg = _section(config, "head", feature_dim=frozen.feature_dim)
    head, log = train(images, frozen, cfg, head_cfg)
    config_sha = _record_run(out, {k: config[k] for k in ("head", "train")}, frozen)
    save_head(head, out / "head", frozen_digest(frozen), cfg.lam, config_sha)
    write_trainlog_csv(log, out / "trainlog.csv")
    print(f"trained {cfg.iterations} iterations, {log.aborted} aborted; head -> {out / 'head'}")
    return 0


def _load_head(args, frozen: FrozenModel):
    """(head, λ) of ``score`` and ``eval``: ``--head`` for ``frozen`` or None; ``--lam``, the head's or 0.5."""
    head, lam = (None, 0.5) if args.head is None else load_head(args.head, frozen_digest(frozen))
    if head is not None and head.config.feature_dim != frozen.feature_dim:  # a matching digest does not imply it
        raise ArtifactError(f"head takes feature_dim={head.config.feature_dim}, frozen model gives {frozen.feature_dim}")
    return head, lam if args.lam is None else args.lam


def cmd_score(args) -> int:
    if args.lam is not None:
        _coerce("--lam", 0.5, args.lam)  # finite, before any file is touched
    if args.head is None and args.scorer in HEAD_SCORERS:
        raise ConfigError(f"--scorer {args.scorer} needs --head; without one, use a baseline scorer")
    frozen = load_frozen(args.frozen)
    head, lam = _load_head(args, frozen)
    image = read_ppm(args.image)
    from .synthworld import frozen_encoder, seg_logits_map

    feats = frozen_encoder(frozen, image)
    seg = seg_logits_map(frozen, feats)
    values = score_map(head, feats, seg, lam=lam, scorer=args.scorer)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_score_map(out, values, args.scorer, lam)
    if args.heatmap:
        Path(args.heatmap).parent.mkdir(parents=True, exist_ok=True)
        lo, hi = values.min(), values.max()
        norm = (values - lo) / (hi - lo) if hi > lo else np.zeros_like(values)
        write_pgm(args.heatmap, np.clip(np.rint(255.0 * norm), 0, 255).astype(np.uint8))
    return 0


def cmd_eval(args) -> int:
    if args.lam is not None:
        _coerce("--lam", 0.5, args.lam)  # finite, before any file is touched
    frozen = load_frozen(args.frozen)
    head, lam = _load_head(args, frozen)
    eval_set = load_eval_set(args.data)
    results = evaluate(head, frozen, eval_set, lam=lam)
    out = Path(args.out)
    _record_run(out, {"lam": lam, "head": args.head, "frozen": args.frozen, "data": args.data}, frozen)
    write_eval_csv(results, out / "eval.csv")
    for name, r in results.items():
        print(f"{name}: ap={r.ap:.4f} auroc={r.auroc:.4f} fpr95={r.fpr95:.4f}")
    return 0


def _prepare_world(config: dict, out: Path):
    """Dataset + frozen model built from ``config`` under the run dir; the fit
    comes first, so a bad ``frozen`` value stops before anything is written."""
    model = _fit_frozen(config)
    _gen_data(config, out / "data")
    save_frozen(model, out / "frozen")
    return load_train_images(out / "data"), load_frozen(out / "frozen"), load_eval_set(out / "data")


def _train_arm(images, frozen, cfg: TrainConfig, head_cfg: HeadConfig) -> "HeadParams":
    head, _ = train(images, frozen, cfg, head_cfg)
    return head


def _write_grid(out: Path, name: str, lines: list[str], frozen: FrozenModel, config: dict) -> None:
    (out / name).write_text("\n".join(lines) + "\n")
    _record_run(out, config, frozen)  # the grids read all five sections
    print("\n".join(lines))


# arm -> (TrainConfig overrides, the scorer its row reports)
ABLATE_ARMS = {
    "tae_only": ({"w_o": 0.0}, "tae"),
    "tore_only": ({"w_a": 0.0}, "tore"),
    "both": ({}, "combined"),
    "margin_static": ({"margin": "static"}, "combined"),
}


def cmd_ablate(args) -> int:
    config = load_config(args.config, args.set)
    base = _section(config, "train")  # train and head are checked before the world is built
    head_cfg = _world_head(config)
    out = Path(args.out)
    images, frozen, eval_set = _prepare_world(config, out)
    rows = {}
    for arm, (overrides, scorer) in ABLATE_ARMS.items():
        head = _train_arm(images, frozen, dataclasses.replace(base, **overrides), head_cfg)
        results = evaluate(head, frozen, eval_set, base.lam)
        rows.setdefault("jem", ("jem", results["jem"]))  # the frozen model's score: every arm's is the same
        rows[arm] = (scorer, results[scorer])
    rows["margin_dynamic"] = rows["both"]  # same training, named for the margin table
    lines = ["arm,scorer,ap,auroc,fpr95,n_pos,n_neg"]
    for arm, (scorer, r) in rows.items():
        lines.append(f"{arm},{scorer},{r.ap!r},{r.auroc!r},{r.fpr95!r},{r.n_pos},{r.n_neg}")
    _write_grid(out, "ablate.csv", lines, frozen, config)
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.set)
    section, _, key = args.param.partition(".")
    if section not in ("train", "head") or key not in DEFAULT_CONFIG[section]:  # every value trains on one world
        raise ConfigError(f"--param must be a key of the train or head section, got {args.param!r}")
    runs = []
    for raw in args.values:  # typed and checked like --set, before any work
        run_cfg = copy.deepcopy(config)
        _merge_strict(run_cfg, _parse_set(f"{args.param}={raw}"))
        runs.append((run_cfg[section][key], _section(run_cfg, "train"), _world_head(run_cfg)))
    out = Path(args.out)
    images, frozen, eval_set = _prepare_world(config, out)
    lines = ["param,value,ap,auroc,fpr95"]
    for value, cfg, head_cfg in runs:
        head = _train_arm(images, frozen, cfg, head_cfg)
        r = evaluate(head, frozen, eval_set, lam=cfg.lam)["combined"]
        lines.append(f"{args.param},{value!r},{r.ap!r},{r.auroc!r},{r.fpr95!r}")
    _write_grid(out, "sweep.csv", lines, frozen, config)
    return 0


@functools.cache  # one parser per process; it keeps no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oodseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", default=None, help="JSON config file (defaults apply if omitted)")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    with_config(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit-frozen", help="fit and store the frozen encoder/decoder")
    with_config(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the anomaly head")
    with_config(p)
    p.add_argument("--data", required=True)
    p.add_argument("--frozen", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("score", help="score one image into a TNSR map")
    p.add_argument("--head", default=None)
    p.add_argument("--frozen", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scorer", default="combined", choices=SCORERS)
    p.add_argument("--lam", type=float, default=None, help="default: the head's training lam, else 0.5")
    p.add_argument("--heatmap", default=None, help="optional PGM visualization")

    p = sub.add_parser("eval", help="evaluate scorers against eval ground truth")
    p.add_argument("--head", default=None)
    p.add_argument("--frozen", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lam", type=float, default=None, help="default: the head's training lam, else 0.5")

    p = sub.add_parser("ablate", help="estimator and margin ablation grid")
    with_config(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="sensitivity sweep over one parameter")
    with_config(p)
    p.add_argument("--out", required=True)
    p.add_argument("--param", required=True, metavar="SECTION.KEY", help="a train.* or head.* key, checked like --set")
    p.add_argument("--values", nargs="+", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # cmd_<command> is looked up at call time, so a rebound command is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ConfigError, BadValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArtifactError, DonorTooSmallError, TensorFormatError, NetpbmError, OSError,
            UnicodeDecodeError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 3
    except (TrainingAbortedError, TrainingDivergedError, MetricInputError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 4
    except Exception:  # noqa: BLE001 - last-resort diagnostic
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
