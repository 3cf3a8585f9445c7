"""Span tracing of oodseg from outside the package.

Nothing under ``src/`` is instrumented.  Each trace point names a module
attribute exactly as a caller looks it up (``oodseg.trainer:head_forward``
is the ``head_forward`` that the trainer calls), and installing a
``Tracer`` rebinds that attribute to a wrapper that records a span around
the call.  Uninstalling restores the original objects.

A span carries a name, start, end, parent span and run id (the phase of
the benchmark run it belongs to).  Spans stay in memory until the run
ends; ``per_layer_metrics`` turns them into the per-layer table.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    run_id: str
    source: str  # trace point that produced the span, "module:attr"
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)
    hook_s: float = 0.0  # time the hook took after the span ended

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# ---------------------------------------------------------------------------
# hooks: read counts off a call's arguments and result, after the span ends


def _head_flops(params, features) -> float:
    cfg = params.config
    hw = features.shape[1] * features.shape[2]
    macs = 0
    c_in = cfg.feature_dim
    for _ in range(cfg.blocks):
        macs += cfg.hidden * c_in * cfg.kernel_size**2
        c_in = cfg.hidden
    macs += 2 * cfg.hidden
    return 2.0 * macs * hw


def _hook_forward(span, args, kwargs, result):
    span.attrs["flops"] = _head_flops(_arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "features"))


def _hook_backward(span, args, kwargs, result):
    # one matmul for the weight gradient and one for the input gradient per layer
    cache = _arg(args, kwargs, 1, "cache")
    span.attrs["flops"] = 2.0 * _head_flops(cache.params, cache.blocks[0].x_in)


def _forward_name(args, kwargs) -> str:
    return "head.fwd_train" if _arg(args, kwargs, 2, "mode", "eval") == "train" else "head.fwd_eval"


def _hook_paste(span, args, kwargs, result):
    span.attrs["patches"] = len(_arg(args, kwargs, 1, "patches"))
    span.attrs["skipped"] = result.skipped


def _hook_partition(span, args, kwargs, result):
    span.attrs["pasted"] = int(result.ood_mask.sum() + result.ignored_mask.sum())
    span.attrs["kept"] = int(result.ood_mask.sum())


def _hook_pixels(span, args, kwargs, result):
    span.attrs["pixels"] = len(_arg(args, kwargs, 0, "scores"))


def _hook_train(span, args, kwargs, result):
    span.attrs["iterations"] = _arg(args, kwargs, 2, "cfg").iterations
    span.attrs["aborted"] = result[1].aborted
    span.attrs["log"] = result[1]


def _hook_bytes(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


@dataclass(frozen=True)
class TracePoint:
    target: str                 # "module:attr" or "module:Class.method"
    name: object                # span name, or callable(args, kwargs) -> name
    hook: object = None         # callable(span, args, kwargs, result)
    expect: tuple[str, ...] = ()  # workloads on which the point must be called


D, P, I, A = "desk-train", "paste-heavy", "infer-cli", "ablate-grid"
TRAINING = (D, P, A)
ALL = (D, P, I, A)

TRACE_POINTS: tuple[TracePoint, ...] = (
    # trainer: everything one iteration calls, plus evaluation
    TracePoint("oodseg.trainer:train", "trainer.train", _hook_train, (D, P)),
    TracePoint("oodseg.trainer:evaluate", "trainer.evaluate", None, (D, P)),
    TracePoint("oodseg.trainer:synth_pasted_scene", "patches.synth", None, TRAINING),
    TracePoint("oodseg.trainer:frozen_encoder", "synthworld.encoder", None, ALL),
    TracePoint("oodseg.trainer:seg_logits_map", "synthworld.decoder", None, ALL),
    TracePoint("oodseg.trainer:jem_map", "estimators.jem", None, TRAINING),
    TracePoint("oodseg.trainer:combined_map", "estimators.combined", None, TRAINING),
    TracePoint("oodseg.trainer:head_forward", _forward_name, _hook_forward, TRAINING),
    TracePoint("oodseg.trainer:refine_partition", "refine.partition", _hook_partition, TRAINING),
    TracePoint("oodseg.trainer:batch_total_loss", "losses.total", None, TRAINING),
    TracePoint("oodseg.trainer:head_backward", "head.bwd", _hook_backward, TRAINING),
    TracePoint("oodseg.trainer:AdamState.step", "trainer.adam", None, TRAINING),
    TracePoint("oodseg.trainer:all_score_maps", "estimators.all_maps", None, ALL),
    TracePoint("oodseg.trainer:evaluate_scores", "metrics.evaluate", _hook_pixels, ALL),
    # patches: the stages of one synthesized scene
    TracePoint("oodseg.patches:sample_candidates", "patches.sample", None, TRAINING),
    TracePoint("oodseg.patches:build_patches", "patches.build", None, TRAINING),
    TracePoint("oodseg.patches:harris_corners", "patches.harris", None, TRAINING),
    TracePoint("oodseg.patches:convex_hull", "patches.hull", None, TRAINING),
    TracePoint("oodseg.patches:rasterize", "patches.raster", None, TRAINING),
    TracePoint("oodseg.patches:paste_patches", "patches.paste", _hook_paste, TRAINING),
    TracePoint("oodseg.refine:search_threshold", "refine.search", None, TRAINING),
    # synthworld: world building, the frozen fit, and scoring's encoder
    TracePoint("oodseg.synthworld:generate_scene", "synthworld.scene", None, ALL),
    TracePoint("oodseg.synthworld:fit_frozen_decoder", "synthworld.fit", None, (D, P, A)),
    TracePoint("oodseg.synthworld:frozen_encoder", "synthworld.encoder", None, ALL),
    TracePoint("oodseg.synthworld:read_ppm", "tensorio.read", _hook_bytes, (I, A)),
    TracePoint("oodseg.synthworld:read_pgm", "tensorio.read", _hook_bytes, (I, A)),
    TracePoint("oodseg.synthworld:read_tensor", "tensorio.read", _hook_bytes, (I, A)),
    TracePoint("oodseg.synthworld:write_ppm", "tensorio.write", _hook_bytes, (I, A)),
    TracePoint("oodseg.synthworld:write_pgm", "tensorio.write", _hook_bytes, (I, A)),
    TracePoint("oodseg.synthworld:write_tensor", "tensorio.write", _hook_bytes, (I, A)),
    # estimators: eval-mode head and score maps outside training
    TracePoint("oodseg.estimators:head_forward", _forward_name, _hook_forward, ALL),
    TracePoint("oodseg.estimators:jem_map", "estimators.jem", None, ALL),
    TracePoint("oodseg.estimators:combined_map", "estimators.combined", None, (I,)),
    TracePoint("oodseg.estimators:write_tensor", "tensorio.write", _hook_bytes, (I,)),
    TracePoint("oodseg.head:read_tensor", "tensorio.read", _hook_bytes, (I,)),
    TracePoint("oodseg.head:write_tensor", "tensorio.write", _hook_bytes, (I,)),
    # cli: commands and the orchestration inside them
    TracePoint("oodseg.cli:main", "cli.main", None, (I, A)),
    TracePoint("oodseg.cli:cmd_gen_data", "cli.gen_data", None, (I,)),
    TracePoint("oodseg.cli:cmd_fit_frozen", "cli.fit_frozen", None, (I,)),
    TracePoint("oodseg.cli:cmd_train", "cli.train", None, (I,)),
    TracePoint("oodseg.cli:cmd_score", "cli.score", None, (I,)),
    TracePoint("oodseg.cli:cmd_eval", "cli.eval", None, (I,)),
    TracePoint("oodseg.cli:cmd_ablate", "cli.ablate", None, (A,)),
    TracePoint("oodseg.cli:_prepare_world", "cli.prepare_world", None, (A,)),
    TracePoint("oodseg.cli:_train_arm", "cli.arm", None, (A,)),
    TracePoint("oodseg.cli:train", "trainer.train", _hook_train, (I, A)),
    TracePoint("oodseg.cli:evaluate", "trainer.evaluate", None, (I, A)),
    TracePoint("oodseg.cli:fit_frozen_decoder", "synthworld.fit", None, (I, A)),
    TracePoint("oodseg.cli:score_map", "estimators.score_map", None, (I,)),
    TracePoint("oodseg.cli:read_ppm", "tensorio.read", _hook_bytes, (I,)),
    TracePoint("oodseg.cli:write_pgm", "tensorio.write", _hook_bytes, (I,)),
)

# The only point an untraced ablate-grid run keeps: the arms' training logs
# are not reachable from outside the ``ablate`` command.
PROBE_TARGETS = {A: ("oodseg.cli:train",)}


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans for the given trace points while installed."""

    def __init__(self, points=()):
        self.points = tuple(points)
        self.spans: list[Span] = []
        self.run_id = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for point in self.points:
            owner, attr = _resolve(point.target)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(point, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, point: TracePoint, fn):
        tracer = self

        def traced(*args, **kwargs):
            name = point.name(args, kwargs) if callable(point.name) else point.name
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), parent, tracer.run_id, point.target)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if point.hook is not None:
                tic = time.perf_counter()
                point.hook(span, args, kwargs, result)
                span.hook_s = time.perf_counter() - tic
            return result

        traced.__wrapped__ = fn
        return traced

    def calls_by_target(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.source] = counts.get(span.source, 0) + 1
        return counts


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""

    def noop():
        return None

    wrapped = Tracer()._wrap(TracePoint("calibration:noop", "calibration"), noop)
    tic = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - tic
    tic = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, (traced - (time.perf_counter() - tic)) / calls)


# ---------------------------------------------------------------------------
# span arithmetic


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        clipped = [(max(lo, span.start), min(hi, span.end)) for lo, hi in children.get(i, ())]
        covered = _union_length([(lo, hi) for lo, hi in clipped if hi > lo])
        out.append(span.duration - covered)
    return out


def outermost(spans: list[Span]) -> list[bool]:
    """True where no ancestor of the span has the same name, so that summed
    durations never count a nested call of the same layer twice."""
    flags = []
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        flags.append(parent is None)
    return flags


# ---------------------------------------------------------------------------
# the per-layer table


# (metric, unit) in print order; BENCHMARK.json declares the same list
PER_LAYER_UNITS: dict[str, str] = {
    "head.fwd_train_ms": "ms/op",
    "head.bwd_ms": "ms/op",
    "head.fwd_eval_ms": "ms/op",
    "head.calls": "1/op",
    "head.gflops_computed": "GFLOP/s",
    "patches.synth_ms": "ms/op",
    "patches.harris_ms": "ms/op",
    "patches.hull_ms": "ms/op",
    "patches.raster_ms": "ms/op",
    "patches.paste_ms": "ms/op",
    "patches.harris_calls": "1/op",
    "patches.convex_frac": "ratio",
    "patches.skipped_frac": "ratio",
    "refine.partition_ms": "ms/op",
    "refine.searches": "1/op",
    "refine.search_ms": "ms/op",
    "refine.kept_frac": "ratio",
    "synthworld.encoder_ms": "ms/op",
    "synthworld.decoder_ms": "ms/op",
    "synthworld.fit_s": "s",
    "synthworld.scene_ms": "ms",
    "estimators.jem_ms": "ms/op",
    "estimators.combined_ms": "ms/op",
    "estimators.score_map_ms": "ms/op",
    "estimators.all_maps_ms": "ms/op",
    "losses.total_ms": "ms/op",
    "losses.degenerate_frac": "ratio",
    "trainer.iter_self_ms": "ms/op",
    "trainer.adam_ms": "ms/op",
    "trainer.abort_frac": "ratio",
    "metrics.evaluate_ms": "ms/op",
    "metrics.pixels": "1/op",
    "tensorio.read_ms": "ms/op",
    "tensorio.write_ms": "ms/op",
    "tensorio.calls": "1/op",
    "tensorio.bytes_read": "B/op",
    "tensorio.bytes_written": "B/op",
    "cli.self_ms": "ms/op",
    "cli.prepare_world_s": "s",
    "cli.arm_s": "s",
    "cli.arm_overlap": "ratio",
    "quality.combined_auroc": "1",
    "quality.combined_ap": "1",
    "quality.jem_auroc": "1",
    "trace.spans": "1/op",
    "trace.cost_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "timing.cpu_share": "ratio",
}

# spans whose busy time per op is reported as the metric "<span name>_ms"
_BUSY_SPANS = (
    "head.fwd_train",
    "head.bwd",
    "head.fwd_eval",
    "patches.synth",
    "patches.harris",
    "patches.hull",
    "patches.raster",
    "patches.paste",
    "refine.partition",
    "refine.search",
    "synthworld.encoder",
    "synthworld.decoder",
    "estimators.jem",
    "estimators.combined",
    "estimators.score_map",
    "estimators.all_maps",
    "losses.total",
    "trainer.adam",
    "metrics.evaluate",
    "tensorio.read",
    "tensorio.write",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[Span], ops: int, timed: str = "timed") -> dict[str, float]:
    """Per-layer numbers from a traced run.

    ``*_ms`` and count metrics are totals over the spans of the ``timed``
    phase divided by the run's ``ops`` (its unit of work).  Per-call
    metrics (``synthworld.fit_s``, ``synthworld.scene_ms``,
    ``cli.prepare_world_s``, ``cli.arm_s``) average over every phase,
    set-up included.  A ratio with nothing to count reads 0.
    """
    own = self_times(spans)
    top = outermost(spans)
    in_timed = [s.run_id == timed for s in spans]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    errors: dict[str, int] = {}
    all_busy: dict[str, list[float]] = {}
    for span, is_top, timed_span in zip(spans, top, in_timed):
        if is_top:
            all_busy.setdefault(span.name, []).append(span.duration)
        if not timed_span:
            continue
        calls[span.name] = calls.get(span.name, 0) + 1
        if is_top:
            busy[span.name] = busy.get(span.name, 0.0) + span.duration
        if span.error is not None:
            errors[span.name] = errors.get(span.name, 0) + 1
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                attr_sum[(span.name, key)] = attr_sum.get((span.name, key), 0.0) + value

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def mean_s(name: str) -> float:
        values = all_busy.get(name, [])
        return _ratio(sum(values), len(values))

    m: dict[str, float] = {}
    for name in _BUSY_SPANS:
        m[name + "_ms"] = per_op(1000.0 * busy.get(name, 0.0))
    head_names = ("head.fwd_train", "head.fwd_eval", "head.bwd")
    head_calls = sum(calls.get(n, 0) for n in head_names)
    head_busy = sum(busy.get(n, 0.0) for n in head_names)
    head_flops = sum(attr_sum.get((n, "flops"), 0.0) for n in head_names)
    m["head.calls"] = per_op(head_calls)
    m["head.gflops_computed"] = _ratio(head_flops, head_busy) / 1e9
    harris = calls.get("patches.harris", 0)
    m["patches.harris_calls"] = per_op(harris)
    polygons = calls.get("patches.raster", 0) - errors.get("patches.raster", 0)
    m["patches.convex_frac"] = _ratio(polygons, harris)
    m["patches.skipped_frac"] = _ratio(
        attr_sum.get(("patches.paste", "skipped"), 0.0), attr_sum.get(("patches.paste", "patches"), 0.0)
    )
    m["refine.searches"] = per_op(calls.get("refine.search", 0))
    m["refine.kept_frac"] = _ratio(
        attr_sum.get(("refine.partition", "kept"), 0.0), attr_sum.get(("refine.partition", "pasted"), 0.0)
    )
    m["synthworld.fit_s"] = mean_s("synthworld.fit")
    m["synthworld.scene_ms"] = 1000.0 * mean_s("synthworld.scene")
    m["losses.degenerate_frac"] = _ratio(errors.get("losses.total", 0), calls.get("losses.total", 0))
    train_self = sum(t for s, t, ok in zip(spans, own, in_timed) if ok and s.name == "trainer.train")
    iterations = attr_sum.get(("trainer.train", "iterations"), 0.0)
    m["trainer.iter_self_ms"] = 1000.0 * _ratio(train_self, iterations)
    m["trainer.abort_frac"] = _ratio(attr_sum.get(("trainer.train", "aborted"), 0.0), iterations)
    m["metrics.pixels"] = per_op(attr_sum.get(("metrics.evaluate", "pixels"), 0.0))
    m["tensorio.calls"] = per_op(calls.get("tensorio.read", 0) + calls.get("tensorio.write", 0))
    m["tensorio.bytes_read"] = per_op(attr_sum.get(("tensorio.read", "bytes"), 0.0))
    m["tensorio.bytes_written"] = per_op(attr_sum.get(("tensorio.write", "bytes"), 0.0))
    cli_self = sum(t for s, t, ok in zip(spans, own, in_timed) if ok and s.name.startswith("cli."))
    m["cli.self_ms"] = per_op(1000.0 * cli_self)
    m["cli.prepare_world_s"] = mean_s("cli.prepare_world")
    m["cli.arm_s"] = mean_s("cli.arm")
    arms = [(s.start, s.end) for s, ok in zip(spans, in_timed) if ok and s.name == "cli.arm"]
    m["cli.arm_overlap"] = _ratio(sum(hi - lo for lo, hi in arms), _union_length(arms))
    m["trace.spans"] = per_op(sum(in_timed))
    return m
