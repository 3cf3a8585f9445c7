"""Self-tests of the benchmark harness: span arithmetic, trace coverage,
and agreement between what the harness prints and BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oodseg.trainer  # noqa: E402
import workloads  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from tracer import PER_LAYER_UNITS, TRACE_POINTS, Span, Tracer, outermost, per_layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, end_to_end_metrics  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=None, run_id="timed", **attrs):
    return Span(name, start, parent, run_id, "test:" + name, end=end, attrs=attrs)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),   # overlaps a: covered once
        _span("g", 2.0, 3.0, parent=1),   # grandchild: not the root's child
        _span("c", 8.0, 12.0, parent=0),  # runs past the root: clipped
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_busy_time_counts_a_layer_nested_in_itself_once():
    spans = [
        _span("x", 0.0, 5.0),
        _span("y", 1.0, 4.0, parent=0),
        _span("x", 2.0, 3.0, parent=1),
    ]
    assert outermost(spans) == [True, True, False]
    m = per_layer_metrics(
        [_span("trainer.train", 0.0, 1.0, iterations=2, aborted=0),
         _span("head.fwd_train", 0.1, 0.3, parent=0, flops=4e8),
         _span("head.fwd_train", 0.4, 0.5, parent=0, flops=2e8)],
        ops=2,
    )
    assert m["head.fwd_train_ms"] == pytest.approx(150.0)
    assert m["head.calls"] == pytest.approx(1.0)
    assert m["head.gflops_computed"] == pytest.approx(2.0)
    assert m["trainer.iter_self_ms"] == pytest.approx(350.0)


def test_tracer_restores_every_rebound_name():
    original = oodseg.trainer.head_forward
    with Tracer(TRACE_POINTS):
        assert oodseg.trainer.head_forward is not original
    assert oodseg.trainer.head_forward is original


def test_trainer_iteration_times_follow_the_benchmark_clock(monkeypatch):
    # a fake clock that advances one second per reading: every iteration reads it twice
    ticks = iter(range(1000))
    monkeypatch.setattr(workloads, "cpu", lambda: float(next(ticks)))
    world = workloads.build_world(7)
    cfg = oodseg.trainer.TrainConfig(iterations=2, warmup_iters=0, seed=7)
    with workloads.cpu_clock_in_trainer():
        _, log = oodseg.trainer.train(world.images, world.frozen, cfg)
    assert [r.ms for r in log.records] == [1000.0, 1000.0]
    assert oodseg.trainer.time is time


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    runs = {}
    for name, workload in WORKLOADS.items():
        with Tracer(TRACE_POINTS) as tracer:
            outcome = workload(7, 1.0, tmp_path_factory.mktemp(name), tracer)
        runs[name] = (outcome, tracer)
    return runs


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_trace_point_is_called_on_its_workloads(traced_runs, name):
    outcome, tracer = traced_runs[name]
    assert all(outcome.checks.values()), outcome.checks
    calls = tracer.calls_by_target()
    missing = [p.target for p in TRACE_POINTS if name in p.expect and not calls.get(p.target)]
    assert not missing, f"{name} never called {missing}"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_metric_sets_match_benchmark_json(traced_runs, name):
    outcome, tracer = traced_runs[name]
    e2e = set(end_to_end_metrics(outcome, import_s=0.0)) | {"peak_rss_mb"}
    layers = set(per_layer_metrics(tracer.spans, outcome.ops)) | set(outcome.quality)
    layers |= {"trace.overhead_frac", "trace.cost_frac", "timing.cpu_share"}  # added by run.py from both passes
    assert e2e == {m["name"] for m in DECLARED["end_to_end"]}
    assert layers == {m["name"] for m in DECLARED["per_layer"]}


def test_declared_units_match_the_harness():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", "desk-train", "--seed", "12345",
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    table = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("metric ")}
    assert table == declared
    assert ["env", "blas_threads", "1"] in [line.split() for line in lines]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "desk-train", "--seed", "0", "--seconds", "1",
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
