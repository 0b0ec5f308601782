"""Tests of the benchmark's own logic: span arithmetic, metric names, missing
functions, the correctness gates and a short pass on the TINY config.

    python -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from femba import engine as eng
from femba import model as fm
from perfbench import harness, layers, workloads
from perfbench.tracing import (Span, Target, Tracer, by_name, check_metric_name,
                               covered_length, self_times)

ROOT = Path(__file__).resolve().parents[2]
TINY = fm.ModelConfig(d_model=8, d_inner=16, d_state=4, d_conv=4, n_blocks=2,
                      n_tokens=8, n_channels=4, n_samples=32, patch_size=4,
                      n_classes=3, dt_rank=2)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# -- self time -------------------------------------------------------------------

def test_covered_length_merges_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_length([(4, 4), (6, 5)], 0, 10) == 0


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.operation("op"):
        clock.t = 2
        with tr.span("child"):
            clock.t = 3
            with tr.span("grandchild"):
                clock.t = 4
            clock.t = 5
        clock.t = 6
        with tr.span("child"):
            clock.t = 7.5
        clock.t = 10
    stats = by_name(tr.spans)
    assert stats["op"].self_s == pytest.approx(10 - 3 - 1.5)
    assert stats["child"].self_s == pytest.approx(2 + 1.5)
    assert stats["child"].calls == 2
    assert stats["grandchild"].self_s == pytest.approx(1)
    assert {s.op for s in tr.spans} == {tr.spans[0].id}


def test_self_time_subtracts_overlapping_pool_children_once():
    spans = [Span(1, None, 1, "cli.infer", 0, 0.0, 10.0),
             Span(2, 1, 1, "pool", 1, 1.0, 6.0),
             Span(3, 1, 1, "pool", 2, 4.0, 8.0),
             Span(4, 3, 1, "inner", 2, 4.5, 5.0)]
    st = self_times(spans)
    assert st[1] == pytest.approx(10 - 7)
    assert st[2] == pytest.approx(5)
    assert st[3] == pytest.approx(4 - 0.5)
    assert st[4] == pytest.approx(0.5)


def test_pool_thread_spans_join_the_operation():
    tr = Tracer()
    started = threading.Barrier(2, timeout=10)

    def work(_):
        with tr.span("pool"):
            started.wait()
            with tr.span("inner"):
                pass

    with tr.operation("op") as root:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(2)))
    pool_spans = [s for s in tr.spans if s.name == "pool"]
    assert len({s.thread for s in pool_spans}) == 2
    assert all(s.parent == root.id and s.op == root.id for s in pool_spans)
    inner = [s for s in tr.spans if s.name == "inner"]
    assert {s.parent for s in inner} == {s.id for s in pool_spans}
    st = self_times(tr.spans)
    wall = root.end - root.start
    assert 0 <= st[root.id] <= wall
    # the two pool spans overlap (barrier), so their self times sum past the
    # time they cover in the root
    covered = covered_length([(s.start, s.end) for s in pool_spans], root.start, root.end)
    assert st[root.id] == pytest.approx(wall - covered)


# -- metric names ------------------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "engine.int8_matmul.macs",
                                  "streamsim.layer.mamba_blocks.0.cycles", "a-b_1.c"])
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "a b", "cycles/s", "x\n", "é", "a" * 65, None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_declares_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        check_metric_name(m["name"])


def test_streamsim_names_match_the_simulator():
    from femba import streamsim as ss
    cr = ss.run_default()
    assert tuple(r.name for r in cr.layers) == layers.STREAMSIM_LAYERS
    assert tuple(dict.fromkeys(s.name for s in cr.sub_ops)) == layers.STREAMSIM_SUB_OPS


# -- renamed or deleted functions --------------------------------------------------

def test_missing_function_is_reported_not_fatal():
    mod = types.SimpleNamespace(present=lambda x: x + 1)
    tr = Tracer()
    tr.install({"fake": mod}, [Target("fake", "present"), Target("fake", "gone"),
                               Target("absent", "f"), Target("fake", "Cls.method")])
    assert tr.missing == ["fake.gone", "absent.f", "fake.Cls.method"]
    with tr.operation("op"):
        assert mod.present(1) == 2
    tr.uninstall()
    assert [s.name for s in tr.spans] == ["op", "fake.present"]


def test_per_layer_metrics_list_a_removed_engine_function_as_missing():
    real = {m: __import__(f"femba.{m}", fromlist=[m]) for m in harness.TOOLCHAIN_MODULES}
    modules = dict(real, engine=types.SimpleNamespace(
        **{k: v for k, v in vars(eng).items() if k != "rhu_shift"}))
    tr = Tracer()
    tr.install(modules, layers.targets())
    tr.uninstall()
    extra = {"image.bytes": 0, "streamsim.chunks": 0, "cli.ops_attempted": 0,
             "cli.ops_failed": 0, "trace.iteration_s": 1.0, "trace.untraced.iteration_s": 1.0,
             "trace.overhead.iteration_s": 0.0, "trace.overhead.primary_windows_per_s": 0.0,
             "trace.spans": 0}
    values, missing = layers.per_layer_metrics(tr, 1, extra)
    assert missing == ["engine.rhu_shift.self_s"]
    assert len(values) == len(layers.PER_LAYER) - 1


# -- harness on the TINY config ----------------------------------------------------

@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_tiny(workload, trace):
    result, lines, record = harness.run_workload(workload, 5, 0.3, trace, 0.01, TINY)
    assert result["correct"], lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {n: u for n, u, _ in (layers.PER_LAYER if trace else harness.END_TO_END)}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("failed_ratio") for line in lines)
    if trace and workload != "ingest":
        assert result["metrics"]["engine.window_s_p50"]["value"] > 0
        assert result["metrics"]["streamsim.chunks"]["value"] > 0
    if trace and workload == "deploy_w2a8":
        # at TINY, n_groups == 1 and bias correction runs to the end
        ratio = result["metrics"]["quantizer.bias_correct.useful_ratio"]["value"]
        assert ratio == pytest.approx(1 / len(__import__("femba.quantizer").quantizer
                                               .layer_catalog(TINY)))


def test_gate_rejects_engine_that_disagrees_with_reference(monkeypatch):
    real = eng.engine_forward

    def off_by_one(image, window, workers=None, trace=None):
        li, lf, stats = real(image, window, workers, trace)
        return li + 1, lf, stats

    monkeypatch.setattr(eng, "engine_forward", off_by_one)
    result, lines, _ = harness.run_workload("deploy_w8a8", 5, 0.2, False, 0.01, TINY)
    assert result["correct"] is False and result["metrics"] == {}
    assert "logits_i32 differ" in lines[0]


def test_gate_rejects_trace_mismatch(monkeypatch):
    real = eng.engine_forward

    def wrong_tap(image, window, workers=None, trace=None):
        out = real(image, window, workers, trace)
        if trace is not None:
            trace["pooled"] = trace["pooled"] + 1
        return out

    monkeypatch.setattr(eng, "engine_forward", wrong_tap)
    result, lines, _ = harness.run_workload("deploy_w2a8", 5, 0.2, True, 0.01, TINY)
    assert result["correct"] is False
    assert "'pooled'" in lines[0]


def test_known_defect_counts_as_failed_operation(monkeypatch):
    from femba import quantizer as qz

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(qz, "bias_correct", broken)
    result, lines, _ = harness.run_workload("deploy_w2a8", 5, 0.2, False, 0.01, TINY)
    assert result["correct"] is True
    assert result["failed"] >= 1 and result["failed"] < result["attempted"]
    assert any("quantize_bc: RuntimeError: exit 3" in line for line in lines)


def test_exits_nonzero_without_the_toolchain(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ingest",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_synthetic_inputs_depend_only_on_seed():
    a = workloads.synthetic_eeg(2.0, 512.0, 7)
    assert np.array_equal(a, workloads.synthetic_eeg(2.0, 512.0, 7))
    assert not np.array_equal(a, workloads.synthetic_eeg(2.0, 512.0, 8))
