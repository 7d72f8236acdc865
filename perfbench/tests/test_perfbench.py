"""Tests for the benchmark's own code: span arithmetic, reference checks, smoke runs.

Run from the repository root with `python -m pytest perfbench/tests`.
"""
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import child
import cwmat
import cwmat.search
import run
import tracer
from workloads import WORKLOADS, check_classification, check_prune, draw_items, expected_classes

ROOT = Path(__file__).resolve().parents[2]
SMOKE_ITEMS = {"prune-wide": [16], "crosscheck-classes": [63], "crosscheck-empty": [3, 5, 7]}


def test_self_times_subtract_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds a second b [6, 7].
    names = ["a", "b", "c"]
    name_id = [0, 1, 2, 1]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    stats = tracer.self_times(names, name_id, parent, start, end)
    assert stats == {"a": (1, 3.0), "b": (2, 4.0), "c": (1, 3.0)}
    assert sum(s for _, s in stats.values()) == end[0] - start[0]


def test_tracer_nests_wrapped_calls(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer, "perf_counter", lambda: float(next(ticks)))
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert list(t.parent) == [-1, 0, 0]
    # outer spans ticks 0..5, each inner call one tick.
    assert t.layer_stats() == {"inner": (2, 2.0), "outer": (1, 3.0)}


def test_install_wraps_and_uninstall_restores():
    original = cwmat.search.verify_cw
    t = tracer.Tracer()
    t.install()
    try:
        assert cwmat.search.verify_cw is not original
        assert cwmat.search.verify_cw.__wrapped__ is original
    finally:
        t.uninstall()
    assert cwmat.search.verify_cw is original


def test_reference_checks_flag_wrong_counts():
    good = SimpleNamespace(count=2, cross_checked=True)
    assert check_classification(93, good) is None
    assert "expected 2" in check_classification(93, SimpleNamespace(count=1, cross_checked=True))
    assert "not cross-checked" in check_classification(93, SimpleNamespace(count=2, cross_checked=False))
    assert check_prune(16, (41, 11, 3)) is None
    assert "expected (41, 11, 3)" in check_prune(16, (41, 11, 4))
    assert check_prune(36, (3840, 542, 70)) is None
    assert check_prune(49, (1, 2, 3)) is None


def test_exception_counts_as_failed_item(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("rule predicts 2 classes at n=93, search found 1")

    monkeypatch.setattr(cwmat, "full_classification", boom)
    out = child.run("crosscheck-classes", [93, 155], None)
    assert len(out["failures"]) == 2
    assert "RuntimeError" in out["failures"][0]


def test_draws_follow_the_seed_and_the_pools():
    for workload in WORKLOADS:
        assert draw_items(workload, 7) == draw_items(workload, 7)
    assert sorted(draw_items("prune-wide", 3)) == [16, 25, 36]
    classes = draw_items("crosscheck-classes", 3)
    assert len(classes) == 7 and all(n % 2 and expected_classes(n) for n in classes)
    empty = draw_items("crosscheck-empty", 3)
    assert len(empty) == 461 and all(n % 2 and not expected_classes(n) for n in empty)
    assert draw_items("crosscheck-empty", 3) != draw_items("crosscheck-empty", 4)


@pytest.fixture(scope="module")
def smoke_samples():
    """One untraced and one traced tiny-size sample per workload."""
    out = {}
    for workload, items in SMOKE_ITEMS.items():
        out[workload] = {
            trace: run.run_child(ROOT, workload, items, trace, timeout=120) for trace in (False, True)
        }
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(smoke_samples, workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced, traced = smoke_samples[workload][False], smoke_samples[workload][True]
    for sample in (untraced, traced):
        assert sample.error is None
        assert sample.failures == []
        assert sample.setup_s > 0
    assert set(run.end_to_end([untraced])) == {m["name"] for m in spec["end_to_end"]}
    layer = run.per_layer([untraced], [traced], (0, 1.0))
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    for name, (value, unit) in layer.items():
        assert unit == next(m["unit"] for m in spec["per_layer"] if m["name"] == name)
    trace = traced.payload["trace"]
    accounted = sum(s for _, s in trace["layers"].values()) + trace["residual_s"]
    assert accounted == pytest.approx(traced.payload["wall_s"])


def test_run_refuses_a_directory_without_the_library(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "prune-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
