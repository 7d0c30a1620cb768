"""Tests of the benchmark's own code: span self-time arithmetic, the
deadline stop, failure-reason accounting and the output checks.

    PYTHONPATH=src python -m pytest -q benchmarks/tests
"""

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import loop  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from poisonlab.data import Dataset  # noqa: E402
from poisonlab.feasible import InfeasibleSetError, ball_only_feasible  # noqa: E402
from poisonlab.models import TrainingError  # noqa: E402
from spans import Span, Tracer, aggregate, self_times  # noqa: E402


# -- spans --------------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),    # overlaps a: [1,5] is covered once
        Span("c", 6.0, 7.0, parent=0),
        Span("a.child", 1.5, 2.5, parent=1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 1.0, 1.0])


def test_self_time_clips_children_to_parent():
    spans = [Span("root", 2.0, 4.0), Span("late", 3.0, 9.0, parent=0)]
    assert self_times(spans) == pytest.approx([1.0, 6.0])


def test_aggregate_counts_failures_and_tags():
    spans = [Span("m.f", 0.0, 4.0, tag="knn"),
             Span("m.g", 1.0, 2.0, parent=0, failed=True, tag="knn"),
             Span("m.g", 2.0, 2.5, parent=0)]
    by_name, by_tag = aggregate(spans)
    assert by_name["m.g"].calls == 2 and by_name["m.g"].fail == 1
    assert by_name["m.g"].total_s == pytest.approx(1.5)
    assert by_name["m.f"].self_s == pytest.approx(2.5)
    assert by_tag == {"knn": pytest.approx(3.5)}


def test_tracer_rebinds_aliases_and_methods():
    """A callee bound by name in another module is traced, and nesting gives
    parent links; uninstall restores every binding."""
    ticks = iter(range(100))
    lower = types.ModuleType("lower")
    exec("def leaf(x):\n    return x + 1\n"
         "class Box:\n    def get(self):\n        return leaf(1)\n", lower.__dict__)
    upper = types.ModuleType("upper")
    upper.leaf = lower.leaf
    exec("def outer(b):\n    return leaf(b.get())\n", upper.__dict__)
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install([("lower.leaf", lower, "leaf"), ("upper.outer", upper, "outer"),
                    ("lower.get", lower.Box, "get")], [lower, upper])
    try:
        assert upper.outer(lower.Box()) == 3
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names == ["upper.outer", "lower.get", "lower.leaf", "lower.leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert upper.leaf is lower.leaf and upper.outer.__name__ == "outer"
    assert not hasattr(lower.Box.get, "__wrapped__")


# -- deadline and failure accounting ------------------------------------------

def slow_op(name="slow"):
    def run_():
        try:
            time.sleep(30)
        except Exception:  # the program's own broad handlers must not hide it
            pass
    return loop.Op(name, run_, lambda out: 0.5)


def raising_op(name, exc):
    def run_():
        raise exc
    return loop.Op(name, run_, lambda out: 0.5)


def test_deadline_stops_op_without_waiting():
    started = time.perf_counter()
    out = loop.run_op(slow_op(), 0.2, wl.FAILURE_REASONS)
    assert out.reason == "deadline"
    assert time.perf_counter() - started < 2.0


def test_failures_are_counted_by_reason():
    def bad_check(out):
        raise loop.CheckFailed("poison weight off")

    ops = [loop.Op("ok", lambda: 1, lambda out: 0.25),
           raising_op("infeasible", InfeasibleSetError("empty set")),
           raising_op("training", TrainingError("stalled")),
           raising_op("defense", wl.defenses.DefenseError("single class")),
           loop.Op("check", lambda: 1, bad_check),
           slow_op("deadline")]
    result = loop.run_sequence(ops, 0.2, wl.FAILURE_REASONS)
    assert [o.reason for o in result.outcomes] == [
        None, "infeasible", "training", "defense", "check", "deadline"]
    summary = loop.summarize(result)
    assert summary["failures"] == dict.fromkeys(loop.REASONS, 1)
    assert summary["fail_ratio"] == pytest.approx(5 / 6)
    assert summary["attack_error"] == 0.25 and summary["completed"] == 1


def test_unexpected_exception_ends_the_run():
    with pytest.raises(KeyError):
        loop.run_op(raising_op("bug", KeyError("x")), 1.0, wl.FAILURE_REASONS)


@pytest.mark.parametrize("seconds, passes", [(1.0, 2), (14.0, 2), (15.0, 3)])
def test_run_cycles_measures_whole_passes(seconds, passes):
    """Each op takes two clock ticks, so a pass of three ops takes seven."""
    ticks = iter(range(100))
    ops = [loop.Op(n, lambda: None, lambda out: 0.0) for n in "abc"]
    res = loop.run_cycles(ops, seconds, 1.0, wl.FAILURE_REASONS,
                          clock=lambda: float(next(ticks)))
    assert [o.name for o in res.outcomes] == list("abc") * passes


# -- output checks on a tiny input ---------------------------------------------

def tiny():
    D_c = Dataset(np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]]),
                  np.array([1.0, 1.0, -1.0, -1.0]), np.full(4, 25.0))
    F = ball_only_feasible({1: [1.5, 0.0], -1: [-1.5, 0.0]}, {1: 1.0, -1: 1.0}, 2)
    return D_c, F


def test_check_attack_accepts_budget_and_feasible_points():
    D_c, F = tiny()
    D_p = Dataset(np.array([[1.5, 0.5], [-1.5, 0.0]]), np.array([1.0, -1.0]),
                  np.array([1.0, 2.0]))  # eps * |D_c| = 0.03 * 100
    wl.check_attack(D_c, D_p, F)


@pytest.mark.parametrize("X, w, match", [
    ([[1.5, 0.5], [-1.5, 0.0]], [1.0, 1.0], "poison weight"),
    ([[1.5, 2.0], [-1.5, 0.0]], [1.0, 2.0], "outside F"),
])
def test_check_attack_rejects(X, w, match):
    D_c, F = tiny()
    D_p = Dataset(np.array(X), np.array([1.0, -1.0]), np.array(w))
    with pytest.raises(loop.CheckFailed, match=match):
        wl.check_attack(D_c, D_p, F)


def test_check_battery_rejects_excess_removal():
    D_c, _ = tiny()
    errors = {k.kind: 0.1 for k in wl.DEFENSES}
    reports = [{"defense": k, "test_error": 0.1,
                "removed_weight": {1: 0.0, -1: 0.0}} for k in errors]
    assert wl.check_battery(D_c, Dataset.empty(2), errors, reports) == 0.1
    reports[-1]["removed_weight"][-1] = 2.6  # cap is 0.05 * 50
    with pytest.raises(loop.CheckFailed, match="removed"):
        wl.check_battery(D_c, Dataset.empty(2), errors, reports)


# -- BENCHMARK.json agrees with what the runner prints -------------------------

def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(run.layer_metrics([], 1.0)) == {m["name"] for m in spec["per_layer"]}
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
