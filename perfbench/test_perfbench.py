"""Tests of the benchmark's tracer and correctness gate.

    python3 -m pytest perfbench -q

The traced run must change nothing: its report bytes equal the untraced
bytes, and its call counts repeat exactly at one seed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
from lcklab import foliations, lck, semieuclid  # noqa: E402
from lcklab import report as report_mod  # noqa: E402
from lcklab import suites as suites_mod  # noqa: E402

SMALL_POINTS = {"hopf-fd": 2, "hopf-sampler": 2, "null-algebra": 5}
KEY_COUNTS = {"hopf-fd": ("lck.lee_data", "charts.wirtinger_derivative"),
              "hopf-sampler": ("sampling.sample_hopf", "models.hopf_chart"),
              "null-algebra": ("sampling.sample_null_config",
                               "foliations.lightlike_transversal")}


def small(name: str) -> run.Workload:
    return dataclasses.replace(run.load_workload(name), points=SMALL_POINTS[name])


def traced_call(workload: run.Workload, seed: int):
    with layertrace.Tracer() as tracer:
        report = suites_mod.run_config(workload.config(seed))
        payload = report_mod.to_json(report)
    return payload, tracer.spans()


@pytest.mark.parametrize("name", sorted(SMALL_POINTS))
def test_traced_report_bytes_equal_untraced(name):
    workload = small(name)
    plain = report_mod.to_json(suites_mod.run_config(workload.config(42)))
    payload, _ = traced_call(workload, 42)
    assert payload == plain


@pytest.mark.parametrize("name", sorted(SMALL_POINTS))
def test_call_counts_repeat_at_one_seed(name):
    workload = small(name)
    _, first = traced_call(workload, 7)
    _, second = traced_call(workload, 7)
    assert first.derive()["calls"] == second.derive()["calls"]
    assert first.candidate_draws == second.candidate_draws
    calls = first.derive()["calls"]
    for key in KEY_COUNTS[name]:
        assert calls[key] > 0
    for suite in workload.suites:
        assert calls[f"suites.{suite}"] == workload.points


def test_calls_through_from_imports_are_traced_and_bindings_restored():
    before = {(m, a): getattr(m, a) for m, a in [
        (lck, "lee_data"), (foliations, "lee_data"), (suites_mod, "lee_data"),
        (foliations, "christoffel"), (suites_mod, "run_config")]}
    post_init = semieuclid.SemiEuclideanForm.__dict__["__post_init__"]
    point_fns = [s.point_fn for s in suites_mod.SUITES]
    _, spans = traced_call(small("hopf-fd"), 3)
    parents = {spans.names[spans.name_id[spans.parent[i]]]
               for i in range(len(spans))
               if spans.names[spans.name_id[i]] == "lck.lee_data" and spans.parent[i] >= 0}
    assert "foliations.first_foliation_fibre" in parents  # foliations' own binding
    assert any(p.startswith("suites.") for p in parents)   # suites' own binding
    for (mod, attr), obj in before.items():
        assert getattr(mod, attr) is obj
    assert semieuclid.SemiEuclideanForm.__dict__["__post_init__"] is post_init
    assert [s.point_fn for s in suites_mod.SUITES] == point_fns


def test_bindings_restored_after_an_exception():
    original = lck.lee_data
    with pytest.raises(RuntimeError):
        with layertrace.Tracer():
            assert foliations.lee_data is not original
            raise RuntimeError("boom")
    assert lck.lee_data is original and foliations.lee_data is original


def test_nested_and_recursive_calls_count_once_toward_inclusive_time():
    # a.f [0, 10] > a.f [1, 5] > a.g [2, 3];  a.f [0, 10] > a.g [6, 8]
    spans = layertrace.Spans(names=["a.f", "a.g"], name_id=[0, 0, 1, 1],
                             parent=[-1, 0, 1, 0], start=[0.0, 1.0, 2.0, 6.0],
                             end=[10.0, 5.0, 3.0, 8.0], candidate_draws=0)
    d = spans.derive()
    assert d["candidate_draws"] == 0
    assert d["calls"] == {"a.f": 2, "a.g": 2}
    assert d["inclusive_s"] == {"a.f": 10.0, "a.g": 3.0}
    assert d["self_s"] == {"a": 10.0}


def test_gate_counts_every_breach():
    workload = small("null-algebra")
    report = suites_mod.run_config(workload.config(1))
    gate = run.Gate()
    assert run.report_problem(workload, report) is None
    short = dataclasses.replace(report, results=report.results[:-1])
    assert "differ" in run.report_problem(workload, short)
    failing = dataclasses.replace(report, results=(
        dataclasses.replace(report.results[0], verdict="fail"),) + report.results[1:])
    assert "eq8-transversal=fail" in run.report_problem(workload, failing)
    gate.record(True, "ok")
    gate.record(False, "bad")
    assert (gate.attempted, gate.failed, gate.problems) == (2, 1, ["bad"])


def test_traced_run_emits_every_per_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    run.OUT.mkdir(exist_ok=True)
    for name in sorted(SMALL_POINTS):
        gate = run.Gate()
        result = run.traced(small(name), 5, 0.0, gate)
        assert set(result["metrics"]) == names
        assert gate.failed == 0 and gate.attempted >= 5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hopf-fd",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
