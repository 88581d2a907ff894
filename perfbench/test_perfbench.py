"""Tests of the benchmark itself, on a tiny document and budget.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from layers import BUILD_LAYERS
from repro.build.xbuild import XBuild
from repro.serve.service import EstimatorService
from workloads import END_TO_END, PER_LAYER, TINY, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


@pytest.fixture(scope="module")
def runs():
    return {
        (workload, trace): workloads.run_workload(workload, SEED, 1, trace,
                                                  TINY)
        for workload in WORKLOADS
        for trace in (False, True)
    }


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf8") as fh:
        spec = json.load(fh)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _values(result) -> dict:
    return {metric.name: metric.value for metric in result.metrics}


def test_every_named_metric_is_emitted_with_its_unit(runs):
    end_to_end, per_layer = _declared("end_to_end"), _declared("per_layer")
    assert list(end_to_end.items()) == list(END_TO_END)
    assert list(per_layer.items()) == list(PER_LAYER)
    for workload in WORKLOADS:
        for trace, declared, expected in (
            (False, end_to_end, END_TO_END),
            (True, per_layer, PER_LAYER),
        ):
            result = runs[(workload, trace)]
            assert result.correct, result.problems
            emitted = [(metric.name, metric.unit) for metric in result.metrics]
            assert emitted == list(expected)
            for metric in result.metrics:
                assert declared[metric.name] == metric.unit
                assert metric.n >= 1


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in WORKLOADS:
        assert all(value > 0 for value in _values(runs[(workload, False)])
                   .values())


def test_every_layer_runs_on_every_workload(runs):
    # the fallback tiers answer nothing on a healthy run, and the
    # tracing overhead may come out either side of zero
    idle = {"serve.tier_n.path", "serve.tier_n.cst", "serve.tier_n.uniform",
            "trace.overhead_pct"}
    for workload in WORKLOADS:
        values = _values(runs[(workload, True)])
        assert {name: value for name, value in values.items()
                if name not in idle and value <= 0} == {}, workload


def test_traced_build_layers_add_up_to_its_wall_time(runs):
    metrics = _values(runs[("build-imdb", True)])
    layers = sum(metrics[name] for name in BUILD_LAYERS)
    assert metrics["build.other_s"] > 0
    assert layers + metrics["build.other_s"] == pytest.approx(
        metrics["build.traced_s"], rel=1e-9
    )


def test_plans_are_reused_only_on_the_skewed_stream(runs):
    assert _values(runs[("serve-distinct", True)])[
        "estimate.plan_reuse_ratio"] == 1.0
    assert _values(runs[("serve-skewed", True)])[
        "estimate.plan_reuse_ratio"] > 1.0


def test_quality_metrics_repeat_exactly_for_a_seed(runs):
    names = ("sketch_bytes", "error_pct")
    for workload in WORKLOADS:
        again = _values(workloads.run_workload(workload, SEED, 1, False,
                                               TINY))
        first = _values(runs[(workload, False)])
        assert {name: again[name] for name in names} == {
            name: first[name] for name in names
        }


def _negative_answer(monkeypatch):
    estimate = EstimatorService.estimate
    calls = []

    def wrong(self, name, query, **kwargs):
        response = estimate(self, name, query, **kwargs)
        calls.append(name)
        if len(calls) == 50:
            return dataclasses.replace(response, estimate=-1.0)
        return response

    monkeypatch.setattr(EstimatorService, "estimate", wrong)
    return "serve-distinct"


def _batch_answer_differs(monkeypatch):
    submit = EstimatorService.submit_batch

    def wrong(self, name, queries, **kwargs):
        responses = submit(self, name, queries, **kwargs)
        first = responses[0]
        return [dataclasses.replace(first, estimate=first.estimate + 1.0),
                *responses[1:]]

    monkeypatch.setattr(EstimatorService, "submit_batch", wrong)
    return "serve-skewed"


def _build_truncated(monkeypatch):
    build = XBuild.run

    def truncated(self):
        result = build(self)
        if self.budget_bytes == TINY.budget:
            result.truncated = True
        return result

    monkeypatch.setattr(XBuild, "run", truncated)
    return "build-imdb"


@pytest.mark.parametrize(
    "fault", [_negative_answer, _batch_answer_differs, _build_truncated]
)
def test_correctness_gate_trips_on_a_wrong_answer(fault, monkeypatch,
                                                  capsys):
    workload = fault(monkeypatch)
    code = run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "1", "--scale", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-imdb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
