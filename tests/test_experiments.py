"""Tests for the experiment harness (repro.experiments) at tiny scale.

These exercise the same code paths the benchmarks run, on documents small
enough for the unit-test suite; the benchmark suite is where the real
scales and the paper-shape assertions live.
"""

import pytest

from repro.experiments import (
    DATASETS,
    ExperimentConfig,
    dataset,
    format_figure9a,
    format_negative,
    format_table1,
    format_table2,
    run_negative,
    run_table1,
    run_table2,
    sketch_error,
    synopsis_sweep,
    workload,
)
from repro.experiments.reporting import render_series, render_table

TINY = ExperimentConfig(
    scale=1500, queries=12, budget_steps=1, budget_stride=1024
)


class TestConfig:
    def test_env_defaults(self):
        config = ExperimentConfig()
        assert config.scale >= 1000
        assert config.queries >= 10

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET_STEPS", "3")
        monkeypatch.setenv("REPRO_BUDGET_STRIDE", "16384")
        config = ExperimentConfig()
        assert config.budget_stride == 16384
        assert config.budgets(2000)[-1] == 2000 + 3 * 16384

    def test_malformed_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET_STRIDE", "lots")
        assert ExperimentConfig().budget_stride == 3072

    def test_budgets_start_at_base(self):
        assert TINY.budgets(1000) == [1000, 2024]

    def test_seed_for(self):
        assert TINY.seed_for("imdb") == 2

    def test_hashable_for_caching(self):
        assert hash(TINY) == hash(
            ExperimentConfig(scale=1500, queries=12, budget_steps=1,
                             budget_stride=1024)
        )


class TestRunnerCaching:
    def test_dataset_cached(self):
        assert dataset("imdb", TINY) is dataset("imdb", TINY)

    def test_all_datasets_buildable(self):
        for name in DATASETS:
            tree = dataset(name, TINY)
            assert tree.element_count >= TINY.scale

    def test_workload_kinds(self):
        p_load = workload("imdb", "P", TINY)
        assert len(p_load.queries) == TINY.queries
        negative = workload("imdb", "negative", TINY)
        assert all(entry.true_count == 0 for entry in negative.queries)

    def test_unknown_workload_kind(self):
        with pytest.raises(ValueError):
            workload("imdb", "bogus", TINY)

    def test_sweep_shapes(self):
        snapshots = synopsis_sweep("imdb", TINY)
        assert len(snapshots) == TINY.budget_steps + 1
        sizes = [sketch.size_bytes() for sketch in snapshots]
        assert sizes == sorted(sizes)

    def test_sketch_error_in_range(self):
        load = workload("imdb", "P", TINY)
        error = sketch_error(synopsis_sweep("imdb", TINY)[0], load)
        assert 0.0 <= error < 50.0


class TestTables:
    def test_table1_rows(self):
        rows = run_table1(TINY)
        assert [row.name for row in rows] == ["XMark", "IMDB", "SProt"]
        text = format_table1(rows)
        assert "Element Count" in text
        assert "XMark" in text

    def test_table2_rows(self):
        rows = run_table2(TINY)
        assert len(rows) == 5
        text = format_table2(rows)
        assert "Avg. Result" in text


class TestNegativeExperiment:
    def test_negative_runs(self):
        results = run_negative(TINY)
        assert {r.name for r in results} == {"IMDB", "XMARK"}
        text = format_negative(results)
        assert "mean estimate" in text


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table("T", ["col", "x"], [["a", 1], ["bb", 22]], note="n")
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert lines[-1].strip() == "n"
        widths = {len(line) for line in lines[1:-1]}
        assert len(widths) == 1  # all rows aligned

    def test_render_table_empty_rows(self):
        text = render_table("T", ["a"], [])
        assert "== T ==" in text

    def test_render_series(self):
        text = render_series(
            "S", "x", "y", {"ONE": [(1.0, 2.0)], "TWO": [(3.0, 4.5)]}
        )
        assert "-- ONE --" in text
        assert "4.50" in text

    def test_format_figure9a_includes_paper_note(self):
        text = format_figure9a({"IMDB": [(1.0, 50.0)]})
        assert "124%" in text
