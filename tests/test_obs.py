"""Tests for the observability layer (repro.obs).

Covers the metrics registry (semantics + a thread-safety hammer), the
span tracer (nesting, JSONL sink, disabled no-op), the estimate-explain
recorder (including the consistency invariant: the recorded per-embedding
values sum to the returned estimate), the exporters/validators, and the
instrumentation hooks threaded through build/estimate/serve/parse.
"""

import collections
import json
import math
import random
import threading

import pytest

from repro.build import XBuild, generate_candidates
from repro.datasets import figure1_document, generate_imdb
from repro.doc import parse_string
from repro.errors import BuildError, ReproError
from repro.estimation import PathEstimator, TwigEstimator
from repro.obs import (
    DEFAULT_BUCKETS,
    ExplainRecorder,
    JsonlSink,
    METRICS_SCHEMA,
    MetricsError,
    MetricsRegistry,
    NULL_TRACER,
    SERVE_EVAL_SCHEMA,
    SpanTracer,
    default_registry,
    load_payload,
    render_explanation,
    render_prometheus,
    reset_default_registry,
    validate_metrics_payload,
    validate_payload,
    validate_serve_eval_payload,
    write_export,
)
from repro.obs import explain as explain_mod
from repro.obs.tracing import _NULL_SPAN
from repro.query import Path, parse_for_clause, parse_path
from repro.serve import EstimatorService
from repro.workload import WorkloadGenerator, WorkloadSpec


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "requests")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits", ["tier"])
        counter.inc(tier="twig")
        counter.inc(3, tier="path")
        assert counter.value(tier="twig") == 1
        assert counter.value(tier="path") == 3
        assert counter.value(tier="cst") == 0.0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("n_total", "n")
        with pytest.raises(MetricsError):
            counter.inc(-1)

    def test_missing_label_rejected(self):
        counter = MetricsRegistry().counter("n_total", "n", ["tier"])
        with pytest.raises(MetricsError):
            counter.inc()
        with pytest.raises(MetricsError):
            counter.inc(tier="twig", extra="x")

    def test_bad_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.counter("bad name", "oops")
        with pytest.raises(MetricsError):
            registry.counter("ok_total", "oops", ["0bad"])


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("level", "level")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 13

    def test_labelled(self):
        gauge = MetricsRegistry().gauge("state", "s", ["tier"])
        gauge.set(1, tier="twig")
        gauge.set(0, tier="path")
        assert gauge.value(tier="twig") == 1
        assert gauge.value(tier="path") == 0


class TestHistogram:
    def test_observe_and_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat_seconds", "latency", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        state = histogram.snapshot_series()
        assert state["count"] == 4
        assert state["sum"] == pytest.approx(6.05)
        # Cumulative counts per upper bound, with the implicit +Inf last.
        assert state["buckets"] == [[0.1, 1], [1.0, 3], ["+Inf", 4]]

    def test_bad_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.histogram("h1_seconds", "h", buckets=(1.0, 1.0))
        with pytest.raises(MetricsError):
            registry.histogram("h2_seconds", "h", buckets=(2.0, 1.0))
        with pytest.raises(MetricsError):
            registry.histogram("h3_seconds", "h", buckets=())
        with pytest.raises(MetricsError):
            registry.histogram("h4_seconds", "h", buckets=(1.0, math.inf))

    def test_non_finite_observation_rejected(self):
        histogram = MetricsRegistry().histogram("h_seconds", "h")
        with pytest.raises(MetricsError):
            histogram.observe(math.nan)

    def test_bound_values_fall_in_their_own_bucket(self):
        histogram = MetricsRegistry().histogram(
            "edge_seconds", "h", buckets=(0.1, 1.0)
        )
        for value in (0.1, 1.0, 1.0000001, -1.0):
            histogram.observe(value)
        assert histogram.snapshot_series()["buckets"] == [
            [0.1, 2], [1.0, 3], ["+Inf", 4]
        ]

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestLabelChecks:
    """Every metric kind accepts exactly its declared label set and keys
    each label value as ``str(value)``."""

    UPDATES = {
        "counter": lambda metric, **labels: metric.inc(**labels),
        "gauge": lambda metric, **labels: metric.set(1.0, **labels),
        "histogram": lambda metric, **labels: metric.observe(0.1, **labels),
    }

    @staticmethod
    def make(kind):
        registry = MetricsRegistry()
        return getattr(registry, kind)("m_total", "m", ["sketch", "tier"])

    @pytest.mark.parametrize("kind", sorted(UPDATES))
    @pytest.mark.parametrize(
        "labels",
        [
            {"sketch": "a"},
            {"sketch": "a", "tier": "t", "extra": "x"},
            {"sketch": "a", "teir": "t"},
            {},
        ],
        ids=["missing", "extra", "misspelled", "none"],
    )
    def test_wrong_label_set_rejected(self, kind, labels):
        metric = self.make(kind)
        message = (
            f"metric 'm_total' takes labels ['sketch', 'tier'], "
            f"got {sorted(labels)}"
        )
        with pytest.raises(MetricsError) as caught:
            self.UPDATES[kind](metric, **labels)
        assert str(caught.value) == message
        assert metric.series() == []

    @pytest.mark.parametrize("kind", sorted(UPDATES))
    def test_values_key_as_their_string(self, kind):
        metric = self.make(kind)
        self.UPDATES[kind](metric, sketch=7, tier=None)
        self.UPDATES[kind](metric, tier="None", sketch="7")
        [(labels, _)] = metric.series()
        assert labels == {"sketch": "7", "tier": "None"}

    BINDABLE = {
        "counter": (
            lambda metric, **labels: metric.inc(2.0, **labels),
            lambda bound: bound.inc(2.0),
        ),
        "histogram": (
            lambda metric, **labels: metric.observe(0.3, **labels),
            lambda bound: bound.observe(0.3),
        ),
    }

    @pytest.mark.parametrize("kind", sorted(BINDABLE))
    def test_a_bound_series_is_the_labelled_series(self, kind):
        """A bound handle and the labelled call update one series, and
        the snapshot equals the one labelled calls alone export."""
        labelled, through_bound = self.BINDABLE[kind]
        registries = MetricsRegistry(), MetricsRegistry()
        bound_metric, plain_metric = (
            getattr(registry, kind)("m_total", "m", ["sketch", "tier"])
            for registry in registries
        )
        bound = bound_metric.bind(sketch=7, tier="twig")
        assert bound_metric.series() == []  # binding creates no series
        for _ in range(3):
            through_bound(bound)
            labelled(bound_metric, sketch="7", tier="twig")
            labelled(bound_metric, sketch="7", tier="path")
            for tier in ("twig", "twig", "path"):
                labelled(plain_metric, sketch="7", tier=tier)
        assert len(bound_metric.series()) == 2
        assert registries[0].snapshot() == registries[1].snapshot()

    @pytest.mark.parametrize("kind", sorted(BINDABLE))
    @pytest.mark.parametrize(
        "labels",
        [{"sketch": "a"}, {"sketch": "a", "tier": "t", "extra": "x"}, {}],
        ids=["missing", "extra", "none"],
    )
    def test_binding_a_wrong_label_set_raises(self, kind, labels):
        metric = self.make(kind)
        with pytest.raises(MetricsError, match="takes labels"):
            metric.bind(**labels)
        assert metric.series() == []

    def test_a_bound_counter_cannot_decrease(self):
        bound = self.make("counter").bind(sketch="a", tier="t")
        with pytest.raises(MetricsError):
            bound.inc(-1)

    def test_unlabelled_metric_takes_no_labels(self):
        counter = MetricsRegistry().counter("plain_total", "p")
        counter.inc()
        with pytest.raises(MetricsError):
            counter.inc(tier="twig")
        assert counter.series() == [({}, 1.0)]

    def test_gauge_remove_drops_one_series(self):
        gauge = MetricsRegistry().gauge("g", "g", ["tier"])
        gauge.set(1, tier="twig")
        gauge.set(0, tier="path")
        gauge.remove(tier="twig")
        gauge.remove(tier="cst")  # absent: no-op
        assert gauge.series() == [({"tier": "path"}, 0.0)]
        with pytest.raises(MetricsError):
            gauge.remove(stage="twig")


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "a", ["x"])
        second = registry.counter("a_total", "ignored", ["x"])
        assert first is second

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a")
        with pytest.raises(MetricsError):
            registry.gauge("a_total", "a")

    def test_labelnames_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a", ["x"])
        with pytest.raises(MetricsError):
            registry.counter("a_total", "a", ["y"])

    def test_metrics_error_is_reproerror(self):
        assert issubclass(MetricsError, ReproError)

    def test_snapshot_shape_and_validation(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a", ["x"]).inc(x="1")
        registry.gauge("g", "g").set(2)
        registry.histogram("h_seconds", "h").observe(0.01)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA
        names = [metric["name"] for metric in snapshot["metrics"]]
        assert names == sorted(names)
        assert validate_metrics_payload(snapshot) == []
        # Snapshots are plain data: JSON round-trips losslessly.
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_default_registry_reset(self):
        first = default_registry()
        assert default_registry() is first
        second = reset_default_registry()
        assert second is not first
        assert default_registry() is second

    def test_thread_hammer_exact_counts(self):
        """N threads hammering shared series must lose no increment."""
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", "hammer", ["worker"])
        shared = registry.counter("shared_total", "shared")
        histogram = registry.histogram(
            "hammer_seconds", "hammer", buckets=(0.5,)
        )
        threads, per_thread = 8, 2500
        barrier = threading.Barrier(threads)

        def work(index: int) -> None:
            barrier.wait()
            label = str(index % 2)  # two contended series
            for _ in range(per_thread):
                counter.inc(worker=label)
                shared.inc()
                histogram.observe(0.25)

        pool = [
            threading.Thread(target=work, args=(index,))
            for index in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        total = threads * per_thread
        assert shared.value() == total
        assert counter.value(worker="0") == total / 2
        assert counter.value(worker="1") == total / 2
        state = histogram.snapshot_series()
        assert state["count"] == total
        assert state["buckets"][-1] == ["+Inf", total]


# ----------------------------------------------------------------------
# Span tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_returns_shared_null_span(self):
        assert NULL_TRACER.span("anything") is _NULL_SPAN
        with NULL_TRACER.span("anything", key="v") as span:
            span.annotate(more="x")  # must be inert, not raise
        assert len(NULL_TRACER.finished) == 0

    def test_nesting_records_parent_ids(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
                assert inner.parent_id == outer.span_id
            assert tracer.current() is outer
        assert tracer.current() is None
        names = [span.name for span in tracer.finished]
        assert names == ["inner", "outer"]  # inner closes first
        assert all(span.duration >= 0 for span in tracer.finished)

    def test_annotate_and_error_attr(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("risky", stage="x") as span:
                span.annotate(detail="boom")
                raise ValueError("boom")
        finished = tracer.finished[-1]
        assert finished.attrs["stage"] == "x"
        assert finished.attrs["detail"] == "boom"
        assert finished.attrs["error"] == "ValueError"

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with SpanTracer(JsonlSink(path)) as tracer:
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert [line["name"] for line in lines] == ["b", "a"]
        assert lines[0]["parent_id"] == lines[1]["span_id"]
        assert tracer.sink.written == 2

    def test_sink_accepts_plain_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = SpanTracer(str(path))
        with tracer.span("only"):
            pass
        tracer.close()
        assert path.exists()

    def test_ring_is_bounded(self):
        tracer = SpanTracer(max_kept=3)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.finished) == 3
        assert [span.name for span in tracer.finished] == ["s7", "s8", "s9"]


# ----------------------------------------------------------------------
# Estimate-explain
# ----------------------------------------------------------------------
class TestExplain:
    def test_enter_exit_depth(self):
        recorder = ExplainRecorder()
        frame = recorder.enter(explain_mod.KIND_EMBEDDING, "e")
        recorder.record(explain_mod.KIND_EXPAND, "child")
        recorder.exit(frame, 4.0)
        recorder.record(explain_mod.KIND_RESULT, "total", value=4.0)
        depths = [event.depth for event in recorder.events]
        assert depths == [0, 1, 0]
        assert recorder.embedding_total() == 4.0

    def test_rendering(self):
        recorder = ExplainRecorder()
        frame = recorder.enter(explain_mod.KIND_EMBEDDING, "root a#1")
        recorder.record(
            explain_mod.KIND_HISTOGRAM, "H[1->2]", "1 points", 2.0
        )
        recorder.exit(frame, 2.0)
        text = render_explanation(recorder)
        assert "embedding: root a#1" in text
        assert "\n  histogram: H[1->2] (1 points) = 2" in text

    def test_twig_explain_consistent_with_estimate(self):
        tree = figure1_document()
        sketch = XBuild(tree, budget_bytes=2048, seed=7).run().sketch
        query = parse_for_clause(
            "for a in author, p in a/paper, y in p/year"
        )
        registry = MetricsRegistry()
        recorder = ExplainRecorder()
        estimator = TwigEstimator(
            sketch, metrics=registry, explain=recorder
        )
        report = estimator.report(query)
        assert recorder.embedding_total() == pytest.approx(
            report.selectivity
        )
        assert recorder.by_kind(explain_mod.KIND_QUERY)
        assert recorder.by_kind(explain_mod.KIND_RESULT)
        assert registry.counter(
            "estimator_estimates_total", "estimates"
        ).value() >= 1
        lookups = registry.get("estimator_lookups_total")
        assert lookups is not None and lookups.series()

    def test_path_explain_records_steps(self):
        tree = figure1_document()
        sketch = XBuild(tree, budget_bytes=2048, seed=7).run().sketch
        recorder = ExplainRecorder()
        estimator = PathEstimator(sketch, explain=recorder)
        total = estimator.estimate(parse_path("//author/paper"))
        assert total > 0
        steps = recorder.by_kind(explain_mod.KIND_STEP)
        assert steps and all(event.value is not None for event in steps)


class _ReferenceTally(collections.Counter):
    """An estimator lookup tally that also adds each lookup, as it
    happens, to ``reference`` (the per-lookup count)."""

    def __init__(self, reference):
        super().__init__()
        self.reference = reference

    def __setitem__(self, kind, count):
        self.reference[kind] += count - self[kind]
        super().__setitem__(kind, count)


def _lookup_totals(registry):
    metric = registry.get("estimator_lookups_total")
    return {labels["kind"]: value for labels, value in metric.series()}


def _primary_chain(query):
    steps, node = [], query.root
    while node is not None:
        steps.extend(node.path.steps)
        node = node.children[0] if node.children else None
    return Path(tuple(steps))


class TestLookupCounts:
    """``estimator_lookups_total`` is added once per public call; after
    every call it equals a count taken at each lookup."""

    @pytest.fixture(scope="class")
    def inputs(self):
        tree = generate_imdb(800, seed=5)
        sketch = XBuild(tree, budget_bytes=3 * 1024, seed=5).run().sketch
        spec = WorkloadSpec(
            seed=3, value_predicates=True, branch_probability=0.5
        )
        queries = [
            entry.query
            for entry in WorkloadGenerator(tree, spec)
            .positive_workload(12).queries
        ]
        rng = random.Random(4)
        for candidate in generate_candidates(sketch, rng):
            try:
                refined = candidate.apply(sketch)
            except BuildError:
                continue
            return sketch, refined, queries
        pytest.fail("no applicable refinement")

    def test_totals_equal_a_per_lookup_count(self, inputs):
        sketch, refined, queries = inputs
        registry = MetricsRegistry()
        reference = collections.Counter()

        def tracked(estimator):
            estimator._tally = _ReferenceTally(reference)
            return estimator

        base = tracked(TwigEstimator(sketch, metrics=registry))
        base.keep_records()
        for query in queries:
            base.estimate(query)
            assert _lookup_totals(registry) == reference
            base.report(query)  # answered from the record
            assert _lookup_totals(registry) == reference
        derived = tracked(base.derive(refined))
        for query in queries:
            derived.report(query)
            assert _lookup_totals(registry) == reference
        path = PathEstimator(sketch, metrics=registry)
        tracked(path._twig)
        for query in queries:
            path.estimate(_primary_chain(query))
            assert _lookup_totals(registry) == reference
        assert {"memo", "uniform", "histogram", "value", "branch",
                "path_step"} <= set(reference)
        assert not base._tally and not derived._tally

    def test_each_lookup_is_one_explained_event(self, inputs):
        sketch, _, queries = inputs
        registry = MetricsRegistry()
        recorder = ExplainRecorder()
        estimator = TwigEstimator(sketch, metrics=registry, explain=recorder)
        path = PathEstimator(sketch, metrics=registry, explain=recorder)
        for query in queries:
            estimator.report(query)
            path.estimate(_primary_chain(query))
        explained = {
            kind: len(recorder.by_kind(
                explain_mod.KIND_STEP if kind == "path_step" else kind
            ))
            for kind in _lookup_totals(registry)
        }
        assert _lookup_totals(registry) == explained

    def test_a_failing_call_still_adds_its_lookups(self, inputs):
        sketch, _, queries = inputs
        registry = MetricsRegistry()
        reference = collections.Counter()
        estimator = TwigEstimator(sketch, metrics=registry)
        estimator._tally = _ReferenceTally(reference)
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("storage went away")
            return 0.5

        estimator._branch_chain = failing
        branching = [q for q in queries if any(
            step.branches for node in q.nodes() for step in node.path.steps
        )]
        with pytest.raises(RuntimeError):
            for query in branching:
                before = collections.Counter(reference)
                estimator.report(query)
        assert len(calls) == 3
        assert reference != before  # the failing call made lookups
        assert _lookup_totals(registry) == reference


# ----------------------------------------------------------------------
# Exporters and validators
# ----------------------------------------------------------------------
def _sample_snapshot():
    registry = MetricsRegistry()
    registry.counter("a_total", "a", ["x"]).inc(2, x='va"l\\ue')
    registry.gauge("g", "g").set(1.5)
    registry.histogram("h_seconds", "h", buckets=(0.1, 1.0)).observe(0.2)
    return registry.snapshot()


class TestExport:
    def test_prometheus_rendering(self):
        text = render_prometheus(_sample_snapshot())
        assert "# HELP a_total a" in text
        assert "# TYPE a_total counter" in text
        assert 'a_total{x="va\\"l\\\\ue"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_sum" in text
        assert "h_seconds_count 1" in text

    def test_registry_render_prometheus_matches_export(self):
        registry = MetricsRegistry()
        registry.gauge("g", "g").set(1)
        assert registry.render_prometheus() == render_prometheus(
            registry.snapshot()
        )

    def test_validate_rejects_corruption(self):
        snapshot = _sample_snapshot()
        assert validate_metrics_payload(snapshot) == []
        snapshot["metrics"][0]["type"] = "mystery"
        problems = validate_metrics_payload(snapshot)
        assert problems and any("mystery" in p for p in problems)
        assert validate_metrics_payload({"schema": "nope"})
        assert validate_metrics_payload([1, 2])

    def test_validate_serve_eval_payload(self):
        payload = {
            "schema": SERVE_EVAL_SCHEMA,
            "requests": [{
                "query": "q",
                "estimate": 1.0,
                "tier": "twig",
                "latency": 0.001,
                "warnings": [],
            }],
            "breakers": {"twig": "closed"},
            "metrics": _sample_snapshot(),
        }
        assert validate_serve_eval_payload(payload) == []
        assert validate_payload(payload) == []
        broken = dict(payload, breakers={"twig": "melted"})
        assert any(
            "melted" in problem
            for problem in validate_serve_eval_payload(broken)
        )
        assert validate_serve_eval_payload(dict(payload, requests=[]))

    def test_write_and_load_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        snapshot = _sample_snapshot()
        write_export(json.dumps(snapshot), str(path))
        assert load_payload(str(path)) == snapshot
        write_export(json.dumps(snapshot), "-")
        out = capsys.readouterr().out
        assert json.loads(out) == snapshot


# ----------------------------------------------------------------------
# Instrumentation hooks across the pipeline
# ----------------------------------------------------------------------
class TestPipelineInstrumentation:
    def test_xbuild_publishes_build_series(self):
        registry = MetricsRegistry()
        tracer = SpanTracer()
        tree = figure1_document()
        result = XBuild(
            tree, budget_bytes=2048, seed=7, metrics=registry, tracer=tracer
        ).run()
        assert result.steps
        rounds = registry.counter("build_rounds_total", "r").value()
        assert rounds >= len(result.steps)
        assert registry.counter(
            "build_oracle_calls_total", "o"
        ).value() > 0
        assert registry.get("build_round_seconds").snapshot_series()[
            "count"
        ] >= len(result.steps)
        names = {span.name for span in tracer.finished}
        assert {"xbuild.build", "xbuild.round", "xbuild.candidate"} <= names

    def test_service_publishes_serve_series(self):
        registry = MetricsRegistry()
        tree = generate_imdb(600, seed=3)
        sketch = XBuild(tree, budget_bytes=2048, seed=3).run().sketch
        service = EstimatorService(metrics=registry)
        service.register("s", sketch)
        query = parse_for_clause("for m in movie, a in m/actor")
        response = service.estimate("s", query)
        assert math.isfinite(response.estimate)
        requests = registry.get("serve_requests_total")
        assert sum(value for _, value in requests.series()) == 1
        latency = registry.get("serve_request_seconds")
        assert latency is not None and latency.series()
        states = {
            (labels["tier"], labels["state"]): value
            for labels, value in registry.get(
                "serve_breaker_state"
            ).series()
        }
        assert states[("twig", "closed")] == 1.0

    def test_parser_counts_documents(self):
        registry = MetricsRegistry()
        parse_string("<a><b>1</b></a>", metrics=registry)
        outcomes = registry.get("doc_parse_total")
        assert outcomes.value(mode="strict", outcome="ok") == 1
        assert registry.get("doc_parse_elements_total").value() == 2
        assert (
            registry.get("doc_parse_bytes_total").value(mode="strict") > 0
        )
