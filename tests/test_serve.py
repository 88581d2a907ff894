"""Tests for the robust estimation service (repro.serve)."""

import gc
import json
import math
import sys
import threading
import weakref

import pytest

from repro.baselines import CorrelatedSuffixTree
from repro.build import xbuild
from repro.datasets import generate_imdb
from repro.errors import ServiceError, SynopsisError, SynopsisIntegrityError
from repro.estimation import TwigEstimator
from repro.histogram import ops
from repro.obs import ExplainRecorder, MetricsRegistry
from repro.obs.metrics import Gauge
from repro.query import (
    Path,
    Step,
    ValuePredicate,
    parse_for_clause,
    parse_path,
    twig,
)
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    EstimatorService,
    TIER_CST,
    TIER_PATH,
    TIER_TWIG,
    TIER_UNIFORM,
)
from repro.serve import service as service_module
from repro.serve.service import _primary_chain
from repro.synopsis import (
    TwigXSketch,
    XSketchConfig,
    load_sketch,
    save_sketch,
    sketch_to_dict,
)
from repro.workload import WorkloadGenerator, WorkloadSpec


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture(scope="module")
def tree():
    return generate_imdb(2000, seed=2)


@pytest.fixture(scope="module")
def sketch(tree):
    return xbuild(tree, budget_bytes=3 * 1024, seed=3)


@pytest.fixture(scope="module")
def baseline(tree):
    return CorrelatedSuffixTree.build(tree, 8 * 1024)


@pytest.fixture()
def query():
    return parse_for_clause("for m in movie, a in m/actor")


class _ExplodingGraph:
    """A poisoned graph: every read access fails like corrupt storage."""

    def __getattr__(self, name):
        raise SynopsisError("synopsis storage is corrupt")


def _poisoned(sketch):
    """A sketch whose graph reads explode (twig and path tiers fail)."""
    poisoned = sketch.copy()
    poisoned.graph = _ExplodingGraph()
    return poisoned


def _corrupt_file(sketch, tmp_path):
    """A schema-valid legacy (v1) file whose counts were mangled."""
    path = tmp_path / "corrupt.json"
    payload = sketch_to_dict(sketch)
    payload["version"] = 1
    del payload["digest"]
    for node in payload["nodes"]:
        node["count"] = -node["count"]
    path.write_text(json.dumps(payload), encoding="utf8")
    return path


class TestRegistry:
    def test_register_and_names(self, sketch):
        service = EstimatorService()
        service.register("a", sketch)
        service.register("b", sketch)
        assert service.names() == ["a", "b"]
        assert service.sketch("a") is sketch

    def test_register_validates_by_default(self, sketch):
        service = EstimatorService()
        with pytest.raises(SynopsisIntegrityError):
            service.register("bad", _poisoned(sketch))

    def test_register_validate_opt_out(self, sketch):
        service = EstimatorService()
        service.register("bad", _poisoned(sketch), validate=False)
        assert service.names() == ["bad"]

    def test_duplicate_name_rejected(self, sketch):
        service = EstimatorService()
        service.register("a", sketch)
        with pytest.raises(ServiceError):
            service.register("a", sketch)
        service.register("a", sketch, replace=True)

    def test_exactly_one_source(self, sketch):
        service = EstimatorService()
        with pytest.raises(ServiceError):
            service.register("a")
        with pytest.raises(ServiceError):
            service.register("a", sketch, path="also.json")

    def test_register_from_file(self, sketch, tmp_path):
        path = tmp_path / "sketch.json"
        save_sketch(sketch, path)
        service = EstimatorService()
        service.register("file", path=path)
        assert service.names() == ["file"]

    def test_register_corrupt_file_rejected(self, sketch, tmp_path):
        service = EstimatorService()
        with pytest.raises(SynopsisIntegrityError):
            service.register("bad", path=_corrupt_file(sketch, tmp_path))

    def test_unknown_name(self, query):
        with pytest.raises(ServiceError):
            EstimatorService().estimate("nope", query)

    def test_unregister(self, sketch):
        service = EstimatorService()
        service.register("a", sketch)
        service.unregister("a")
        assert service.names() == []
        with pytest.raises(ServiceError):
            service.unregister("a")

    def test_unregister_drops_breaker_gauges(self, sketch, query):
        registry = MetricsRegistry()
        service = EstimatorService(failure_threshold=1, metrics=registry)
        service.register("kept", sketch)
        service.register("gone", sketch)
        service.unregister("gone")
        assert {key[0] for key in _breaker_gauges(registry)} == {"kept"}
        # a response that finishes after the unregister exports nothing,
        # though both of its tiers failed and opened their circuits
        gated = sketch.copy()
        gated.graph = _GatedGraph()
        service.register("gone", gated, validate=False)
        assert len(_breaker_gauges(registry)) == 6
        responses = []
        worker = threading.Thread(
            target=lambda: responses.append(service.estimate("gone", query))
        )
        worker.start()
        assert gated.graph.entered.wait(30)
        service.unregister("gone")
        gated.graph.release.set()
        worker.join(30)
        assert not worker.is_alive()
        assert responses[0].source == TIER_UNIFORM
        assert {key[0] for key in _breaker_gauges(registry)} == {"kept"}
        _live_states(service, "kept")

    def test_replace_keeps_one_state_per_tier(self, sketch, query):
        service = EstimatorService(
            failure_threshold=1, metrics=MetricsRegistry()
        )
        service.register("a", _poisoned(sketch), validate=False)
        service.estimate("a", query)
        assert service.breaker_states("a")[TIER_TWIG] == OPEN
        service.register("a", sketch, replace=True)
        assert _live_states(service, "a")[TIER_TWIG] == CLOSED


class TestHappyPath:
    def test_twig_tier_answers(self, sketch, query):
        service = EstimatorService()
        service.register("imdb", sketch)
        response = service.estimate("imdb", query)
        assert response.source == TIER_TWIG
        assert not response.degraded
        assert response.warnings == ()
        assert response.sketch == "imdb"
        assert response.latency >= 0
        assert math.isfinite(response.estimate) and response.estimate >= 0

    def test_envelope_is_frozen(self, sketch, query):
        service = EstimatorService()
        service.register("imdb", sketch)
        response = service.estimate("imdb", query)
        with pytest.raises(AttributeError):
            response.estimate = 0.0


class TestDegradation:
    def test_corrupt_file_falls_back_finite(self, sketch, baseline, query, tmp_path):
        """The acceptance scenario: a corrupted sketch file still yields a
        finite, non-negative estimate from a named fallback tier."""
        bad = load_sketch(_corrupt_file(sketch, tmp_path))  # fast mode
        service = EstimatorService()
        service.register("bad", bad, baseline=baseline, validate=False)
        response = service.estimate("bad", query)
        assert response.source != TIER_TWIG
        assert response.source in (TIER_PATH, TIER_CST, TIER_UNIFORM)
        assert math.isfinite(response.estimate)
        assert response.estimate >= 0
        assert response.warnings  # every degradation step is recorded

    def test_cst_tier_survives_poisoned_sketch(self, sketch, baseline):
        service = EstimatorService()
        service.register(
            "bad", _poisoned(sketch), baseline=baseline, validate=False
        )
        query = twig(parse_path("movie/actor"))
        response = service.estimate("bad", query)
        assert response.source == TIER_CST
        assert math.isfinite(response.estimate) and response.estimate >= 0
        failed = [w for w in response.warnings if "failed" in w]
        assert len(failed) == 2  # twig and path both degraded

    def test_uniform_prior_is_terminal(self, sketch, query):
        service = EstimatorService(uniform_prior=7.5)
        service.register("bad", _poisoned(sketch), validate=False)
        response = service.estimate("bad", query)
        assert response.source == TIER_UNIFORM
        assert response.estimate == 7.5
        assert any("unavailable" in w for w in response.warnings)
        assert any("uniform prior" in w for w in response.warnings)

    def test_never_raises_never_nan(self, sketch, baseline, query, tmp_path):
        bad = load_sketch(_corrupt_file(sketch, tmp_path))
        service = EstimatorService()
        service.register("bad", bad, baseline=baseline, validate=False)
        for _ in range(10):
            response = service.estimate("bad", query)
            assert math.isfinite(response.estimate)
            assert response.estimate >= 0


class TestDeadlines:
    def test_exhausted_deadline_serves_prior(self, sketch, query):
        clock = FakeClock()
        service = EstimatorService(clock=clock)
        service.register("imdb", sketch)
        original = clock.__call__
        # Every clock read advances 10s: the budget expires before the
        # first tier is consulted.
        def slow_clock():
            clock.advance(10.0)
            return clock.now
        service._clock = slow_clock
        response = service.estimate("imdb", query, deadline=5.0)
        assert response.source == TIER_UNIFORM
        assert any("deadline" in w for w in response.warnings)
        service._clock = original

    def test_invalid_deadline(self, sketch, query):
        service = EstimatorService()
        service.register("imdb", sketch)
        with pytest.raises(ServiceError):
            service.estimate("imdb", query, deadline=0.0)


class TestCircuitBreaker:
    def test_trips_after_threshold(self, sketch, query):
        clock = FakeClock()
        service = EstimatorService(
            failure_threshold=2, cooldown=30.0, clock=clock
        )
        service.register("bad", _poisoned(sketch), validate=False)
        for _ in range(2):
            response = service.estimate("bad", query)
            assert any("twig tier failed" in w for w in response.warnings)
        assert service.breaker_states("bad")[TIER_TWIG] == OPEN
        response = service.estimate("bad", query)
        assert any("circuit open" in w for w in response.warnings)

    def test_half_open_probe_and_recovery(self, sketch, query):
        clock = FakeClock()
        breaker = CircuitBreaker(2, 30.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(31.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # only one probe at a time
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_single_probe_under_concurrency(self):
        """Exactly one of N simultaneous callers wins the half-open probe."""
        clock = FakeClock()
        breaker = CircuitBreaker(1, 30.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(31.0)
        assert breaker.state == HALF_OPEN
        callers = 16
        barrier = threading.Barrier(callers)
        admitted = []

        def caller():
            barrier.wait()
            admitted.append(breaker.allow())

        threads = [threading.Thread(target=caller) for _ in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert admitted.count(True) == 1
        # Probe failure re-opens for everyone; probe success closes.
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(31.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert all(breaker.allow() for _ in range(3))

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, 30.0, clock=clock)
        breaker.record_failure()
        clock.advance(31.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_breaker_rejects_bad_config(self):
        with pytest.raises(ServiceError):
            CircuitBreaker(0)
        with pytest.raises(ServiceError):
            CircuitBreaker(5, cooldown=0)


def _in_threads(count, target):
    """Run ``target(index)`` on ``count`` threads and wait for them."""
    threads = [
        threading.Thread(target=target, args=(index,))
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


def _breaker_gauges(registry):
    """(sketch, tier) -> {state: value} from the registry's gauges."""
    gauges = {}
    for labels, value in registry.get("serve_breaker_state").series():
        key = (labels["sketch"], labels["tier"])
        gauges.setdefault(key, {})[labels["state"]] = value
    return gauges


def _live_states(service, name):
    """The breaker states ``name``'s gauges show, checked against
    ``breaker_states()`` (read after the gauges, since it re-exports)."""
    gauges = {
        tier: states
        for (sketch, tier), states in _breaker_gauges(service.metrics).items()
        if sketch == name
    }
    states = service.breaker_states(name)
    assert set(gauges) == set(states)
    for tier, values in gauges.items():
        assert sorted(values.values()) == [0.0, 0.0, 1.0], (tier, values)
        assert values[states[tier]] == 1.0, (tier, values, states)
    return states


class _GatedGraph:
    """A graph whose first read blocks until released, then every read
    fails like corrupt storage."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        self.entered.set()
        self.release.wait(30)
        raise SynopsisError("synopsis storage is corrupt")


class TestBreakerGauges:
    """``serve_breaker_state`` shows one state at 1 per (sketch, tier)
    after every response, and is written only when a state changes."""

    @pytest.fixture()
    def sets(self, monkeypatch):
        calls = []
        original = Gauge.set

        def counting(gauge, value, **labels):
            calls.append(labels)
            original(gauge, value, **labels)

        monkeypatch.setattr(Gauge, "set", counting)
        return calls

    def test_gauges_follow_each_transition(self, sketch, sets):
        clock = FakeClock()
        service = EstimatorService(
            failure_threshold=2, cooldown=30.0, clock=clock,
            metrics=MetricsRegistry(),
        )
        flaky = sketch.copy()
        service.register("flaky", flaky, validate=False)
        service.register("good", sketch)
        first = parse_for_clause("for m in movie, a in m/actor")
        second = parse_for_clause("for m in movie, t in m/title")
        closed = {TIER_TWIG: CLOSED, TIER_PATH: CLOSED, TIER_CST: CLOSED}
        # (sketch, query, storage works, advance, twig, path, tiers written)
        steps = [
            ("flaky", first, False, 0, CLOSED, CLOSED, 0),  # 1 failure each
            ("flaky", first, False, 0, OPEN, OPEN, 2),      # the threshold
            ("good", first, True, 0, None, None, 0),        # other sketch
            ("flaky", first, False, 0, OPEN, OPEN, 0),      # circuit skips
            ("flaky", first, True, 31, CLOSED, HALF_OPEN, 2),  # good probe
            ("flaky", first, False, 0, CLOSED, HALF_OPEN, 0),  # cached answer
            ("flaky", second, False, 0, CLOSED, OPEN, 1),   # path probe fails
            ("flaky", second, False, 0, OPEN, OPEN, 1),     # twig threshold
            ("flaky", first, False, 31, CLOSED, HALF_OPEN, 2),  # cached probe
        ]
        for name, query, works, advance, twig, path, written in steps:
            clock.advance(advance)
            flaky.graph = sketch.graph if works else _ExplodingGraph()
            del sets[:]
            response = service.estimate(name, query)
            assert len(sets) == 3 * written, (name, twig, path, sets)
            states = _live_states(service, name)
            if name == "flaky":
                assert states == {**closed, TIER_TWIG: twig, TIER_PATH: path}
            else:
                assert states == closed and response.source == TIER_TWIG

    def test_cached_answer_writes_no_gauge(self, sketch, query, sets):
        service = EstimatorService(metrics=MetricsRegistry())
        service.register("imdb", sketch)
        service.estimate("imdb", query)
        del sets[:]
        for _ in range(3):
            service.estimate("imdb", query)
        service.submit_batch("imdb", [query] * 4)
        assert sets == []
        # polling re-exports every series unconditionally
        service.breaker_states("imdb")
        assert len(sets) == 9

    def test_pool_threads_leave_the_latest_states(self, sketch):
        """Under responses from several threads with states changing, the
        gauges end at the states after the last response."""
        clock = FakeClock()
        service = EstimatorService(
            failure_threshold=2, cooldown=2.0, clock=clock,
            metrics=MetricsRegistry(),
        )
        service.register("bad", _poisoned(sketch), validate=False)
        query = parse_for_clause("for m in movie, a in m/actor")
        responses = []

        def serve(_index):
            for _ in range(10):
                responses.append(service.estimate("bad", query))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = _in_threads(4, serve)
            for _ in range(40):
                clock.advance(1.0)  # circuits turn half-open, reopen
                service.estimate("bad", query)
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert len(responses) == 40
        assert all(r.source == TIER_UNIFORM for r in responses)
        entry = service._entry("bad")
        expected = {tier: b.state for tier, b in entry.breakers.items()}
        gauges = _breaker_gauges(service.metrics)
        for tier, state in expected.items():
            assert gauges[("bad", tier)][state] == 1.0


class TestConcurrency:
    def test_parallel_estimates_stay_finite(self, sketch, baseline, query):
        service = EstimatorService()
        service.register("imdb", sketch, baseline=baseline)
        results = []
        errors = []

        def worker(index):
            try:
                name = f"extra-{index}"
                service.register(name, sketch, replace=True)
                for _ in range(5):
                    response = service.estimate("imdb", query)
                    results.append(response.estimate)
                service.unregister(name)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 40
        assert all(math.isfinite(value) for value in results)
        assert len(set(results)) == 1  # read-only sketch: one answer


class TestAnswerCache:
    """Repeated queries are answered from the per-sketch answer cache,
    and every served twig answer equals a fresh estimator's."""

    @pytest.fixture(scope="class")
    def queries(self, tree):
        spec = WorkloadSpec(seed=7, value_predicates=True)
        load = WorkloadGenerator(tree, spec).positive_workload(12)
        return [entry.query for entry in load.queries]

    @staticmethod
    def fresh(sketch, service, queries):
        return [
            TwigEstimator(
                sketch, max_embeddings=service.max_embeddings
            ).estimate(query)
            for query in queries
        ]

    def test_every_path_answers_as_a_fresh_estimator(
        self, sketch, queries
    ):
        service = EstimatorService()
        service.register("imdb", sketch)
        expected = self.fresh(sketch, service, queries)

        def answers(responses):
            assert all(r.source == TIER_TWIG for r in responses)
            return [r.estimate for r in responses]

        cold = answers([service.estimate("imdb", q) for q in queries])
        assert len(service._entry("imdb").answers) == len(
            {q.text() for q in queries}
        )
        repeated = answers([service.estimate("imdb", q) for q in queries])
        batched = answers(service.submit_batch("imdb", queries + queries))
        work = queries * 4
        served = [None] * len(work)

        def serve(offset):
            for index in range(offset, len(work), 8):
                served[index] = service.estimate("imdb", work[index])

        for thread in _in_threads(8, serve):
            thread.join(30)
        threaded = answers(served)
        assert cold == expected
        assert repeated == expected
        assert batched == expected + expected
        assert threaded == expected * 4

    def test_a_bound_type_is_a_different_query(self, tree):
        """``movie/year{=1990}`` with an int and with a string bound are
        two queries: a cached answer for one never answers the other,
        through ``estimate`` or ``submit_batch``."""
        sketch = TwigXSketch.coarsest(tree)
        pair = [
            twig(Path((
                Step("movie"),
                Step("year", value_pred=ValuePredicate("=", bound)),
            )))
            for bound in (1990, "1990")
        ]
        service = EstimatorService()
        expected = self.fresh(sketch, service, pair)
        assert expected[0] > 0 == expected[1]
        service.register("imdb", sketch)
        for _ in range(2):
            assert [
                service.estimate("imdb", query).estimate for query in pair
            ] == expected
        batch = EstimatorService()
        batch.register("imdb", sketch)
        for _ in range(2):
            assert [
                response.estimate
                for response in batch.submit_batch("imdb", pair[::-1] + pair)
            ] == expected[::-1] + expected

    def test_replaced_sketch_starts_an_empty_cache(self, tree, sketch,
                                                   queries):
        other = TwigXSketch.coarsest(tree)
        service = EstimatorService()
        service.register("imdb", sketch)
        before = [service.estimate("imdb", q).estimate for q in queries]
        service.register("imdb", other, replace=True)
        assert not service._entry("imdb").answers
        after = [service.estimate("imdb", q).estimate for q in queries]
        assert after == self.fresh(other, service, queries)
        assert after != before

    def test_poisoned_sketch_caches_nothing(self, sketch, query, tmp_path):
        """Neither a raising twig tier nor an unusable (negative) twig
        estimate reaches the cache, and failures still trip the breaker."""
        service = EstimatorService(failure_threshold=2)
        service.register("bad", _poisoned(sketch), validate=False)
        corrupt = load_sketch(_corrupt_file(sketch, tmp_path))
        service.register("corrupt", corrupt, validate=False)
        for name in ("bad", "corrupt"):
            for _ in range(3):
                assert service.estimate(name, query).source != TIER_TWIG
            assert not service._entry(name).answers
            assert service.breaker_states(name)[TIER_TWIG] == OPEN

    def test_cache_never_exceeds_its_cap(self, sketch, queries,
                                         monkeypatch):
        monkeypatch.setattr(service_module, "ANSWER_CACHE_SIZE", 3)
        service = EstimatorService()
        service.register("imdb", sketch)
        cache = service._entry("imdb").answers
        distinct = list({q.key: q for q in queries}.values())
        first, second, third, fourth = distinct[:4]
        for query in (first, second, third, first, fourth):
            service.estimate("imdb", query)
        # the hit on ``first`` made ``second`` the least recently used
        assert list(cache) == [q.key for q in (third, first, fourth)]
        for query in queries + queries[:5]:
            service.estimate("imdb", query)
            assert len(cache) <= 3
        answers = [service.estimate("imdb", q).estimate for q in queries]
        assert answers == self.fresh(sketch, service, queries)

    def test_explain_bypasses_the_cache(self, sketch, query):
        cold = ExplainRecorder()
        fresh_service = EstimatorService()
        fresh_service.register("imdb", sketch)
        expected = fresh_service.estimate("imdb", query, explain=cold)
        service = EstimatorService()
        service.register("imdb", sketch)
        service.estimate("imdb", query)
        warm = ExplainRecorder()
        response = service.estimate("imdb", query, explain=warm)
        assert response.estimate == expected.estimate
        assert warm.events == cold.events
        assert len(warm.events) > 2


class TestSharedFacts:
    """Every twig estimate on one registered sketch reads and fills the
    entry's SketchFacts, and answers exactly as a fresh estimator."""

    @pytest.fixture(scope="class")
    def queries(self, tree):
        spec = WorkloadSpec(seed=11, value_predicates=True)
        load = WorkloadGenerator(tree, spec).positive_workload(16)
        return list({e.query.text(): e.query for e in load.queries}.values())

    @pytest.fixture(scope="class")
    def sketches(self, tree, sketch):
        return {
            "built": sketch,
            "coarsest": TwigXSketch.coarsest(tree),
            "full": TwigXSketch.coarsest(
                tree, XSketchConfig(include_backward=True)
            ),
        }

    @staticmethod
    def fresh(sketch, queries, metrics=None):
        return [
            TwigEstimator(sketch, metrics=metrics).estimate(query)
            for query in queries
        ]

    def test_interleaved_sketches_answer_as_fresh_estimators(
        self, sketches, queries, monkeypatch
    ):
        expected = {
            name: self.fresh(sketch, queries)
            for name, sketch in sketches.items()
        }
        service = EstimatorService()
        for name, sketch in sketches.items():
            service.register(name, sketch)
        marginalized = []
        original = ops.marginalize
        monkeypatch.setattr(
            ops,
            "marginalize",
            lambda *args: marginalized.append(1) or original(*args),
        )
        answers = {name: [] for name in sketches}
        for query in queries:
            for name in sketches:
                response = service.estimate(name, query)
                assert response.source == TIER_TWIG
                answers[name].append(response.estimate)
        assert answers == expected
        facts = [service._entry(name).facts for name in sketches]
        assert len({id(f) for f in facts}) == 3
        assert all(f.averages for f in facts)
        # a (histogram, kept dims) is marginalized at most once per
        # sketch, where per-query estimators repeat the work
        shared = len(marginalized)
        marginalized.clear()
        for name, sketch in sketches.items():
            self.fresh(sketch, queries)
        assert shared <= sum(len(f.marginals) for f in facts)
        assert shared < len(marginalized)

    def test_replaced_sketch_never_reads_the_old_facts(
        self, tree, sketches, queries
    ):
        service = EstimatorService()
        service.register("s", sketches["built"])
        for query in queries:
            service.estimate("s", query)
        old = service._entry("s").facts
        assert old.averages
        service.register("s", sketches["full"], replace=True)
        assert service._entry("s").facts is not old

        class Poisoned(dict):
            def get(self, *args):
                raise AssertionError("read the replaced sketch's facts")

        for name in ("labels", "averages", "positives", "marginals"):
            setattr(old, name, Poisoned())
        responses = [service.estimate("s", query) for query in queries]
        assert all(r.source == TIER_TWIG for r in responses)
        assert [r.estimate for r in responses] == self.fresh(
            sketches["full"], queries
        )

    def test_unregister_drops_the_facts(self, sketches, queries):
        service = EstimatorService()
        service.register("s", sketches["built"])
        for query in queries:
            service.estimate("s", query)
        facts = weakref.ref(service._entry("s").facts)
        assert facts() is not None
        service.unregister("s")
        gc.collect()
        assert facts() is None

    def test_threads_answer_as_fresh_estimators(self, sketches, queries):
        """Four threads (more than the reference host's cores) fill one
        holder at a short switch interval; every answer is a fresh
        estimator's."""
        sketch = sketches["built"]
        expected = dict(zip((q.text() for q in queries),
                            self.fresh(sketch, queries)))
        service = EstimatorService()
        service.register("s", sketch)
        answers = {}
        errors = []

        def worker(share):
            try:
                for query in share:
                    answers[query.text()] = service.estimate(
                        "s", query
                    ).estimate
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(queries[i::4],))
            for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert answers == expected

    def test_lookup_counts_match_per_request_estimators(
        self, sketches, queries
    ):
        sketch = sketches["built"]
        served = MetricsRegistry()
        service = EstimatorService(metrics=served)
        service.register("s", sketch)
        for query in queries:
            service.estimate("s", query)
        alone = MetricsRegistry()
        self.fresh(sketch, queries, metrics=alone)

        def lookups(registry):
            counter = registry.get("estimator_lookups_total")
            return sorted(
                (labels["kind"], value) for labels, value in counter.series()
            )

        assert lookups(served) == lookups(alone)
        assert len(lookups(alone)) >= 3


class TestPrimaryChain:
    def test_branching_query_collapses(self):
        query = parse_for_clause(
            "for m in movie, a in m/actor, k in m/keyword"
        )
        chain, collapsed = _primary_chain(query)
        assert [s.tag for s in chain.steps] == ["movie", "actor"]
        assert collapsed

    def test_pure_path_not_collapsed(self):
        query = twig(parse_path("movie/actor/name"))
        chain, collapsed = _primary_chain(query)
        assert [s.tag for s in chain.steps] == ["movie", "actor", "name"]
        assert not collapsed

    def test_bad_uniform_prior_rejected(self):
        with pytest.raises(ServiceError):
            EstimatorService(uniform_prior=float("nan"))
        with pytest.raises(ServiceError):
            EstimatorService(uniform_prior=-1.0)
