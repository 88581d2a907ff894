"""Tests for candidate sampling, oracles, and the XBUILD loop."""

import random
from collections import Counter

import pytest

from repro.build import (
    ExactOracle,
    XBuild,
    build_reference_sketch,
    generate_candidates,
    xbuild,
)
from repro.build import sampling
from repro.build.sampling import RegionSampler
from repro.datasets import generate_imdb, generate_xmark
from repro.estimation import TwigEstimator
from repro.obs import MetricsRegistry
from repro.query import Path, Step, ValuePredicate, count_bindings, twig
from repro.synopsis import TwigXSketch, XSketchConfig
from repro.synopsis.validate import (
    error_violations,
    raise_on_violations,
    validate_sketch,
)
from repro.workload import (
    WorkloadGenerator,
    WorkloadSpec,
    average_relative_error,
)


def year_query(bound):
    return twig(Path((
        Step("movie"), Step("year", value_pred=ValuePredicate("=", bound)),
    )))


@pytest.fixture(scope="module")
def imdb():
    return generate_imdb(5000, seed=2)


@pytest.fixture(scope="module")
def coarse(imdb):
    return TwigXSketch.coarsest(imdb)


class TestCandidates:
    def test_candidates_generated(self, coarse):
        candidates = generate_candidates(coarse, random.Random(1))
        assert candidates
        kinds = {type(c).__name__ for c in candidates}
        assert kinds & {"BStabilize", "FStabilize", "EdgeRefine", "EdgeExpand",
                        "ValueRefine"}

    def test_candidates_deduplicated(self, coarse):
        candidates = generate_candidates(coarse, random.Random(2))
        assert len(candidates) == len(set(candidates))

    def test_max_candidates_respected(self, coarse, monkeypatch):
        monkeypatch.setattr(sampling, "DEFAULT_MAX_CANDIDATES", 4)
        candidates = generate_candidates(coarse, random.Random(3))
        assert len(candidates) == 4

    def test_all_candidates_applicable(self, coarse):
        for candidate in generate_candidates(coarse, random.Random(4)):
            refined = candidate.apply(coarse)
            raise_on_violations(validate_sketch(refined))

    def test_backward_expansion_gated_by_config(self, imdb):
        forward_only = TwigXSketch.coarsest(imdb, XSketchConfig())
        full = TwigXSketch.coarsest(
            imdb, XSketchConfig(include_backward=True)
        )

        def backward_expansions(sketch):
            rng = random.Random(5)
            out = []
            for _ in range(10):
                for candidate in generate_candidates(sketch, rng):
                    if type(candidate).__name__ == "EdgeExpand":
                        if candidate.new_ref.source != candidate.node_id:
                            out.append(candidate)
            return out

        assert not backward_expansions(forward_only)
        assert backward_expansions(full)


class TestRegionSampler:
    def test_samples_touch_region(self, imdb, coarse):
        sampler = RegionSampler(imdb, random.Random(6))
        movie = coarse.graph.nodes_with_tag("movie")[0].node_id
        queries = sampler.sample_for_regions(coarse, {movie}, queries=8)
        assert queries
        for query in queries:
            assert count_bindings(query, imdb) > 0

    def test_empty_region_is_empty(self, imdb, coarse):
        sampler = RegionSampler(imdb, random.Random(7))
        assert sampler.sample_for_regions(coarse, {99_999}, queries=4) == []


class TestOracles:
    def test_exact_oracle_counts(self, imdb):
        oracle = ExactOracle(imdb)
        generator = WorkloadGenerator(imdb, WorkloadSpec(seed=8))
        workload = generator.positive_workload(5)
        for entry in workload.queries:
            assert oracle.true_count(entry.query) == entry.true_count

    @pytest.fixture(scope="class")
    def counted_build(self, imdb, coarse):
        """A small build whose oracle records every query it is asked."""

        class CountingOracle(ExactOracle):
            def __init__(self, tree):
                super().__init__(tree)
                self.asked = Counter()

            def true_count(self, query):
                self.asked[query.key] += 1
                return super().true_count(query)

        oracle = CountingOracle(imdb)
        registry = MetricsRegistry()
        XBuild(
            imdb, coarse.size_bytes() + 1500, seed=9, sample_queries=6,
            oracle=oracle, metrics=registry,
        ).run()
        return oracle, registry

    def test_build_asks_its_oracle_once_per_query(self, counted_build):
        """XBUILD's truth cache is the only one: a re-sampled query is a
        cache hit, never a second oracle call."""
        oracle, registry = counted_build
        cache = registry.get("build_oracle_cache_total")
        assert cache.value(outcome="miss") == sum(oracle.asked.values())
        assert max(oracle.asked.values()) == 1

    def test_a_bound_type_gets_its_own_truth(self, imdb, coarse):
        """``movie/year{=1990}`` with an int and with a string bound are
        two queries: each gets its own truth, asked of the oracle once."""

        class CountingOracle(ExactOracle):
            def __init__(self, tree):
                super().__init__(tree)
                self.asked = []

            def true_count(self, query):
                self.asked.append(query)
                return super().true_count(query)

        oracle = CountingOracle(imdb)
        build = XBuild(imdb, coarse.size_bytes() + 1500, seed=9,
                       oracle=oracle, metrics=MetricsRegistry())
        pair = [year_query(1990), year_query("1990")]
        truths = build._truths(pair + pair)
        expected = [count_bindings(query, imdb) for query in pair]
        assert expected[0] > 0 and expected[1] == 0
        assert truths == expected + expected
        assert oracle.asked == pair

    def test_oracle_cache_hits_recorded(self, counted_build):
        _, registry = counted_build
        cache = registry.get("build_oracle_cache_total")
        assert cache.value(outcome="hit") > 0
        assert cache.value(outcome="miss") > 0
        # oracle evaluations == cache misses (each miss evaluates once)
        assert registry.get("build_oracle_calls_total").value() == (
            cache.value(outcome="miss")
        )

    def test_sketch_oracle_better_than_coarsest(self, imdb, coarse):
        """The reference summary approximates truths with much lower error
        than the coarsest synopsis (branch-correlated twigs remain its
        weak spot)."""
        reference = TwigEstimator(build_reference_sketch(imdb))
        generator = WorkloadGenerator(imdb, WorkloadSpec(seed=10))
        workload = generator.positive_workload(25)
        truths = workload.true_counts()
        reference_estimates = [
            reference.estimate(e.query) for e in workload.queries
        ]
        coarse_estimator = TwigEstimator(coarse)
        coarse_estimates = [
            coarse_estimator.estimate(e.query) for e in workload.queries
        ]
        reference_error = average_relative_error(reference_estimates, truths)
        coarse_error = average_relative_error(coarse_estimates, truths)
        assert reference_error < coarse_error

    def test_reference_sketch_has_joint_histograms(self, imdb):
        reference = build_reference_sketch(imdb)
        widths = [
            histogram.dimensions
            for histograms in reference.edge_stats.values()
            for histogram in histograms
        ]
        assert max(widths) >= 2


class TestXBuildLoop:
    def test_reaches_budget(self, imdb, coarse):
        budget = coarse.size_bytes() + 2000
        result = XBuild(imdb, budget, seed=11, sample_queries=6).run()
        assert result.sketch.size_bytes() >= budget * 0.8
        assert result.steps
        raise_on_violations(validate_sketch(result.sketch))

    def test_sizes_monotonically_increase(self, imdb, coarse):
        result = XBuild(
            imdb, coarse.size_bytes() + 1500, seed=12, sample_queries=6
        ).run()
        sizes = [step.size_bytes for step in result.steps]
        assert sizes == sorted(sizes)

    def test_error_improves_on_correlated_data(self, imdb, coarse):
        workload = WorkloadGenerator(imdb, WorkloadSpec(seed=13)).positive_workload(
            40
        )
        truths = workload.true_counts()

        def error_of(sketch):
            estimator = TwigEstimator(sketch)
            return average_relative_error(
                [estimator.estimate(e.query) for e in workload.queries], truths
            )

        built = xbuild(
            imdb, coarse.size_bytes() + 3000, seed=14, sample_queries=8
        )
        assert error_of(built) < error_of(coarse)

    def test_on_step_callback(self, imdb, coarse):
        seen = []
        XBuild(
            imdb,
            coarse.size_bytes() + 800,
            seed=15,
            sample_queries=5,
            on_step=lambda sketch: seen.append(sketch.size_bytes()),
        ).run()
        assert seen
        assert seen == sorted(seen)


class TestIncrementalBuildState:
    def test_recursive_tags_build_completes(self):
        """xmark nests ``parlist``/``listitem`` in themselves: splitting such
        a node must not leave its old ``old -> old`` self-loop behind (the
        stale edge once surfaced as a stabilize candidate naming a dead
        node, and the build raised)."""
        tree = generate_xmark(4000, seed=5)
        budget = TwigXSketch.coarsest(tree).size_bytes() + 4000
        result = XBuild(
            tree, budget, seed=7, sample_value_probability=0.3
        ).run()
        assert not result.truncated
        assert result.sketch.size_bytes() >= budget
        assert error_violations(validate_sketch(result.sketch)) == []

    def test_split_memo_matches_fresh_proposals(
        self, imdb, coarse, monkeypatch
    ):
        builder = XBuild(
            imdb,
            coarse.size_bytes() + 1500,
            seed=21,
            sample_value_probability=0.3,
        )
        sketch = builder.run().sketch
        assert builder._value_memo
        monkeypatch.setattr(sampling, "DEFAULT_MAX_CANDIDATES", 10_000)
        memoized = generate_candidates(
            sketch, random.Random(5), builder._value_memo
        )
        fresh = generate_candidates(sketch, random.Random(5))
        assert memoized == fresh
