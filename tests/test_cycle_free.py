"""The estimate path and XBUILD leave no cyclic garbage.

Each test pauses automatic collection, runs one hot path and asserts
that a full collection then finds nothing: every object the path made
and dropped was freed by reference counting the moment it died.  A
nested function that calls itself or a sibling (a reference cycle per
call, see the ``recursive-closure`` rule in ``tests/test_contracts.py``)
or a parent link back up a tree fails here.
"""

import gc
import random
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.build.refinements import FStabilize
from repro.build.sampling import generate_candidates
from repro.build.xbuild import XBuild
from repro.datasets import generate_imdb
from repro.errors import BuildError
from repro.estimation import TwigEstimator
from repro.obs.metrics import MetricsRegistry
from repro.query.ast import DESCENDANT, Path, Step, TwigNode, TwigQuery
from repro.query.values import ValuePredicate
from repro.serve import EstimatorService
from repro.synopsis.summary import TwigXSketch
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


@contextmanager
def no_cyclic_garbage():
    """Run the body with automatic collection paused, then require that
    a full collection finds no unreachable object."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
        collected = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()
    assert collected == 0, kinds.most_common(8)


@pytest.fixture(scope="module")
def imdb():
    tree = generate_imdb(3000, seed=55)
    return tree, XBuild(tree, 3072, seed=55).run().sketch


def workload(tree, seed, **spec):
    generator = WorkloadGenerator(tree, WorkloadSpec(seed=seed, **spec))
    return [entry.query for entry in generator.positive_workload(20).queries]


def descendant_queries():
    """``//`` roots and ``//`` children, with a value test."""
    root = TwigNode("t0", Path((Step("movie", DESCENDANT),)))
    root.add_child(TwigNode("t1", Path((Step("actor"),))))
    root.add_child(TwigNode("t2", Path((
        Step("year", DESCENDANT, ValuePredicate(">=", 1990)),
    ))))
    return [
        TwigQuery(root),
        TwigQuery(TwigNode("t0", Path((Step("imdb"), Step("actor", DESCENDANT))))),
    ]


@pytest.mark.parametrize("kind", ["P", "P+V", "//"])
def test_estimates_leave_no_cycles(imdb, kind):
    tree, sketch = imdb
    queries = {
        "P": lambda: workload(tree, 3),
        "P+V": lambda: workload(tree, 4, value_predicates=True),
        "//": descendant_queries,
    }[kind]()
    estimator = TwigEstimator(sketch)
    with no_cyclic_garbage():
        estimates = [estimator.estimate(query) for query in queries]
    assert any(estimate > 0 for estimate in estimates)


def test_derived_estimate_over_a_split_graph_leaves_no_cycles(imdb):
    tree, _ = imdb
    sketch = TwigXSketch.coarsest(tree)
    queries = workload(tree, 5, value_predicates=True) + descendant_queries()
    base = TwigEstimator(sketch).keep_records()
    for query in queries:
        base.report(query)
    rng = random.Random(3)
    for candidate in generate_candidates(sketch, rng):
        if not isinstance(candidate, FStabilize):
            continue
        try:
            refined = candidate.apply(sketch)
        except BuildError:
            continue
        break
    assert refined.graph is not sketch.graph
    derived = base.derive(refined)
    with no_cyclic_garbage():
        reports = [derived.report(query) for query in queries]
    fresh = TwigEstimator(refined)
    assert reports == [fresh.report(query) for query in queries]


def test_service_requests_leave_no_cycles(imdb):
    tree, sketch = imdb
    service = EstimatorService(metrics=MetricsRegistry())
    service.register("imdb", sketch)
    queries = workload(tree, 6, value_predicates=True)
    single, batch = queries[:10], queries[10:]
    with no_cyclic_garbage():
        answers = [service.estimate("imdb", query) for query in single]
        answers += service.submit_batch("imdb", batch)
    assert all(answer.source == "twig" for answer in answers)


def test_xbuild_run_leaves_no_cycles():
    tree = generate_imdb(3000, seed=55)
    with no_cyclic_garbage():
        result = XBuild(
            tree, 3072, seed=55, sample_value_probability=0.3
        ).run()
    assert result.steps
