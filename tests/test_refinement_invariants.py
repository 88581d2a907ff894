"""Synopsis invariants under refinement, and the copy-on-write graph.

``validate_sketch`` must report no error after every applied refinement
and on the refined sketch of every candidate XBUILD scores, and scoring a
candidate must leave its base sketch untouched: statistics-only
refinements share the base's graph, and a split copies it first.
"""

import random

import pytest

from repro.build import XBuild, generate_candidates, refinements, sampling
from repro.build.refinements import (
    BStabilize,
    EdgeExpand,
    EdgeRefine,
    ValueExpand,
    ValueRefine,
)
from repro.datasets import (
    figure1_document,
    generate_imdb,
    generate_sprot,
    generate_xmark,
)
from repro.errors import BuildError
from repro.synopsis import TwigXSketch, XSketchConfig, sketch_to_dict
from repro.synopsis.validate import error_violations, validate_sketch


def _xmark_build():
    tree = generate_xmark(4000, seed=5)
    budget = TwigXSketch.coarsest(tree).size_bytes() + 4000
    return XBuild(tree, budget, seed=7, sample_value_probability=0.3)


@pytest.mark.parametrize(
    "make_build",
    [
        pytest.param(
            lambda: XBuild(generate_imdb(3000, seed=55), 3072, seed=55),
            id="imdb-3000",
        ),
        pytest.param(_xmark_build, id="xmark-4000"),
        pytest.param(
            lambda: XBuild(generate_sprot(3000, seed=55), 3072, seed=55),
            id="sprot-3000",
        ),
        pytest.param(
            lambda: XBuild(
                generate_imdb(2000, seed=55), 3072,
                XSketchConfig(include_backward=True), seed=55,
            ),
            id="imdb-2000-full",
        ),
    ],
)
def test_every_candidate_and_step_validates(monkeypatch, make_build):
    digests: dict[int, tuple] = {}
    checked = []

    def checked_apply(original):
        def apply(self, sketch):
            key = id(sketch)
            if key not in digests or digests[key][0] is not sketch:
                digests[key] = (sketch, sketch_to_dict(sketch)["digest"])
            refined = original(self, sketch)
            assert error_violations(validate_sketch(refined)) == [], (
                self.describe()
            )
            assert sketch_to_dict(sketch)["digest"] == digests[key][1], (
                f"{self.describe()} changed its base sketch"
            )
            checked.append(self)
            return refined

        return apply

    for cls in refinements.ALL_REFINEMENTS:
        monkeypatch.setattr(cls, "apply", checked_apply(cls.apply))
    steps = []
    builder = make_build()
    builder.on_step = lambda sketch: steps.append(
        error_violations(validate_sketch(sketch))
    )
    result = builder.run()
    assert result.steps and len(steps) == len(result.steps)
    assert all(violations == [] for violations in steps)
    assert len(checked) > len(steps)


@pytest.fixture
def paperfig_sketch():
    return TwigXSketch.coarsest(figure1_document())


def test_statistics_only_refinements_share_the_graph(
    paperfig_sketch, monkeypatch
):
    sketch = paperfig_sketch
    statistics_only = (EdgeRefine, EdgeExpand, ValueRefine, ValueExpand)
    shared = set()
    monkeypatch.setattr(sampling, "DEFAULT_MAX_CANDIDATES", 10_000)
    for candidate in generate_candidates(sketch, random.Random(3)):
        try:
            refined = candidate.apply(sketch)
        except BuildError:
            continue
        if isinstance(candidate, statistics_only):
            assert refined.graph is sketch.graph, candidate.describe()
            assert refined.changes_from(sketch).edges == set()
            shared.add(type(candidate))
        else:
            assert refined.graph is not sketch.graph, candidate.describe()
    assert shared == set(statistics_only)


def test_a_split_copies_the_shared_graph_first(paperfig_sketch):
    sketch = paperfig_sketch
    before = sketch_to_dict(sketch)
    graph = sketch.graph
    unstable = next(
        edge for edge in graph.edges.values() if not edge.backward_stable
    )
    refined = BStabilize(unstable.source, unstable.target).apply(sketch)
    assert refined.graph is not graph
    assert sketch.graph is graph
    assert sketch_to_dict(sketch) == before
    changes = refined.changes_from(sketch)
    assert unstable.target in changes.nodes
    assert any(unstable.target in key for key in changes.edges)
