"""Golden builds: XBUILD's trail and synopsis pinned across commits.

The determinism tests compare builds within one checkout (parallel
against serial, resumed against uninterrupted).  These pin builds to
values recorded before the optimisations they guard went in, so an
optimisation that changes any decision — or merely the order of the
synopsis edges, which the serialized digest covers — fails here:

* imdb-3000 and paperfig: recorded before the split recount, the indexed
  truth counts and the value-split memo;
* imdb-2000-full and imdb-2000-no-edge-counts: recorded before delta
  candidate scoring.  The full model proposes backward scopes (the general
  edge-distribution path); without stored edge counts a changed edge
  reaches the estimates of its target's other incoming edges.
"""

import pytest

from repro.build import XBuild
from repro.datasets import figure1_document, generate_imdb
from repro.synopsis import XSketchConfig, sketch_to_dict
from repro.synopsis.validate import error_violations, validate_sketch

IMDB_TRAIL = [
    "f-stabilize 1->12",
    "f-stabilize 17->9",
    "value-split @19 actor{=Edsger Stonebraker}",
    "value-refine @3",
    "value-split @21 type{=Noir}",
    "value-split @18 keyword{=sequence}",
    "value-split @25 producer{=Moshe Ullman}",
    "value-split @29 keyword{=scene}",
    "edge-expand @0[1] +forward 0->20",
    "b-stabilize 0->33",
]

PAPERFIG_TRAIL = [
    "value-refine @5",
    "value-refine @2",
    "f-stabilize 1->7",
    "b-stabilize 8->2",
    "value-refine @6",
    "value-refine @6",
    "value-split @5 value{<2002}",
    "value-split @12 value{<1999}",
    "edge-refine @3[1]",
    "value-refine @4",
    "b-stabilize 8->3",
    "b-stabilize 17->6",
    "b-stabilize 17->13",
    "value-refine @4",
    "b-stabilize 7->4",
    "b-stabilize 16->23",
    "value-expand @17 year (2d)",
    "value-expand @16 year (2d)",
    "f-stabilize 16->21",
    "f-stabilize 17->14",
    "f-stabilize 9->28",
    "b-stabilize 31->11",
]

IMDB_FULL_TRAIL = [
    "value-split @1 year{<1995}",
    "value-split @17 actor{=Alan Garcia-Molina}",
    "value-split @21 type{=Drama}",
    "f-stabilize 25->23",
    "edge-expand @13[0] +backward 0->16",
    "f-stabilize 16->23",
    "value-split @30 narrator{=schema}",
    "edge-expand @29[0] +backward 0->13",
    "edge-expand @32[3] +backward 0->33",
    "edge-expand @29[3] +backward 0->20",
    "edge-expand @32[1] +backward 0->24",
    "value-split @28 keyword{=auction}",
    "edge-expand @0[1] +forward 0->29",
    "edge-expand @32[4] +backward 0->37",
    "value-split @37 keyword{=schema}",
]

IMDB_NO_EDGE_COUNTS_TRAIL = [
    "value-split @1 actor{=Alan Garcia-Molina}",
    "b-stabilize 17->8",
    "value-split @17 producer{=Donald Vardi}",
    "value-split @22 @id{<41}",
    "value-split @16 year{<1999}",
    "f-stabilize 23->10",
    "f-stabilize 35->25",
    "b-stabilize 31->33",
    "value-split @30 @id{<17}",
    "b-stabilize 0->37",
    "b-stabilize 14->34",
]


@pytest.mark.parametrize(
    "make_tree, budget, seed, trail, digest, config",
    [
        pytest.param(
            lambda: generate_imdb(3000, seed=55), 3072, 55, IMDB_TRAIL,
            "f158e6486bd5ce85a8e310bfc8d301b131ec5453a3a94ff11f47e6a92121c561",
            None,
            id="imdb-3000",
        ),
        pytest.param(
            figure1_document, 3072, 17, PAPERFIG_TRAIL,
            "0beef0d16624d5a1ab9840976659703746d849f4886faa0c2551b14675390901",
            None,
            id="paperfig",
        ),
        pytest.param(
            lambda: generate_imdb(2000, seed=55), 3072, 55, IMDB_FULL_TRAIL,
            "a9d7b882ade1c7753adca6d257817b30aeec734f921d31a13e6ece251d1a59e9",
            XSketchConfig.full(),
            id="imdb-2000-full",
        ),
        pytest.param(
            lambda: generate_imdb(2000, seed=55), 3072, 55,
            IMDB_NO_EDGE_COUNTS_TRAIL,
            "38ec1f8849981332292a99473fd6dca3ea0466ee7084d330d323d2907755f5f0",
            XSketchConfig(store_edge_counts=False),
            id="imdb-2000-no-edge-counts",
        ),
    ],
)
def test_build_matches_golden(make_tree, budget, seed, trail, digest, config):
    result = XBuild(make_tree(), budget, config, seed=seed).run()
    assert [step.description for step in result.steps] == trail
    assert sketch_to_dict(result.sketch)["digest"] == digest
    assert error_violations(validate_sketch(result.sketch)) == []
