"""Golden builds: XBUILD's trail and synopsis pinned across commits.

The determinism tests compare builds within one checkout (parallel
against serial, resumed against uninterrupted).  These pin two builds to
values recorded before the split recount, the indexed truth counts and
the value-split memo went in, so an optimisation that changes any
decision — or merely the order of the synopsis edges, which the
serialized digest covers — fails here.
"""

import pytest

from repro.build import XBuild
from repro.datasets import figure1_document, generate_imdb
from repro.synopsis import sketch_to_dict
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


@pytest.mark.parametrize(
    "make_tree, budget, seed, trail, digest",
    [
        pytest.param(
            lambda: generate_imdb(3000, seed=55), 3072, 55, IMDB_TRAIL,
            "f158e6486bd5ce85a8e310bfc8d301b131ec5453a3a94ff11f47e6a92121c561",
            id="imdb-3000",
        ),
        pytest.param(
            figure1_document, 3072, 17, PAPERFIG_TRAIL,
            "0beef0d16624d5a1ab9840976659703746d849f4886faa0c2551b14675390901",
            id="paperfig",
        ),
    ],
)
def test_build_matches_golden(make_tree, budget, seed, trail, digest):
    result = XBuild(make_tree(), budget, seed=seed).run()
    assert [step.description for step in result.steps] == trail
    assert sketch_to_dict(result.sketch)["digest"] == digest
    assert error_violations(validate_sketch(result.sketch)) == []
