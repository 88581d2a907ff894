"""Golden builds: XBUILD's trail and synopsis pinned across commits.

The determinism tests compare builds within one checkout (parallel
against serial, resumed against uninterrupted).  These pin builds across
commits, so a change that alters any decision — or the canonical order
of the synopsis nodes and edges, which the serialized digest covers —
fails here:

* imdb-3000 and paperfig: the default configuration;
* imdb-2000-full and imdb-2000-no-edge-counts: the full model proposes
  backward scopes (the general edge-distribution path); without stored
  edge counts a changed edge reaches the estimates of its target's other
  incoming edges.

All four were re-recorded when every ordered read of the graph moved to
the canonical order (nodes by id, edges by source and target id); the
earlier trails followed the order a full neighbourhood rescan inserted
edges in.
"""

import pytest

from repro.build import XBuild
from repro.datasets import figure1_document, generate_imdb
from repro.synopsis import XSketchConfig, sketch_to_dict
from repro.synopsis.validate import error_violations, validate_sketch

IMDB_TRAIL = [
    "f-stabilize 1->12",
    "value-split @17 type{=Action}",
    "value-split @18 year{<1999}",
    "value-split @19 type{=Noir}",
    "value-split @23 @id{<56}",
    "f-stabilize 14->16",
    "value-split @30 stunts{=join}",
    "value-split @31 actor{=Edsger Stonebraker}",
    "value-split @8 value{=price}",
]

PAPERFIG_TRAIL = [
    "value-refine @5",
    "value-refine @2",
    "f-stabilize 1->7",
    "b-stabilize 9->2",
    "value-refine @6",
    "value-refine @6",
    "value-split @5 value{<2002}",
    "value-split @13 value{<2003}",
    "b-stabilize 9->3",
    "b-stabilize 16->6",
    "b-stabilize 17->12",
    "value-refine @4",
    "value-refine @4",
    "b-stabilize 7->4",
    "b-stabilize 16->23",
    "value-expand @17 year (2d)",
    "value-expand @16 year (2d)",
    "value-split @17 year{<2002}",
    "f-stabilize 16->21",
    "f-stabilize 9->28",
    "b-stabilize 30->10",
]

IMDB_FULL_TRAIL = [
    "value-split @1 year{<1995}",
    "b-stabilize 0->16",
    "value-split @17 type{=Action}",
    "edge-expand @21[4] +backward 14->15",
    "value-split @20 type{=Documentary}",
    "edge-expand @27[4] +backward 0->23",
    "value-split @21 keyword{=element}",
    "value-split @22 stunts{=schema}",
    "value-split @27 type{=Noir}",
    "edge-expand @30[1] +backward 14->15",
    "edge-expand @39[1] +backward 0->38",
    "edge-expand @38[1] +backward 0->13",
    "value-split @35 producer{=Donald Vardi}",
]

IMDB_NO_EDGE_COUNTS_TRAIL = [
    "value-split @1 actor{=Alan Garcia-Molina}",
    "b-stabilize 17->7",
    "value-split @17 producer{=Donald Vardi}",
    "value-split @23 narrator{=protein}",
    "edge-refine @13[1]",
    "value-split @27 narrator{=join}",
    "value-refine @4",
    "value-split @31 stunts{=bid}",
    "b-stabilize 35->8",
    "value-split @16 @id{<29}",
    "b-stabilize 0->41",
    "value-split @40 type{=Action}",
]


@pytest.mark.parametrize(
    "make_tree, budget, seed, trail, digest, config",
    [
        pytest.param(
            lambda: generate_imdb(3000, seed=55), 3072, 55, IMDB_TRAIL,
            "b03823a911caa0edfb69d903da6318b6092c95fc07ff459df57c8cdc6701080e",
            None,
            id="imdb-3000",
        ),
        pytest.param(
            figure1_document, 3072, 17, PAPERFIG_TRAIL,
            "1c7d060283da570d903990a2e2e1c2aa1b04f1002145863130d901ce4938d71b",
            None,
            id="paperfig",
        ),
        pytest.param(
            lambda: generate_imdb(2000, seed=55), 3072, 55, IMDB_FULL_TRAIL,
            "370c643dd251e00edfee350aa91b832df057089329fd61c1ba9943e48989f6cc",
            XSketchConfig(include_backward=True),
            id="imdb-2000-full",
        ),
        pytest.param(
            lambda: generate_imdb(2000, seed=55), 3072, 55,
            IMDB_NO_EDGE_COUNTS_TRAIL,
            "d8eaccd5f0a70d297388db1d7b11ca7c5b2a0a1dd8e0148195e81bba44be1e02",
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
