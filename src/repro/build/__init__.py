"""XBUILD: greedy Twig XSKETCH construction (paper Section 5).

The package splits into three layers:

* :mod:`repro.build.refinements` — the refinement operations (stabilize
  splits, histogram refine/expand, value refine/split/expand);
* :mod:`repro.build.sampling` — candidate generation and region-anchored
  query sampling;
* :mod:`repro.build.oracles` — the truth oracle gain is measured against;
* :mod:`repro.build.xbuild` — the greedy construction loop itself.

Typical use::

    from repro.build import xbuild
    sketch = xbuild(tree, budget_bytes=16 * 1024, seed=17)
"""

from .oracles import ExactOracle, build_reference_sketch
from .refinements import (
    BStabilize,
    EdgeExpand,
    EdgeRefine,
    FStabilize,
    Refinement,
    ValueExpand,
    ValueRefine,
    ValueSplit,
)
from .sampling import RegionSampler, generate_candidates
from .xbuild import BuildStep, XBuild, XBuildResult, xbuild

__all__ = [
    "BStabilize",
    "BuildStep",
    "EdgeExpand",
    "EdgeRefine",
    "ExactOracle",
    "FStabilize",
    "Refinement",
    "RegionSampler",
    "ValueExpand",
    "ValueRefine",
    "ValueSplit",
    "XBuild",
    "XBuildResult",
    "build_reference_sketch",
    "generate_candidates",
    "xbuild",
]
