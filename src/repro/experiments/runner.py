"""Shared, cached building blocks for the experiment harness.

Experiments share expensive artifacts — generated documents, workloads
with exact selectivities, and XBUILD sweeps.  This module memoizes them
per (experiment-config, dataset) so the full benchmark suite builds each
document and each synopsis sweep exactly once.
"""

from __future__ import annotations

from functools import lru_cache

from ..build.xbuild import XBuild
from ..datasets import generate_imdb, generate_sprot, generate_xmark
from ..doc.tree import DocumentTree
from ..estimation.estimator import TwigEstimator
from ..synopsis.summary import TwigXSketch, XSketchConfig
from ..workload.generator import Workload, WorkloadGenerator, WorkloadSpec
from ..workload.metrics import average_relative_error
from .config import DEFAULT_CONFIG, ExperimentConfig

GENERATORS = {
    "xmark": generate_xmark,
    "imdb": generate_imdb,
    "sprot": generate_sprot,
}

DATASETS = tuple(GENERATORS)


@lru_cache(maxsize=None)
def dataset(name: str, config: ExperimentConfig = DEFAULT_CONFIG) -> DocumentTree:
    """The (cached) document tree for one data-set name."""
    generator = GENERATORS[name]
    return generator(config.scale, seed=config.seed_for(name))


@lru_cache(maxsize=None)
def workload(
    name: str,
    kind: str,
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> Workload:
    """A cached workload: ``kind`` is 'P', 'P+V', 'simple', or 'negative'.

    'simple' is the Figure 9(c) workload — child-axis paths only, no value
    predicates (what the CST baseline supports); the paper uses 500 such
    queries, here ``config.queries`` (same count as P for consistency).
    """
    tree = dataset(name, config)
    if kind == "P":
        spec = WorkloadSpec(seed=config.workload_seed)
    elif kind == "P+V":
        spec = WorkloadSpec(seed=config.workload_seed + 1, value_predicates=True)
    elif kind == "simple":
        spec = WorkloadSpec(
            seed=config.workload_seed + 2,
            branch_probability=0.15,
            descendant_probability=0.0,
        )
    elif kind == "negative":
        spec = WorkloadSpec(seed=config.workload_seed + 3)
        return WorkloadGenerator(tree, spec).negative_workload(
            max(20, config.queries // 4)
        )
    else:
        raise ValueError(f"unknown workload kind {kind!r}")
    return WorkloadGenerator(tree, spec).positive_workload(
        config.queries, name=f"{name}:{kind}"
    )


@lru_cache(maxsize=None)
def synopsis_sweep(
    name: str,
    config: ExperimentConfig = DEFAULT_CONFIG,
    engine: str = "centroid",
    store_edge_counts: bool = True,
    value_samples: bool = False,
) -> tuple[TwigXSketch, ...]:
    """XBUILD snapshots at each budget point (coarsest first), cached.

    One XBUILD run to the largest budget; a copy of the sketch is captured
    the first time its size crosses each budget point (a build that stops
    short of the largest budget yields fewer snapshots).  ``value_samples``
    makes XBUILD's internal sample workload carry value predicates, which
    is how the P+V sweep tunes construction for its workload.
    """
    tree = dataset(name, config)
    sketch_config = XSketchConfig(engine=engine, store_edge_counts=store_edge_counts)
    coarsest = TwigXSketch.coarsest(tree, sketch_config)
    budgets = config.budgets(coarsest.size_bytes())
    snapshots: list[TwigXSketch] = [coarsest.copy()]
    pending = budgets[1:]

    def on_step(sketch: TwigXSketch) -> None:
        while pending and sketch.size_bytes() >= pending[0]:
            snapshots.append(sketch.copy())
            pending.pop(0)

    XBuild(
        tree,
        budgets[-1],
        sketch_config,
        seed=config.build_seed,
        sample_value_probability=0.3 if value_samples else 0.0,
        on_step=on_step,
    ).run()
    return tuple(snapshots)


def sketch_error(sketch: TwigXSketch, load: Workload, **metric_kwargs) -> float:
    """Average relative error of a sketch's estimates on a workload."""
    estimator = TwigEstimator(sketch)
    estimates = [estimator.estimate(entry.query) for entry in load.queries]
    return average_relative_error(estimates, load.true_counts(), **metric_kwargs)
