"""Shared, cached building blocks for the experiment harness.

Experiments share expensive artifacts — generated documents, workloads
with exact selectivities, and XBUILD sweeps.  This module memoizes them
per (experiment-config, dataset) so the full benchmark suite builds each
document and each synopsis sweep exactly once.

:func:`run_suite` adds per-(dataset, stage) fault isolation on top: one
dataset blowing up (or running past a deadline) costs that dataset's
entry, not the whole suite — failures come back as structured
:class:`SuiteError` records next to the partial results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

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


def _sweep(
    name: str,
    config: ExperimentConfig,
    engine: str,
    store_edge_counts: bool,
    value_samples: bool,
    deadline: Optional[float] = None,
) -> tuple[tuple[TwigXSketch, ...], bool]:
    """One XBUILD sweep; returns (snapshots, truncated).

    A deadline-truncated build still yields a full-length snapshot tuple —
    budget points never reached are filled with the best-so-far sketch —
    so downstream error curves keep their shape, flagged as truncated.
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

    result = XBuild(
        tree,
        budgets[-1],
        sketch_config,
        seed=config.build_seed,
        sample_value_probability=0.3 if value_samples else 0.0,
        on_step=on_step,
        deadline=deadline,
    ).run()
    while pending:
        snapshots.append(result.sketch.copy())
        pending.pop(0)
    return tuple(snapshots), result.truncated


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
    the first time its size crosses each budget point.  ``value_samples``
    makes XBUILD's internal sample workload carry value predicates, which
    is how the P+V sweep tunes construction for its workload.
    """
    snapshots, _ = _sweep(name, config, engine, store_edge_counts, value_samples)
    return snapshots


def sketch_error(sketch: TwigXSketch, load: Workload, **metric_kwargs) -> float:
    """Average relative error of a sketch's estimates on a workload."""
    estimator = TwigEstimator(sketch)
    estimates = [estimator.estimate(entry.query) for entry in load.queries]
    return average_relative_error(estimates, load.true_counts(), **metric_kwargs)


# ----------------------------------------------------------------------
# isolated suite execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SuiteError:
    """One isolated failure inside :func:`run_suite`.

    ``stage`` is ``"dataset"``, ``"workload:<kind>"``, or ``"sweep"``;
    ``error_type`` is the exception class name, ``message`` its text.
    """

    dataset: str
    stage: str
    error_type: str
    message: str


@dataclass
class SuiteResult:
    """What :func:`run_suite` managed to produce, plus what it did not.

    Attributes:
        sweeps: per-dataset synopsis snapshots (datasets that failed are
            absent, not None).
        workloads: per-(dataset, kind) workloads that materialized.
        errors: one :class:`SuiteError` per isolated failure.
        truncated: datasets whose sweep hit its deadline and returned a
            best-so-far snapshot tuple.
    """

    sweeps: dict = field(default_factory=dict)
    workloads: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    truncated: tuple = ()

    @property
    def partial(self) -> bool:
        """True when at least one stage failed or was cut short."""
        return bool(self.errors) or bool(self.truncated)


def run_suite(
    names: Sequence[str] = DATASETS,
    kinds: Sequence[str] = ("P",),
    config: ExperimentConfig = DEFAULT_CONFIG,
    *,
    deadline: Optional[float] = None,
) -> SuiteResult:
    """Build every (dataset, workload, sweep) artifact with fault isolation.

    Each stage of each dataset runs inside its own try/except: a failure
    is recorded as a :class:`SuiteError` and the suite moves on, so one
    broken dataset yields partial results instead of a lost run.  A
    dataset whose generation fails skips its dependent stages.

    Args:
        names: dataset names (keys of :data:`GENERATORS`).
        kinds: workload kinds per dataset (see :func:`workload`).
        config: the shared experiment configuration.
        deadline: per-sweep wall-clock budget in seconds; an overrun
            truncates that sweep (recorded in ``result.truncated``)
            rather than failing it.
    """
    result = SuiteResult()

    def guarded(dataset_name: str, stage: str, thunk):
        """Run one stage isolated; returns (value, ok)."""
        try:
            return thunk(), True
        except Exception as error:  # noqa: BLE001 - isolation boundary
            # deadlines on the sweep path are handled by XBuild itself
            # (truncated result); a ResourceLimitError reaching here means
            # a stage without a recovery path overran — recorded like any
            # other failure
            result.errors.append(
                SuiteError(dataset_name, stage, type(error).__name__, str(error))
            )
        return None, False

    truncated: list[str] = []
    for name in names:
        _, ok = guarded(name, "dataset", lambda name=name: dataset(name, config))
        if not ok:
            continue
        for kind in kinds:
            load, ok = guarded(
                name,
                f"workload:{kind}",
                lambda name=name, kind=kind: workload(name, kind, config),
            )
            if ok:
                result.workloads[(name, kind)] = load
        swept, ok = guarded(
            name,
            "sweep",
            lambda name=name: _sweep(
                name, config, "centroid", True, False, deadline=deadline
            ),
        )
        if ok:
            snapshots, was_truncated = swept
            result.sweeps[name] = snapshots
            if was_truncated:
                truncated.append(name)
    result.truncated = tuple(truncated)
    return result
