"""The XBUILD construction algorithm (paper Section 5).

XBUILD grows a Twig XSKETCH greedily from the label-split synopsis
``S_0(G)``: each round it draws a pool of applicable refinement candidates
(:func:`repro.build.sampling.generate_candidates`), measures the marginal
error reduction of each on a handful of twig queries sampled around the
candidate's region, and applies the candidate with the best
error-reduction-per-byte score.  The loop stops when the synopsis reaches
the byte budget (or candidates dry up).  A candidate's estimator is
derived from the round's base estimator
(:meth:`~repro.estimation.estimator.TwigEstimator.derive`), so scoring
re-estimates only the embeddings the refinement touched.

Determinism: all randomness flows from the ``seed`` argument, so a given
(document, budget, seed) triple always builds the same synopsis.

Candidates are scored serially, in pool order, in one process.  A
cross-round truth cache keyed by ``TwigQuery.key``
(``build_oracle_cache_total{outcome=hit|miss}``) is the build's only
truth cache: the oracle is asked once per structurally distinct sampled
query, and two queries that differ only in a bound's type (``1``
against ``"1"``) get a truth each.

Resilience (:mod:`repro.resilience`): a build can carry a wall-clock
``deadline``, write a :class:`~repro.resilience.checkpoint.BuildCheckpoint`
every ``checkpoint_every`` applied refinements, and ``resume_from`` such
a checkpoint — the resumed build replays the refinement trail over the
coarsest synopsis and restores the RNG state, so it is bit-identical to
the uninterrupted build.  When the deadline passes the loop returns the
best-so-far sketch with ``truncated=True`` instead of raising.

Observability (:mod:`repro.obs`): the loop records round/refinement/
oracle-call counters, a per-round latency histogram, and ``build_*``
gauges (current size, the sampled-region error after the applied
refinement) into the default metrics registry — or one passed as
``metrics=`` — and, when handed a ``tracer=``, wraps the build, every
round, and every candidate evaluation in spans.  The tracer defaults to
the disabled :data:`~repro.obs.tracing.NULL_TRACER`, so an untraced
build pays one ``if`` per would-be span.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..doc.tree import DocumentTree
from ..errors import BuildError, CheckpointError, ResourceLimitError
from ..estimation.estimator import TwigEstimator
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.tracing import NULL_TRACER, SpanTracer
from ..resilience.checkpoint import (
    BuildCheckpoint,
    config_signature,
    load_checkpoint,
    save_checkpoint,
    tree_fingerprint,
)
from ..resilience.faults import (
    SITE_BUILD_APPLY,
    SITE_BUILD_ROUND,
    SITE_BUILD_STEP,
    fault_check,
)
from ..resilience.guards import Budget
from ..synopsis.persist import sketch_to_dict
from ..synopsis.summary import TwigXSketch, XSketchConfig
from ..workload.metrics import average_relative_error
from .oracles import ExactOracle
from .refinements import Refinement
from .sampling import RegionSampler, ValueProposals, generate_candidates

#: rounds without a size-increasing candidate before the build
#: concludes it has converged
_MAX_STALL_ROUNDS = 5

#: hard cap on applied refinements (well above any realistic budget);
#: hitting it flags the result ``truncated``
_MAX_STEPS = 2000


@dataclass(frozen=True)
class BuildStep:
    """One applied refinement: its label, the resulting size, its gain.

    The first word of ``description`` is the refinement kind (the CLI
    aggregates on it); ``gain`` is the measured error reduction on the
    sampled queries (possibly ≤ 0 when the step was chosen for growth).
    """

    description: str
    size_bytes: int
    gain: float


@dataclass
class XBuildResult:
    """The constructed synopsis and the refinement trail behind it.

    ``truncated`` is True when the build stopped early — deadline or
    resource budget exhausted, or the step backstop hit — in which case
    ``sketch`` is the best synopsis reached so far and ``reason`` says
    what cut the build short (``"completed"`` otherwise).
    """

    sketch: TwigXSketch
    steps: list[BuildStep]
    truncated: bool = False
    reason: str = "completed"


@dataclass
class _Scored:
    """A candidate evaluated against the current sketch."""

    candidate: Refinement
    refined: TwigXSketch
    size_bytes: int
    gain: float
    score: float
    #: sampled-region avg relative error after this refinement (the
    #: ``build_best_error`` gauge when the candidate is applied)
    error: float = 0.0


@dataclass
class _LoopState:
    """The in-flight build state (everything a checkpoint captures)."""

    sketch: TwigXSketch
    steps: list[BuildStep] = field(default_factory=list)
    trail: list[Refinement] = field(default_factory=list)
    stall: int = 0


class XBuild:
    """Greedy Twig XSKETCH construction.

    Args:
        tree: the document to summarize.
        budget_bytes: target synopsis size (the loop stops at the first
            size at or above it; the last step may overshoot slightly).
        config: synopsis configuration (engine, budgets, backward counts).
        seed: randomness seed for candidate and query sampling.
        sample_queries: queries sampled per refinement region.
        sample_value_probability: chance of value predicates in sampled
            queries — raise it when tuning for value-predicated workloads.
        oracle: truth oracle; defaults to :class:`ExactOracle` on ``tree``.
        on_step: callback invoked with the growing sketch after each
            applied refinement (the experiment sweep snapshots through it).
        deadline: wall-clock budget in seconds; when it runs out the
            build returns its best-so-far sketch, flagged ``truncated``.
        checkpoint_every: write a checkpoint after every N applied
            refinements (``None`` disables checkpointing).
        checkpoint_path: where periodic checkpoints are saved; without a
            path checkpoints are only kept in-memory (``last_checkpoint``).
        resume_from: a checkpoint path or :class:`BuildCheckpoint` to
            continue from; its identity (document fingerprint, seed,
            budget, config) must match this build or
            :class:`~repro.errors.CheckpointError` is raised.
        metrics: registry the build's counters/gauges/histograms are
            recorded into (default: the process-global registry).
        tracer: span tracer for per-build/round/candidate spans
            (default: the disabled no-op tracer).
    """

    def __init__(
        self,
        tree: DocumentTree,
        budget_bytes: int,
        config: Optional[XSketchConfig] = None,
        *,
        seed: int = 17,
        sample_queries: int = 8,
        sample_value_probability: float = 0.0,
        oracle=None,
        on_step: Optional[Callable[[TwigXSketch], None]] = None,
        deadline: Optional[float] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path=None,
        resume_from: Union[None, str, BuildCheckpoint] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise BuildError("checkpoint_every must be at least 1")
        self.tree = tree
        self.budget_bytes = budget_bytes
        self.config = config or XSketchConfig()
        self.seed = seed
        self.rng = random.Random(seed)
        self.sample_queries = sample_queries
        self.oracle = oracle if oracle is not None else ExactOracle(tree)
        #: cross-round truth cache: query key -> exact count
        self._truth_cache: dict[tuple, float] = {}
        #: value-split proposals and value-expand sources per node id,
        #: reused across rounds
        self._value_memo: dict[int, ValueProposals] = {}
        self.on_step = on_step
        self._guard = Budget(deadline=deadline)
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.resume_from = resume_from
        #: the most recent checkpoint written by this build (or None)
        self.last_checkpoint: Optional[BuildCheckpoint] = None
        self.sampler = RegionSampler(
            tree, self.rng, value_probability=sample_value_probability
        )
        registry = metrics if metrics is not None else default_registry()
        self.metrics = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rounds = registry.counter(
            "build_rounds_total", "XBUILD rounds executed"
        )
        self._refinements = registry.counter(
            "build_refinements_total",
            "refinements applied, by kind",
            ["kind"],
        )
        self._oracle_calls = registry.counter(
            "build_oracle_calls_total",
            "truth-oracle evaluations during candidate scoring",
        )
        self._oracle_cache = registry.counter(
            "build_oracle_cache_total",
            "cross-round truth-cache lookups, by outcome",
            ["outcome"],
        )
        self._candidates = registry.counter(
            "build_candidates_total",
            "candidates evaluated, by outcome",
            ["outcome"],
        )
        self._size_gauge = registry.gauge(
            "build_size_bytes", "current synopsis size of the build"
        )
        self._error_gauge = registry.gauge(
            "build_best_error",
            "sampled-region avg relative error after the applied refinement",
        )
        self._round_seconds = registry.histogram(
            "build_round_seconds", "wall-clock seconds per XBUILD round"
        )

    def run(self) -> XBuildResult:
        """Build the synopsis; sizes along ``steps`` increase monotonically.

        The heap as it stands on entry, the document above all, is frozen
        out of cyclic garbage collection for the run, so full collections
        do not re-walk it.  It is thawed on exit, unless the caller had
        frozen it already.
        """
        with _frozen_heap():
            return self._run()

    def _run(self) -> XBuildResult:
        state = self._initial_state()
        size = state.sketch.size_bytes()
        truncated = False
        reason = "completed"
        rounds = 0
        self._size_gauge.set(size)
        with self.tracer.span(
            "xbuild.build",
            budget_bytes=self.budget_bytes,
            seed=self.seed,
        ) as build_span:
            try:
                while (
                    size < self.budget_bytes
                    and state.stall < _MAX_STALL_ROUNDS
                ):
                    if len(state.steps) >= _MAX_STEPS:
                        truncated = True
                        reason = f"step limit ({_MAX_STEPS}) reached"
                        break
                    self._guard.check_deadline("XBUILD round")
                    fault_check(SITE_BUILD_ROUND)
                    rounds += 1
                    round_started = time.perf_counter()
                    with self.tracer.span(
                        "xbuild.round", round=rounds
                    ) as round_span:
                        best = self._best_candidate(state.sketch, size)
                        if best is None:
                            # redraw a fresh pool before giving up
                            state.stall += 1
                            round_span.annotate(
                                outcome="stall", stall=state.stall
                            )
                        else:
                            state.stall = 0
                            state.sketch = best.refined
                            size = best.size_bytes
                            state.steps.append(
                                BuildStep(
                                    best.candidate.describe(), size, best.gain
                                )
                            )
                            state.trail.append(best.candidate)
                            round_span.annotate(
                                outcome="applied",
                                refinement=best.candidate.describe(),
                                size_bytes=size,
                                gain=best.gain,
                            )
                    self._rounds.inc()
                    self._round_seconds.observe(
                        time.perf_counter() - round_started
                    )
                    if best is None:
                        continue
                    self._refinements.inc(
                        kind=best.candidate.describe().split()[0]
                    )
                    self._size_gauge.set(size)
                    self._error_gauge.set(best.error)
                    self._maybe_checkpoint(state)
                    # after the checkpoint write: a fault here lands exactly
                    # at the boundary the resume tests interrupt at
                    fault_check(SITE_BUILD_STEP)
                    if self.on_step is not None:
                        self.on_step(state.sketch)
            except ResourceLimitError as error:
                # budget exhausted mid-build: checkpoint what we have and
                # return the best-so-far sketch instead of losing the work
                truncated = True
                reason = str(error)
                self._write_checkpoint(state)
            build_span.annotate(
                rounds=rounds,
                steps=len(state.steps),
                size_bytes=size,
                truncated=truncated,
            )
        return XBuildResult(
            state.sketch, state.steps, truncated=truncated, reason=reason
        )

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def _initial_state(self) -> _LoopState:
        """The loop's starting state: coarsest synopsis, or a resumed one."""
        sketch = TwigXSketch.coarsest(self.tree, self.config)
        if self.resume_from is None:
            return _LoopState(sketch)
        checkpoint = (
            self.resume_from
            if isinstance(self.resume_from, BuildCheckpoint)
            else load_checkpoint(self.resume_from)
        )
        checkpoint.verify_compatible(
            seed=self.seed,
            budget_bytes=self.budget_bytes,
            config=config_signature(self.config),
            fingerprint=tree_fingerprint(self.tree),
        )
        trail: list[Refinement] = []
        for refinement in checkpoint.trail:
            try:
                sketch = refinement.apply(sketch)
            except BuildError as exc:
                raise CheckpointError(
                    f"cannot replay checkpointed refinement "
                    f"{refinement.describe()!r}: {exc}"
                ) from exc
            trail.append(refinement)
        steps = [BuildStep(**entry) for entry in checkpoint.steps]
        if checkpoint.rng_state is not None:
            self.rng.setstate(checkpoint.rng_state)
        return _LoopState(sketch, steps, trail, checkpoint.stall)

    def _maybe_checkpoint(self, state: _LoopState) -> None:
        if (
            self.checkpoint_every is not None
            and state.steps
            and len(state.steps) % self.checkpoint_every == 0
        ):
            self._write_checkpoint(state)

    def _write_checkpoint(self, state: _LoopState) -> None:
        checkpoint = BuildCheckpoint(
            seed=self.seed,
            budget_bytes=self.budget_bytes,
            config=config_signature(self.config),
            fingerprint=tree_fingerprint(self.tree),
            trail=list(state.trail),
            steps=[
                {
                    "description": step.description,
                    "size_bytes": step.size_bytes,
                    "gain": step.gain,
                }
                for step in state.steps
            ],
            rng_state=self.rng.getstate(),
            stall=state.stall,
            sketch_payload=sketch_to_dict(state.sketch),
        )
        self.last_checkpoint = checkpoint
        if self.checkpoint_path is not None:
            save_checkpoint(checkpoint, self.checkpoint_path)

    # ------------------------------------------------------------------
    def _truths(self, queries: list) -> list[float]:
        """Truth counts for sampled queries, through the cross-round cache.

        ``build_oracle_calls_total`` counts actual oracle evaluations
        (cache misses); ``build_oracle_cache_total`` counts both outcomes.
        """
        truths = []
        for query in queries:
            cached = self._truth_cache.get(query.key)
            if cached is None:
                self._oracle_cache.inc(outcome="miss")
                self._oracle_calls.inc()
                cached = self.oracle.true_count(query)
                self._truth_cache[query.key] = cached
            else:
                self._oracle_cache.inc(outcome="hit")
            truths.append(cached)
        return truths

    def _best_candidate(
        self, sketch: TwigXSketch, size: int
    ) -> Optional[_Scored]:
        """Evaluate one round's candidate pool; None when nothing grows.

        Only size-increasing candidates qualify (monotone growth toward the
        budget); among them the best error-reduction-per-byte wins, ties
        broken toward the cheaper refinement.
        """
        candidates = generate_candidates(
            sketch, self.rng, value_memo=self._value_memo
        )
        # every candidate derives its estimator from this round's base, so
        # it re-estimates only the embeddings its refinement touched
        base_estimator = TwigEstimator(sketch).keep_records()
        # queries, truths, and base error are shared across candidates
        # with the same region — one sampling round per region.
        measured: dict[frozenset, tuple[list, list, float]] = {}
        best: Optional[_Scored] = None
        for candidate in candidates:
            self._guard.check_deadline("XBUILD candidate evaluation")
            fault_check(SITE_BUILD_APPLY)
            with self.tracer.span(
                "xbuild.candidate", refinement=candidate.describe()
            ):
                try:
                    refined = candidate.apply(sketch)
                except BuildError:
                    self._candidates.inc(outcome="inapplicable")
                    continue
                refined_size = refined.size_bytes()
                delta = refined_size - size
                if delta <= 0:
                    self._candidates.inc(outcome="non-growing")
                    continue
                region = frozenset(candidate.region())
                if region not in measured:
                    queries = self.sampler.sample_for_regions(
                        sketch, region, queries=self.sample_queries
                    )
                    truths = self._truths(queries)
                    base_error = (
                        average_relative_error(
                            [base_estimator.estimate(q) for q in queries],
                            truths,
                        )
                        if queries
                        else 0.0
                    )
                    measured[region] = (queries, truths, base_error)
                queries, truths, base_error = measured[region]
                if queries:
                    estimator = base_estimator.derive(refined)
                    refined_error = average_relative_error(
                        [estimator.estimate(q) for q in queries], truths
                    )
                    gain = base_error - refined_error
                else:
                    refined_error = 0.0
                    gain = 0.0
                self._candidates.inc(outcome="scored")
                score = gain / delta
                if (
                    best is None
                    or score > best.score
                    or (score == best.score and refined_size < best.size_bytes)
                ):
                    best = _Scored(
                        candidate, refined, refined_size, gain, score,
                        refined_error,
                    )
        return best


@contextmanager
def _frozen_heap():
    """Move every object tracked so far into the collector's permanent
    generation for the ``with`` body; a heap frozen by the caller stays as
    it is."""
    if gc.get_freeze_count():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def xbuild(
    tree: DocumentTree,
    budget_bytes: int,
    config: Optional[XSketchConfig] = None,
    **kwargs,
) -> TwigXSketch:
    """Convenience wrapper: run :class:`XBuild` and return the sketch."""
    return XBuild(tree, budget_bytes, config, **kwargs).run().sketch
