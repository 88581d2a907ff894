"""The robust estimation service: registry, deadlines, degradation.

The paper's deployment story is "build the synopsis once, consult it from
every optimizer invocation" — the consult side is the hot, user-facing
path, and it must answer *something finite* even when the synopsis on
disk is stale, truncated, or corrupt.  :class:`EstimatorService` is that
serving tier:

* a **registry** of named sketches, each validated on registration
  (:mod:`repro.synopsis.validate`) unless the caller opts out;
* **per-request deadlines** via :class:`~repro.resilience.guards.Budget`
  — a request that runs out of time skips the remaining tiers and serves
  the terminal prior;
* a **circuit breaker** per (sketch, tier): a tier that keeps failing is
  skipped outright until a cooldown elapses
  (:mod:`repro.serve.circuit`);
* a **graceful-degradation cascade**.  Tiers, in order:

  1. ``twig`` — the full Twig XSKETCH estimator
     (:class:`~repro.estimation.estimator.TwigEstimator`);
  2. ``path`` — the single-path estimator over the same sketch,
     on the query's primary chain (branching siblings collapsed);
  3. ``cst`` — the Correlated-Suffix-Tree baseline, when one was
     registered alongside the sketch (it summarizes the *document*, so
     it survives synopsis corruption);
  4. ``uniform`` — the documented uniform prior: a fixed finite
     estimate (default 1.0 — "one expected binding tuple", the least
     informative answer that still lets an optimizer pick a plan).

Every answer is an :class:`EstimateResponse` envelope naming the tier
that produced it, the request latency, and one warning per degradation
step, so callers can monitor fallback rates.  A tier's answer is only
accepted when it is finite and non-negative — NaN, ±inf, or a negative
estimate (the signature of corrupted counts) is treated as a tier
failure, never returned to the caller.

Repeated queries are served from a bounded per-sketch answer cache: each
registered sketch keeps the last :data:`ANSWER_CACHE_SIZE` accepted
``twig`` answers, keyed by ``TwigQuery.key``: a hit renders no text, and
two queries that differ only in a bound's type (``1`` against ``"1"``)
never share an answer.  Entries are only ever stored
after the answer passed the finiteness gate, requests carrying an
``explain=`` recorder bypass the cache (their trail must show the full
estimation), and re-registering a name starts an empty cache.  A miss
builds a fresh :class:`~repro.estimation.estimator.TwigEstimator` over
the entry's :class:`~repro.estimation.estimator.SketchFacts`, so the
sketch's static facts (average child counts, positive-count
probabilities, marginals) are computed once per registration, not once
per request.

The service never raises for estimation failures; only caller mistakes
(unknown sketch name, invalid registration) raise
:class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..baselines import CorrelatedSuffixTree, CSTEstimator
from ..errors import (
    EstimationError,
    ReproError,
    ServiceError,
    SynopsisIntegrityError,
)
from ..estimation import PathEstimator, SketchFacts, TwigEstimator
from ..obs import explain as _explain
from ..obs.explain import ExplainRecorder
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.tracing import NULL_TRACER, SpanTracer
from ..query.ast import Path, TwigQuery
from ..resilience import Budget
from ..synopsis import load_sketch, raise_on_violations, validate_sketch
from ..synopsis.summary import TwigXSketch
from .circuit import CLOSED, HALF_OPEN, OPEN, CircuitBreaker

TIER_TWIG = "twig"
TIER_PATH = "path"
TIER_CST = "cst"
TIER_UNIFORM = "uniform"

#: the degradation order; ``uniform`` is terminal and cannot fail
FALLBACK_TIERS = (TIER_TWIG, TIER_PATH, TIER_CST)

#: the documented uniform prior: one expected binding tuple
DEFAULT_UNIFORM_PRIOR = 1.0

#: accepted twig answers kept per registered sketch (least recently used
#: evicted first); an entry is a query key and a float
ANSWER_CACHE_SIZE = 4096


class _TierUnavailable(Exception):
    """A tier cannot run for this entry (e.g. no baseline registered).

    Internal control flow only: the cascade records a warning and moves
    on *without* charging the circuit breaker — unavailability is a
    configuration fact, not a failure."""


@dataclass(frozen=True)
class EstimateResponse:
    """The response envelope of one :meth:`EstimatorService.estimate`.

    Attributes:
        estimate: the selectivity estimate; always finite and >= 0.
        source: the tier that produced it (``twig``/``path``/``cst``/
            ``uniform``).
        sketch: the registered sketch name the request addressed.
        latency: wall-clock seconds spent serving the request.
        warnings: one entry per degradation event (tier failure, circuit
            skip, deadline exhaustion, chain collapse), in order.
    """

    estimate: float
    source: str
    sketch: str
    latency: float
    warnings: tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """True when a fallback tier (not ``twig``) answered."""
        return self.source != TIER_TWIG


@dataclass
class _Entry:
    """One registered sketch with its per-tier circuit breakers, its
    answer cache (query key -> accepted twig estimate, LRU order), the
    sketch's static facts every twig estimate on it shares, and the
    breaker states last written to the gauges.

    ``lock`` guards the cache, ``exported`` and ``retired``; an entry is
    retired once unregistered or replaced, and then exports nothing."""

    name: str
    sketch: TwigXSketch
    baseline: Optional[CSTEstimator]
    breakers: dict[str, CircuitBreaker] = field(default_factory=dict)
    answers: OrderedDict = field(default_factory=OrderedDict)
    facts: SketchFacts = field(default_factory=SketchFacts)
    lock: threading.Lock = field(default_factory=threading.Lock)
    exported: dict[str, str] = field(default_factory=dict)
    retired: bool = False

    def cached(self, key: tuple) -> Optional[float]:
        """The cached answer for query ``key`` (now the most recently
        used), or None."""
        with self.lock:
            value = self.answers.get(key)
            if value is not None:
                self.answers.move_to_end(key)
            return value

    def remember(self, key: tuple, value: float) -> None:
        """Cache (or refresh) an accepted answer, evicting the least
        recently used beyond :data:`ANSWER_CACHE_SIZE`."""
        with self.lock:
            self.answers[key] = value
            self.answers.move_to_end(key)
            while len(self.answers) > ANSWER_CACHE_SIZE:
                self.answers.popitem(last=False)


def _primary_chain(query: TwigQuery) -> tuple[Path, bool]:
    """Flatten a twig to its primary chain (root, then first children).

    Returns the chain and whether branching siblings were dropped — the
    degraded path tier estimates the chain only, which over-counts when
    sibling subtrees would have filtered matches.
    """
    steps = []
    node = query.root
    collapsed = False
    while node is not None:
        steps.extend(node.path.steps)
        if len(node.children) > 1:
            collapsed = True
        node = node.children[0] if node.children else None
    return Path(tuple(steps)), collapsed


class EstimatorService:
    """A thread-safe registry of validated sketches behind a
    never-failing estimate call.

    Args:
        failure_threshold: consecutive tier failures that open that
            tier's circuit (see :class:`~repro.serve.circuit.CircuitBreaker`).
        cooldown: seconds an open circuit waits before a probe.
        uniform_prior: the terminal tier's estimate; must be finite and
            non-negative.
        max_embeddings: embedding cap handed to the twig estimator —
            bounds per-request work even without a deadline.
        clock: monotonic time source (override in tests).
        metrics: registry serving metrics are recorded into — request/
            failure/degradation counters, per-tier latency histograms,
            and circuit-breaker state gauges, written when a response
            finds a state changed (default: the process-global
            registry).
        tracer: span tracer wrapping each request and tier attempt
            (default: the disabled no-op tracer).
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        uniform_prior: float = DEFAULT_UNIFORM_PRIOR,
        max_embeddings: int = 4096,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        if not math.isfinite(uniform_prior) or uniform_prior < 0:
            raise ServiceError(
                f"uniform_prior must be finite and non-negative, "
                f"got {uniform_prior!r}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.uniform_prior = float(uniform_prior)
        self.max_embeddings = max_embeddings
        self._clock = clock
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        registry = metrics if metrics is not None else default_registry()
        self.metrics = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._requests = registry.counter(
            "serve_requests_total",
            "estimate requests answered, by sketch and answering tier",
            ["sketch", "tier"],
        )
        self._tier_failures = registry.counter(
            "serve_tier_failures_total",
            "tier attempts that failed (breaker-charged)",
            ["sketch", "tier"],
        )
        self._circuit_skips = registry.counter(
            "serve_circuit_skips_total",
            "tier attempts skipped because the circuit was open",
            ["sketch", "tier"],
        )
        self._deadline_hits = registry.counter(
            "serve_deadline_total",
            "requests whose deadline expired before all tiers ran",
            ["sketch"],
        )
        self._degraded_counter = registry.counter(
            "serve_degraded_total",
            "requests answered by a fallback tier (not twig)",
            ["sketch"],
        )
        self._warnings_counter = registry.counter(
            "serve_warnings_total",
            "degradation warnings attached to responses",
            ["sketch"],
        )
        self._latency = registry.histogram(
            "serve_request_seconds",
            "request latency, by sketch and answering tier",
            ["sketch", "tier"],
        )
        self._breaker_gauge = registry.gauge(
            "serve_breaker_state",
            "circuit-breaker state per (sketch, tier); the current "
            "state's series is 1, the other two 0",
            ["sketch", "tier", "state"],
        )

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        sketch: Optional[TwigXSketch] = None,
        *,
        path=None,
        baseline=None,
        validate: bool = True,
        replace: bool = False,
    ) -> None:
        """Register a sketch under ``name``.

        Args:
            name: the handle :meth:`estimate` addresses.
            sketch: an in-memory synopsis, or
            path: a file to :func:`~repro.synopsis.persist.load_sketch`
                (exactly one of the two).
            baseline: an optional :class:`CSTEstimator` (or a
                :class:`CorrelatedSuffixTree`, wrapped automatically)
                enabling the ``cst`` fallback tier.
            validate: run the invariant checker before accepting the
                sketch (strict load for files); pass False to serve a
                known-degraded sketch behind the cascade.
            replace: allow overwriting an existing registration.

        Raises:
            ServiceError: bad arguments or duplicate name.
            SynopsisIntegrityError: the sketch (or file) failed
                validation.
        """
        if not isinstance(name, str) or not name:
            raise ServiceError(f"sketch name must be non-empty, got {name!r}")
        if (sketch is None) == (path is None):
            raise ServiceError(
                "register() takes exactly one of sketch= or path="
            )
        if sketch is None:
            sketch = load_sketch(path, strict=validate)
        elif validate:
            try:
                violations = validate_sketch(sketch)
            except SynopsisIntegrityError:
                raise
            except ReproError as exc:
                # The checker itself blew up on the sketch's structure:
                # that is an integrity failure, reported as one.
                raise SynopsisIntegrityError(
                    f"sketch {name!r} cannot be validated: {exc}"
                ) from exc
            raise_on_violations(violations, source=f"sketch {name!r}")
        if isinstance(baseline, CorrelatedSuffixTree):
            baseline = CSTEstimator(baseline)
        entry = _Entry(name, sketch, baseline)
        for tier in FALLBACK_TIERS:
            entry.breakers[tier] = CircuitBreaker(
                self.failure_threshold, self.cooldown, clock=self._clock
            )
        with self._lock:
            old = self._entries.get(name)
            if old is not None and not replace:
                raise ServiceError(
                    f"sketch {name!r} is already registered "
                    f"(pass replace=True to overwrite)"
                )
            self._entries[name] = entry
            # Under the registry lock, so an unregister or a second
            # register of the name cannot interleave with the gauges.
            if old is not None:
                self._retire(old)
            self._export_breakers(entry, force=True)

    def unregister(self, name: str) -> None:
        """Remove a registered sketch and its breaker gauges; unknown
        names raise."""
        with self._lock:
            if name not in self._entries:
                raise ServiceError(f"no sketch registered as {name!r}")
            entry = self._entries.pop(name)
            self._retire(entry)
            for tier in entry.breakers:
                for state in (CLOSED, OPEN, HALF_OPEN):
                    self._breaker_gauge.remove(
                        sketch=name, tier=tier, state=state
                    )

    @staticmethod
    def _retire(entry: _Entry) -> None:
        """Stop ``entry`` exporting gauges; a response still in flight
        on it finishes without touching them."""
        with entry.lock:
            entry.retired = True

    def names(self) -> list[str]:
        """The registered sketch names, sorted."""
        with self._lock:
            return sorted(self._entries)

    def sketch(self, name: str) -> TwigXSketch:
        """The registered synopsis behind ``name``."""
        return self._entry(name).sketch

    def breaker_states(self, name: str) -> dict[str, str]:
        """Current circuit state per tier (monitoring hook).

        Also rewrites the sketch's ``serve_breaker_state`` gauges, so
        polling this sees live states.  Between polls the gauges show the
        states after the sketch's last response: an open circuit turns
        half-open by time alone, without a write.
        """
        return self._export_breakers(self._entry(name), force=True)

    def _export_breakers(
        self, entry: _Entry, force: bool = False
    ) -> dict[str, str]:
        """Mirror breaker states into the registry: current state 1,
        the other two 0 (the Prometheus state-set idiom).

        Only tiers whose state differs from the last export are written,
        unless ``force``.  States are read and written under the entry
        lock, so a thread holding older states cannot overwrite newer
        ones.  Returns the states read.
        """
        with entry.lock:
            states = {tier: b.state for tier, b in entry.breakers.items()}
            if entry.retired:
                return states
            for tier, current in states.items():
                if not force and entry.exported.get(tier) == current:
                    continue
                for state in (CLOSED, OPEN, HALF_OPEN):
                    self._breaker_gauge.set(
                        1.0 if state == current else 0.0,
                        sketch=entry.name,
                        tier=tier,
                        state=state,
                    )
            entry.exported = states
            return states

    def _entry(self, name: str) -> _Entry:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise ServiceError(
                    f"no sketch registered as {name!r} "
                    f"(registered: {sorted(self._entries) or 'none'})"
                ) from None

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def estimate(
        self,
        name: str,
        query: TwigQuery,
        *,
        deadline: Optional[float] = None,
        explain: Optional[ExplainRecorder] = None,
    ) -> EstimateResponse:
        """Estimate ``query`` over the sketch registered as ``name``.

        Never raises for estimation failures: the cascade degrades tier
        by tier and terminates at the uniform prior.  The returned
        estimate is always finite and non-negative.

        Args:
            deadline: optional per-request wall-clock budget in seconds;
                when exhausted, remaining tiers are skipped.
            explain: optional recorder — captures every tier attempt and
                the chosen tier's full estimation trail.

        Raises:
            ServiceError: unknown sketch name or invalid deadline.
        """
        entry = self._request_entry(name, deadline)
        return self._serve(entry, query, deadline, explain)

    def submit_batch(
        self,
        name: str,
        queries,
        *,
        deadline: Optional[float] = None,
    ) -> list[EstimateResponse]:
        """Estimate a batch of queries; one response per query, in order.

        Each query runs the same cascade as :meth:`estimate`, answer
        cache included, so answers equal per-query :meth:`estimate`'s.
        Degradation, circuit breakers, and metrics behave exactly as for
        individual requests; ``deadline`` applies *per query*.

        Raises:
            ServiceError: unknown sketch name or invalid deadline.
        """
        entry = self._request_entry(name, deadline)
        queries = list(queries)
        with self.tracer.span(
            "serve.batch", sketch=name, queries=len(queries)
        ):
            return [
                self._serve(entry, query, deadline, None)
                for query in queries
            ]

    def _request_entry(self, name: str, deadline: Optional[float]) -> _Entry:
        """The entry a request addresses, after checking its deadline."""
        entry = self._entry(name)
        if deadline is not None and deadline <= 0:
            raise ServiceError(
                f"deadline must be positive, got {deadline!r}"
            )
        return entry

    def _serve(
        self,
        entry: _Entry,
        query: TwigQuery,
        deadline: Optional[float],
        explain: Optional[ExplainRecorder],
    ) -> EstimateResponse:
        """One request, single or batched: its span, the cascade, and the
        per-response metrics."""
        name = entry.name
        with self.tracer.span("serve.request", sketch=name) as request_span:
            response = self._estimate_cascade(
                entry, name, query, deadline, explain
            )
            request_span.annotate(
                tier=response.source,
                estimate=response.estimate,
                warnings=len(response.warnings),
            )
        self._requests.inc(sketch=name, tier=response.source)
        self._latency.observe(
            response.latency, sketch=name, tier=response.source
        )
        if response.degraded:
            self._degraded_counter.inc(sketch=name)
        if response.warnings:
            self._warnings_counter.inc(len(response.warnings), sketch=name)
        self._export_breakers(entry)
        return response

    def _estimate_cascade(
        self,
        entry: _Entry,
        name: str,
        query: TwigQuery,
        deadline: Optional[float],
        explain: Optional[ExplainRecorder],
    ) -> EstimateResponse:
        budget = Budget(deadline=deadline, clock=self._clock)
        warnings: list[str] = []
        # the answer-cache key; explained requests bypass the cache
        key = query.key if explain is None else None
        for tier in FALLBACK_TIERS:
            if budget.expired():
                warnings.append(
                    f"deadline of {deadline:g}s exhausted before the "
                    f"{tier} tier"
                )
                self._deadline_hits.inc(sketch=name)
                if explain is not None:
                    explain.record(
                        _explain.KIND_TIER, tier, "skipped: deadline expired"
                    )
                break
            breaker = entry.breakers[tier]
            if not breaker.allow():
                warnings.append(f"{tier} tier skipped: circuit open")
                self._circuit_skips.inc(sketch=name, tier=tier)
                if explain is not None:
                    explain.record(
                        _explain.KIND_TIER, tier, "skipped: circuit open"
                    )
                continue
            try:
                with self.tracer.span("serve.tier", sketch=name, tier=tier):
                    value = self._run_tier(
                        entry, tier, query, warnings, explain, key
                    )
            except _TierUnavailable as skip:
                # Configuration fact, not a failure: the breaker is not
                # charged (an unavailable tier can never have opened it).
                warnings.append(str(skip))
                if explain is not None:
                    explain.record(_explain.KIND_TIER, tier, str(skip))
                continue
            except Exception as exc:  # service boundary: degrade, never raise
                breaker.record_failure()
                warnings.append(
                    f"{tier} tier failed: {type(exc).__name__}: {exc}"
                )
                self._tier_failures.inc(sketch=name, tier=tier)
                if explain is not None:
                    explain.record(
                        _explain.KIND_TIER,
                        tier,
                        f"failed: {type(exc).__name__}",
                    )
                continue
            breaker.record_success()
            if explain is not None:
                explain.record(
                    _explain.KIND_TIER, tier, "answered", value
                )
            return EstimateResponse(
                value, tier, name, budget.elapsed(), tuple(warnings)
            )
        warnings.append(
            f"all estimation tiers degraded; serving the uniform prior "
            f"({self.uniform_prior:g})"
        )
        if explain is not None:
            explain.record(
                _explain.KIND_TIER,
                TIER_UNIFORM,
                "terminal uniform prior",
                self.uniform_prior,
            )
        return EstimateResponse(
            self.uniform_prior,
            TIER_UNIFORM,
            name,
            budget.elapsed(),
            tuple(warnings),
        )

    # ------------------------------------------------------------------
    def _run_tier(
        self,
        entry: _Entry,
        tier: str,
        query: TwigQuery,
        warnings: list[str],
        explain: Optional[ExplainRecorder] = None,
        key: Optional[tuple] = None,
    ) -> float:
        """One tier's answer, gated by :meth:`_accept`; twig answers are
        cached under ``key`` once they pass the gate, so a cache hit
        needs no second one."""
        if tier == TIER_TWIG:
            cached = None if key is None else entry.cached(key)
            if cached is not None:
                return cached
            value = self._accept(
                TwigEstimator(
                    entry.sketch,
                    max_embeddings=self.max_embeddings,
                    metrics=self.metrics,
                    explain=explain,
                    facts=entry.facts,
                ).estimate(query),
                tier,
            )
            if key is not None:
                entry.remember(key, value)
            return value
        if tier == TIER_PATH:
            chain, collapsed = _primary_chain(query)
            if collapsed:
                warnings.append(
                    "path tier collapsed branching siblings to the "
                    "primary chain"
                )
            return self._accept(
                PathEstimator(
                    entry.sketch, metrics=self.metrics, explain=explain
                ).estimate(chain),
                tier,
            )
        if tier == TIER_CST:
            if entry.baseline is None:
                raise _TierUnavailable(
                    "cst tier unavailable: no baseline registered for "
                    f"{entry.name!r}"
                )
            return self._accept(entry.baseline.estimate(query), tier)
        raise ServiceError(f"unknown tier {tier!r}")  # pragma: no cover

    @staticmethod
    def _accept(value: float, tier: str) -> float:
        """Gate a tier's answer: finite and non-negative, or it failed."""
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise EstimationError(
                f"{tier} tier produced an unusable estimate {value!r} "
                f"(corrupted statistics?)"
            )
        return value
