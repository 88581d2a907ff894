"""Per-layer measurement from outside the program.

:class:`LayerProbe` wraps the public entry point of each layer in a span
of the program's own :class:`repro.obs.tracing.SpanTracer` and restores
the originals on exit, so untraced runs execute the unmodified code.
Each function is replaced under the name its caller looks it up by: a
module-level import is patched in the importing module (the estimator
imports ``enumerate_embeddings`` and ``tree_parse``, XBUILD imports
``generate_candidates``), a method on its class.

Spans stay in the tracer's in-memory ring; :func:`layer_table` turns them
into per-layer self times and counts with :func:`repro.obs.trace_report`.
"""

from __future__ import annotations

import functools
import importlib

from repro.build import refinements, sampling
from repro.build.oracles import ExactOracle
from repro.doc import parser
from repro.estimation import estimator
from repro.obs.trace_report import trace_report
from repro.obs.tracing import SpanTracer
from repro.serve.service import EstimatorService
from repro.synopsis.summary import TwigXSketch

# the package re-exports a function named ``xbuild`` over the module name
xbuild = importlib.import_module("repro.build.xbuild")

#: spans kept in memory per phase; a traced full-scale build makes ~10^5
MAX_SPANS = 3_000_000

#: the span names of the build layers, whose self times (plus the
#: harness root's own time, reported as ``build.other_s``) partition a
#: traced build's wall time
BUILD_LAYERS = {
    "synopsis.coarsest_s": ("synopsis.coarsest",),
    "build.candidates_s": ("build.candidates",),
    "build.sample_s": ("build.sample",),
    "build.apply_s": ("build.apply",),
    "build.truth_s": ("build.truth",),
    "estimate.plan_s": ("estimate.enumerate", "estimate.treeparse"),
    "estimate.expand_s": ("estimate.expand",),
}


def _refinement_classes():
    """Every Refinement subclass that defines its own ``apply``."""
    pending = list(refinements.Refinement.__subclasses__())
    found = []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "apply" in vars(cls):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


class LayerProbe:
    """Context manager: while open, the layer entry points record spans.

    Args:
        tracer: the tracer the spans go to (in-memory, no sink).
    """

    def __init__(self, tracer: SpanTracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerProbe":
        self._patch(parser, "parse_string", "doc.parse")
        self._patch(TwigXSketch, "coarsest", "synopsis.coarsest")
        self._patch(EstimatorService, "register", "synopsis.validate")
        self._patch(xbuild, "generate_candidates", "build.candidates",
                    sized=True)
        self._patch(sampling.RegionSampler, "sample_for_regions",
                    "build.sample")
        for cls in _refinement_classes():
            self._patch(cls, "apply", "build.apply")
        self._patch(ExactOracle, "true_count", "build.truth")
        self._patch(estimator, "enumerate_embeddings", "estimate.enumerate",
                    sized=True)
        self._patch(estimator, "tree_parse", "estimate.treeparse")
        self._patch(estimator.TwigEstimator, "estimate", "estimate.expand")
        self._patch(estimator.TwigEstimator, "report_many",
                    "estimate.expand")
        self._patch(EstimatorService, "estimate", "serve.cascade")
        self._patch(EstimatorService, "submit_batch", "serve.cascade")
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, name: str, sized: bool = False):
        original = vars(owner)[attr]
        is_classmethod = isinstance(original, classmethod)
        function = original.__func__ if is_classmethod else original
        tracer = self.tracer

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = function(*args, **kwargs)
                if sized:
                    span.attrs["n"] = len(result)
                return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)


def span_records(tracer: SpanTracer) -> list[dict]:
    """The tracer's finished spans as trace-report records."""
    if len(tracer.finished) >= MAX_SPANS:
        raise RuntimeError(
            f"span ring full ({MAX_SPANS}); per-layer times would be partial"
        )
    return [span.to_dict() for span in tracer.finished]


class LayerTable:
    """Self time, call count and summed ``n`` attribute per span name."""

    def __init__(self, records: list[dict]):
        report = trace_report(records)
        self.self_time = {kind.name: kind.self_time for kind in report.kinds}
        self.count = {kind.name: kind.count for kind in report.kinds}
        self.total = {kind.name: kind.total for kind in report.kinds}
        self.sized: dict[str, int] = {}
        for record in records:
            n = record["attrs"].get("n")
            if n is not None:
                name = record["name"]
                self.sized[name] = self.sized.get(name, 0) + n

    def self_of(self, *names: str) -> float:
        return sum(self.self_time.get(name, 0.0) for name in names)

    def calls(self, name: str) -> int:
        return self.count.get(name, 0)

    def mean_self(self, name: str) -> float:
        """Self time per call (0 when the layer never ran)."""
        calls = self.calls(name)
        return self.self_time.get(name, 0.0) / calls if calls else 0.0


def layer_table(tracer: SpanTracer) -> LayerTable:
    return LayerTable(span_records(tracer))
