"""A thread-safe, dependency-free metrics registry.

Three metric kinds, modelled on the Prometheus data model but with no
client-library dependency (the environment is stdlib-only):

* :class:`Counter` — a monotonically increasing total (requests served,
  oracle calls made);
* :class:`Gauge` — a value that goes up and down (current synopsis size,
  circuit-breaker state);
* :class:`Histogram` — bucketed observations with a running sum and
  count (request latencies); buckets are cumulative on export, exactly
  like Prometheus ``_bucket{le=...}`` series.

Every metric may carry **labels**: a fixed tuple of label names declared
at creation, with one independent series per distinct label-value
combination.  The registry is get-or-create — asking twice for the same
name returns the same object, and asking with a conflicting kind or
label set raises — so instrumented modules never need to coordinate
creation order.

Concurrency: the registry locks around metric creation; each metric
locks around its own series map.  Increments are a dict update under
that lock — cheap enough to sit on per-round and per-request paths
(the hammer test in ``tests/test_obs.py`` proves exact counts under
contention).

A process-global registry (:func:`default_registry`) is what
instrumented subsystems record into unless handed an explicit one;
:func:`reset_default_registry` swaps in a fresh one (test isolation).
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Iterable, Optional, Sequence

from ..errors import ReproError

#: JSON snapshot schema identifier (see :mod:`repro.obs.export`).
METRICS_SCHEMA = "repro.obs/metrics-v1"

#: default latency buckets, in seconds (sub-millisecond to 10 s).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricsError(ReproError):
    """A metric was created or used inconsistently (bad name, kind
    conflict, wrong label set)."""


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise MetricsError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not isinstance(label, str) or not _LABEL_RE.match(label):
            raise MetricsError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise MetricsError(f"duplicate label names in {names!r}")
    return names


class _Metric:
    """Common state: name, help text, label names, and the series map."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]):
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        self._series: dict = {}

    def _key(self, labels: dict) -> tuple:
        # Label names are unique, so as many labels as names, each of them
        # found, is exactly the declared label set.
        if len(labels) == len(self.labelnames):
            try:
                values = [labels[name] for name in self.labelnames]
            except KeyError:
                pass
            else:
                return tuple([str(value) for value in values])
        raise MetricsError(
            f"metric {self.name!r} takes labels "
            f"{list(self.labelnames)}, got {sorted(labels)}"
        )

    def _labels_dict(self, key: tuple) -> dict[str, str]:
        return dict(zip(self.labelnames, key))

    def series(self) -> list[tuple[dict[str, str], object]]:
        """(labels, value) per series — scalars for counter/gauge,
        a state dict for histograms."""
        with self._lock:
            items = list(self._series.items())
        return [(self._labels_dict(key), value) for key, value in items]


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (inc {amount!r})"
            )
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current total of the labelled series (0.0 when never touched)."""
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0.0)


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def remove(self, **labels) -> None:
        """Drop the labelled series from exports (no-op when absent)."""
        key = self._key(labels)
        with self._lock:
            self._series.pop(key, None)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0.0)


class _HistogramSeries:
    """Per-label-combination histogram state (bucket counts, sum, count)."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, nbuckets: int):
        self.bucket_counts = [0] * nbuckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Bucketed observations with a running sum and count.

    ``buckets`` are the upper bounds of each bucket, strictly increasing;
    an implicit ``+Inf`` bucket catches everything above the last bound.
    On export, bucket counts are cumulative (Prometheus convention).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or not all(math.isfinite(b) for b in bounds):
            raise MetricsError(
                f"histogram {name!r} buckets must be a non-empty, finite, "
                f"strictly increasing sequence, got {buckets!r}"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the labelled series."""
        value = float(value)
        if not math.isfinite(value):
            raise MetricsError(
                f"histogram {self.name!r} observation must be finite, "
                f"got {value!r}"
            )
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = self._series[key] = _HistogramSeries(
                    len(self.buckets) + 1
                )
            # the first bound >= value; len(buckets) is the +Inf bucket
            state.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
            state.sum += value
            state.count += 1

    def snapshot_series(self, **labels) -> Optional[dict]:
        """Cumulative-bucket view of one labelled series, or None."""
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                return None
            return self._render_state(state)

    def _render_state(self, state: _HistogramSeries) -> dict:
        cumulative = []
        running = 0
        for bound, count in zip(self.buckets, state.bucket_counts):
            running += count
            cumulative.append([bound, running])
        cumulative.append(["+Inf", running + state.bucket_counts[-1]])
        return {
            "buckets": cumulative,
            "sum": state.sum,
            "count": state.count,
        }


class MetricsRegistry:
    """A named collection of metrics with snapshot/export support."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # ------------------------------------------------------------------
    # creation (get-or-create; conflicting redeclaration raises)
    # ------------------------------------------------------------------
    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        _check_name(name)
        names = _check_labelnames(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != names:
                    raise MetricsError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{list(existing.labelnames)}"
                    )
                return existing
            metric = cls(name, help, names, **kwargs)
            self._metrics[name] = metric
            return metric

    def get(self, name: str) -> Optional[_Metric]:
        """The registered metric, or None."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-serializable snapshot of every series.

        Shape (schema :data:`METRICS_SCHEMA`)::

            {"schema": "repro.obs/metrics-v1",
             "metrics": [{"name": ..., "type": "counter", "help": ...,
                          "labelnames": [...],
                          "series": [{"labels": {...}, "value": 1.0}]},
                         ...]}

        Histogram series carry ``{"labels", "buckets", "sum", "count"}``
        with cumulative ``[upper_bound, count]`` bucket pairs ending at
        ``"+Inf"``.
        """
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        out = []
        for metric in metrics:
            series = []
            for labels, value in metric.series():
                if isinstance(metric, Histogram):
                    entry = {"labels": labels}
                    entry.update(metric._render_state(value))
                else:
                    entry = {"labels": labels, "value": value}
                series.append(entry)
            series.sort(key=lambda entry: sorted(entry["labels"].items()))
            out.append({
                "name": metric.name,
                "type": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "series": series,
            })
        return {"schema": METRICS_SCHEMA, "metrics": out}

    def render_prometheus(self) -> str:
        """The snapshot in the Prometheus text exposition format."""
        from .export import render_prometheus  # local: avoid cycle at import

        return render_prometheus(self.snapshot())


# ----------------------------------------------------------------------
# the process-global default registry
# ----------------------------------------------------------------------
_default_lock = threading.Lock()
_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry instrumented subsystems record into."""
    with _default_lock:
        return _default_registry


def reset_default_registry() -> MetricsRegistry:
    """Swap in a fresh default registry and return it (test isolation)."""
    global _default_registry
    with _default_lock:
        _default_registry = MetricsRegistry()
        return _default_registry
