"""Exporters and export-schema validation for metrics snapshots.

Two wire formats come out of a :class:`~repro.obs.metrics.MetricsRegistry`:

* the **JSON snapshot** (``registry.snapshot()``, schema
  :data:`~repro.obs.metrics.METRICS_SCHEMA`) — what ``repro metrics
  --format json`` and ``repro serve-eval --metrics-json`` emit;
* the **Prometheus text exposition format**
  (:func:`render_prometheus`) — ``# HELP``/``# TYPE`` headers, one
  sample per line, histogram ``_bucket``/``_sum``/``_count`` expansion
  with cumulative ``le`` labels.

The validators are the other half of the CI contract: the workflow's
smoke step pipes a live ``serve-eval`` export through
``python -m repro.obs``, which calls :func:`validate_payload` and fails
the build on any schema drift.  Validation is deliberately hand-rolled
(no ``jsonschema`` in the environment) and returns *every* problem it
finds as a list of human-readable strings rather than stopping at the
first.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

from .metrics import METRICS_SCHEMA

#: schema identifier of the ``serve-eval --metrics-json`` envelope
SERVE_EVAL_SCHEMA = "repro.obs/serve-eval-v1"

_METRIC_TYPES = ("counter", "gauge", "histogram")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: dict[str, str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_number(value) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot in the Prometheus text format."""
    lines: list[str] = []
    for metric in snapshot.get("metrics", []):
        name = metric["name"]
        if metric.get("help"):
            lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {metric['type']}")
        for series in metric["series"]:
            labels = series.get("labels", {})
            if metric["type"] == "histogram":
                for bound, count in series["buckets"]:
                    le = "+Inf" if bound == "+Inf" else _format_number(bound)
                    le_label = 'le="%s"' % le
                    lines.append(
                        f"{name}_bucket{_format_labels(labels, le_label)} "
                        f"{_format_number(count)}"
                    )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_number(series['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} "
                    f"{_format_number(series['count'])}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_number(series['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def validate_metrics_payload(payload) -> list[str]:
    """Every schema problem in a metrics snapshot (empty = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    if payload.get("schema") != METRICS_SCHEMA:
        problems.append(
            f"schema must be {METRICS_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    metrics = payload.get("metrics")
    if not isinstance(metrics, list):
        problems.append("'metrics' must be a list")
        return problems
    for position, metric in enumerate(metrics):
        where = f"metrics[{position}]"
        if not isinstance(metric, dict):
            problems.append(f"{where} must be an object")
            continue
        name = metric.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}.name must be a non-empty string")
        else:
            where = f"metrics[{position}] ({name})"
        if metric.get("type") not in _METRIC_TYPES:
            problems.append(
                f"{where}.type must be one of {_METRIC_TYPES}, "
                f"got {metric.get('type')!r}"
            )
        if not isinstance(metric.get("labelnames"), list):
            problems.append(f"{where}.labelnames must be a list")
        series = metric.get("series")
        if not isinstance(series, list):
            problems.append(f"{where}.series must be a list")
            continue
        for index, entry in enumerate(series):
            problems.extend(
                _validate_series(entry, metric, f"{where}.series[{index}]")
            )
    return problems


def _validate_series(entry, metric: dict, where: str) -> list[str]:
    problems = []
    if not isinstance(entry, dict):
        return [f"{where} must be an object"]
    labels = entry.get("labels")
    if not isinstance(labels, dict):
        problems.append(f"{where}.labels must be an object")
    elif isinstance(metric.get("labelnames"), list) and set(labels) != set(
        metric["labelnames"]
    ):
        problems.append(
            f"{where}.labels keys {sorted(labels)} do not match "
            f"labelnames {sorted(metric['labelnames'])}"
        )
    if metric.get("type") == "histogram":
        buckets = entry.get("buckets")
        if not isinstance(buckets, list) or not buckets:
            problems.append(f"{where}.buckets must be a non-empty list")
        else:
            if buckets[-1][0] != "+Inf":
                problems.append(f"{where}.buckets must end with '+Inf'")
            counts = [pair[1] for pair in buckets if isinstance(pair, list)]
            if counts != sorted(counts):
                problems.append(f"{where}.buckets must be cumulative")
        for key in ("sum", "count"):
            if not isinstance(entry.get(key), (int, float)):
                problems.append(f"{where}.{key} must be a number")
    else:
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}.value must be a number")
    return problems


def validate_serve_eval_payload(payload) -> list[str]:
    """Schema problems in a ``serve-eval --metrics-json`` envelope."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    if payload.get("schema") != SERVE_EVAL_SCHEMA:
        problems.append(
            f"schema must be {SERVE_EVAL_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    requests = payload.get("requests")
    if not isinstance(requests, list) or not requests:
        problems.append("'requests' must be a non-empty list")
    else:
        for index, request in enumerate(requests):
            where = f"requests[{index}]"
            if not isinstance(request, dict):
                problems.append(f"{where} must be an object")
                continue
            for key, kinds in (
                ("query", str),
                ("estimate", (int, float)),
                ("tier", str),
                ("latency", (int, float)),
                ("warnings", list),
            ):
                if not isinstance(request.get(key), kinds):
                    problems.append(f"{where}.{key} missing or mistyped")
    breakers = payload.get("breakers")
    if not isinstance(breakers, dict) or not breakers:
        problems.append("'breakers' must be a non-empty object")
    else:
        for tier, state in breakers.items():
            if state not in ("closed", "open", "half-open"):
                problems.append(
                    f"breakers[{tier!r}] has unknown state {state!r}"
                )
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("'metrics' must be an embedded metrics snapshot")
    else:
        problems.extend(validate_metrics_payload(metrics))
    return problems


def validate_payload(payload) -> list[str]:
    """Dispatch on the payload's ``schema`` field (the CLI validator)."""
    if isinstance(payload, dict) and payload.get("schema") == SERVE_EVAL_SCHEMA:
        return validate_serve_eval_payload(payload)
    return validate_metrics_payload(payload)


def write_export(text: str, destination: Optional[str]) -> None:
    """Write rendered output to a path, or stdout for ``None``/``"-"``."""
    if destination is None or destination == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    with open(destination, "w", encoding="utf8") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")


def load_payload(source: str):
    """Parse JSON from a file path, or stdin for ``"-"``."""
    if source == "-":
        return json.load(sys.stdin)
    with open(source, "r", encoding="utf8") as handle:
        return json.load(handle)
