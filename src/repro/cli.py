"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``stats FILE.xml`` — document characteristics (Table 1 columns);
* ``build [FILE.xml | --dataset NAME] --budget KB [--out sketch-info]``
  — run XBUILD and report the constructed synopsis (node/edge/histogram
  inventory); ``--metrics-json PATH`` exports the build's metrics
  snapshot;
  resilience options: ``--deadline SECONDS`` truncates a long build to
  its best-so-far synopsis, ``--checkpoint PATH --checkpoint-every N``
  persist in-flight state, and ``--resume PATH`` continues an
  interrupted build bit-identically;
* ``estimate FILE.xml --query 'for ...' --budget KB [--exact]`` — build a
  synopsis and estimate the twig query's selectivity, optionally
  comparing against exact evaluation;
* ``workload FILE.xml [--queries N] [--values]`` — generate a positive
  workload and print its Table 2 characteristics;
* ``demo [--dataset imdb|xmark|sprot] [--scale N]`` — run the estimate
  flow on a built-in synthetic data set (no input file needed);
* ``validate SKETCH.json`` — integrity-check a saved synopsis: digest,
  schema, and every invariant in ``repro.synopsis.validate``;
* ``serve-eval`` — run a workload through the graceful-degradation
  :class:`~repro.serve.EstimatorService` and report per-tier counts,
  latency, per-request warnings, and final breaker states;
  ``--batch`` serves the workload through ``submit_batch``;
  ``--metrics-json PATH`` additionally exports a machine-readable ``repro.obs/serve-eval-v1``
  envelope (``-`` = stdout);
* ``trace-report FILE`` — aggregate a ``--trace`` JSONL file into
  per-span-kind timings (count/total/self/mean/max) and the critical
  path (``--json`` for machine-readable output);
* ``metrics`` — exercise the full pipeline (parse → XBUILD → serve a
  workload) against the process-global metrics registry and export the
  resulting series as JSON or Prometheus text.

Observability flags: ``build`` and ``serve-eval`` accept ``--trace FILE``
to stream spans as JSONL; ``estimate`` accepts ``--explain`` to print the
per-synopsis-node expansion trail behind the returned number.

The CLI is a thin veneer over the public API; every command maps to a few
library calls shown in README.md.  File-loading commands accept
``--lenient`` to recover a partial tree from malformed XML instead of
failing.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .baselines import CorrelatedSuffixTree
from .build import XBuild
from .datasets import (
    figure1_document,
    generate_imdb,
    generate_sprot,
    generate_xmark,
)
from .doc import document_stats, parse_file
from .errors import ReproError
from .estimation import TwigEstimator
from .obs import (
    SERVE_EVAL_SCHEMA,
    ExplainRecorder,
    JsonlSink,
    SpanTracer,
    default_registry,
    load_spans,
    render_explanation,
    render_trace_report,
    trace_report,
    write_export,
)
from .query import count_bindings, parse_for_clause, parse_path, twig
from .serve import EstimatorService
from .synopsis import (
    TwigXSketch,
    error_violations,
    load_sketch,
    save_sketch,
    validate_sketch,
)
from .workload import WorkloadGenerator, WorkloadSpec

_DATASETS = {
    "imdb": generate_imdb,
    "xmark": generate_xmark,
    "sprot": generate_sprot,
    # The paper's own running example (Figure 1); scale is ignored.
    "paperfig": lambda scale, seed=1: figure1_document(),
}


def _load_tree(args):
    if getattr(args, "dataset", None):
        return _DATASETS[args.dataset](args.scale, seed=1)
    mode = "lenient" if getattr(args, "lenient", False) else "strict"
    return parse_file(args.file, mode=mode)


def _parse_query(text: str):
    stripped = text.strip()
    if stripped.lower().startswith("for ") or " in " in stripped:
        return parse_for_clause(stripped)
    return twig(parse_path(stripped))


def _open_tracer(path):
    """Build a JSONL-sinking tracer for ``--trace PATH`` (or ``(None, None)``)."""
    if not path:
        return None, None
    sink = JsonlSink(path)
    return SpanTracer(sink), sink


def _breakers_from_registry(registry, sketch: str) -> dict:
    """Final breaker states, read back from ``serve_breaker_state`` gauges."""
    states: dict = {}
    for metric in registry.snapshot()["metrics"]:
        if metric["name"] != "serve_breaker_state":
            continue
        for series in metric["series"]:
            labels = series["labels"]
            if labels.get("sketch") == sketch and series["value"] == 1.0:
                states[labels["tier"]] = labels["state"]
    return states


def cmd_stats(args) -> int:
    tree = _load_tree(args)
    stats = document_stats(tree)
    coarsest = TwigXSketch.coarsest(tree)
    print(f"name:             {stats.name or args.file}")
    print(f"elements:         {stats.element_count:,}")
    print(f"distinct tags:    {stats.distinct_tags}")
    print(f"max depth:        {stats.max_depth}")
    print(f"avg fanout:       {stats.avg_fanout:.2f}")
    print(f"text size:        {stats.text_size_mb:.2f} MB")
    print(f"coarsest synopsis: {coarsest.size_kb():.2f} KB")
    return 0


def cmd_build(args) -> int:
    if not args.file and not args.dataset:
        raise ReproError("build needs an XML file or --dataset")
    tree = _load_tree(args)
    checkpoint_every = args.checkpoint_every
    if args.checkpoint and checkpoint_every is None:
        checkpoint_every = 1
    tracer, sink = _open_tracer(args.trace)
    registry = default_registry()
    result = XBuild(
        tree,
        budget_bytes=int(args.budget * 1024),
        seed=args.seed,
        sample_value_probability=0.3 if args.values else 0.0,
        deadline=args.deadline,
        checkpoint_every=checkpoint_every,
        checkpoint_path=args.checkpoint,
        resume_from=args.resume,
        metrics=registry,
        tracer=tracer,
    ).run()
    sketch = result.sketch
    print(f"built {sketch.size_kb():.1f} KB synopsis "
          f"({len(result.steps)} refinements)")
    if result.truncated:
        print(f"truncated: {result.reason} (best-so-far synopsis)")
    print(f"nodes: {sketch.graph.node_count}, edges: {sketch.graph.edge_count}")
    histograms = sum(len(h) for h in sketch.edge_stats.values())
    print(f"edge histograms: {histograms}, "
          f"value histograms: {len(sketch.value_stats)}")
    kinds = Counter(step.description.split()[0] for step in result.steps)
    for kind, count in kinds.most_common():
        print(f"  {kind:<14} x{count}")
    if args.out:
        save_sketch(sketch, args.out)
        print(f"saved to {args.out}")
    if sink is not None:
        sink.close()
        print(f"trace: {sink.written} spans -> {args.trace}")
    if args.metrics_json:
        write_export(
            json.dumps(registry.snapshot(), indent=2, sort_keys=True),
            args.metrics_json,
        )
        if args.metrics_json != "-":
            print(f"metrics: {args.metrics_json}")
    return 0


def cmd_estimate(args) -> int:
    tree = _load_tree(args)
    query = _parse_query(args.query)
    if getattr(args, "synopsis", None):
        sketch = load_sketch(args.synopsis)
    else:
        sketch = XBuild(
            tree,
            budget_bytes=int(args.budget * 1024),
            seed=args.seed,
            sample_value_probability=(
                0.3 if query.has_value_predicates() else 0.0
            ),
        ).run().sketch
    explain = ExplainRecorder() if getattr(args, "explain", False) else None
    report = TwigEstimator(sketch, explain=explain).report(query)
    print(f"synopsis: {sketch.size_kb():.1f} KB; "
          f"embeddings: {report.embeddings}"
          + (" (truncated)" if report.truncated else ""))
    print(f"estimated selectivity: {report.selectivity:,.1f}")
    if explain is not None:
        print("--- explain ---")
        print(render_explanation(explain))
    if args.exact:
        truth = count_bindings(query, tree)
        print(f"exact selectivity:     {truth:,}")
        if truth:
            print(f"relative error:        "
                  f"{abs(report.selectivity - truth) / truth * 100:.1f}%")
    return 0


def cmd_workload(args) -> int:
    tree = _load_tree(args)
    spec = WorkloadSpec(seed=args.seed, value_predicates=args.values)
    load = WorkloadGenerator(tree, spec).positive_workload(args.queries)
    print(f"workload: {len(load.queries)} positive twig queries "
          f"({'P+V' if args.values else 'P'})")
    print(f"avg result: {load.average_result():,.0f}")
    print(f"avg fanout: {load.average_fanout():.2f}")
    if args.show:
        for entry in load.queries[: args.show]:
            print(f"  [{entry.true_count:>8,}] {entry.query.text()}")
    return 0


def cmd_validate(args) -> int:
    sketch = load_sketch(args.synopsis)  # digest + schema (typed errors)
    violations = validate_sketch(sketch)
    if args.json:
        import json

        print(json.dumps([
            {
                "code": v.code,
                "path": v.path,
                "message": v.message,
                "severity": v.severity,
            }
            for v in violations
        ]))
    else:
        for violation in violations:
            print(f"{violation.severity}: {violation.code} "
                  f"at {violation.path}: {violation.message}")
        errors = error_violations(violations)
        print(f"{args.synopsis}: digest ok, "
              f"{len(errors)} error(s), "
              f"{len(violations) - len(errors)} warning(s)")
    return 1 if error_violations(violations) else 0


def cmd_serve_eval(args) -> int:
    if not args.file and not args.dataset:
        raise ReproError("serve-eval needs an XML file or --dataset")
    tree = _load_tree(args)
    registry = default_registry()
    tracer, sink = _open_tracer(args.trace)
    if args.synopsis:
        sketch = load_sketch(args.synopsis, strict=not args.no_validate)
        source = args.synopsis
    else:
        sketch = XBuild(
            tree,
            budget_bytes=int(args.budget * 1024),
            seed=args.seed,
            metrics=registry,
            tracer=tracer,
        ).run().sketch
        source = f"XBUILD ({sketch.size_kb():.1f} KB)"
    service = EstimatorService(
        failure_threshold=args.failure_threshold,
        metrics=registry,
        tracer=tracer,
    )
    service.register(
        "default",
        sketch,
        baseline=CorrelatedSuffixTree.build(tree, int(args.budget * 1024)),
        validate=not args.no_validate,
    )
    spec = WorkloadSpec(seed=args.seed)
    load = WorkloadGenerator(tree, spec).positive_workload(args.queries)
    queries = [entry.query for entry in load.queries]
    if args.batch:
        responses = service.submit_batch(
            "default", queries, deadline=args.deadline
        )
    else:
        responses = [
            service.estimate("default", q, deadline=args.deadline)
            for q in queries
        ]
    tiers: Counter = Counter()
    requests = []
    warnings = 0
    latency = 0.0
    error_sum = 0.0
    errored = 0
    for entry, response in zip(load.queries, responses):
        tiers[response.source] += 1
        warnings += len(response.warnings)
        latency += response.latency
        requests.append({
            "query": entry.query.text(),
            "estimate": response.estimate,
            "tier": response.source,
            "latency": response.latency,
            "true_count": entry.true_count,
            "warnings": list(response.warnings),
        })
        if entry.true_count:
            error_sum += (
                abs(response.estimate - entry.true_count) / entry.true_count
            )
            errored += 1
    # Refresh the breaker gauges, then report the states the registry holds
    # (the same series `repro metrics` exports).
    service.breaker_states("default")
    breakers = _breakers_from_registry(registry, "default")
    count = len(load.queries)
    print(f"served {count} queries over {source}")
    for tier in ("twig", "path", "cst", "uniform"):
        if tiers[tier]:
            print(f"  tier {tier:<8} {tiers[tier]:>5} "
                  f"({tiers[tier] / count * 100:.0f}%)")
    print(f"avg latency: {latency / count * 1000:.2f} ms; "
          f"warnings: {warnings}")
    if errored:
        print(f"avg rel error: {error_sum / errored * 100:.1f}%")
    for index, record in enumerate(requests):
        for warning in record["warnings"]:
            print(f"  warn q{index} [{record['tier']}]: {warning}")
    print("breakers:", " ".join(
        f"{tier}={state}" for tier, state in breakers.items()
    ))
    if sink is not None:
        sink.close()
        print(f"trace: {sink.written} spans -> {args.trace}")
    if args.metrics_json:
        payload = {
            "schema": SERVE_EVAL_SCHEMA,
            "source": source,
            "queries": count,
            "requests": requests,
            "breakers": breakers,
            "metrics": registry.snapshot(),
        }
        write_export(json.dumps(payload, indent=2), args.metrics_json)
        if args.metrics_json != "-":
            print(f"metrics: {args.metrics_json}")
    return 0


def cmd_trace_report(args) -> int:
    """Aggregate a ``--trace`` JSONL file into a profiling summary."""
    report = trace_report(load_spans(args.trace_file))
    if not report.spans:
        raise ReproError(f"{args.trace_file}: no finished spans")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(render_trace_report(report, top=args.top))
    return 0


def cmd_metrics(args) -> int:
    """Exercise the pipeline end-to-end and export the metrics registry."""
    if not args.file and not args.dataset:
        args.dataset = "paperfig"
    registry = default_registry()
    tree = _load_tree(args)
    result = XBuild(
        tree,
        budget_bytes=int(args.budget * 1024),
        seed=args.seed,
        metrics=registry,
    ).run()
    service = EstimatorService(metrics=registry)
    service.register(
        "default",
        result.sketch,
        baseline=CorrelatedSuffixTree.build(tree, int(args.budget * 1024)),
    )
    load = WorkloadGenerator(
        tree, WorkloadSpec(seed=args.seed)
    ).positive_workload(args.queries)
    for entry in load.queries:
        service.estimate("default", entry.query)
    service.breaker_states("default")  # publish final breaker gauges
    if args.format == "prometheus":
        text = registry.render_prometheus()
    else:
        text = json.dumps(registry.snapshot(), indent=2, sort_keys=True)
    write_export(text, args.out)
    if args.out and args.out != "-":
        print(f"wrote {args.format} metrics "
              f"({len(load.queries)} queries served) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Twig XSKETCH: selectivity estimation for XML twigs",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_source(sub, with_file: bool = True):
        if with_file:
            sub.add_argument("file", help="XML document to load")
            sub.add_argument(
                "--lenient", action="store_true",
                help="recover a partial tree from malformed XML "
                     "instead of failing",
            )
        sub.add_argument("--seed", type=int, default=17)

    stats = commands.add_parser("stats", help="document characteristics")
    add_source(stats)
    stats.set_defaults(handler=cmd_stats)

    build = commands.add_parser("build", help="run XBUILD")
    build.add_argument("file", nargs="?", default=None,
                       help="XML document (or use --dataset)")
    build.add_argument("--dataset", choices=sorted(_DATASETS), default=None)
    build.add_argument("--scale", type=int, default=4000)
    build.add_argument("--lenient", action="store_true",
                       help="recover a partial tree from malformed XML "
                            "instead of failing")
    build.add_argument("--seed", type=int, default=17)
    build.add_argument("--budget", type=float, default=16.0, help="KB")
    build.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="export the build's metrics snapshot as JSON; "
                            "'-' = stdout")
    build.add_argument("--values", action="store_true",
                       help="tune for value-predicated workloads")
    build.add_argument("--out", help="save the synopsis as JSON")
    build.add_argument("--deadline", type=float, default=None,
                       help="wall-clock budget in seconds; a build that "
                            "overruns returns its best-so-far synopsis")
    build.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="write build checkpoints to PATH")
    build.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N", help="checkpoint every N refinements "
                                         "(default 1 when --checkpoint "
                                         "is given)")
    build.add_argument("--resume", default=None, metavar="PATH",
                       help="resume an interrupted build from a "
                            "checkpoint file")
    build.add_argument("--trace", default=None, metavar="FILE",
                       help="stream build spans to FILE as JSONL")
    build.set_defaults(handler=cmd_build)

    estimate = commands.add_parser("estimate", help="estimate a twig query")
    add_source(estimate)
    estimate.add_argument("--query", required=True,
                          help="for-clause or path expression")
    estimate.add_argument("--budget", type=float, default=16.0, help="KB")
    estimate.add_argument("--synopsis",
                          help="estimate over a saved synopsis instead of "
                               "building one")
    estimate.add_argument("--exact", action="store_true",
                          help="also evaluate exactly and report the error")
    estimate.add_argument("--explain", action="store_true",
                          help="print the per-synopsis-node expansion "
                               "trail behind the estimate")
    estimate.set_defaults(handler=cmd_estimate)

    workload = commands.add_parser("workload", help="generate a workload")
    add_source(workload)
    workload.add_argument("--queries", type=int, default=20)
    workload.add_argument("--values", action="store_true")
    workload.add_argument("--show", type=int, default=0,
                          help="print the first N queries")
    workload.set_defaults(handler=cmd_workload)

    demo = commands.add_parser("demo", help="estimate over a built-in data set")
    demo.add_argument("--dataset", choices=sorted(_DATASETS), default="imdb")
    demo.add_argument("--scale", type=int, default=8000)
    demo.add_argument("--seed", type=int, default=17)
    demo.add_argument(
        "--query",
        default='for m in movie[/type = "Action"], a in m/actor, p in m/producer',
    )
    demo.add_argument("--budget", type=float, default=8.0, help="KB")
    demo.add_argument("--exact", action="store_true", default=True)
    demo.set_defaults(handler=cmd_estimate, file=None)

    validate = commands.add_parser(
        "validate", help="integrity-check a saved synopsis"
    )
    validate.add_argument("synopsis", help="synopsis JSON file to check")
    validate.add_argument("--json", action="store_true",
                          help="emit violations as a JSON array")
    validate.set_defaults(handler=cmd_validate)

    serve_eval = commands.add_parser(
        "serve-eval",
        help="run a workload through the degradation-aware "
             "estimator service",
    )
    serve_eval.add_argument("file", nargs="?", default=None,
                            help="XML document (or use --dataset)")
    serve_eval.add_argument("--dataset", choices=sorted(_DATASETS),
                            default=None)
    serve_eval.add_argument("--scale", type=int, default=4000)
    serve_eval.add_argument("--seed", type=int, default=17)
    serve_eval.add_argument("--lenient", action="store_true",
                            help="recover a partial tree from malformed "
                                 "XML instead of failing")
    serve_eval.add_argument("--budget", type=float, default=8.0, help="KB")
    serve_eval.add_argument("--queries", type=int, default=25)
    serve_eval.add_argument("--synopsis", default=None,
                            help="serve a saved synopsis instead of "
                                 "building one")
    serve_eval.add_argument("--deadline", type=float, default=None,
                            help="per-request wall-clock budget in seconds")
    serve_eval.add_argument("--batch", action="store_true",
                            help="serve the workload in one submit_batch "
                                 "call (answers equal per-query ones)")
    serve_eval.add_argument("--failure-threshold", type=int, default=5,
                            help="consecutive tier failures that open "
                                 "the circuit")
    serve_eval.add_argument("--no-validate", action="store_true",
                            help="skip invariant validation when "
                                 "registering the synopsis")
    serve_eval.add_argument("--trace", default=None, metavar="FILE",
                            help="stream build+serve spans to FILE as JSONL")
    serve_eval.add_argument("--metrics-json", default=None, metavar="PATH",
                            help="export a repro.obs/serve-eval-v1 JSON "
                                 "envelope (per-request results, breaker "
                                 "states, metrics snapshot); '-' = stdout")
    serve_eval.set_defaults(handler=cmd_serve_eval)

    trace_rep = commands.add_parser(
        "trace-report",
        help="aggregate a --trace JSONL file into a profiling summary",
    )
    trace_rep.add_argument("trace_file",
                           help="JSONL span file written by --trace")
    trace_rep.add_argument("--top", type=int, default=0,
                           help="show only the N hottest span kinds")
    trace_rep.add_argument("--json", action="store_true",
                           help="emit the report as JSON")
    trace_rep.set_defaults(handler=cmd_trace_report)

    metrics = commands.add_parser(
        "metrics",
        help="exercise the pipeline and export the metrics registry",
    )
    metrics.add_argument("file", nargs="?", default=None,
                         help="XML document (or use --dataset)")
    metrics.add_argument("--dataset", choices=sorted(_DATASETS),
                         default=None)
    metrics.add_argument("--scale", type=int, default=2000)
    metrics.add_argument("--seed", type=int, default=17)
    metrics.add_argument("--lenient", action="store_true",
                         help="recover a partial tree from malformed "
                              "XML instead of failing")
    metrics.add_argument("--budget", type=float, default=4.0, help="KB")
    metrics.add_argument("--queries", type=int, default=12)
    metrics.add_argument("--format", choices=("json", "prometheus"),
                         default="json")
    metrics.add_argument("--out", default="-", metavar="PATH",
                         help="destination file; '-' = stdout (default)")
    metrics.set_defaults(handler=cmd_metrics)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
