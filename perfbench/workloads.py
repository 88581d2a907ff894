"""The three benchmark workloads: inputs, set-up, measured loops, checks.

The inputs are the ROADMAP baseline: the imdb document at 12 000
elements and the XBUILD seed, both seed 55, with query populations drawn
from that seed too.  The run's ``--seed`` shuffles the order of the
requests; build-imdb does not depend on it.  Holding the document, the
build and the query populations fixed keeps the figures comparable
across seeds: drawn per seed, a population's few heavy queries set the
tail latency and the mean error, and the XBUILD seed sets the step count
(21 to 30 steps).

The program receives only the XML text and query objects.  Input
generation and exact counting are harness work, so they happen before
``setup_s`` starts and outside every timed region.  Each workload is one
closed-loop client in this process: the next request goes out when the
previous answer is back.

Every workload reports the same metrics: :data:`END_TO_END` on an
untraced run, :data:`PER_LAYER` on a traced one.  Each workload runs
every layer: build-imdb serves its held-out queries through an
``EstimatorService`` after the builds, and serve-* build their sketch in
set-up.  Timings are scaled to a reference host speed (see
:class:`HostSpeed`); the raw wall times go to the run's record.

``run_workload`` returns a :class:`RunResult`: the metrics, the failure
counts and the input/host record.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import pickle
import platform
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.build.xbuild import XBuild
from repro.datasets import generate_imdb
from repro.doc import parser
from repro.doc.serializer import serialize
from repro.estimation.estimator import TwigEstimator
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanTracer
from repro.serve.service import TIER_TWIG, EstimatorService
from repro.synopsis.persist import sketch_to_dict
from repro.synopsis.validate import error_violations, validate_sketch
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.metrics import average_relative_error

from layers import MAX_SPANS, LayerProbe, layer_table

WORKLOADS = ("build-imdb", "serve-distinct", "serve-skewed")

#: end-to-end metrics (name, unit) of an untraced run, on every workload.
#: An operation is one build (build-imdb), one ``estimate`` request
#: (serve-distinct) or one ``submit_batch`` call (serve-skewed).
#: failed_pct is printed too but is not declared: it is 0 on every
#: healthy run.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("sketch_bytes", "B"),
    ("error_pct", "%"),
    ("peak_rss_mb", "MB"),
)

#: per-layer metrics (name, unit) of a traced run, on every workload
PER_LAYER = (
    ("doc.parse_s", "s"),
    ("synopsis.coarsest_s", "s"),
    ("synopsis.validate_s", "s"),
    ("build.candidates_s", "s"),
    ("build.candidates_n", "count"),
    ("build.sample_s", "s"),
    ("build.apply_s", "s"),
    ("build.apply_n", "count"),
    ("build.useful_ratio", "ratio"),
    ("build.truth_s", "s"),
    ("build.truth_n", "count"),
    ("build.truth_hit_ratio", "ratio"),
    ("build.other_s", "s"),
    ("build.traced_s", "s"),
    ("estimate.plan_s", "s"),
    ("estimate.plan_n", "count"),
    ("estimate.expand_s", "s"),
    ("estimate.embeddings_n", "count"),
    ("estimate.plan_reuse_ratio", "ratio"),
    ("serve.cascade_s", "s"),
    ("serve.tier_n.twig", "count"),
    ("serve.tier_n.path", "count"),
    ("serve.tier_n.cst", "count"),
    ("serve.tier_n.uniform", "count"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

_TIERS = ("twig", "path", "cst", "uniform")


@dataclass(frozen=True)
class Scale:
    """Input sizes.  Stream lengths grow with ``--seconds`` at a nominal
    rate (today's speed on a 2-vCPU host) above the floors the workloads
    need: p95 over ≥1000 requests or ≥200 batches, a median over ≥2
    builds."""

    elements: int = 12_000
    budget: int = 6144
    #: serve-distinct's early snapshots: the first sketch at or above each
    snapshots: tuple = (2048, 4096)
    heldout: int = 200
    distinct_floor: int = 1000
    distinct_per_s: float = 120.0
    hot: int = 200
    zipf_s: float = 1.1
    batch: int = 16
    batches_floor: int = 200
    batches_per_s: float = 40.0
    builds_floor: int = 2
    builds_per_s: float = 0.1
    #: parses timed for build-imdb's setup_s (the median is reported)
    setup_repeats: int = 15
    warmup_queries: int = 32
    warmup_elements: int = 1500
    warmup_budget: int = 2048
    #: leading serve-skewed batches re-checked request by request
    checked_batches: int = 8
    #: kernel rounds per host-speed reading (the median is taken)
    calib_rounds: int = 3
    #: serve loops read the host speed after each stretch this long
    stretch_s: float = 0.25


FULL = Scale()

#: the benchmark's own tests: same code paths, seconds instead of minutes
TINY = replace(
    FULL,
    elements=1500,
    budget=2048,
    snapshots=(900, 1400),
    heldout=24,
    distinct_floor=40,
    distinct_per_s=0.0,
    hot=20,
    batches_floor=12,
    batches_per_s=0.0,
    builds_per_s=0.0,
    setup_repeats=3,
    warmup_queries=8,
    warmup_elements=600,
    warmup_budget=1024,
    checked_batches=3,
    calib_rounds=1,
    stretch_s=0.05,
)


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    #: samples the value rests on
    n: int


@dataclass
class RunResult:
    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: list = field(default_factory=list)
    record: dict = field(default_factory=dict)
    #: failed correctness checks, one line each
    problems: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def emit(self, spec, values: dict) -> None:
        """Sets ``metrics`` from ``values`` (name -> (value, samples)) in
        the order of ``spec``."""
        self.metrics = [Metric(name, values[name][0], unit,
                               int(values[name][1]))
                        for name, unit in spec]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
#: document, XBUILD and query-population seed (the ROADMAP baseline)
BASELINE_SEED = 55

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: generated queries with their exact counts, kept between runs so that
#: a run spends its time measuring; keyed by the program's sources
CACHE_DIR = os.path.join(ROOT, ".perfbench-cache")


def sub_seed(seed: int, label: str) -> int:
    """An independent seed per input, stable across processes."""
    return random.Random(f"{seed}/{label}").getrandbits(31)


@dataclass
class Inputs:
    seed: int
    xml: str
    #: the harness's own copy of the document, for queries and truths
    tree: object
    #: names the document and the program that counted the truths
    cache_key: str

    def queries(self, count: int, label: str) -> list:
        """``count`` distinct queries drawn from ``label``'s seed, with
        their exact counts, from the cache when an earlier run made them."""
        path = os.path.join(CACHE_DIR, f"{self.cache_key}-{label}-{count}")
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)  # written below by this harness
        except (OSError, EOFError, pickle.UnpicklingError):
            pass
        found = distinct_queries(self.tree, count,
                                 sub_seed(BASELINE_SEED, label))
        os.makedirs(CACHE_DIR, exist_ok=True)
        partial = f"{path}.{os.getpid()}"
        with open(partial, "wb") as handle:
            pickle.dump(found, handle)
        os.replace(partial, path)
        return found


def _sources_digest() -> str:
    """Digest of the program's sources."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode("utf8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def make_inputs(seed: int, scale: Scale) -> Inputs:
    tree = generate_imdb(scale.elements, seed=BASELINE_SEED)
    return Inputs(seed, serialize(tree, pretty=False), tree,
                  f"{_sources_digest()}-{scale.elements}")


def distinct_queries(tree, count: int, seed: int) -> list:
    """``count`` positive P+V workload queries, distinct by text."""
    generator = WorkloadGenerator(
        tree, WorkloadSpec(value_predicates=True, seed=seed)
    )
    seen = set()
    found = []
    for _ in range(100):
        wanted = count - len(found)
        for entry in generator.positive_workload(max(wanted, 16)).queries:
            text = entry.query.text()
            if text not in seen and len(found) < count:
                seen.add(text)
                found.append(entry)
        if len(found) == count:
            return found
    raise RuntimeError(f"document yields fewer than {count} distinct "
                       f"queries")


def error_pct(estimates, truths) -> float:
    return 100.0 * average_relative_error(estimates, truths)


# ----------------------------------------------------------------------
# host speed and timing
# ----------------------------------------------------------------------
#: the calibration kernel's time (ms) at the reference host speed
REFERENCE_CALIB_MS = 15.0

#: how far the program's speed follows the kernel's: a stretch is scaled
#: by (REFERENCE_CALIB_MS / reading) ** SPEED_EXPONENT.  Interleaving
#: the kernel with estimate calls, small builds and parses for minutes
#: at a time gave exponents from 0.45 to 0.85 (log-log fit): the kernel
#: swings more than the program when the host changes phase.
SPEED_EXPONENT = 0.75

#: nodes of the calibration kernel's graph
_KERNEL_NODES = 50_000
_kernel_graph: tuple = ()


def _kernel_walk(graph: dict, weight: dict) -> float:
    """Every 5-edge path from 20 fixed nodes; the mean weight per path."""
    total = 0.0

    def walk(node: int, depth: int, path: tuple) -> None:
        nonlocal total
        if depth == 0:
            total += sum(weight[step] for step in path) / len(path)
            return
        for child in graph[node]:
            walk(child, depth - 1, path + (child,))

    for start in range(0, _KERNEL_NODES, _KERNEL_NODES // 20):
        walk(start, 5, (start,))
    return total


def calibrate(rounds: int) -> list:
    """Milliseconds per round of a fixed pure-Python kernel (host speed).

    The kernel walks a fixed random graph held in dicts, making tuples
    and summing floats, as twig estimation does.  It follows the
    program's speed far closer than a small arithmetic loop: the host's
    slow phases slow pointer-chasing code more than they slow a loop
    that stays in the first-level cache.
    """
    global _kernel_graph
    if not _kernel_graph:
        rng = random.Random(0)
        # shared int and float objects keep the graph to a few MB
        nodes = list(range(_KERNEL_NODES))
        weights = [1.0 + step / 10.0 for step in range(7)]
        _kernel_graph = (
            {node: tuple(nodes[rng.randrange(_KERNEL_NODES)]
                         for _ in range(3)) for node in nodes},
            {node: weights[node % 7] for node in nodes},
        )
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        _kernel_walk(*_kernel_graph)
        samples.append((time.perf_counter() - started) * 1000.0)
    return samples


class HostSpeed:
    """Readings of the calibration kernel, taken next to the timed work.

    The shared host's speed drifts by up to 2x within minutes, and every
    timing of the program moves with it.  Each timed stretch of work
    therefore lies between two readings, and its wall time is scaled by
    ``REFERENCE_CALIB_MS`` over their mean, raised to
    ``SPEED_EXPONENT``: a timing reads what the work takes at the
    reference speed.  The readings themselves are never inside a timed
    stretch.
    """

    def __init__(self, rounds: int):
        self.rounds = rounds
        #: every reading, in ms
        self.readings: list = []
        self._last = 0.0

    def read(self) -> None:
        """A reading that opens the next stretch."""
        self._last = self._measure()

    def factor(self) -> float:
        """A reading that closes the stretch since the previous one;
        returns the stretch's scale factor."""
        before = self._last
        self._last = self._measure()
        return (2.0 * REFERENCE_CALIB_MS
                / (before + self._last)) ** SPEED_EXPONENT

    def _measure(self) -> float:
        reading = statistics.median(calibrate(self.rounds))
        self.readings.append(reading)
        return reading


class Stopwatch:
    """Times work in stretches separated by host-speed readings.

    ``raw`` is the summed wall time of the stretches and ``scaled`` the
    same at the reference speed.  :meth:`lap` takes any arguments, so it
    can be XBUILD's ``on_step`` callback.
    """

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.raw = self.scaled = 0.0
        self._mark = 0.0

    def start(self) -> None:
        self.speed.read()
        self._mark = time.perf_counter()

    def elapsed(self) -> float:
        """Wall time of the open stretch so far."""
        return time.perf_counter() - self._mark

    def lap(self, *_) -> float:
        """Closes the open stretch, opens the next; returns its factor."""
        elapsed = time.perf_counter() - self._mark
        factor = self.speed.factor()
        self.raw += elapsed
        self.scaled += elapsed * factor
        self._mark = time.perf_counter()
        return factor


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timings(latencies: list, done: int, wall: float) -> dict:
    """Latency percentiles of the operations and work items per second."""
    return {
        "latency_p50_ms": (1000.0 * percentile(latencies, 50),
                           len(latencies)),
        "latency_p95_ms": (1000.0 * percentile(latencies, 95),
                           len(latencies)),
        "throughput_per_s": (done / wall, done),
    }


# ----------------------------------------------------------------------
# tracing helpers
# ----------------------------------------------------------------------
def _probe(tracer):
    return LayerProbe(tracer) if tracer is not None else nullcontext()


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _new_tracer() -> SpanTracer:
    return SpanTracer(max_kept=MAX_SPANS)


def _series(registry: MetricsRegistry, name: str) -> list:
    """(labels, value) pairs of a metric; empty when it was never made."""
    metric = registry.get(name)
    return metric.series() if metric is not None else []


def _build_layers(table, registry: MetricsRegistry) -> dict:
    """Build-layer metrics of one traced build (span ``bench.build``)."""
    counters = {
        (name, labels["outcome"]): value
        for name in ("build_candidates_total", "build_oracle_cache_total")
        for labels, value in _series(registry, name)
    }
    candidates = sum(value for (name, _), value in counters.items()
                     if name == "build_candidates_total")
    scored = counters.get(("build_candidates_total", "scored"), 0.0)
    hits = counters.get(("build_oracle_cache_total", "hit"), 0.0)
    misses = counters.get(("build_oracle_cache_total", "miss"), 0.0)
    calls = table.calls
    return {
        "synopsis.coarsest_s": (table.self_of("synopsis.coarsest"),
                                calls("synopsis.coarsest")),
        "build.candidates_s": (table.self_of("build.candidates"),
                               calls("build.candidates")),
        "build.candidates_n": (table.sized.get("build.candidates", 0),
                               calls("build.candidates")),
        "build.sample_s": (table.self_of("build.sample"),
                           calls("build.sample")),
        "build.apply_s": (table.self_of("build.apply"), calls("build.apply")),
        "build.apply_n": (calls("build.apply"), 1),
        "build.useful_ratio": (scored / candidates if candidates else 0.0,
                               candidates),
        "build.truth_s": (table.self_of("build.truth"), calls("build.truth")),
        "build.truth_n": (calls("build.truth"), 1),
        "build.truth_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, hits + misses
        ),
        "build.other_s": (table.self_of("bench.build"), 1),
        "build.traced_s": (table.total.get("bench.build", 0.0), 1),
    }


def _estimate_layers(table, requests: int) -> dict:
    """Estimation-layer metrics; ``requests`` is the answers given."""
    plans = table.calls("estimate.enumerate")
    return {
        "estimate.plan_s": (
            table.self_of("estimate.enumerate", "estimate.treeparse"),
            plans + table.calls("estimate.treeparse"),
        ),
        "estimate.plan_n": (plans, 1),
        "estimate.expand_s": (table.self_of("estimate.expand"),
                              table.calls("estimate.expand")),
        "estimate.embeddings_n": (table.sized.get("estimate.enumerate", 0),
                                  plans),
        "estimate.plan_reuse_ratio": (requests / plans if plans else 0.0,
                                      requests),
    }


def _serve_layers(table, tiers: dict, requests: int) -> dict:
    """Serving-layer metrics; ``tiers`` counts the answers per tier."""
    return {
        "serve.cascade_s": (table.self_of("serve.cascade"),
                            table.calls("serve.cascade")),
        **{f"serve.tier_n.{tier}": (tiers[tier], requests)
           for tier in _TIERS},
    }


def _tier_counts(service: EstimatorService) -> dict:
    counts = dict.fromkeys(_TIERS, 0.0)
    for labels, value in _series(service.metrics, "serve_requests_total"):
        counts[labels["tier"]] = counts.get(labels["tier"], 0.0) + value
    return counts


def _host_facts(result: RunResult, inputs: Inputs, speed: HostSpeed,
                values: dict) -> None:
    calib = statistics.median(speed.readings)
    values["host.calib_ms"] = (calib, len(speed.readings))
    result.record.update(
        seed=inputs.seed,
        pythonhashseed=os.environ.get("PYTHONHASHSEED"),
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        **{"host.calib_ms": calib},
        reference_calib_ms=REFERENCE_CALIB_MS,
        doc_elements=inputs.tree.element_count,
        xml_bytes=len(inputs.xml.encode("utf8")),
    )


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------
def _check_answer(response) -> str:
    """Why a serve answer is wrong, or '' when it is acceptable."""
    if response is None:
        return "raised"
    if response.source != TIER_TWIG:
        return f"answered by the {response.source} tier"
    if not math.isfinite(response.estimate) or response.estimate < 0:
        return f"estimate {response.estimate!r}"
    return ""


def _check_answers(result: RunResult, answers: list, label: str) -> None:
    result.attempted += len(answers)
    bad = [(index, why) for index, why in
           ((i, _check_answer(a)) for i, a in enumerate(answers)) if why]
    if bad:
        index, why = bad[0]
        result.fail(len(bad), f"{label}: {len(bad)} bad answers; request "
                              f"{index}: {why}")


def _estimates(answers: list) -> list:
    return [None if answer is None else answer.estimate for answer in answers]


def _estimate_sender(service: EstimatorService):
    """Sends one (sketch name, query) through ``estimate``."""

    def send(item) -> list:
        name, query = item
        try:
            return [service.estimate(name, query)]
        except Exception:  # counted as a failed request by the checks
            return [None]

    return send


def _batch_sender(service: EstimatorService):
    """Sends one batch of queries to the final sketch via ``submit_batch``."""

    def send(batch) -> list:
        try:
            return service.submit_batch("final", batch)
        except Exception:  # counted as failed requests by the checks
            return [None] * len(batch)

    return send


@dataclass
class Loop:
    """One closed-loop pass over a stream."""

    #: per-operation latencies (s) at the reference speed, and raw
    latencies: list
    raw_latencies: list
    #: every answer, in stream order (None for a raise)
    answers: list
    #: the loop's wall time (s) at the reference speed, and raw
    wall: float
    raw_wall: float


def closed_loop(send, stream, speed: HostSpeed, stretch_s: float) -> Loop:
    """Sends each item of ``stream`` when the previous answer is back.

    The host speed is read after every ``stretch_s`` of sending, and the
    latencies of the stretch are scaled by its factor.
    """
    latencies, raw, answers, pending = [], [], [], []
    watch = Stopwatch(speed)

    def close_stretch() -> None:
        factor = watch.lap()
        raw.extend(pending)
        latencies.extend(latency * factor for latency in pending)
        pending.clear()

    gc.collect()
    watch.start()
    for item in stream:
        sent = time.perf_counter()
        answers.extend(send(item))
        pending.append(time.perf_counter() - sent)
        if watch.elapsed() >= stretch_s:
            close_stretch()
    close_stretch()
    return Loop(latencies, raw, answers, watch.scaled, watch.raw)


# ----------------------------------------------------------------------
# build-imdb
# ----------------------------------------------------------------------
def run_build(inputs: Inputs, scale: Scale, seconds: float,
              trace: bool) -> RunResult:
    """Repeated serial XBUILD builds, each on its own freshly parsed tree,
    then the held-out queries served from the built sketch."""
    result = RunResult("build-imdb")
    speed = HostSpeed(scale.calib_rounds)
    builds = max(scale.builds_floor, math.ceil(seconds * scale.builds_per_s))
    heldout = inputs.queries(scale.heldout, "heldout")
    warm_xml = serialize(
        generate_imdb(scale.warmup_elements,
                      seed=sub_seed(BASELINE_SEED, "warmup-doc")),
        pretty=False,
    )
    setup_tracer = _new_tracer() if trace else None

    # set-up: one parse per build (plus extra timed parses for the median)
    trees, parse_times, raw_parse_times = [], [], []
    with _probe(setup_tracer):
        for index in range(max(scale.setup_repeats, builds)):
            watch = Stopwatch(speed)
            gc.collect()
            watch.start()
            tree = parser.parse_string(inputs.xml)
            watch.lap()
            parse_times.append(watch.scaled)
            raw_parse_times.append(watch.raw)
            if index < builds:
                trees.append(tree)

    XBuild(parser.parse_string(warm_xml), scale.warmup_budget,
           seed=BASELINE_SEED).run()

    times, raw_times, payloads, sizes, errors, steps = [], [], [], [], [], []
    built_sketch = reports = None
    build_tracer = build_registry = None
    for index, tree in enumerate(trees):
        # a traced run times its last build with the probe installed; a
        # traced build reads the host speed only around the build, so
        # that no reading lands inside its spans
        traced = trace and index == builds - 1
        tracer = _new_tracer() if traced else None
        registry = MetricsRegistry()
        watch = Stopwatch(speed)
        trees[index] = None
        gc.collect()
        result.attempted += 1
        try:
            with _probe(tracer):
                builder = XBuild(tree, scale.budget, seed=BASELINE_SEED,
                                 metrics=registry,
                                 on_step=None if traced else watch.lap)
                watch.start()
                with _span(tracer, "bench.build"):
                    built = builder.run()
                watch.lap()
        except Exception as exc:  # a failed build is counted, not fatal
            result.fail(1, f"build {index} raised {type(exc).__name__}: "
                           f"{exc}")
            continue
        del tree
        if built.truncated:
            result.fail(1, f"build {index} truncated: {built.reason}")
            continue
        violations = error_violations(validate_sketch(built.sketch))
        if violations:
            result.fail(1, f"build {index} invalid: {violations[0]}")
            continue
        payload = sketch_to_dict(built.sketch)
        if payloads and payload != payloads[0]:
            result.fail(1, f"build {index} differs from build 0")
            continue
        estimator = TwigEstimator(built.sketch)
        reports = [estimator.report(entry.query) for entry in heldout]
        error = error_pct([r.selectivity for r in reports],
                          [entry.true_count for entry in heldout])
        if errors and error != errors[0]:
            result.fail(1, f"build {index} error {error} != {errors[0]}")
            continue
        built_sketch = built.sketch
        payloads.append(payload)
        sizes.append(built.sketch.size_bytes())
        errors.append(error)
        steps.append(len(built.steps))
        times.append(watch.scaled)
        raw_times.append(watch.raw)
        if traced:
            build_tracer, build_registry = tracer, registry
    if built_sketch is None:
        return result

    # the built sketch serves the held-out queries: the answers must be
    # the estimator's own
    serve_tracer = _new_tracer() if trace else None
    service = EstimatorService(metrics=MetricsRegistry())
    with _probe(serve_tracer):
        service.register("built", built_sketch, validate=True)
        send = _estimate_sender(service)
        answers = [answer for entry in heldout
                   for answer in send(("built", entry.query))]
    _check_answers(result, answers, "held-out")
    mismatched = sum(answer is not None
                     and answer.estimate != report.selectivity
                     for answer, report in zip(answers, reports))
    if mismatched:
        result.fail(mismatched, f"{mismatched} served answers differ from "
                                f"the estimator's")

    values: dict = {}
    _host_facts(result, inputs, speed, values)
    result.record.update(
        builds=builds,
        budget_bytes=scale.budget,
        steps=steps,
        sketch_bytes=sizes[:1],
        heldout_queries=len(heldout),
        mean_embeddings_per_request=statistics.fmean(
            r.embeddings for r in reports),
        raw_wall={"setup_s": statistics.median(raw_parse_times),
                  "builds_s": raw_times},
    )
    if not trace:
        values.update(
            setup_s=(statistics.median(parse_times), len(parse_times)),
            **_timings(times, len(times), sum(times)),
            sketch_bytes=(sizes[0], len(sizes)),
            error_pct=(errors[0], len(heldout)),
            peak_rss_mb=(peak_rss_mb(), 1),
        )
        result.emit(END_TO_END, values)
        return result
    if build_tracer is None or len(times) < 2:
        result.problems.append("traced run lacks a traced and an untraced "
                               "build")
        return result
    setup = layer_table(setup_tracer)
    table = layer_table(build_tracer)
    served = layer_table(serve_tracer)
    values.update(
        _build_layers(table, build_registry),
        **_estimate_layers(table, table.calls("estimate.expand")),
        **_serve_layers(served, _tier_counts(service), len(answers)),
    )
    values["doc.parse_s"] = (setup.mean_self("doc.parse"),
                             setup.calls("doc.parse"))
    values["synopsis.validate_s"] = (served.mean_self("synopsis.validate"),
                                     served.calls("synopsis.validate"))
    values["trace.overhead_pct"] = (
        100.0 * (times[-1] / statistics.median(times[:-1]) - 1.0),
        len(times),
    )
    result.emit(PER_LAYER, values)
    return result


# ----------------------------------------------------------------------
# serve-distinct and serve-skewed
# ----------------------------------------------------------------------
@dataclass
class ServeSetup:
    service: EstimatorService
    #: registered name -> sketch
    sketches: dict
    #: parse + XBUILD + register, at the reference speed, and raw
    setup_s: float
    raw_setup_s: float
    #: the set-up build's metrics (for the build-layer counters)
    registry: MetricsRegistry


def serve_setup(inputs: Inputs, scale: Scale, speed: HostSpeed,
                snapshots: bool, tracer=None) -> ServeSetup:
    """Parse, XBUILD, register: everything before the first request.

    With ``snapshots`` the first sketches at or above each of
    ``scale.snapshots`` bytes are registered beside the final one.
    ``tracer`` records every layer of the set-up, the build in span
    ``bench.build``; the host speed is then read only around the set-up.
    """
    steps = []
    registry = MetricsRegistry()
    watch = Stopwatch(speed)

    def on_step(sketch) -> None:
        steps.append(sketch)
        if tracer is None:
            watch.lap()

    gc.collect()
    watch.start()
    with _probe(tracer):
        tree = parser.parse_string(inputs.xml)
        with _span(tracer, "bench.build"):
            built = XBuild(tree, scale.budget, seed=BASELINE_SEED,
                           on_step=on_step, metrics=registry).run()
        if built.truncated:
            raise RuntimeError(f"set-up build truncated: {built.reason}")
        chosen = {}
        if snapshots:
            for threshold in scale.snapshots:
                for step, sketch in zip(built.steps, steps):
                    if step.size_bytes >= threshold:
                        chosen[f"ge{threshold}"] = sketch
                        break
                else:
                    raise RuntimeError(f"no snapshot reached {threshold} B")
        chosen["final"] = built.sketch
        service = EstimatorService(metrics=MetricsRegistry())
        for name, sketch in chosen.items():
            service.register(name, sketch, validate=True)
    watch.lap()
    return ServeSetup(service, chosen, watch.scaled, watch.raw, registry)


def _fresh_service(setup: ServeSetup) -> EstimatorService:
    """A second service over the same sketches (untimed, untraced)."""
    service = EstimatorService(metrics=MetricsRegistry())
    for name, sketch in setup.sketches.items():
        service.register(name, sketch, validate=True)
    return service


def _embedding_totals(service: EstimatorService) -> tuple:
    """(twig estimates, embeddings expanded) the service has counted."""
    return tuple(
        sum(value for _, value in _series(service.metrics, name))
        for name in ("estimator_estimates_total", "estimator_embeddings_total")
    )


@dataclass
class Served:
    """The measured phases of one serve run."""

    untraced: Loop
    mean_embeddings: float
    #: the traced phase and its layer table (None on an untraced run)
    traced: Loop = None
    table: object = None
    #: answers per tier during the traced phase
    tiers: dict = None


def serve(result: RunResult, setup: ServeSetup, sender, warmup, stream,
          scale: Scale, speed: HostSpeed, trace: bool) -> Served:
    """Warm up, run a closed loop of ``sender`` over ``stream`` untraced
    and, on a traced run, once more on a fresh service with the layer
    probe installed.

    Every answer is checked; the traced phase must answer exactly as the
    untraced one did.
    """
    closed_loop(sender(setup.service), warmup, speed, scale.stretch_s)
    counted = _embedding_totals(setup.service)
    untraced = closed_loop(sender(setup.service), stream, speed,
                           scale.stretch_s)
    after = _embedding_totals(setup.service)
    estimates = after[0] - counted[0]
    served = Served(untraced, (after[1] - counted[1]) / estimates
                    if estimates else 0.0)
    _check_answers(result, untraced.answers, "untraced")
    if trace:
        service = _fresh_service(setup)
        closed_loop(sender(service), warmup, speed, scale.stretch_s)
        before = _tier_counts(service)
        tracer = _new_tracer()
        with LayerProbe(tracer):
            served.traced = closed_loop(sender(service), stream, speed,
                                        scale.stretch_s)
        served.table = layer_table(tracer)
        served.tiers = {tier: count - before[tier]
                        for tier, count in _tier_counts(service).items()}
        _check_answers(result, served.traced.answers, "traced")
        if _estimates(untraced.answers) != _estimates(served.traced.answers):
            result.problems.append("traced answers differ from untraced "
                                   "ones")
    return served


def _serve_values(result: RunResult, inputs: Inputs, setup: ServeSetup,
                  setup_table, served: Served, speed: HostSpeed,
                  truths: list, overhead_pct: float) -> dict:
    """The metrics every serve run reports (the caller emits them)."""
    values: dict = {}
    _host_facts(result, inputs, speed, values)
    loop = served.untraced
    requests = len(loop.answers)
    result.record.update(
        sketch_bytes=[s.size_bytes() for s in setup.sketches.values()],
        requests=requests,
        mean_embeddings_per_request=served.mean_embeddings,
        raw_wall={
            "setup_s": setup.raw_setup_s,
            "latency_p50_ms": 1000.0 * percentile(loop.raw_latencies, 50),
            "latency_p95_ms": 1000.0 * percentile(loop.raw_latencies, 95),
            "throughput_per_s": requests / loop.raw_wall,
        },
    )
    if served.traced is None:
        values.update(
            setup_s=(setup.setup_s, 1),
            **_timings(loop.latencies, requests, loop.wall),
            sketch_bytes=(setup.sketches["final"].size_bytes(), 1),
            error_pct=(error_pct([a.estimate for a in loop.answers],
                                 truths), requests),
            peak_rss_mb=(peak_rss_mb(), 1),
        )
        return values
    table = served.table
    values.update(
        _build_layers(setup_table, setup.registry),
        **_estimate_layers(table, requests),
        **_serve_layers(table, served.tiers, requests),
    )
    values["doc.parse_s"] = (setup_table.mean_self("doc.parse"),
                             setup_table.calls("doc.parse"))
    values["synopsis.validate_s"] = (
        setup_table.mean_self("synopsis.validate"),
        setup_table.calls("synopsis.validate"),
    )
    values["trace.overhead_pct"] = (overhead_pct, 2)
    return values


def run_distinct(inputs: Inputs, scale: Scale, seconds: float,
                 trace: bool) -> RunResult:
    """Distinct P+V queries, each sent once to each of three snapshots."""
    result = RunResult("serve-distinct")
    speed = HostSpeed(scale.calib_rounds)
    count = max(scale.distinct_floor,
                math.ceil(seconds * scale.distinct_per_s))
    population = inputs.queries(scale.warmup_queries + count, "distinct")
    names = ["final", *(f"ge{size}" for size in scale.snapshots)]
    warmup = [(name, entry.query) for name in names
              for entry in population[: scale.warmup_queries]]
    queries = population[scale.warmup_queries:]
    setup_tracer = _new_tracer() if trace else None
    setup = serve_setup(inputs, scale, speed, snapshots=True,
                        tracer=setup_tracer)
    stream = [(name, entry) for name in setup.sketches for entry in queries]
    random.Random(sub_seed(inputs.seed, "order")).shuffle(stream)
    requests = [(name, entry.query) for name, entry in stream]
    served = serve(result, setup, _estimate_sender, warmup, requests, scale,
                   speed, trace)
    share_run, share_batch = repeat_shares(
        [[(name, query.text())] for name, query in requests]
    )
    result.record.update(
        distinct_queries=len(queries),
        repeat_share_run=share_run,
        repeat_share_batch=share_batch,
    )
    if not result.correct:
        return result
    overhead = (100.0 * (served.traced.wall / served.untraced.wall - 1.0)
                if trace else 0.0)
    values = _serve_values(
        result, inputs, setup,
        layer_table(setup_tracer) if trace else None, served, speed,
        [entry.true_count for _, entry in stream], overhead,
    )
    result.emit(PER_LAYER if trace else END_TO_END, values)
    return result


def zipf_batches(hot_count: int, batches: int, size: int, s: float,
                 seed: int) -> list:
    """Hot-set indices per batch with exact Zipf frequencies.

    Rank r appears in the stream its expected number of times under
    weight 1 / r**s (largest-remainder rounding); the seed shuffles the
    stream into batches.  Every seed thus sends the same multiset of
    requests, so the mean cost and the error do not depend on which few
    queries a random draw happened to favour.
    """
    requests = batches * size
    weights = [1.0 / (rank ** s) for rank in range(1, hot_count + 1)]
    total = sum(weights)
    exact = [requests * weight / total for weight in weights]
    counts = [math.floor(value) for value in exact]
    by_remainder = sorted(range(hot_count),
                          key=lambda i: (counts[i] - exact[i], i))
    for index in by_remainder[: requests - sum(counts)]:
        counts[index] += 1
    stream = [index for index, count in enumerate(counts)
              for _ in range(count)]
    random.Random(seed).shuffle(stream)
    return [stream[start:start + size]
            for start in range(0, requests, size)]


def repeat_shares(batches) -> tuple:
    """Share of requests repeating one seen earlier in the run, and
    earlier in the same batch."""
    seen_run: set = set()
    in_run = in_batch = total = 0
    for batch in batches:
        seen_batch: set = set()
        for item in batch:
            in_run += item in seen_run
            in_batch += item in seen_batch
            seen_run.add(item)
            seen_batch.add(item)
            total += 1
    return in_run / total, in_batch / total


def run_skewed(inputs: Inputs, scale: Scale, seconds: float,
               trace: bool) -> RunResult:
    """Zipf-skewed draws from a hot set, sent through submit_batch."""
    result = RunResult("serve-skewed")
    speed = HostSpeed(scale.calib_rounds)
    count = max(scale.batches_floor, math.ceil(seconds * scale.batches_per_s))
    population = inputs.queries(scale.warmup_queries + scale.hot, "hot")
    warmup = population[: scale.warmup_queries]
    hot = population[scale.warmup_queries:]
    drawn = zipf_batches(len(hot), count, scale.batch, scale.zipf_s,
                         sub_seed(inputs.seed, "zipf"))
    batches = [[hot[i].query for i in batch] for batch in drawn]
    warm_batches = [[entry.query for entry in warmup[i:i + scale.batch]]
                    for i in range(0, len(warmup), scale.batch)]
    setup_tracer = _new_tracer() if trace else None
    setup = serve_setup(inputs, scale, speed, snapshots=False,
                        tracer=setup_tracer)
    served = serve(result, setup, _batch_sender, warm_batches, batches,
                   scale, speed, trace)

    # the batch path must answer exactly as per-request estimate does
    checked = [query for batch in batches[: scale.checked_batches]
               for query in batch]
    mismatched = sum(
        response is None
        or response.estimate != setup.service.estimate("final",
                                                       query).estimate
        for query, response in zip(checked, served.untraced.answers)
    )
    if mismatched:
        result.fail(mismatched, f"{mismatched} batch answers differ from "
                                f"per-request estimate")
    share_run, share_batch = repeat_shares(drawn)
    result.record.update(
        distinct_queries=len({i for batch in drawn for i in batch}),
        hot_queries=len(hot),
        batches=len(batches),
        repeat_share_run=share_run,
        repeat_share_batch=share_batch,
    )
    if not result.correct:
        return result
    overhead = (100.0 * (statistics.median(served.traced.latencies)
                         / statistics.median(served.untraced.latencies)
                         - 1.0) if trace else 0.0)
    values = _serve_values(
        result, inputs, setup,
        layer_table(setup_tracer) if trace else None, served, speed,
        [hot[i].true_count for batch in drawn for i in batch], overhead,
    )
    result.emit(PER_LAYER if trace else END_TO_END, values)
    return result


RUNNERS = {
    "build-imdb": run_build,
    "serve-distinct": run_distinct,
    "serve-skewed": run_skewed,
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: Scale = FULL) -> RunResult:
    inputs = make_inputs(seed, scale)
    return RUNNERS[workload](inputs, scale, seconds, trace)
