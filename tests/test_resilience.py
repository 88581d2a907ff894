"""Tests for repro.resilience: budgets, fault injection, and the
XBUILD checkpoint/resume protocol (resume must be bit-identical)."""

import gc
import importlib
import json

import pytest

from repro.build.oracles import ExactOracle
from repro.build.refinements import (
    BStabilize,
    EdgeExpand,
    EdgeRefine,
    FStabilize,
    ValueExpand,
    ValueRefine,
    ValueSplit,
)
from repro.build.xbuild import XBuild
from repro.datasets import generate_imdb
from repro.errors import (
    BuildError,
    CheckpointError,
    DeadlineExceeded,
    FaultInjected,
    ParseError,
    ReproError,
    ResourceLimitError,
)
from repro.query import parse_path, twig
from repro.query.values import ValuePredicate
from repro.resilience import (
    SITE_BUILD_STEP,
    SITE_ORACLE,
    SITE_PARSE,
    Budget,
    BuildCheckpoint,
    Fault,
    FaultPlan,
    fault_check,
    load_checkpoint,
    refinement_from_dict,
    refinement_to_dict,
    save_checkpoint,
)
from repro.resilience.checkpoint import config_signature, tree_fingerprint
from repro.synopsis import TwigXSketch, XSketchConfig
from repro.synopsis.distributions import EdgeRef
from repro.synopsis.persist import sketch_to_dict

# the module, not the ``repro.build.xbuild`` function of the same name
xbuild_module = importlib.import_module("repro.build.xbuild")


class FakeClock:
    """A monotonic clock advanced by hand."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def sketch_key(sketch):
    """Canonical serialization for sketch-identity assertions."""
    return json.dumps(sketch_to_dict(sketch), sort_keys=True)


# ----------------------------------------------------------------------
# guards
# ----------------------------------------------------------------------
class TestBudget:
    def test_deadline_with_fake_clock(self):
        clock = FakeClock()
        budget = Budget(deadline=5.0, clock=clock)
        budget.check_deadline("op")
        clock.advance(4.9)
        assert not budget.expired()
        assert budget.remaining() == pytest.approx(0.1)
        clock.advance(0.2)
        assert budget.expired()
        with pytest.raises(DeadlineExceeded, match="op"):
            budget.check_deadline("op")

    def test_deadline_is_resource_limit_error(self):
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(ResourceLimitError):
            budget.check_deadline()

    def test_no_limits_is_noop(self):
        budget = Budget()
        for _ in range(100):
            budget.check_deadline()
        assert budget.remaining() is None

    def test_invalid_limit_rejected(self):
        with pytest.raises(ResourceLimitError):
            Budget(deadline=0)


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultInjected, match="unknown site"):
            FaultPlan(Fault("no.such.site"))

    def test_fires_after_and_times(self):
        plan = FaultPlan(Fault(SITE_PARSE, after=2, times=1))
        with plan.active():
            fault_check(SITE_PARSE)
            fault_check(SITE_PARSE)
            with pytest.raises(FaultInjected):
                fault_check(SITE_PARSE)
            fault_check(SITE_PARSE)  # quota spent
        assert plan.hits[SITE_PARSE] == 4
        assert plan.injected == [(SITE_PARSE, 3)]

    def test_inactive_plan_is_noop(self):
        FaultPlan(Fault(SITE_PARSE))  # never activated
        fault_check(SITE_PARSE)

    def test_probabilistic_faults_are_seeded(self):
        def fire_pattern(seed):
            plan = FaultPlan(
                Fault(SITE_PARSE, probability=0.5, times=None), seed=seed
            )
            pattern = []
            with plan.active():
                for _ in range(20):
                    try:
                        fault_check(SITE_PARSE)
                        pattern.append(False)
                    except FaultInjected:
                        pattern.append(True)
            return pattern

        assert fire_pattern(3) == fire_pattern(3)
        assert any(fire_pattern(3))
        assert not all(fire_pattern(3))

    def test_custom_error_type(self):
        plan = FaultPlan(Fault(SITE_ORACLE, error=OSError, message="disk"))
        with plan.active():
            with pytest.raises(OSError, match="disk"):
                fault_check(SITE_ORACLE)

    def test_parse_site_instrumented(self):
        from repro.doc import parse_string

        with FaultPlan(Fault(SITE_PARSE)).active():
            with pytest.raises(FaultInjected):
                parse_string("<a/>")

    def test_oracle_site_instrumented(self):
        from repro.doc import parse_string

        tree = parse_string("<a><b/></a>")
        oracle = ExactOracle(tree)
        with FaultPlan(Fault(SITE_ORACLE)).active():
            with pytest.raises(FaultInjected):
                oracle.true_count(twig(parse_path("//b")))


# ----------------------------------------------------------------------
# checkpoint serialization
# ----------------------------------------------------------------------
REFINEMENTS = [
    BStabilize(1, 2),
    FStabilize(3, 4),
    EdgeRefine(5, 0),
    EdgeExpand(1, 0, EdgeRef(1, 2)),
    ValueRefine(2),
    ValueExpand(2, "year", (EdgeRef(1, 2), EdgeRef(2, 3))),
    ValueSplit(2, ValuePredicate("range", 1990, 2000), "year"),
    ValueSplit(2, ValuePredicate("=", "Action"), "type"),
]


class TestCheckpointSerialization:
    @pytest.mark.parametrize("refinement", REFINEMENTS, ids=lambda r: r.describe())
    def test_refinement_round_trip(self, refinement):
        payload = json.loads(json.dumps(refinement_to_dict(refinement)))
        assert refinement_from_dict(payload) == refinement

    def test_unknown_kind_rejected(self):
        with pytest.raises(CheckpointError):
            refinement_from_dict({"kind": "Frobnicate"})

    def test_malformed_entry_rejected(self):
        with pytest.raises(CheckpointError):
            refinement_from_dict({"kind": "EdgeExpand", "node_id": 1})

    def _checkpoint(self):
        import random

        rng = random.Random(5)
        rng.random()
        return BuildCheckpoint(
            seed=5,
            budget_bytes=4096,
            config={"engine": "centroid"},
            fingerprint={"name": "t", "element_count": 10},
            trail=list(REFINEMENTS),
            steps=[{"description": "b-stabilize 1->2", "size_bytes": 100,
                    "gain": 0.5}],
            rng_state=rng.getstate(),
            stall=2,
            sketch_payload=None,
        )

    def test_checkpoint_json_round_trip(self):
        checkpoint = self._checkpoint()
        payload = json.loads(json.dumps(checkpoint.to_dict()))
        restored = BuildCheckpoint.from_dict(payload)
        assert restored == checkpoint
        assert isinstance(restored.rng_state, tuple)

    def test_file_round_trip(self, tmp_path):
        checkpoint = self._checkpoint()
        path = tmp_path / "cp.json"
        save_checkpoint(checkpoint, path)
        assert load_checkpoint(path) == checkpoint

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_format_and_version(self):
        with pytest.raises(CheckpointError, match="not an XBUILD"):
            BuildCheckpoint.from_dict({"format": "other"})
        payload = self._checkpoint().to_dict()
        payload["version"] = 99
        with pytest.raises(CheckpointError, match="version"):
            BuildCheckpoint.from_dict(payload)

    def test_verify_compatible(self):
        checkpoint = self._checkpoint()
        checkpoint.verify_compatible(
            seed=5,
            budget_bytes=4096,
            config={"engine": "centroid"},
            fingerprint={"name": "t", "element_count": 10},
        )
        with pytest.raises(CheckpointError, match="seed"):
            checkpoint.verify_compatible(
                seed=6,
                budget_bytes=4096,
                config={"engine": "centroid"},
                fingerprint={"name": "t", "element_count": 10},
            )

    def test_best_sketch_requires_payload(self):
        with pytest.raises(CheckpointError, match="no sketch payload"):
            self._checkpoint().best_sketch()


# ----------------------------------------------------------------------
# XBUILD resilience: the resume-equivalence invariant
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_tree():
    return generate_imdb(1200, seed=2)


@pytest.fixture(scope="module")
def build_budget(small_tree):
    coarse = TwigXSketch.coarsest(small_tree, XSketchConfig())
    return coarse.size_bytes() + 700


@pytest.fixture(scope="module")
def full_build(small_tree, build_budget):
    return XBuild(small_tree, build_budget, seed=5).run()


class TestXBuildResilience:
    def test_uninterrupted_build_not_truncated(self, full_build):
        assert not full_build.truncated
        assert full_build.reason == "completed"
        assert len(full_build.steps) >= 2  # enough boundaries to interrupt at

    def test_resume_identical_at_every_boundary(
        self, small_tree, build_budget, full_build, tmp_path
    ):
        """Interrupt at each checkpoint boundary; resume must reproduce the
        uninterrupted build bit-for-bit (sketch and step trail)."""
        expected = sketch_key(full_build.sketch)
        for boundary in range(1, len(full_build.steps)):
            path = tmp_path / f"cp-{boundary}.json"
            interrupted = XBuild(
                small_tree,
                build_budget,
                seed=5,
                checkpoint_every=1,
                checkpoint_path=path,
            )
            with FaultPlan(Fault(SITE_BUILD_STEP, after=boundary - 1)).active():
                with pytest.raises(FaultInjected):
                    interrupted.run()
            assert len(interrupted.last_checkpoint.steps) == boundary
            resumed = XBuild(
                small_tree, build_budget, seed=5, resume_from=str(path)
            ).run()
            assert sketch_key(resumed.sketch) == expected, (
                f"resume at boundary {boundary} diverged"
            )
            assert resumed.steps == full_build.steps
            assert not resumed.truncated

    def test_resume_from_in_memory_checkpoint(
        self, small_tree, build_budget, full_build
    ):
        interrupted = XBuild(
            small_tree, build_budget, seed=5, checkpoint_every=1
        )
        with FaultPlan(Fault(SITE_BUILD_STEP)).active():
            with pytest.raises(FaultInjected):
                interrupted.run()
        resumed = XBuild(
            small_tree,
            build_budget,
            seed=5,
            resume_from=interrupted.last_checkpoint,
        ).run()
        assert sketch_key(resumed.sketch) == sketch_key(full_build.sketch)

    def test_checkpoint_best_sketch_matches_build(
        self, small_tree, build_budget
    ):
        build = XBuild(small_tree, build_budget, seed=5, checkpoint_every=1)
        with FaultPlan(Fault(SITE_BUILD_STEP, after=1)).active():
            with pytest.raises(FaultInjected):
                build.run()
        checkpoint = build.last_checkpoint
        sketch = checkpoint.best_sketch()
        assert sketch.size_bytes() == checkpoint.steps[-1]["size_bytes"]

    def test_resume_rejects_mismatched_settings(
        self, small_tree, build_budget, tmp_path
    ):
        path = tmp_path / "cp.json"
        build = XBuild(
            small_tree, build_budget, seed=5, checkpoint_every=1,
            checkpoint_path=path,
        )
        with FaultPlan(Fault(SITE_BUILD_STEP)).active():
            with pytest.raises(FaultInjected):
                build.run()
        with pytest.raises(CheckpointError, match="seed"):
            XBuild(small_tree, build_budget, seed=6, resume_from=str(path))._initial_state()
        with pytest.raises(CheckpointError, match="budget"):
            XBuild(
                small_tree, build_budget + 1, seed=5, resume_from=str(path)
            )._initial_state()

    def test_deadline_returns_truncated_best_so_far(
        self, small_tree, build_budget
    ):
        result = XBuild(
            small_tree, build_budget, seed=5, deadline=1e-6
        ).run()
        assert result.truncated
        assert "deadline" in result.reason
        # the best-so-far sketch is still a valid synopsis
        assert result.sketch.size_bytes() > 0

    @pytest.mark.parametrize("caller_froze", [False, True])
    def test_run_leaves_the_gc_freeze_as_it_found_it(
        self, small_tree, build_budget, caller_froze
    ):
        """The heap is frozen while a build runs, and thawed after a
        completed, a truncated and a raising build; a heap the caller
        froze stays frozen."""
        if caller_froze:
            gc.freeze()
        try:
            def frozen_after_run():
                return gc.get_freeze_count() > 0

            assert frozen_after_run() == caller_froze
            during = []
            completed = XBuild(
                small_tree, build_budget, seed=5,
                on_step=lambda _: during.append(gc.get_freeze_count()),
            ).run()
            assert not completed.truncated
            assert during and min(during) > 0
            assert frozen_after_run() == caller_froze
            truncated = XBuild(
                small_tree, build_budget, seed=5, deadline=1e-6
            ).run()
            assert truncated.truncated
            assert frozen_after_run() == caller_froze
            with FaultPlan(Fault(SITE_BUILD_STEP)).active():
                with pytest.raises(FaultInjected):
                    XBuild(small_tree, build_budget, seed=5).run()
            assert frozen_after_run() == caller_froze
        finally:
            if caller_froze:
                gc.unfreeze()

    def test_step_limit_marks_truncated(
        self, small_tree, build_budget, monkeypatch
    ):
        monkeypatch.setattr(xbuild_module, "_MAX_STEPS", 1)
        result = XBuild(small_tree, build_budget, seed=5).run()
        assert result.truncated
        assert "step limit" in result.reason
        assert len(result.steps) == 1

    def test_budget_already_met_completes_with_no_steps(
        self, small_tree, monkeypatch
    ):
        monkeypatch.setattr(xbuild_module, "_MAX_STALL_ROUNDS", 1)
        coarse = TwigXSketch.coarsest(small_tree, XSketchConfig())
        result = XBuild(small_tree, coarse.size_bytes(), seed=5).run()
        assert result.steps == []
        assert not result.truncated

    def test_parameter_validation(self, small_tree):
        with pytest.raises(BuildError):
            XBuild(small_tree, 4096, checkpoint_every=0)
