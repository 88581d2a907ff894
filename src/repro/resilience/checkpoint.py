"""Checkpoint/resume for XBUILD: serialize in-flight construction state.

A (document, budget, seed) build walks hundreds of greedy rounds; a kill
signal, a deadline, or an injected fault should cost at most
``checkpoint_every`` rounds of work, not the whole build.  A
:class:`BuildCheckpoint` captures everything the loop needs to continue:

* the **refinement trail** — the applied :class:`Refinement` operations in
  order.  Refinements are pure functions of the sketch they are applied
  to, so replaying the trail over the coarsest synopsis reconstructs the
  in-flight sketch exactly;
* the **step records** (description, size, gain) behind the trail;
* the **RNG state** of the build's ``random.Random``, so candidate pools
  and sampled queries continue the original sequence bit-for-bit;
* a **document fingerprint** and the build's (seed, byte budget, synopsis
  config), checked at resume time — resuming against the wrong document
  or settings raises :class:`~repro.errors.CheckpointError`;
* the serialized **best-so-far sketch**, so a checkpoint file doubles as
  a usable partial synopsis (:meth:`BuildCheckpoint.best_sketch`) even if
  the build never resumes.

The invariant the resume path guarantees (and the test suite proves): a
build interrupted at any checkpoint boundary and resumed produces a
sketch identical to the uninterrupted build for the same seed.

File format: one JSON object, ``{"format": "xbuild-checkpoint",
"version": 1, ...}``; see :meth:`BuildCheckpoint.to_dict` for the keys.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional

from ..errors import CheckpointError

CHECKPOINT_FORMAT = "xbuild-checkpoint"
CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# refinement (de)serialization
# ----------------------------------------------------------------------
def refinement_to_dict(refinement) -> dict:
    """Serialize one refinement operation to a JSON-compatible dict."""
    # imported here to keep this module import-light (see package docstring)
    from ..build.refinements import (
        BStabilize,
        EdgeExpand,
        EdgeRefine,
        FStabilize,
        ValueExpand,
        ValueRefine,
        ValueSplit,
    )

    if isinstance(refinement, (BStabilize, FStabilize)):
        return {
            "kind": type(refinement).__name__,
            "source": refinement.source,
            "target": refinement.target,
        }
    if isinstance(refinement, EdgeRefine):
        return {
            "kind": "EdgeRefine",
            "node_id": refinement.node_id,
            "index": refinement.index,
        }
    if isinstance(refinement, EdgeExpand):
        return {
            "kind": "EdgeExpand",
            "node_id": refinement.node_id,
            "index": refinement.index,
            "new_ref": [refinement.new_ref.source, refinement.new_ref.target],
        }
    if isinstance(refinement, ValueRefine):
        return {"kind": "ValueRefine", "node_id": refinement.node_id}
    if isinstance(refinement, ValueExpand):
        return {
            "kind": "ValueExpand",
            "node_id": refinement.node_id,
            "value_tag": refinement.value_tag,
            "scope": [[r.source, r.target] for r in refinement.scope],
        }
    if isinstance(refinement, ValueSplit):
        predicate = refinement.predicate
        return {
            "kind": "ValueSplit",
            "node_id": refinement.node_id,
            "predicate": {
                "op": predicate.op,
                "value": predicate.value,
                "high": predicate.high,
            },
            "child_tag": refinement.child_tag,
        }
    raise CheckpointError(
        f"cannot serialize refinement of type {type(refinement).__name__}"
    )


def refinement_from_dict(payload: dict):
    """Rebuild a refinement operation serialized by
    :func:`refinement_to_dict`."""
    from ..build.refinements import (
        BStabilize,
        EdgeExpand,
        EdgeRefine,
        FStabilize,
        ValueExpand,
        ValueRefine,
        ValueSplit,
    )
    from ..query.values import ValuePredicate
    from ..synopsis.distributions import EdgeRef

    try:
        kind = payload["kind"]
        if kind == "BStabilize":
            return BStabilize(payload["source"], payload["target"])
        if kind == "FStabilize":
            return FStabilize(payload["source"], payload["target"])
        if kind == "EdgeRefine":
            return EdgeRefine(payload["node_id"], payload["index"])
        if kind == "EdgeExpand":
            source, target = payload["new_ref"]
            return EdgeExpand(
                payload["node_id"], payload["index"], EdgeRef(source, target)
            )
        if kind == "ValueRefine":
            return ValueRefine(payload["node_id"])
        if kind == "ValueExpand":
            return ValueExpand(
                payload["node_id"],
                payload["value_tag"],
                tuple(EdgeRef(s, t) for s, t in payload["scope"]),
            )
        if kind == "ValueSplit":
            predicate = payload["predicate"]
            return ValueSplit(
                payload["node_id"],
                ValuePredicate(
                    predicate["op"], predicate["value"], predicate["high"]
                ),
                payload["child_tag"],
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed refinement entry: {exc}") from exc
    raise CheckpointError(f"unknown refinement kind {payload.get('kind')!r}")


# ----------------------------------------------------------------------
# identity helpers
# ----------------------------------------------------------------------
def tree_fingerprint(tree) -> dict:
    """A cheap identity for the document a build ran against."""
    return {
        "name": tree.name,
        "element_count": tree.element_count,
        "root_tag": tree.root.tag,
        "distinct_tags": len(tree.tags),
    }


def config_signature(config) -> dict:
    """Every :class:`XSketchConfig` field, as a comparable dict."""
    return dataclasses.asdict(config)


def _rng_state_to_json(state) -> list:
    """``random.Random.getstate()`` → JSON-compatible nested lists."""
    version, internal, gauss = state
    return [version, list(internal), gauss]


def _rng_state_from_json(payload) -> tuple:
    """Inverse of :func:`_rng_state_to_json`."""
    try:
        version, internal, gauss = payload
        return (version, tuple(internal), gauss)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed RNG state: {exc}") from exc


# ----------------------------------------------------------------------
# the checkpoint object
# ----------------------------------------------------------------------
@dataclass
class BuildCheckpoint:
    """One serialized XBUILD state (see module docstring).

    ``trail`` holds live :class:`Refinement` objects; ``steps`` holds
    plain dicts (``description``/``size_bytes``/``gain``) so this module
    needs no import from the build loop.
    """

    seed: int
    budget_bytes: int
    config: dict
    fingerprint: dict
    trail: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    rng_state: Optional[tuple] = None
    stall: int = 0
    sketch_payload: Optional[dict] = None

    # ------------------------------------------------------------------
    def verify_compatible(
        self, *, seed: int, budget_bytes: int, config: dict, fingerprint: dict
    ) -> None:
        """Raise :class:`CheckpointError` unless a resumed build with these
        settings would be bit-identical to the checkpointed one."""
        mismatches = []
        if seed != self.seed:
            mismatches.append(f"seed {seed} != checkpoint seed {self.seed}")
        if budget_bytes != self.budget_bytes:
            mismatches.append(
                f"budget {budget_bytes} != checkpoint budget "
                f"{self.budget_bytes}"
            )
        if config != self.config:
            mismatches.append("synopsis configuration differs")
        if fingerprint != self.fingerprint:
            mismatches.append(
                f"document fingerprint {fingerprint} != checkpoint "
                f"fingerprint {self.fingerprint}"
            )
        if mismatches:
            raise CheckpointError(
                "checkpoint is incompatible with this build: "
                + "; ".join(mismatches)
            )

    def best_sketch(self):
        """The checkpoint's best-so-far synopsis, estimation-ready.

        Loaded through :func:`repro.synopsis.persist.sketch_from_dict`, so
        the result supports estimation but not further refinement (use
        resume for that).
        """
        from ..synopsis.persist import sketch_from_dict

        if self.sketch_payload is None:
            raise CheckpointError("checkpoint carries no sketch payload")
        return sketch_from_dict(self.sketch_payload)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize to the JSON checkpoint-file layout."""
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "seed": self.seed,
            "budget_bytes": self.budget_bytes,
            "config": self.config,
            "fingerprint": self.fingerprint,
            "trail": [refinement_to_dict(r) for r in self.trail],
            "steps": self.steps,
            "rng_state": (
                _rng_state_to_json(self.rng_state)
                if self.rng_state is not None
                else None
            ),
            "stall": self.stall,
            "sketch": self.sketch_payload,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BuildCheckpoint":
        """Load a checkpoint serialized by :meth:`to_dict`."""
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError("not an XBUILD checkpoint payload")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {payload.get('version')!r}"
            )
        try:
            return cls(
                seed=payload["seed"],
                budget_bytes=payload["budget_bytes"],
                config=dict(payload["config"]),
                fingerprint=dict(payload["fingerprint"]),
                trail=[refinement_from_dict(r) for r in payload["trail"]],
                steps=[dict(step) for step in payload["steps"]],
                rng_state=(
                    _rng_state_from_json(payload["rng_state"])
                    if payload["rng_state"] is not None
                    else None
                ),
                stall=payload.get("stall", 0),
                sketch_payload=payload.get("sketch"),
            )
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc


def save_checkpoint(checkpoint: BuildCheckpoint, path) -> None:
    """Write the checkpoint to ``path`` as JSON."""
    try:
        with open(str(path), "w", encoding="utf8") as handle:
            json.dump(checkpoint.to_dict(), handle)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path) -> BuildCheckpoint:
    """Load a checkpoint written by :func:`save_checkpoint`."""
    try:
        with open(str(path), encoding="utf8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot load checkpoint {path}: {exc}") from exc
    return BuildCheckpoint.from_dict(payload)
