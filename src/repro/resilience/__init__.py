"""Resilience layer: budgets, fault injection, checkpoint/resume.

The long-running paths of this repository — XBUILD's greedy construction
loop, document ingestion, the experiment harness — were written for the
happy path.  This package gives them a shared failure-handling substrate:

* :mod:`~repro.resilience.guards` — :class:`Budget`: a wall-clock
  deadline behind cheap check calls;
* :mod:`~repro.resilience.checkpoint` — :class:`BuildCheckpoint` and the
  replay-based resume protocol for XBUILD;
* :mod:`~repro.resilience.faults` — seeded :class:`FaultPlan` injection
  at the library's instrumented failure sites, so every recovery path
  above is testable on demand.

This package stays import-light at module level (stdlib +
:mod:`repro.errors` only): the rest of the library instruments itself
with :func:`fault_check` calls, so importing resilience must never drag
in the build or synopsis layers.  Heavy imports live inside functions.
"""

from __future__ import annotations

from .checkpoint import (
    CHECKPOINT_VERSION,
    BuildCheckpoint,
    config_signature,
    load_checkpoint,
    refinement_from_dict,
    refinement_to_dict,
    save_checkpoint,
    tree_fingerprint,
)
from .faults import (
    SITE_BUILD_APPLY,
    SITE_BUILD_ROUND,
    SITE_BUILD_STEP,
    SITE_ORACLE,
    SITE_PARSE,
    SITES,
    Fault,
    FaultPlan,
    fault_check,
)
from .guards import Budget

__all__ = [
    "Budget",
    "Fault",
    "FaultPlan",
    "fault_check",
    "SITES",
    "SITE_PARSE",
    "SITE_ORACLE",
    "SITE_BUILD_ROUND",
    "SITE_BUILD_APPLY",
    "SITE_BUILD_STEP",
    "BuildCheckpoint",
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "refinement_to_dict",
    "refinement_from_dict",
    "tree_fingerprint",
    "config_signature",
]
