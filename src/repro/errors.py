"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class DocumentError(ReproError):
    """A document tree is malformed or an operation on it is invalid."""


class ParseError(ReproError):
    """Raised when XML text or a query string cannot be parsed.

    Attributes:
        text: the offending input (possibly truncated).
        position: character offset of the failure, when known.
    """

    def __init__(self, message: str, text: str = "", position: int | None = None):
        super().__init__(message)
        self.text = text[:200]
        self.position = position


class QueryError(ReproError):
    """A twig query is structurally invalid (e.g. empty path, bad predicate)."""


class SynopsisError(ReproError):
    """A synopsis violates a structural invariant (partition, edges, ...)."""


class SynopsisIntegrityError(SynopsisError):
    """A persisted synopsis failed an integrity check on load.

    Raised by :mod:`repro.synopsis.persist` for unknown format versions,
    payload-digest mismatches, and schema violations (missing/extra/
    mistyped keys), and by strict loads for invariant violations found by
    :func:`repro.synopsis.validate.validate_sketch` — never a raw
    ``KeyError``/``TypeError``.

    Attributes:
        path: dotted/indexed location of the offending content inside the
            payload (e.g. ``"edges[3].child_count"``), or ``""`` when the
            failure is not attributable to one field (digest mismatch).
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(message if not path else f"{path}: {message}")
        self.path = path


class EstimationError(ReproError):
    """The estimation framework cannot produce an estimate for a query."""


class ServiceError(ReproError):
    """An :class:`repro.serve.EstimatorService` request is invalid
    (unknown sketch name, duplicate registration, bad arguments).

    Estimation *failures* never surface as exceptions from the service —
    they degrade through the fallback cascade; this error marks caller
    mistakes only."""


class BuildError(ReproError):
    """XBUILD or a refinement operation failed or was misconfigured."""


class WorkloadError(ReproError):
    """Workload generation could not satisfy the requested constraints."""


class ResourceLimitError(ReproError):
    """A guarded operation exceeded a resource budget.

    Catching it also catches :class:`DeadlineExceeded`, which
    :class:`repro.resilience.guards.Budget` raises.
    """


class DeadlineExceeded(ResourceLimitError):
    """A guarded operation ran past its wall-clock deadline."""


class CheckpointError(ReproError):
    """A build checkpoint is unreadable, or incompatible with the build
    (different document, seed, byte budget, or synopsis configuration)."""


class FaultInjected(ReproError):
    """An error injected by :class:`repro.resilience.faults.FaultPlan`.

    Only tests raise this (through an activated fault plan); production
    code never does.  It derives from :class:`ReproError` so recovery
    paths exercised by fault injection behave exactly as they would for a
    real library failure.
    """
