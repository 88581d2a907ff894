"""Robust estimation serving (the consult side of the synopsis).

* :class:`EstimatorService` — a thread-safe registry of named, validated
  sketches with per-request deadlines, per-tier circuit breakers, and a
  graceful-degradation cascade (twig → path → cst → uniform prior);
* :class:`EstimateResponse` — the response envelope: estimate, source
  tier, latency, and the warnings accumulated while degrading;
* :class:`CircuitBreaker` — the consecutive-failure trip switch.

Callers that want concurrency call the service from their own threads:
the registry, caches and breakers are lock-protected.

See README.md "Robustness" and DESIGN.md S23 for the invariants and the
cascade contract.
"""

from .circuit import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .service import (
    DEFAULT_UNIFORM_PRIOR,
    FALLBACK_TIERS,
    TIER_CST,
    TIER_PATH,
    TIER_TWIG,
    TIER_UNIFORM,
    EstimateResponse,
    EstimatorService,
)

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "DEFAULT_UNIFORM_PRIOR",
    "EstimateResponse",
    "EstimatorService",
    "FALLBACK_TIERS",
    "HALF_OPEN",
    "OPEN",
    "TIER_CST",
    "TIER_PATH",
    "TIER_TWIG",
    "TIER_UNIFORM",
]
