"""Seeded fault injection for testing recovery paths.

Every recovery path in the resilience layer — checkpoint resume, lenient
parsing, suite isolation — must be *provable*, which requires
failing the guarded code on demand at a precise point.  This module
instruments the library's failure-prone sites with ``fault_check(site)``
calls (no-ops in production: one global ``is None`` test) and lets tests
arm a :class:`FaultPlan` around them::

    plan = FaultPlan(Fault(SITE_BUILD_STEP, after=3))
    with plan.active():
        XBuild(tree, budget).run()      # raises FaultInjected at step 4

Faults fire deterministically by hit count (``after``/``times``) or as a
seeded coin flip (``probability``), never from ambient randomness — the
same plan against the same code always fails at the same place.

Instrumented sites (the :data:`SITES` registry):

* ``doc.parse`` — entry of :func:`repro.doc.parser.parse_string`;
* ``oracle.true_count`` — each truth-oracle evaluation in
  :mod:`repro.build.oracles`;
* ``build.round`` — top of each XBUILD greedy round;
* ``build.apply`` — before each candidate refinement application;
* ``build.step`` — after a refinement is applied (and any checkpoint
  written), i.e. *at* the checkpoint boundary.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from ..errors import FaultInjected

SITE_PARSE = "doc.parse"
SITE_ORACLE = "oracle.true_count"
SITE_BUILD_ROUND = "build.round"
SITE_BUILD_APPLY = "build.apply"
SITE_BUILD_STEP = "build.step"

#: every site the library instruments, for plan validation
SITES = (
    SITE_PARSE,
    SITE_ORACLE,
    SITE_BUILD_ROUND,
    SITE_BUILD_APPLY,
    SITE_BUILD_STEP,
)


@dataclass
class Fault:
    """One planned failure at an instrumented site.

    Attributes:
        site: which :data:`SITES` entry to fail at.
        after: hits to let pass before the fault arms — ``after=3`` fails
            the 4th hit of the site.
        times: how many hits fail once armed (``None`` = every one).
        probability: chance an armed hit fails, drawn from the plan's
            seeded RNG; 1.0 = always.
        message: override for the injected error message.
        error: exception *type* to raise; defaults to
            :class:`~repro.errors.FaultInjected`.
        fired: how many times this fault has raised (set by the plan).
    """

    site: str
    after: int = 0
    times: Optional[int] = 1
    probability: float = 1.0
    message: str = ""
    error: Optional[type] = None
    fired: int = field(default=0, compare=False)

    def exhausted(self) -> bool:
        """True once the fault has raised its full quota."""
        return self.times is not None and self.fired >= self.times


class FaultPlan:
    """A set of planned faults plus the counters that drive them.

    Args:
        *faults: the :class:`Fault` entries; sites must come from
            :data:`SITES` (catches typos at construction time).
        seed: RNG seed for probabilistic faults.

    ``hits`` records every instrumented call seen while active (keyed by
    site), and ``injected`` records each ``(site, hit_number)`` that
    actually raised, so tests can assert exactly where a run died.
    """

    def __init__(self, *faults: Fault, seed: int = 17):
        for fault in faults:
            if fault.site not in SITES:
                raise FaultInjected(
                    f"fault plan names unknown site {fault.site!r}; "
                    f"instrumented sites are {', '.join(SITES)}"
                )
        self.faults = list(faults)
        self.seed = seed
        self.hits: dict[str, int] = {}
        self.injected: list[tuple[str, int]] = []
        self._rng = random.Random(seed)

    def check(self, site: str) -> None:
        """Count a hit at ``site`` and raise when a planned fault fires."""
        count = self.hits.get(site, 0) + 1
        self.hits[site] = count
        for fault in self.faults:
            if fault.site != site or fault.exhausted():
                continue
            if count <= fault.after:
                continue
            if fault.probability < 1.0 and self._rng.random() >= fault.probability:
                continue
            fault.fired += 1
            self.injected.append((site, count))
            error_type = fault.error if fault.error is not None else FaultInjected
            message = fault.message or (
                f"injected fault at {site} (hit {count})"
            )
            raise error_type(message)

    @contextmanager
    def active(self):
        """Install the plan as the process-wide active plan."""
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous


#: the currently armed plan; production code never sets this
_ACTIVE: Optional[FaultPlan] = None


def fault_check(site: str) -> None:
    """Instrumentation hook: no-op unless a :class:`FaultPlan` is active."""
    if _ACTIVE is not None:
        _ACTIVE.check(site)
