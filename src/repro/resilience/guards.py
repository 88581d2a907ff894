"""Wall-clock budgets for the long-running paths.

A :class:`Budget` is a deadline that a long-running operation checks with
cheap :meth:`~Budget.expired`/:meth:`~Budget.check_deadline` calls in its
loop.  Running past it raises :class:`~repro.errors.DeadlineExceeded`, a
:class:`~repro.errors.ResourceLimitError` and so a :class:`ReproError`,
so callers tell "ran out of time" from "broke".

Budgets are injectable: pass ``clock=`` a fake monotonic clock in tests to
exercise deadline paths without sleeping.  A budget without a deadline is
a no-op — every check passes — so guarded code needs no
``if budget is not None`` branches.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..errors import DeadlineExceeded, ResourceLimitError


class Budget:
    """A wall-clock deadline for one operation.

    Args:
        deadline: wall-clock budget in seconds, measured from construction
            (``None`` = unlimited).
        clock: monotonic time source (override in tests).
    """

    def __init__(
        self,
        *,
        deadline: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if deadline is not None and deadline <= 0:
            raise ResourceLimitError(
                f"budget deadline must be positive, got {deadline!r}"
            )
        self._clock = clock
        self._started = clock()
        self.deadline = deadline

    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return self._clock() - self._started

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline; None when unlimited."""
        if self.deadline is None:
            return None
        return self.deadline - self.elapsed()

    def expired(self) -> bool:
        """True when the wall-clock deadline has passed."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def check_deadline(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` when past the deadline."""
        if self.expired():
            raise DeadlineExceeded(
                f"{what} exceeded its {self.deadline:g}s deadline "
                f"(elapsed {self.elapsed():.2f}s)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Budget deadline={self.deadline} "
            f"elapsed={self.elapsed():.2f}s>"
        )
