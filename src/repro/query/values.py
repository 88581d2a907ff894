"""Value predicates: the ``{σ}`` part of the paper's path grammar.

The paper's XPath subset attaches a value predicate to a navigation step,
restricting the *value* of the element reached by the step.  The
experimental workloads use range predicates over integer domains ("cover a
random 10% range of the corresponding value domain"); equality over strings
is also supported because the IMDB motivation example filters
``movie[/type=X]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..errors import QueryError

Comparable = Union[int, float, str]

#: Operators accepted by :class:`ValuePredicate`.
OPERATORS = ("=", "!=", "<", "<=", ">", ">=", "range")


@dataclass(frozen=True)
class ValuePredicate:
    """A comparison against an element's value.

    ``op`` is one of :data:`OPERATORS`.  For ``range``, the predicate is the
    closed interval ``[low, high]`` and ``value`` holds ``low`` while
    ``high`` holds the upper bound; for every other operator ``high`` is
    ``None``.
    """

    op: str
    value: Comparable
    high: Optional[Comparable] = None

    def __post_init__(self):
        if self.op not in OPERATORS:
            raise QueryError(f"unknown value-predicate operator {self.op!r}")
        if self.op == "range":
            if self.high is None:
                raise QueryError("range predicate needs both bounds")
            if type(self.value) is not type(self.high) and not (
                isinstance(self.value, (int, float))
                and isinstance(self.high, (int, float))
            ):
                raise QueryError("range bounds must be of the same type")
        elif self.high is not None:
            raise QueryError(f"operator {self.op!r} takes a single bound")

    # ------------------------------------------------------------------
    def matches(self, value) -> bool:
        """Evaluate the predicate against a concrete element value.

        A ``None`` value (element without text) never matches.  Comparing a
        numeric bound with a string value (or vice versa) is treated as a
        non-match rather than an error, mirroring XPath's forgiving
        semantics.
        """
        if value is None:
            return False
        numeric_bound = isinstance(self.value, (int, float))
        numeric_value = isinstance(value, (int, float))
        if numeric_bound != numeric_value:
            return False
        if self.op == "=":
            return value == self.value
        if self.op == "!=":
            return value != self.value
        if self.op == "<":
            return value < self.value
        if self.op == "<=":
            return value <= self.value
        if self.op == ">":
            return value > self.value
        if self.op == ">=":
            return value >= self.value
        # range
        return self.value <= value <= self.high

    # ------------------------------------------------------------------
    def key(self) -> tuple:
        """The predicate's identity: the operator and each bound with its
        type, so ``1``, ``1.0`` and ``"1"`` are three predicates."""
        return (
            self.op, type(self.value), self.value, type(self.high), self.high
        )

    def text(self) -> str:
        """Render in the library's query syntax, e.g. ``{>2000}`` or
        ``{="Action"}``; strings are quoted, so the parser reads each
        bound back with its type."""
        if self.op == "range":
            return f"{{{_literal(self.value)}..{_literal(self.high)}}}"
        return f"{{{self.op}{_literal(self.value)}}}"

    @staticmethod
    def between(low: Comparable, high: Comparable) -> "ValuePredicate":
        """Convenience constructor for a closed range predicate."""
        return ValuePredicate("range", low, high)


def _literal(value: Comparable) -> str:
    """A bound as the parser reads it: numbers bare, strings in ``"…"``,
    or in ``'…'`` when the string holds a ``"``."""
    if isinstance(value, str):
        quote = "'" if '"' in value else '"'
        return f"{quote}{value}{quote}"
    return repr(value)
