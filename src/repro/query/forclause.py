"""Parse XQuery-style ``for`` clauses into :class:`TwigQuery` objects.

The paper represents twig queries interchangeably as trees or as ``for``
clauses::

    for t0 in //movie[type = "Action"],
        t1 in t0/actor,
        t2 in t0/producer

Each clause after the first must start with a previously-bound variable
followed by ``/`` and a path; the ``for`` keyword and trailing ``return``
clause are optional and ignored.
"""

from __future__ import annotations

import re

from ..errors import ParseError
from .ast import TwigNode, TwigQuery
from .parser import parse_path

_CLAUSE_RE = re.compile(
    r"^\s*(?P<var>\$?\w+)\s+in\s+(?P<expr>.+?)\s*$", re.DOTALL
)
#: the ``return`` keyword that ends the clauses
_RETURN_RE = re.compile(r"(?<=[\s,])return\b")


def _split_clauses(text: str) -> list[tuple[int, str]]:
    """Split on top-level commas (commas inside [] / {} / quotes are kept),
    up to a top-level ``return`` (one inside a string value is kept).

    Returns ``(offset, clause)`` pairs, where ``offset`` is the position of
    the stripped clause within ``text`` — kept so parse errors can report
    where in the original input a bad clause starts.
    """
    spans: list[tuple[int, str]] = []
    depth = 0
    quote = ""
    start = 0
    for index, char in enumerate(text):
        if quote:
            if char == quote:
                quote = ""
            continue
        if char in "'\"":
            quote = char
        elif char in "[{(":
            depth += 1
        elif char in "]})":
            depth -= 1
        elif char == "," and depth == 0:
            spans.append((start, text[start:index]))
            start = index + 1
        elif depth == 0 and _RETURN_RE.match(text, index):
            break
    else:
        index = len(text)
    spans.append((start, text[start:index]))
    return [
        (offset + len(clause) - len(clause.lstrip()), clause.strip())
        for offset, clause in spans
        if clause.strip()
    ]


def parse_for_clause(text: str) -> TwigQuery:
    """Parse a ``for`` clause into a twig query.

    Raises:
        ParseError: for malformed clauses, unknown parent variables, or a
            non-root clause that does not navigate from a variable.
    """
    lead = len(text) - len(text.lstrip())
    body = text.strip()
    if body.lower().startswith("for "):
        body = body[4:]
        lead += 4

    nodes: dict[str, TwigNode] = {}
    root: TwigNode | None = None
    for offset, clause in _split_clauses(body):
        position = lead + offset
        match = _CLAUSE_RE.match(clause)
        if not match:
            raise ParseError(
                f"malformed for-clause entry: {clause!r}",
                text=clause,
                position=position,
            )
        var = match.group("var").lstrip("$")
        expr = match.group("expr").strip()
        if var in nodes:
            raise ParseError(
                f"variable {var!r} bound twice", text=clause, position=position
            )

        parent_var = None
        first_token = re.match(r"^\$?(\w+)\s*(//|/)", expr)
        if first_token and first_token.group(1) in nodes:
            parent_var = first_token.group(1)
            # Keep "//" (descendant axis) but drop a single "/" (child axis).
            axis = first_token.group(2)
            expr = ("//" if axis == "//" else "") + expr[first_token.end() :]
        node = TwigNode(var, parse_path(expr))
        if parent_var is None:
            if root is not None:
                raise ParseError(
                    f"clause {clause!r} does not navigate from a bound variable",
                    text=clause,
                    position=position,
                )
            root = node
        else:
            nodes[parent_var].add_child(node)
        nodes[var] = node

    if root is None:
        raise ParseError("for clause binds no variables", text=text, position=0)
    return TwigQuery(root)
