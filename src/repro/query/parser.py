"""Parser for the library's XPath-subset path syntax.

The concrete syntax mirrors the paper's abstract grammar
``l1{σ1}[branch1]/.../ln{σn}[branchn]`` plus the descendant axis ``//``:

* ``author/paper/title`` — child steps;
* ``//keyword`` — descendant step (anywhere below the context);
* ``paper{>2000}`` — value predicate on the step's own element;
* ``paper[year{>2000}]`` — branching predicate (existential sub-path);
* ``paper[year > 2000]`` and ``movie[/type = "Action"]`` — XPath-flavoured
  sugar: a branch whose *last* step carries the comparison;
* ``year{1990..1999}`` — closed range predicate.

String literals may be quoted (single or double); unquoted literals are
coerced to int/float when they parse as numbers.
"""

from __future__ import annotations

from ..doc.parser import coerce_value
from ..errors import ParseError
from .ast import CHILD, DESCENDANT, Path, Step
from .values import ValuePredicate

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_@#")
_NAME_BODY = _NAME_START | set("0123456789-.")
_COMPARISON_OPS = ("<=", ">=", "!=", "<", ">", "=")


class _Cursor:
    """Minimal scanning cursor over the query text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, text=self.text, position=self.pos)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, width: int = 1) -> str:
        return self.text[self.pos : self.pos + width]

    def advance(self, width: int = 1) -> None:
        self.pos += width

    def skip_ws(self) -> None:
        while not self.eof() and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, token: str) -> None:
        if self.peek(len(token)) != token:
            raise self.error(f"expected {token!r}")
        self.advance(len(token))

    # ------------------------------------------------------------------
    def read_name(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.eof() or self.text[self.pos] not in _NAME_START:
            raise self.error("expected a tag name")
        self.pos += 1
        while not self.eof() and self.text[self.pos] in _NAME_BODY:
            self.pos += 1
        return self.text[start : self.pos]

    def read_literal(self, stop_chars: str):
        """Read a (possibly quoted) literal up to one of ``stop_chars`` or
        a range's ``..`` (a single ``.`` belongs to a float)."""
        self.skip_ws()
        if self.eof():
            raise self.error("expected a literal value")
        quote = self.text[self.pos]
        if quote in "'\"":
            self.advance()
            start = self.pos
            while not self.eof() and self.text[self.pos] != quote:
                self.pos += 1
            if self.eof():
                raise self.error("unterminated string literal")
            raw = self.text[start : self.pos]
            self.advance()
            return raw
        start = self.pos
        while (
            not self.eof()
            and self.text[self.pos] not in stop_chars
            and not self.text.startswith("..", self.pos)
        ):
            self.pos += 1
        raw = self.text[start : self.pos].strip()
        if not raw:
            raise self.error("expected a literal value")
        return coerce_value(raw)


def _read_comparison_op(cursor: _Cursor) -> str | None:
    cursor.skip_ws()
    for op in _COMPARISON_OPS:
        if cursor.peek(len(op)) == op:
            cursor.advance(len(op))
            return op
    return None


def _parse_value_pred(cursor: _Cursor) -> ValuePredicate:
    """Parse the body of ``{...}`` (the opening brace is consumed)."""
    op = _read_comparison_op(cursor)
    value = cursor.read_literal(stop_chars="}")
    cursor.skip_ws()
    if cursor.peek(2) == "..":
        if op is not None:
            raise cursor.error("range predicate cannot carry an operator")
        cursor.advance(2)
        high = cursor.read_literal(stop_chars="}")
        cursor.expect("}")
        return ValuePredicate("range", value, high)
    cursor.expect("}")
    return ValuePredicate(op or "=", value)


def _parse_branch(cursor: _Cursor) -> Path:
    """Parse the body of ``[...]`` (the opening bracket is consumed).

    A branch is a path; XPath-style sugar ``[path OP literal]`` moves the
    comparison onto the branch's final step.
    """
    path = _parse_path(cursor, stop_chars="]<>=!")
    op = _read_comparison_op(cursor)
    if op is not None:
        value = cursor.read_literal(stop_chars="]")
        last = path.steps[-1]
        if last.value_pred is not None:
            raise cursor.error("step already carries a value predicate")
        patched = Step(last.tag, last.axis, ValuePredicate(op, value), last.branches)
        path = Path(path.steps[:-1] + (patched,))
    cursor.skip_ws()
    cursor.expect("]")
    return path


def _parse_step(cursor: _Cursor, axis: str) -> Step:
    tag = cursor.read_name()
    value_pred = None
    branches: list[Path] = []
    while True:
        cursor.skip_ws()
        head = cursor.peek()
        if head == "{":
            if value_pred is not None:
                raise cursor.error("step already carries a value predicate")
            cursor.advance()
            value_pred = _parse_value_pred(cursor)
        elif head == "[":
            cursor.advance()
            branches.append(_parse_branch(cursor))
        else:
            break
    return Step(tag, axis, value_pred, tuple(branches))


def _parse_path(cursor: _Cursor, stop_chars: str = "") -> Path:
    steps: list[Step] = []
    cursor.skip_ws()
    while True:
        if cursor.peek(2) == "//":
            cursor.advance(2)
            axis = DESCENDANT
        elif cursor.peek() == "/":
            cursor.advance()
            axis = CHILD
        else:
            axis = CHILD
            if steps:
                break
        steps.append(_parse_step(cursor, axis))
        cursor.skip_ws()
        if cursor.eof() or (stop_chars and cursor.peek() in stop_chars):
            break
        if cursor.peek() not in "/":
            break
    if not steps:
        raise cursor.error("empty path")
    return Path(tuple(steps))


def parse_path(text: str) -> Path:
    """Parse a path expression string into a :class:`Path`.

    Raises:
        ParseError: on any syntax error, with the failing offset.
    """
    cursor = _Cursor(text)
    path = _parse_path(cursor)
    cursor.skip_ws()
    if not cursor.eof():
        raise cursor.error("trailing input after path")
    return path
