"""S-expression reader and writer for the goal-file surface syntax.

Atoms are symbols, integers, and double-quoted strings; ';' starts a comment
running to end of line. Every node carries its source position (1-based line
and column) for error reporting. The reader is one loop over a compiled token
regex that builds the tree as it goes.
"""

from __future__ import annotations

import re
from typing import Union


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class _Node:
    """A reader node: a payload, in the slot that _field names, and a
    source position that == and hash ignore."""

    __slots__ = ("line", "col")
    _field = ""

    def _payload(self):
        return getattr(self, self._field)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._payload() == self._payload()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._payload()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._payload()!r}, {self.line}, {self.col})"


class Sym(_Node):
    __slots__ = ("name",)
    _field = "name"

    def __init__(self, name: str, line: int = 0, col: int = 0) -> None:
        self.name, self.line, self.col = name, line, col


class SInt(_Node):
    __slots__ = ("value",)
    _field = "value"

    def __init__(self, value: int, line: int = 0, col: int = 0) -> None:
        self.value, self.line, self.col = value, line, col


class SStr(_Node):
    __slots__ = ("value",)
    _field = "value"

    def __init__(self, value: str, line: int = 0, col: int = 0) -> None:
        self.value, self.line, self.col = value, line, col


class SList(_Node):
    __slots__ = ("items",)
    _field = "items"

    def __init__(self, items: tuple["SExp", ...], line: int = 0, col: int = 0) -> None:
        self.items, self.line, self.col = items, line, col


SExp = Union[Sym, SInt, SStr, SList]

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", '"': '\\"', "\\": "\\\\"}

# Blanks within a line, then one token. Only '\n' ends a line; every other
# character, '\r' and '\t' included, is one column. `\d` matches exactly the
# digits int() accepts. A string with a backslash, or with no closing quote,
# is decoded, or rejected, by _slow_string.
_TOKEN = re.compile(r"""
    [ \t\r]*
    (?:
      (\()
    | (\))
    | ([+-]?\d+)(?![^()"; \t\r\n])
    | ([^()"; \t\r\n]+)
    | (\n)
    | ("[^"\\]*")
    | ("[^"\\]*(?:\\[\s\S][^"\\]*)*"?)
    | ;[^\n]*
    )
""", re.VERBOSE)
_OPEN, _CLOSE, _INT, _SYM, _NEWLINE, _STR = range(1, 7)  # group 7: any other string


def _slow_string(text: str, start: int, line: int, col: int) -> str:
    """The value of the string literal whose opening quote is text[start],
    or the ParseError it raises, reported at the opening quote."""
    out = []
    pos = start + 1
    while True:
        if pos >= len(text):
            raise ParseError("unterminated string", line, col)
        c = text[pos]
        pos += 1
        if c == '"':
            return "".join(out)
        if c == "\\":
            if pos >= len(text):
                raise ParseError("unterminated escape", line, col)
            esc = text[pos]
            pos += 1
            if esc not in _ESCAPES:
                raise ParseError(f"bad escape \\{esc}", line, col)
            out.append(_ESCAPES[esc])
        else:
            out.append(c)


def parse_sexps(text: str) -> list[SExp]:
    """All top-level forms in the text."""
    top: list[SExp] = []
    items = top
    stack: list[tuple[list, int, int]] = []
    line = 1
    line_start = 0  # offset of the current line's first character
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        if kind is None:  # a comment
            continue
        if kind == _NEWLINE:
            line += 1
            line_start = m.end()
            continue
        start = m.start(kind)
        col = start - line_start + 1
        if kind == _OPEN:
            stack.append((items, line, col))
            items = []
        elif kind == _CLOSE:
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            parent, pline, pcol = stack.pop()
            parent.append(SList(tuple(items), pline, pcol))
            items = parent
        elif kind == _SYM:
            items.append(Sym(m.group(kind), line, col))
        elif kind == _INT:
            items.append(SInt(int(m.group(kind)), line, col))
        else:
            raw = m.group(kind)
            value = raw[1:-1] if kind == _STR else _slow_string(text, start, line, col)
            items.append(SStr(value, line, col))
            if "\n" in raw:
                line += raw.count("\n")
                line_start = start + 1 + raw.rindex("\n")
    if stack:
        _, line, col = stack[-1]
        raise ParseError("unclosed '('", line, col)
    if not top:
        raise ParseError("empty input", 1, 1)
    return top


def write_sexp(node: SExp) -> str:
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, SInt):
        return str(node.value)
    if isinstance(node, SStr):
        return '"' + "".join(_UNESCAPES.get(c, c) for c in node.value) + '"'
    return "(" + " ".join(write_sexp(i) for i in node.items) + ")"
