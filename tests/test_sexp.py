"""The goal-file reader against a reference reader.

`ref_parse` is the reader's earlier design, kept here as an oracle: a lexer
that advances one character at a time, tracking line and column as it goes,
and a tree builder over its tokens. `parse_sexps` must give the same node
kinds, payloads, lines and columns, in preorder, and the same ParseError
message, line and column, on every text.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from effsynth.sexp import ParseError, SInt, SList, SStr, Sym, parse_sexps

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

from heavy import inflate  # noqa: E402

GOAL_PATHS = sorted((ROOT / "goals").glob("*.goal"))

_DELIMS = set("()\"; \t\r\n")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _ref_tokens(text):
    """(kind, value, line, col) tokens, one character at a time."""
    pos, line, col = 0, 1, 1

    def advance(ch):
        nonlocal pos, line, col
        pos += 1
        if ch == "\n":
            line, col = line + 1, 1
        else:
            col += 1

    while pos < len(text):
        ch = text[pos]
        if ch in " \t\r\n":
            advance(ch)
            continue
        if ch == ";":
            while pos < len(text) and text[pos] != "\n":
                advance(text[pos])
            continue
        start = (line, col)
        if ch in "()":
            advance(ch)
            yield (ch, None, *start)
            continue
        if ch == '"':
            advance(ch)
            out = []
            while True:
                if pos >= len(text):
                    raise ParseError("unterminated string", *start)
                c = text[pos]
                advance(c)
                if c == '"':
                    break
                if c == "\\":
                    if pos >= len(text):
                        raise ParseError("unterminated escape", *start)
                    esc = text[pos]
                    advance(esc)
                    if esc not in _ESCAPES:
                        raise ParseError(f"bad escape \\{esc}", *start)
                    out.append(_ESCAPES[esc])
                else:
                    out.append(c)
            yield ("str", "".join(out), *start)
            continue
        out = []
        while pos < len(text) and text[pos] not in _DELIMS:
            out.append(text[pos])
            advance(text[pos])
        yield ("atom", "".join(out), *start)


def _ref_is_int(tok):
    body = tok[1:] if tok[0] in "+-" else tok
    return body.isdigit() and bool(body)


def ref_parse(text):
    stack, positions, top = [], [], []
    last = (1, 1)
    for kind, value, line, col in _ref_tokens(text):
        last = (line, col)
        if kind == "(":
            stack.append([])
            positions.append((line, col))
            continue
        if kind == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            node = SList(tuple(stack.pop()), *positions.pop())
        elif kind == "str":
            node = SStr(value, line, col)
        elif _ref_is_int(value):
            node = SInt(int(value), line, col)
        else:
            node = Sym(value, line, col)
        (stack[-1] if stack else top).append(node)
    if stack:
        raise ParseError("unclosed '('", *positions[-1])
    if not top:
        raise ParseError("empty input", *last)
    return top


def preorder(nodes):
    """(kind, payload, line, col) of every node, lists before their items;
    a list's payload is its length."""
    out = []
    for n in nodes:
        payload = len(n.items) if isinstance(n, SList) else getattr(n, "name", None)
        if isinstance(n, (SInt, SStr)):
            payload = n.value
        out.append((type(n).__name__, payload, n.line, n.col))
        if isinstance(n, SList):
            out.extend(preorder(n.items))
    return out


def outcome(parse, text):
    try:
        return preorder(parse(text))
    except ParseError as exc:
        return ("error", exc.msg, exc.line, exc.col)


def assert_same(text):
    assert outcome(parse_sexps, text) == outcome(ref_parse, text), repr(text)


_CHARS = '()" \\;\n\t\r\fabnt019+-'


@settings(max_examples=3000, deadline=None)
@given(st.text(alphabet=_CHARS, max_size=40))
def test_random_texts_match_the_reference(text):
    assert_same(text)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(['"', '\\', '\\"', '\\n', '(', ')', ' ', '\n', '\r\n',
                                 ';', 'ab', '-12', '+', '\t', '\f']), max_size=20))
def test_random_token_soups_match_the_reference(parts):
    assert_same("".join(parts))


@pytest.mark.parametrize("path", GOAL_PATHS, ids=lambda p: p.stem)
def test_bundled_goals_match_the_reference(path):
    assert_same(path.read_text(encoding="utf-8"))


# s1_lvar and s2_false create no rows, so heavy.inflate has none to decoy
INFLATABLE = [p for p in GOAL_PATHS if p.stem not in ("s1_lvar", "s2_false")]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("path", INFLATABLE, ids=lambda p: p.stem)
def test_inflated_goals_match_the_reference(path, seed):
    assert_same(inflate(path.read_text(encoding="utf-8"), seed))


# (text, message, line, col): one case per error the reader raises
ERRORS = [
    ("", "empty input", 1, 1),
    ("  \n\t ", "empty input", 1, 1),
    ("; only a comment\n; and another", "empty input", 1, 1),
    ("(a))", "unbalanced ')'", 1, 4),
    ("(a\n  (b c)", "unclosed '('", 1, 1),
    ("(a\n(b", "unclosed '('", 2, 1),
    ('x\n  "abc', "unterminated string", 2, 3),
    ('(a "b\\', "unterminated escape", 1, 4),
    ('(a\n "x\\qy")', "bad escape \\q", 2, 2),
    ('"\\\n"', "bad escape \\\n", 1, 1),
    ('"ok" "\\t\\n" (b "\\z', "bad escape \\z", 1, 16),
    ('"a\nb" )', "unbalanced ')'", 2, 4),
]


@pytest.mark.parametrize("text,msg,line,col", ERRORS)
def test_each_error_message_and_position(text, msg, line, col):
    with pytest.raises(ParseError) as exc:
        parse_sexps(text)
    assert (exc.value.msg, exc.value.line, exc.value.col) == (msg, line, col)
    assert str(exc.value) == f"{line}:{col}: {msg}"
    assert_same(text)


# (text, expected preorder): positions around strings, where an off-by-one
# column shows first
POSITIONS = [
    ('"ab" x', [("SStr", "ab", 1, 1), ("Sym", "x", 1, 6)]),
    (' ("a\\"b" c)', [("SList", 2, 1, 2), ("SStr", 'a"b', 1, 3), ("Sym", "c", 1, 10)]),
    ('"a\nbc" d\n e', [("SStr", "a\nbc", 1, 1), ("Sym", "d", 2, 5), ("Sym", "e", 3, 2)]),
    ('"x\\n\ny" 7', [("SStr", "x\n\ny", 1, 1), ("SInt", 7, 2, 4)]),
    ('\r\f1 -2 +x', [("Sym", "\f1", 1, 2), ("SInt", -2, 1, 5), ("Sym", "+x", 1, 8)]),
    ("a;c\n(b)", [("Sym", "a", 1, 1), ("SList", 1, 2, 1), ("Sym", "b", 2, 2)]),
]


@pytest.mark.parametrize("text,expected", POSITIONS)
def test_positions_after_strings(text, expected):
    assert preorder(parse_sexps(text)) == expected
    assert_same(text)


def test_nodes_compare_and_hash_without_positions():
    a, b = Sym("x", 1, 2), Sym("x", 3, 4)
    assert a == b and hash(a) == hash(b) and a != SStr("x")
    assert SList((SInt(1, 1, 1),), 5, 5) == SList((SInt(1),))
    assert {SStr("s", 2, 2)} == {SStr("s")}
    assert (a.name, a.line, a.col) == ("x", 1, 2)
    assert not hasattr(a, "__dict__")


def test_digits_int_rejects_read_as_symbols():
    # str.isdigit accepts superscripts, int() does not; the reference
    # reader raised ValueError on them
    assert parse_sexps("\u00b2 -\u00b9") == [Sym("\u00b2"), Sym("-\u00b9")]
    assert parse_sexps("\u0663") == [SInt(3)]  # an Arabic-Indic digit
    with pytest.raises(ValueError):
        ref_parse("\u00b2")
