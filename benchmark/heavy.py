"""The `setup_heavy` goal generator: bundled goals inflated with decoy rows.

Before each spec's `(call! ...)` the generator inserts DECOY_ROWS unbound
`create` statements, spread evenly over the schema classes that spec's setup
already creates rows in. Every column of a decoy row holds a seeded random
string that occurs nowhere in the goal, so no query a candidate can build
from the goal's constants and arguments matches a decoy, and a decoy is
never the first row of its table. Search counts and programs therefore stay
those of the bundled goal, while every spec evaluation replays a setup that
is DECOY_ROWS statements longer and every `where`/`exists?` scans the decoys.
"""

from __future__ import annotations

import random
import string

from effsynth.sexp import SList, SStr, Sym, parse_sexps

DECOY_ROWS = 200
DECOY_LEN = 10


def _strings(node) -> set[str]:
    if isinstance(node, SStr):
        return {node.value}
    if isinstance(node, SList):
        out: set[str] = set()
        for item in node.items:
            out |= _strings(item)
        return out
    return set()


def _head(node) -> str | None:
    if isinstance(node, SList) and node.items and isinstance(node.items[0], Sym):
        return node.items[0].name
    return None


def _created_classes(setup: SList) -> list[str]:
    """Classes the setup creates rows in, in order of first creation."""
    out: list[str] = []

    def visit(node) -> None:
        if not isinstance(node, SList):
            return
        items = node.items
        if (len(items) >= 3 and items[0] == Sym("call") and isinstance(items[1], Sym)
                and items[2] == Sym("create") and items[1].name not in out):
            out.append(items[1].name)
        for item in items:
            visit(item)

    for stmt in setup.items[1:-1]:
        visit(stmt)
    return out


def inflate(text: str, seed: int) -> str:
    """The goal text with DECOY_ROWS decoy creates before every `(call! ...)`.

    The same text and seed always give the same output. Raises ValueError
    when a schema has a non-Str column or a spec creates no rows, since a
    decoy could then collide with a goal value or become a table's first row.
    """
    forms = parse_sexps(text)
    columns: dict[str, list[str]] = {}
    goals = []
    for form in forms:
        head = _head(form)
        if head == "schema":
            cls = form.items[1].name
            columns[cls] = []
            for col in form.items[2:]:
                if col.items[1] != Sym("Str"):
                    raise ValueError(f"schema {cls} has a non-Str column")
                columns[cls].append(col.items[0].name)
        elif head == "goal":
            goals.append(form)
    if len(goals) != 1:
        raise ValueError("expected exactly one goal form")
    goal = goals[0]
    taken = set().union(*(_strings(f) for f in forms))
    rng = random.Random(f"{seed}/{goal.items[1].name}")

    def fresh() -> str:
        while True:
            s = "".join(rng.choice(string.ascii_lowercase) for _ in range(DECOY_LEN))
            if s not in taken:
                return s

    line_starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            line_starts.append(i + 1)
    inserts: list[tuple[int, str]] = []
    for spec in goal.items[2:]:
        if _head(spec) != "spec":
            continue
        setup = spec.items[2]
        call = setup.items[-1]
        classes = _created_classes(setup)
        if not classes:
            raise ValueError(f"spec {spec.items[1].value!r} creates no rows")
        indent = " " * (call.col - 1)
        stmts = []
        for k in range(DECOY_ROWS):
            cls = classes[k % len(classes)]
            fields = " ".join(f'({c} "{fresh()}")' for c in columns[cls])
            stmts.append(f"(call {cls} create (record {fields}))\n{indent}")
        inserts.append((line_starts[call.line - 1] + call.col - 1, "".join(stmts)))
    for offset, chunk in reversed(inserts):
        text = text[:offset] + chunk + text[offset:]
    return text


def check_inflated(bundled, heavy) -> int:
    """Compare a parsed inflated goal file with its parsed bundled source.

    The goal name, signature, constants, spec titles, call arguments and
    assertions must be equal, each setup must start with the bundled setup,
    and every added statement must be an unbound `create` on a schema class
    whose values are strings that occur nowhere in the bundled goal file.
    Returns the number of decoy rows; raises ValueError on a mismatch.
    """
    # Imported at call time: set-up re-imports the library, and isinstance
    # needs the classes of the modules that parsed these goals.
    from effsynth.core import Call, ClassLit, RecordLit, StrLit, walk

    g0, g1 = bundled.goal, heavy.goal
    if (g0.name, g0.param_types, g0.ret, g0.constants) != (g1.name, g1.param_types, g1.ret,
                                                          g1.constants):
        raise ValueError(f"{g0.name}: signature or constants differ")
    if bundled.schemas != heavy.schemas or len(g0.specs) != len(g1.specs):
        raise ValueError(f"{g0.name}: schemas or spec count differ")
    goal_strings = {n.value for s in g0.specs
                    for e in [st.expr for st in s.setup] + list(s.call_args) + list(s.post)
                    for n in walk(e) if isinstance(n, StrLit)}
    goal_strings |= {lit.value for lit, _ in g0.constants.entries if isinstance(lit, StrLit)}
    schema_classes = {s.cls for s in bundled.schemas}
    decoys = 0
    for s0, s1 in zip(g0.specs, g1.specs):
        if (s0.title, s0.call_args, s0.post) != (s1.title, s1.call_args, s1.post):
            raise ValueError(f"{g0.name}: spec {s0.title!r} changed")
        n = len(s0.setup)
        if s1.setup[:n] != s0.setup:
            raise ValueError(f"{g0.name}: spec {s0.title!r} setup prefix changed")
        for stmt in s1.setup[n:]:
            e = stmt.expr
            ok = (stmt.var is None and isinstance(e, Call) and e.method == "create"
                  and isinstance(e.recv, ClassLit) and e.recv.name in schema_classes
                  and len(e.args) == 1 and isinstance(e.args[0], RecordLit)
                  and all(isinstance(v, StrLit) and v.value not in goal_strings
                          for _, v in e.args[0].pairs))
            if not ok:
                raise ValueError(f"{g0.name}: bad decoy statement in {s0.title!r}")
            decoys += 1
    return decoys
