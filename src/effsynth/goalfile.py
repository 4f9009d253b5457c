"""The goal-file DSL: class tables, schemas, signatures, constants, and goals.

Grammar (informal):

    (class NAME (parent NAME)?)
    (schema NAME (COLUMN TYPE)...)
    (method OWNER NAME (params TYPE...) TYPE (read EFF)? (write EFF)? (native "ID")?)
    (constants (LITERAL TYPE)...)
    (goal NAME (sig (TYPE... -> TYPE)) (consts LITERAL...) SPEC...)
    SPEC  ::= (spec "TITLE" (setup STMT... (call! EXPR...)) (post (assert EXPR)...))
    STMT  ::= (bind NAME EXPR) | EXPR
    TYPE  ::= NAME | (class-of NAME) | (u TYPE TYPE...) | (record FIELD...)
    FIELD ::= (NAME TYPE) | (NAME TYPE opt)
    EFF   ::= pure | * | self | self.R | CLASS | CLASS.R | (u EFF EFF...)
    EXPR  ::= nil | true | false | INT | "STR" | (sym NAME) | NAME
            | (call EXPR NAME EXPR...) | (seq EXPR EXPR) | (let NAME EXPR EXPR)
            | (if COND EXPR EXPR) | (record (NAME EXPR)...)
    COND  ::= (not COND) | (or COND COND) | EXPR

A bare NAME in expression position is a class literal when the name is a
declared class, otherwise a variable reference.
"""

from __future__ import annotations

from .core import (
    Atom, Call, ClassLit, ClassOf, ClassStar, ClassT, ClassTable, Cond,
    ConstantPool, DefinitionError, Effect, EffectHole, EffectPair, Expr,
    FalseLit, If, IntLit, Let, MethodSig, NilLit, Not, Or, PURE, RecordLit,
    Region, STAR, SELF_STAR, SelfRegion, SelfStar, Seq, Star, StrLit, SymLit,
    TrueLit, TypedHole, TypeExpr, UnionT, Value, Var, record_of, subtype,
    union_of,
)
from .driver import Goal, Program
from .interp import RESULT_VAR, SetupStmt, Spec
from .runtime import (
    SchemaDecl, World, install_core_methods, install_schema, is_native, relation_class,
)
from .sexp import ParseError, SExp, SInt, SList, SStr, Sym, parse_sexps, write_sexp
from .typegen import TypeCheckError, typecheck


class GoalFile(Value):
    __slots__ = ("classes", "schemas", "methods", "constants", "goal")

    def __init__(self, classes: tuple[tuple[str, str], ...], schemas: tuple[SchemaDecl, ...],
                 methods: tuple[MethodSig, ...], constants: ConstantPool, goal: Goal) -> None:
        self.classes = classes  # (name, parent)
        self.schemas = schemas
        self.methods = methods
        self.constants = constants
        self.goal = goal


def _err(node: SExp, msg: str) -> ParseError:
    return ParseError(msg, getattr(node, "line", 0), getattr(node, "col", 0))


def _head(node: SExp) -> str | None:
    """The name of a list's head symbol; None for atoms, () and other heads."""
    if isinstance(node, SList) and node.items and isinstance(node.items[0], Sym):
        return node.items[0].name
    return None


def _expect_list(node: SExp, head: str | None = None) -> SList:
    if not isinstance(node, SList):
        raise _err(node, f"expected a list{' starting with ' + head if head else ''}")
    if head is not None and _head(node) != head:
        raise _err(node, f"expected ({head} ...)")
    return node


def _expect_sym(node: SExp, what: str) -> str:
    if not isinstance(node, Sym):
        raise _err(node, f"expected {what}")
    return node.name


# ---------------------------------------------------------------------------
# Types and effects
# ---------------------------------------------------------------------------

def parse_type(node: SExp, class_names: set[str]) -> TypeExpr:
    if isinstance(node, Sym):
        if node.name not in class_names:
            raise _err(node, f"unknown class {node.name}")
        return ClassT(node.name)
    head = _head(node)
    if head == "class-of":
        if len(node.items) != 2 or not isinstance(node.items[1], Sym):
            raise _err(node, "(class-of NAME)")
        return ClassOf(parse_type(node.items[1], class_names).name)
    if head == "u":
        if len(node.items) < 3:
            raise _err(node, "(u TYPE TYPE...)")
        return union_of(*(parse_type(i, class_names) for i in node.items[1:]))
    if head == "record":
        fields = []
        for f in node.items[1:]:
            fl = _expect_list(f)
            if len(fl.items) not in (2, 3):
                raise _err(f, "(NAME TYPE) or (NAME TYPE opt)")
            name = _expect_sym(fl.items[0], "a field name")
            ty = parse_type(fl.items[1], class_names)
            opt = False
            if len(fl.items) == 3:
                if not isinstance(fl.items[2], Sym) or fl.items[2].name != "opt":
                    raise _err(fl.items[2], "only 'opt' may follow a field type")
                opt = True
            fields.append((name, opt, ty))
        try:
            return record_of(fields)
        except DefinitionError as exc:
            raise _err(node, str(exc)) from None
    raise _err(node, "expected a type")


def parse_effect(node: SExp, class_names: set[str]) -> Effect:
    def atom(sym: Sym):
        name = sym.name
        if name == "pure":
            return None
        if name == "*":
            return STAR
        if name == "self":
            return SELF_STAR
        if name.startswith("self."):
            region = name[len("self."):]
            if not region:
                raise _err(sym, "malformed effect: empty region after self.")
            return SelfRegion(region)
        if "." in name:
            cls, _, region = name.partition(".")
            if not region or not cls:
                raise _err(sym, f"malformed effect {name}")
            if cls not in class_names:
                raise _err(sym, f"unknown class {cls} in effect")
            return Region(cls, region)
        if name not in class_names:
            raise _err(sym, f"unknown class {name} in effect")
        return ClassStar(name)

    if isinstance(node, Sym):
        a = atom(node)
        return Effect(() if a is None else (a,))
    if _head(node) == "u":
        atoms = []
        for sub in node.items[1:]:
            atoms.extend(parse_effect(sub, class_names).atoms)
        return Effect(tuple(sorted(set(atoms), key=lambda a: (type(a).__name__, str(a)))))
    raise _err(node, "expected an effect")


# ---------------------------------------------------------------------------
# Expressions and conditions
# ---------------------------------------------------------------------------

def parse_expr(node: SExp, class_names: set[str]) -> Expr:
    if isinstance(node, SInt):
        return IntLit(node.value)
    if isinstance(node, SStr):
        return StrLit(node.value)
    if isinstance(node, Sym):
        if node.name == "nil":
            return NilLit()
        if node.name == "true":
            return TrueLit()
        if node.name == "false":
            return FalseLit()
        if node.name in class_names:
            return ClassLit(node.name)
        return Var(node.name)
    head = _head(node)
    if head == "sym":
        if len(node.items) != 2:
            raise _err(node, "(sym NAME)")
        return SymLit(_expect_sym(node.items[1], "a symbol name"))
    if head == "call":
        if len(node.items) < 3:
            raise _err(node, "(call RECV METHOD ARG...)")
        recv = parse_expr(node.items[1], class_names)
        method = _expect_sym(node.items[2], "a method name")
        args = tuple(parse_expr(a, class_names) for a in node.items[3:])
        return Call(recv, method, args)
    if head == "seq":
        if len(node.items) != 3:
            raise _err(node, "(seq EXPR EXPR)")
        return Seq(parse_expr(node.items[1], class_names),
                   parse_expr(node.items[2], class_names))
    if head == "let":
        if len(node.items) != 4:
            raise _err(node, "(let NAME EXPR EXPR)")
        var = _expect_sym(node.items[1], "a variable name")
        return Let(var, parse_expr(node.items[2], class_names),
                   parse_expr(node.items[3], class_names))
    if head == "if":
        if len(node.items) != 4:
            raise _err(node, "(if COND EXPR EXPR)")
        return If(parse_cond(node.items[1], class_names),
                  parse_expr(node.items[2], class_names),
                  parse_expr(node.items[3], class_names))
    if head == "record":
        pairs = []
        seen = set()
        for p in node.items[1:]:
            pl = _expect_list(p)
            if len(pl.items) != 2:
                raise _err(p, "(NAME EXPR)")
            k = _expect_sym(pl.items[0], "a field name")
            if k in seen:
                raise _err(p, f"duplicate record key {k}")
            seen.add(k)
            pairs.append((k, parse_expr(pl.items[1], class_names)))
        return RecordLit(tuple(pairs))
    raise _err(node, "expected an expression")


def parse_cond(node: SExp, class_names: set[str]) -> Cond:
    head = _head(node)
    if head == "not":
        if len(node.items) != 2:
            raise _err(node, "(not COND)")
        return Not(parse_cond(node.items[1], class_names))
    if head == "or":
        if len(node.items) != 3:
            raise _err(node, "(or COND COND)")
        return Or(parse_cond(node.items[1], class_names),
                  parse_cond(node.items[2], class_names))
    return Atom(parse_expr(node, class_names))


# ---------------------------------------------------------------------------
# Top-level forms
# ---------------------------------------------------------------------------

def _parse_schema(form: SList, class_names: set[str]) -> SchemaDecl:
    name = _expect_sym(form.items[1], "a schema class name")
    columns = []
    for c in form.items[2:]:
        cl = _expect_list(c)
        if len(cl.items) != 2:
            raise _err(c, "(COLUMN TYPE)")
        col = _expect_sym(cl.items[0], "a column name")
        ty = parse_type(cl.items[1], class_names)
        columns.append((col, ty))
    try:
        return SchemaDecl(name, tuple(columns))
    except DefinitionError as exc:
        raise _err(form, str(exc)) from None


def _parse_method(form: SList, class_names: set[str]) -> MethodSig:
    if len(form.items) < 5:
        raise _err(form, "(method OWNER NAME (params TYPE...) TYPE ...)")
    owner_node = form.items[1]
    if isinstance(owner_node, Sym):
        owner: TypeExpr = ClassT(owner_node.name)
        if owner_node.name not in class_names:
            raise _err(owner_node, f"unknown class {owner_node.name}")
    else:
        owner = parse_type(owner_node, class_names)
        if not isinstance(owner, ClassOf):
            raise _err(owner_node, "method owner must be NAME or (class-of NAME)")
    name = _expect_sym(form.items[2], "a method name")
    params_form = _expect_list(form.items[3], "params")
    params = tuple(parse_type(p, class_names) for p in params_form.items[1:])
    ret = parse_type(form.items[4], class_names)
    read = PURE
    write = PURE
    native = None
    for extra in form.items[5:]:
        el = _expect_list(extra)
        head = _expect_sym(el.items[0], "read, write, or native") if el.items else None
        if head == "read" and len(el.items) == 2:
            read = parse_effect(el.items[1], class_names)
        elif head == "write" and len(el.items) == 2:
            write = parse_effect(el.items[1], class_names)
        elif head == "native" and len(el.items) == 2 and isinstance(el.items[1], SStr):
            native = el.items[1].value
            if not is_native(native):
                raise _err(extra, f"unknown native {native}")
        else:
            raise _err(extra, "expected (read EFF), (write EFF), or (native \"ID\")")
    return MethodSig(owner, name, params, ret, EffectPair(read, write), native)


def _parse_constants(form: SList, class_names: set[str]) -> ConstantPool:
    entries = []
    for e in form.items[1:]:
        el = _expect_list(e)
        if len(el.items) != 2:
            raise _err(e, "(LITERAL TYPE)")
        lit = parse_expr(el.items[0], class_names)
        ty = parse_type(el.items[1], class_names)
        entries.append((lit, ty))
    return ConstantPool(tuple(entries))


def _parse_spec(form: SList, class_names: set[str]) -> Spec:
    if len(form.items) < 4 or not isinstance(form.items[1], SStr):
        raise _err(form, '(spec "TITLE" (setup ...) (post ...))')
    title = form.items[1].value
    setup_form = _expect_list(form.items[2], "setup")
    post_form = _expect_list(form.items[3], "post")
    if len(form.items) > 4:
        raise _err(form.items[4], "unexpected form in spec")
    if len(setup_form.items) < 2:
        raise _err(setup_form, "setup must end with (call! ...)")
    *stmt_nodes, call_node = setup_form.items[1:]
    call_list = _expect_list(call_node, "call!")
    call_args = tuple(parse_expr(a, class_names) for a in call_list.items[1:])
    stmts = []
    for s in stmt_nodes:
        if _head(s) == "bind":
            if len(s.items) != 3:
                raise _err(s, "(bind NAME EXPR)")
            var = _expect_sym(s.items[1], "a variable name")
            if var in class_names or var == RESULT_VAR:
                raise _err(s.items[1], f"bind name {var} shadows a reserved name")
            stmts.append(SetupStmt(parse_expr(s.items[2], class_names), var))
        else:
            stmts.append(SetupStmt(parse_expr(s, class_names)))
    post = []
    for a in post_form.items[1:]:
        al = _expect_list(a, "assert")
        if len(al.items) != 2:
            raise _err(a, "(assert EXPR)")
        post.append(parse_expr(al.items[1], class_names))
    if not post:
        raise _err(post_form, "post must contain at least one assert")
    return Spec(title, tuple(stmts), call_args, tuple(post))


def _parse_goal(form: SList, class_names: set[str],
                pool: ConstantPool) -> Goal:
    if len(form.items) < 4:
        raise _err(form, "(goal NAME (sig ...) (consts ...) SPEC...)")
    name = _expect_sym(form.items[1], "a goal name")
    sig_form = _expect_list(form.items[2], "sig")
    if len(sig_form.items) != 2:
        raise _err(sig_form, "(sig (TYPE... -> TYPE))")
    arrow = _expect_list(sig_form.items[1])
    try:
        sep = arrow.items.index(Sym("->"))
    except ValueError:
        raise _err(arrow, "signature needs '->'") from None
    if sep != len(arrow.items) - 2:
        raise _err(arrow, "exactly one return type after '->'")
    params = tuple(parse_type(t, class_names) for t in arrow.items[:sep])
    ret = parse_type(arrow.items[-1], class_names)
    consts_form = _expect_list(form.items[3], "consts")
    available = {print_expr(lit): (lit, ty) for lit, ty in pool.entries}
    chosen = []
    for c in consts_form.items[1:]:
        lit = parse_expr(c, class_names)
        key = print_expr(lit)
        if key not in available:
            raise _err(c, f"constant {key} is not declared in (constants ...)")
        chosen.append(available[key])
    specs = tuple(_parse_spec(_expect_list(s, "spec"), class_names)
                  for s in form.items[4:])
    if not specs:
        raise _err(form, "goal needs at least one spec")
    return Goal(name, params, ret, ConstantPool(tuple(chosen)), specs)


def parse_goal_file(text: str) -> GoalFile:
    forms = parse_sexps(text)
    classes: list[tuple[str, str]] = []
    schema_forms: list[SList] = []
    method_forms: list[SList] = []
    constants_form: SList | None = None
    goal_form: SList | None = None

    class_names = {"Obj", "Nil", "Bool", "Str", "Int", "Sym", "DbRecord"}
    for form in forms:
        fl = _expect_list(form)
        head = _head(fl)
        if head is None:
            raise _err(form, "expected a declaration")
        if head == "class":
            if len(fl.items) < 2:
                raise _err(fl, "(class NAME (parent NAME)?)")
            name = _expect_sym(fl.items[1], "a class name")
            parent = "Obj"
            if len(fl.items) == 3:
                pl = _expect_list(fl.items[2], "parent")
                if len(pl.items) != 2:
                    raise _err(pl, "(parent NAME)")
                parent = _expect_sym(pl.items[1], "a parent class name")
            elif len(fl.items) != 2:
                raise _err(fl, "(class NAME (parent NAME)?)")
            if parent not in class_names:
                raise _err(fl, f"unknown parent class {parent}")
            if name in class_names:
                raise _err(fl, f"class {name} already declared")
            classes.append((name, parent))
            class_names.add(name)
        elif head == "schema":
            if len(fl.items) < 2:
                raise _err(fl, "(schema NAME (COLUMN TYPE)...)")
            schema_forms.append(fl)
            name = _expect_sym(fl.items[1], "a schema class name")
            if name in class_names:
                raise _err(fl, f"class {name} already declared")
            class_names.add(name)
            class_names.add(relation_class(name))
        elif head == "method":
            method_forms.append(fl)
        elif head == "constants":
            if constants_form is not None:
                raise _err(fl, "duplicate constants declaration")
            constants_form = fl
        elif head == "goal":
            if goal_form is not None:
                raise _err(fl, "duplicate goal declaration")
            goal_form = fl
        else:
            raise _err(fl, f"unknown declaration {head}")

    schemas = tuple(_parse_schema(f, class_names) for f in schema_forms)
    methods = tuple(_parse_method(f, class_names) for f in method_forms)
    pool = (_parse_constants(constants_form, class_names)
            if constants_form is not None else ConstantPool())
    if goal_form is None:
        raise ParseError("goal file has no (goal ...)", 1, 1)
    goal = _parse_goal(goal_form, class_names, pool)
    gf = GoalFile(tuple(classes), schemas, methods, pool, goal)
    _validate(gf)
    return gf


# ---------------------------------------------------------------------------
# Building and validation
# ---------------------------------------------------------------------------

def build(gf: GoalFile) -> tuple[ClassTable, World]:
    ct = ClassTable()
    install_core_methods(ct)
    for name, parent in gf.classes:
        ct.add_class(name, parent)
    for schema in gf.schemas:
        install_schema(ct, schema)
    for sig in gf.methods:
        ct.add_method(sig)
    world = World({s.cls: s for s in gf.schemas})
    return ct, world


def _validate(gf: GoalFile) -> None:
    ct, _ = build(gf)
    calls: dict = {}  # the call rule's outcomes, for this validation only

    def type_of(env: dict, e: Expr, what: str) -> TypeExpr:
        try:
            return typecheck(env, ct, e, calls=calls)
        except TypeCheckError as exc:
            raise DefinitionError(f"{what} does not typecheck: {exc}") from None

    for lit, ty in gf.constants.entries:
        what = f"constant {print_expr(lit)}"
        if not subtype(type_of({}, lit, what), ty, ct):
            raise DefinitionError(f"{what} is not a {print_type(ty)}")
    goal = gf.goal
    for spec in goal.specs:
        name = f"spec {spec.title!r}"
        env: dict[str, TypeExpr] = {}
        for stmt in spec.setup:
            t = type_of(env, stmt.expr, f"{name} setup")
            if stmt.var is not None:
                env[stmt.var] = t
        if len(spec.call_args) != goal.arity:
            raise DefinitionError(f"{name} calls the goal with {len(spec.call_args)} arguments")
        for arg, pty in zip(spec.call_args, goal.param_types):
            what = f"{name} argument {print_expr(arg)}"
            if not subtype(type_of(env, arg, what), pty, ct):
                raise DefinitionError(f"{what} is not a {print_type(pty)}")
        env[RESULT_VAR] = goal.ret
        for a in spec.post:
            type_of(env, a, f"{name} assertion")


def load_goal_file(path: str) -> tuple[GoalFile, ClassTable, World]:
    with open(path, encoding="utf-8") as fh:
        gf = parse_goal_file(fh.read())
    ct, world = build(gf)
    return gf, ct, world


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_type(t: TypeExpr) -> str:
    if isinstance(t, ClassT):
        return t.name
    if isinstance(t, ClassOf):
        return f"(class-of {t.name})"
    if isinstance(t, UnionT):
        return "(u " + " ".join(print_type(m) for m in t.members) + ")"
    fields = []
    for k, opt, ty in t.fields:
        fields.append(f"({k} {print_type(ty)} opt)" if opt else f"({k} {print_type(ty)})")
    return "(record " + " ".join(fields) + ")"


def print_effect(e: Effect) -> str:
    if e.is_pure():
        return "pure"
    names = [_ATOM_NAMES[type(a)](a)
             for a in sorted(e.atoms, key=lambda a: (type(a).__name__, str(a)))]
    if len(names) == 1:
        return names[0]
    return "(u " + " ".join(names) + ")"


_ATOM_NAMES = {
    ClassStar: lambda a: a.cls,
    Region: lambda a: f"{a.cls}.{a.region}",
    SelfRegion: lambda a: f"self.{a.region}",
    SelfStar: lambda a: "self",
    Star: lambda a: "*",
}


def print_expr(e: Expr) -> str:
    rule = _PRINT.get(type(e))
    if rule is None:
        raise ValueError(f"cannot print {e!r}")
    return rule(e)


_PRINT = {
    NilLit: lambda e: "nil",
    TrueLit: lambda e: "true",
    FalseLit: lambda e: "false",
    IntLit: lambda e: str(e.value),
    StrLit: lambda e: write_sexp(SStr(e.value)),
    SymLit: lambda e: f"(sym {e.name})",
    ClassLit: lambda e: e.name,
    Var: lambda e: e.name,
    Seq: lambda e: f"(seq {print_expr(e.first)} {print_expr(e.second)})",
    Call: lambda e: " ".join(["(call", print_expr(e.recv), e.method,
                              *map(print_expr, e.args)]) + ")",
    If: lambda e: f"(if {print_cond(e.cond)} {print_expr(e.then)} {print_expr(e.orelse)})",
    Let: lambda e: f"(let {e.var} {print_expr(e.bound)} {print_expr(e.body)})",
    RecordLit: lambda e: "(record" + "".join(f" ({k} {print_expr(v)})" for k, v in e.pairs) + ")",
    TypedHole: lambda e: f"(hole {print_type(e.ty)})",
    EffectHole: lambda e: f"(effhole {print_effect(e.eff)})",
}


def print_cond(c: Cond) -> str:
    if isinstance(c, Atom):
        return print_expr(c.expr)
    if isinstance(c, Not):
        return f"(not {print_cond(c.inner)})"
    return f"(or {print_cond(c.left)} {print_cond(c.right)})"


def print_program(p: Program) -> str:
    params = " ".join(p.params)
    return f"(def {p.name} (params {params}) {print_expr(p.body)})"


def parse_program_file(text: str, class_names: set[str]) -> Program:
    forms = parse_sexps(text)
    if len(forms) != 1:
        raise ParseError("program file must contain exactly one (def ...)", 1, 1)
    form = _expect_list(forms[0], "def")
    if len(form.items) != 4:
        raise _err(form, "(def NAME (params NAME...) BODY)")
    name = _expect_sym(form.items[1], "a method name")
    params_form = _expect_list(form.items[2], "params")
    params = tuple(_expect_sym(p, "a parameter name") for p in params_form.items[1:])
    body = parse_expr(form.items[3], class_names)
    return Program(name, params, body)


def print_goal_file(gf: GoalFile) -> str:
    lines: list[str] = []
    for name, parent in gf.classes:
        lines.append(f"(class {name} (parent {parent}))")
    for schema in gf.schemas:
        cols = " ".join(f"({c} {print_type(t)})" for c, t in schema.columns)
        lines.append(f"(schema {schema.cls} {cols})" if cols else f"(schema {schema.cls})")
    for sig in gf.methods:
        owner = (f"(class-of {sig.owner_class()})" if sig.is_singleton()
                 else sig.owner_class())
        params = " ".join(print_type(p) for p in sig.params)
        parts = [f"(method {owner} {sig.name} (params{' ' + params if params else ''})",
                 print_type(sig.ret)]
        parts.append(f"(read {print_effect(sig.eff.read)})")
        parts.append(f"(write {print_effect(sig.eff.write)})")
        if sig.native is not None:
            parts.append(f"(native {write_sexp(SStr(sig.native))})")
        lines.append(" ".join(parts) + ")")
    if gf.constants.entries:
        entries = " ".join(f"({print_expr(lit)} {print_type(ty)})"
                           for lit, ty in gf.constants.entries)
        lines.append(f"(constants {entries})")
    goal = gf.goal
    sig_parts = [print_type(t) for t in goal.param_types] + ["->", print_type(goal.ret)]
    consts = " ".join(print_expr(lit) for lit, _ in goal.constants.entries)
    lines.append(f"(goal {goal.name}")
    lines.append(f"  (sig ({' '.join(sig_parts)}))")
    lines.append(f"  (consts{' ' + consts if consts else ''})")
    for spec in goal.specs:
        lines.append(f"  (spec {write_sexp(SStr(spec.title))}")
        lines.append("    (setup")
        for stmt in spec.setup:
            if stmt.var is not None:
                lines.append(f"      (bind {stmt.var} {print_expr(stmt.expr)})")
            else:
                lines.append(f"      {print_expr(stmt.expr)}")
        args = " ".join(print_expr(a) for a in spec.call_args)
        lines.append(f"      (call!{' ' + args if args else ''}))")
        lines.append("    (post")
        for a in spec.post:
            lines.append(f"      (assert {print_expr(a)})")
        lines.append("    ))")
    lines.append(")")
    return "\n".join(lines) + "\n"
