"""The library's value classes: slotted subclasses of core.Value.

FIELDS is the field list, in constructor order with defaults, that each class
had as a frozen dataclass. Every class keeps it, has no instance dict,
compares equal only to an instance of its own class with equal fields,
hashes like its equals, and prints the repr the dataclass printed.
"""

import inspect
import re
from dataclasses import make_dataclass

import pytest

from effsynth import core, driver, goalfile, interp, merge, runtime, search
from effsynth.core import PURE, PURE_PAIR, STR_T, ClassT, Value

# A field is its name, or (name, default) when it has one.
FIELDS = {
    core.ClassT: ("name",),
    core.ClassOf: ("name",),
    core.UnionT: ("members",),
    core.RecordT: ("fields",),
    core.Star: (),
    core.ClassStar: ("cls",),
    core.Region: ("cls", "region"),
    core.SelfStar: (),
    core.SelfRegion: ("region",),
    core.Effect: (("atoms", ()),),
    core.EffectPair: (("read", PURE), ("write", PURE)),
    core.NilLit: (),
    core.TrueLit: (),
    core.FalseLit: (),
    core.IntLit: ("value",),
    core.StrLit: ("value",),
    core.SymLit: ("name",),
    core.ClassLit: ("name",),
    core.Var: ("name",),
    core.Seq: ("first", "second"),
    core.Call: ("recv", "method", ("args", ())),
    core.If: ("cond", "then", "orelse"),
    core.Let: ("var", "bound", "body"),
    core.RecordLit: ("pairs",),
    core.TypedHole: ("ty",),
    core.EffectHole: ("eff",),
    core.HolePath: ("hole", "frames"),
    core.MethodSig: ("owner", "name", "params", "ret", ("eff", PURE_PAIR), ("native", None)),
    core.ConstantPool: (("entries", ()),),
    runtime.NilV: (),
    runtime.BoolV: ("flag",),
    runtime.IntV: ("value",),
    runtime.StrV: ("text",),
    runtime.SymV: ("name",),
    runtime.ClassV: ("name",),
    runtime.ObjV: ("cls", "obj_id"),
    runtime.RelationV: ("cls", "ids"),
    runtime.RecordV: ("pairs",),
    runtime.SchemaDecl: ("cls", "columns"),
    runtime.Checkpoint: ("tables", "next_id"),
    interp.SetupStmt: ("expr", ("var", None)),
    interp.Spec: ("title", "setup", "call_args", "post"),
    interp.Ok: ("value",),
    interp.AssertErr: ("eff",),
    interp.RuntimeErr: ("kind", ("detail", "")),
    interp.SpecResult: ("passed_count", "outcome"),
    interp.SpecStart: ("checkpoint", "env", "args", ("error", None), ("error_stage", None)),
    merge.MergeTuple: ("expr", "cond", "specs"),
    merge.MergeTerm: ("tuples",),
    merge.BankTerm: ("expr", "ty", "results"),
    search.SearchConfig: (("max_size", 64), ("mode", "full"), ("precision", "precise"),
                          ("candidate_budget", 50_000), ("timeout_s", None)),
    driver.Goal: ("name", "param_types", "ret", "constants", "specs"),
    driver.Program: ("name", "params", "body"),
    goalfile.GoalFile: ("classes", "schemas", "methods", "constants", "goal"),
}

# Constructor arguments that pass the classes' own checks.
VALID_ARGS = {
    runtime.SchemaDecl: ("Post", (("title", STR_T),)),
    search.SearchConfig: (8, "types_only", "class", 10, 1.5),
}

CLASSES = sorted(FIELDS, key=lambda c: (c.__module__, c.__name__))


def _names(cls) -> tuple:
    return tuple(f if isinstance(f, str) else f[0] for f in FIELDS[cls])


def _args(cls) -> tuple:
    return VALID_ARGS.get(cls, tuple(f"{cls.__name__}.{f}" for f in _names(cls)))


def _library_values(cls=Value):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("effsynth."):
            yield sub
        yield from _library_values(sub)


def _make(cls, values):
    """An instance of cls with these field values, made without __init__."""
    out = object.__new__(cls)
    for name, v in zip(cls._fields, values):
        setattr(out, name, v)
    return out


def test_every_value_class_is_listed():
    assert set(_library_values()) == set(FIELDS)
    assert len(FIELDS) == 54


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_slots_and_constructor_keep_the_dataclass_fields(cls):
    assert cls.__slots__ == cls._fields == _names(cls)
    if not cls._fields:
        with pytest.raises(TypeError):
            cls("x")
        return
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [p.name for p in params] == list(_names(cls))
    for p, f in zip(params, FIELDS[cls]):
        if isinstance(f, str):
            assert p.default is inspect.Parameter.empty, p.name
        else:
            assert p.default == f[1] and type(p.default) is type(f[1]), p.name
    if all(not isinstance(f, str) for f in FIELDS[cls]):
        defaults = tuple(f[1] for f in FIELDS[cls])
        assert cls() == cls(*defaults)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_instances_have_no_dict(cls):
    v = cls(*_args(cls))
    assert not hasattr(v, "__dict__")
    assert tuple(getattr(v, f) for f in cls._fields) == _args(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_is_by_class_and_fields(cls):
    args = _args(cls)
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a.__eq__(args) is NotImplemented
    for i in range(len(args)):
        assert a != _make(cls, args[:i] + (("other",),) + args[i + 1:])
    for other in CLASSES:
        if other is not cls and len(other._fields) == len(args):
            assert a != _make(other, args)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_repr(cls):
    dc = make_dataclass(cls.__name__, _names(cls), frozen=True)
    assert repr(cls(*_args(cls))) == repr(dc(*_args(cls)))


def test_nested_repr():
    c = core.Call(core.Var("x"), "m", (core.IntLit(1),))
    assert repr(c) == "Call(recv=Var(name='x'), method='m', args=(IntLit(value=1),))"


def test_subclass_keeps_its_parents_fields():
    class Tagged(core.Region):
        __slots__ = ("tag",)

        def __init__(self, cls, region, tag):
            super().__init__(cls, region)
            self.tag = tag

    assert Tagged._fields == ("cls", "region", "tag")
    assert Tagged("A", "r", 1) == Tagged("A", "r", 1) != Tagged("A", "r", 2)
    assert Tagged("A", "r", 1) != core.Region("A", "r")
    assert repr(Tagged("A", "r", 1)) == (
        "test_subclass_keeps_its_parents_fields.<locals>.Tagged(cls='A', region='r', tag=1)")


@pytest.mark.parametrize("make,error,message", [
    (lambda: interp.Spec("t", (), (), ()), core.DefinitionError,
     "spec 't' has no assertions"),
    (lambda: runtime.SchemaDecl("Post", (("a", STR_T), ("a", STR_T))), core.DefinitionError,
     "duplicate column in schema Post"),
    (lambda: runtime.SchemaDecl("Post", (("id", STR_T),)), core.DefinitionError,
     "column name 'id' is reserved"),
    (lambda: runtime.SchemaDecl("Post", (("a", ClassT("Post")),)), core.DefinitionError,
     "column Post.a must be a primitive class"),
    (lambda: search.SearchConfig(mode="fast"), ValueError, "unknown mode 'fast'"),
    (lambda: search.SearchConfig(precision="exact"), ValueError, "unknown precision 'exact'"),
    (lambda: search.SearchConfig(max_size=0), ValueError, "max_size must be >= 1"),
    (lambda: search.SearchConfig(candidate_budget=0), ValueError,
     "candidate_budget must be >= 1"),
    (lambda: search.SearchConfig(timeout_s=0), ValueError, "timeout_s must be > 0"),
], ids=["spec-no-post", "schema-duplicate", "schema-id", "schema-non-primitive",
        "config-mode", "config-precision", "config-size", "config-budget", "config-timeout"])
def test_constructor_checks_still_raise(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
