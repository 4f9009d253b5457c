"""Core language definitions: types, effects, expressions, and class tables.

Everything here is immutable and safe to share. The type lattice has Nil at
the bottom and Obj at the top; effects are canonical sets of region atoms
ordered by subsumption, with Pure (empty) at the bottom and * at the top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union


class DefinitionError(Exception):
    """A name (class, method, native, column) is missing or redeclared."""


RESERVED_LEAF_CLASSES = ("Bool", "Str", "Int", "Sym")


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassT:
    name: str


@dataclass(frozen=True)
class ClassOf:
    """Singleton class type: the type of the class object itself."""

    name: str


@dataclass(frozen=True)
class UnionT:
    members: tuple["TypeExpr", ...]  # canonical: non-union, deduped, sorted


@dataclass(frozen=True)
class RecordT:
    """Finite record type: fields are (name, optional, type), key-sorted."""

    fields: tuple[tuple[str, bool, "TypeExpr"], ...]

    def field_map(self) -> dict[str, tuple[bool, "TypeExpr"]]:
        return {k: (opt, ty) for k, opt, ty in self.fields}


TypeExpr = Union[ClassT, ClassOf, UnionT, RecordT]

NIL_T = ClassT("Nil")
OBJ_T = ClassT("Obj")
BOOL_T = ClassT("Bool")
STR_T = ClassT("Str")
INT_T = ClassT("Int")
SYM_T = ClassT("Sym")


def type_key(t: TypeExpr) -> tuple:
    """Total order on types, used to canonicalize unions and sort signatures."""
    if isinstance(t, ClassT):
        return (0, t.name)
    if isinstance(t, ClassOf):
        return (1, t.name)
    if isinstance(t, RecordT):
        return (2, tuple((k, opt, type_key(ty)) for k, opt, ty in t.fields))
    return (3, tuple(type_key(m) for m in t.members))


def record_of(fields: Iterable[tuple[str, bool, TypeExpr]]) -> RecordT:
    out = tuple(sorted(fields, key=lambda f: f[0]))
    names = [k for k, _, _ in out]
    if len(set(names)) != len(names):
        raise DefinitionError(f"duplicate record key in {names}")
    return RecordT(out)


def union_of(*types: TypeExpr) -> TypeExpr:
    """Canonical union: flatten, dedupe, sort; a singleton collapses."""
    members: list[TypeExpr] = []
    for t in types:
        if isinstance(t, UnionT):
            members.extend(t.members)
        else:
            members.append(t)
    seen: list[TypeExpr] = []
    for m in sorted(members, key=type_key):
        if not seen or seen[-1] != m:
            seen.append(m)
    if len(seen) == 1:
        return seen[0]
    return UnionT(tuple(seen))


# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Star:
    pass


@dataclass(frozen=True)
class ClassStar:
    cls: str


@dataclass(frozen=True)
class Region:
    cls: str
    region: str


@dataclass(frozen=True)
class SelfStar:
    pass


@dataclass(frozen=True)
class SelfRegion:
    region: str


EffectAtom = Union[Star, ClassStar, Region, SelfStar, SelfRegion]

STAR = Star()
SELF_STAR = SelfStar()


def atom_key(a: EffectAtom) -> tuple:
    if isinstance(a, Star):
        return (0, "", "")
    if isinstance(a, ClassStar):
        return (1, a.cls, "")
    if isinstance(a, Region):
        return (2, a.cls, a.region)
    if isinstance(a, SelfStar):
        return (3, "", "")
    return (4, a.region, "")


@dataclass(frozen=True)
class Effect:
    """Canonical set of effect atoms; the empty set is Pure."""

    atoms: tuple[EffectAtom, ...] = ()

    def is_pure(self) -> bool:
        return not self.atoms

    def has_self(self) -> bool:
        return any(isinstance(a, (SelfStar, SelfRegion)) for a in self.atoms)


PURE = Effect()


def canon_effect(atoms: Iterable[EffectAtom], ct: "ClassTable") -> Effect:
    """Canonical form: * absorbs all; C.r is dropped under a covering C'.*."""
    s = set(atoms)
    if any(isinstance(a, Star) for a in s):
        return Effect((STAR,))
    stars = [a.cls for a in s if isinstance(a, ClassStar)]
    kept = [
        a
        for a in s
        if not (isinstance(a, Region) and any(ct.class_le(a.cls, c) for c in stars))
    ]
    return Effect(tuple(sorted(kept, key=atom_key)))


def eff_union(e1: Effect, e2: Effect, ct: "ClassTable") -> Effect:
    return canon_effect(e1.atoms + e2.atoms, ct)


def _atom_covered(a1: EffectAtom, a2: EffectAtom, ct: "ClassTable") -> bool:
    if isinstance(a2, Star):
        return True
    if isinstance(a1, Star):
        return False
    if isinstance(a1, Region):
        if isinstance(a2, Region):
            return a1.region == a2.region and ct.class_le(a1.cls, a2.cls)
        if isinstance(a2, ClassStar):
            return ct.class_le(a1.cls, a2.cls)
        return False
    if isinstance(a1, ClassStar):
        return isinstance(a2, ClassStar) and ct.class_le(a1.cls, a2.cls)
    # Self atoms appear only in signatures; relate them by shape.
    if isinstance(a1, SelfRegion):
        return isinstance(a2, SelfStar) or a1 == a2
    return a1 == a2


def eff_subsumes(e1: Effect, e2: Effect, ct: "ClassTable") -> bool:
    """e1 is included in e2: every atom of e1 is covered by some atom of e2."""
    return all(any(_atom_covered(a, b, ct) for b in e2.atoms) for a in e1.atoms)


def resolve_self(eff: Effect, receiver_class: str, ct: "ClassTable") -> Effect:
    ct.require_class(receiver_class)
    out: list[EffectAtom] = []
    for a in eff.atoms:
        if isinstance(a, SelfStar):
            out.append(ClassStar(receiver_class))
        elif isinstance(a, SelfRegion):
            out.append(Region(receiver_class, a.region))
        else:
            out.append(a)
    return canon_effect(out, ct)


@dataclass(frozen=True)
class EffectPair:
    read: Effect = PURE
    write: Effect = PURE

    def is_pure(self) -> bool:
        return self.read.is_pure() and self.write.is_pure()


PURE_PAIR = EffectPair()


def pair_union(p1: EffectPair, p2: EffectPair, ct: "ClassTable") -> EffectPair:
    return EffectPair(eff_union(p1.read, p2.read, ct), eff_union(p1.write, p2.write, ct))


def resolve_self_pair(p: EffectPair, receiver_class: str, ct: "ClassTable") -> EffectPair:
    return EffectPair(
        resolve_self(p.read, receiver_class, ct),
        resolve_self(p.write, receiver_class, ct),
    )


# ---------------------------------------------------------------------------
# Expressions and conditionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NilLit:
    pass


@dataclass(frozen=True)
class TrueLit:
    pass


@dataclass(frozen=True)
class FalseLit:
    pass


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass(frozen=True)
class SymLit:
    name: str


@dataclass(frozen=True)
class ClassLit:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Seq:
    first: "Expr"
    second: "Expr"


@dataclass(frozen=True)
class Call:
    recv: "Expr"
    method: str
    args: tuple["Expr", ...] = ()


@dataclass(frozen=True)
class If:
    cond: "Cond"
    then: "Expr"
    orelse: "Expr"


@dataclass(frozen=True)
class Let:
    var: str
    bound: "Expr"
    body: "Expr"


@dataclass(frozen=True)
class RecordLit:
    pairs: tuple[tuple[str, "Expr"], ...]


@dataclass(frozen=True)
class TypedHole:
    ty: TypeExpr


@dataclass(frozen=True)
class EffectHole:
    eff: Effect


Expr = Union[
    NilLit, TrueLit, FalseLit, IntLit, StrLit, SymLit, ClassLit, Var,
    Seq, Call, If, Let, RecordLit, TypedHole, EffectHole,
]


@dataclass(frozen=True)
class Atom:
    expr: Expr


@dataclass(frozen=True)
class Not:
    inner: "Cond"


@dataclass(frozen=True)
class Or:
    left: "Cond"
    right: "Cond"


Cond = Union[Atom, Not, Or]

NIL = NilLit()
TRUE = TrueLit()
FALSE = FalseLit()
TRUE_COND = Atom(TRUE)


def children(e: Union[Expr, Cond]) -> tuple:
    """Sub-terms of a node in left-to-right order."""
    if isinstance(e, Seq):
        return (e.first, e.second)
    if isinstance(e, Call):
        return (e.recv, *e.args)
    if isinstance(e, If):
        return (e.cond, e.then, e.orelse)
    if isinstance(e, Let):
        return (e.bound, e.body)
    if isinstance(e, RecordLit):
        return tuple(v for _, v in e.pairs)
    if isinstance(e, Atom):
        return (e.expr,)
    if isinstance(e, Not):
        return (e.inner,)
    if isinstance(e, Or):
        return (e.left, e.right)
    return ()


def walk(e: Union[Expr, Cond]) -> Iterator[Union[Expr, Cond]]:
    """Preorder traversal."""
    yield e
    for c in children(e):
        yield from walk(c)


def expr_size(e: Union[Expr, Cond]) -> int:
    """AST size: method calls and record pairs cost 1 each, all else is free."""
    if isinstance(e, Call):
        return 1 + expr_size(e.recv) + sum(expr_size(a) for a in e.args)
    if isinstance(e, RecordLit):
        return len(e.pairs) + sum(expr_size(v) for _, v in e.pairs)
    return sum(expr_size(c) for c in children(e))


def is_complete(e: Union[Expr, Cond]) -> bool:
    """True iff the term contains no typed hole and no effect hole."""
    return not any(isinstance(n, (TypedHole, EffectHole)) for n in walk(e))


def leftmost_hole(e: Union[Expr, Cond]) -> Optional[Union[TypedHole, EffectHole]]:
    for n in walk(e):
        if isinstance(n, (TypedHole, EffectHole)):
            return n
    return None


def free_vars(e: Union[Expr, Cond]) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Let):
        return free_vars(e.bound) | (free_vars(e.body) - {e.var})
    out: set[str] = set()
    for c in children(e):
        out |= free_vars(c)
    return out


def rebuild(e: Union[Expr, Cond], kids: list) -> Union[Expr, Cond]:
    """Reconstruct a node with replaced children (same order as children())."""
    if isinstance(e, Seq):
        return Seq(kids[0], kids[1])
    if isinstance(e, Call):
        return Call(kids[0], e.method, tuple(kids[1:]))
    if isinstance(e, If):
        return If(kids[0], kids[1], kids[2])
    if isinstance(e, Let):
        return Let(e.var, kids[0], kids[1])
    if isinstance(e, RecordLit):
        return RecordLit(tuple((k, v) for (k, _), v in zip(e.pairs, kids)))
    if isinstance(e, Atom):
        return Atom(kids[0])
    if isinstance(e, Not):
        return Not(kids[0])
    if isinstance(e, Or):
        return Or(kids[0], kids[1])
    return e


def alpha_key(e: Union[Expr, Cond], env: Optional[dict[str, str]] = None, counter=None) -> tuple:
    """Structural key with let-bound variables renamed in traversal order."""
    if env is None:
        env = {}
    if counter is None:
        counter = itertools.count()
    if isinstance(e, Var):
        return ("var", env.get(e.name, e.name))
    if isinstance(e, Let):
        fresh = f"%{next(counter)}"
        bk = alpha_key(e.bound, env, counter)
        inner = dict(env)
        inner[e.var] = fresh
        return ("let", fresh, bk, alpha_key(e.body, inner, counter))
    if isinstance(e, Call):
        return ("call", e.method, alpha_key(e.recv, env, counter),
                tuple(alpha_key(a, env, counter) for a in e.args))
    if isinstance(e, RecordLit):
        return ("record", tuple((k, alpha_key(v, env, counter)) for k, v in e.pairs))
    if isinstance(e, TypedHole):
        return ("hole", type_key(e.ty))
    if isinstance(e, EffectHole):
        return ("effhole", e.eff.atoms)
    if isinstance(e, (IntLit, StrLit, SymLit, ClassLit)):
        return (type(e).__name__, getattr(e, "value", None) or getattr(e, "name", None))
    kids = children(e)
    if not kids:
        return (type(e).__name__,)
    return (type(e).__name__, tuple(alpha_key(c, env, counter) for c in kids))


# ---------------------------------------------------------------------------
# Method signatures and the class table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSig:
    owner: TypeExpr  # ClassT or ClassOf
    name: str
    params: tuple[TypeExpr, ...]
    ret: TypeExpr
    eff: EffectPair = PURE_PAIR
    native: Optional[str] = None

    def owner_class(self) -> str:
        assert isinstance(self.owner, (ClassT, ClassOf))
        return self.owner.name

    def is_singleton(self) -> bool:
        return isinstance(self.owner, ClassOf)


class ClassTable:
    """Class hierarchy (a tree rooted at Obj) plus per-method signatures.

    Nil is a known class but sits outside the parent tree: it is below every
    class by fiat and deliberately has no methods, so any call on a Nil-typed
    receiver is rejected during checking.
    """

    def __init__(self) -> None:
        self._parents: dict[str, Optional[str]] = {"Obj": None, "Nil": None}
        for leaf in RESERVED_LEAF_CLASSES:
            self._parents[leaf] = "Obj"
        self._methods: dict[tuple[bool, str, str], MethodSig] = {}
        self._sig_cache: Optional[tuple[MethodSig, ...]] = None
        self._impure_cache: Optional[frozenset[str]] = None

    # -- classes ------------------------------------------------------------

    def add_class(self, name: str, parent: str = "Obj") -> None:
        if name in self._parents:
            raise DefinitionError(f"class {name} already declared")
        if name == "Nil":
            raise DefinitionError("Nil cannot be redeclared")
        self.require_class(parent)
        if parent == "Nil":
            raise DefinitionError("Nil can never be a parent")
        self._parents[name] = parent

    def has_class(self, name: str) -> bool:
        return name in self._parents

    def require_class(self, name: str) -> None:
        if name not in self._parents:
            raise DefinitionError(f"unknown class {name}")

    def classes(self) -> list[str]:
        return sorted(self._parents)

    def parent_of(self, name: str) -> Optional[str]:
        self.require_class(name)
        return self._parents[name]

    def ancestry(self, name: str) -> list[str]:
        """The chain name, parent, ..., Obj. Nil has no chain but itself."""
        self.require_class(name)
        out = [name]
        cur = self._parents[name]
        while cur is not None:
            out.append(cur)
            cur = self._parents[cur]
        return out

    def class_le(self, c1: str, c2: str) -> bool:
        self.require_class(c1)
        self.require_class(c2)
        if c1 == "Nil":
            return True
        if c2 == "Obj":
            return True
        return c2 in self.ancestry(c1)

    # -- methods ------------------------------------------------------------

    def add_method(self, sig: MethodSig) -> None:
        if not isinstance(sig.owner, (ClassT, ClassOf)):
            raise DefinitionError(f"method owner must be a class type: {sig.owner}")
        self.require_class(sig.owner_class())
        key = (sig.is_singleton(), sig.owner_class(), sig.name)
        if key in self._methods:
            raise DefinitionError(
                f"duplicate method {sig.owner_class()}{'.' if sig.is_singleton() else '#'}{sig.name}"
            )
        self._methods[key] = sig
        self._sig_cache = None
        self._impure_cache = None

    def lookup_method(self, owner: TypeExpr, name: str) -> MethodSig:
        """Resolve a method on the owner or its nearest declaring ancestor."""
        if isinstance(owner, ClassT):
            if owner.name == "Nil":
                raise DefinitionError(f"method {name} missing on Nil")
            for cls in self.ancestry(owner.name):
                sig = self._methods.get((False, cls, name))
                if sig is not None:
                    return sig
            raise DefinitionError(f"method {name} missing on {owner.name}")
        if isinstance(owner, ClassOf):
            for cls in self.ancestry(owner.name):
                sig = self._methods.get((True, cls, name))
                if sig is not None:
                    return sig
            raise DefinitionError(f"method {name} missing on class-of {owner.name}")
        raise DefinitionError(f"cannot look up {name} on {owner}")

    def all_sigs(self) -> tuple[MethodSig, ...]:
        """All signatures in a canonical order, independent of insertion."""
        if self._sig_cache is None:
            self._sig_cache = tuple(
                sorted(self._methods.values(), key=lambda s: (type_key(s.owner), s.name))
            )
        return self._sig_cache

    def impure_method_names(self) -> frozenset[str]:
        """Names carrying a non-pure write effect on any owner."""
        if self._impure_cache is None:
            self._impure_cache = frozenset(
                s.name for s in self._methods.values() if not s.eff.write.is_pure()
            )
        return self._impure_cache


def subtype(t1: TypeExpr, t2: TypeExpr, ct: ClassTable) -> bool:
    """The subtype preorder: Nil below all, Obj above all, unions pointwise,
    singleton classes related only to themselves (and Obj), records by width
    over keys with covariant field types and required-key presence."""
    _validate_type(t1, ct)
    _validate_type(t2, ct)
    return _subtype(t1, t2, ct)


def _validate_type(t: TypeExpr, ct: ClassTable) -> None:
    if isinstance(t, (ClassT, ClassOf)):
        ct.require_class(t.name)
    elif isinstance(t, UnionT):
        for m in t.members:
            _validate_type(m, ct)
    elif isinstance(t, RecordT):
        for _, _, ty in t.fields:
            _validate_type(ty, ct)


def _subtype(t1: TypeExpr, t2: TypeExpr, ct: ClassTable) -> bool:
    if t1 == t2:
        return True
    if isinstance(t1, ClassT) and t1.name == "Nil":
        return True
    if isinstance(t2, ClassT) and t2.name == "Obj":
        return True
    if isinstance(t1, UnionT):
        return all(_subtype(m, t2, ct) for m in t1.members)
    if isinstance(t2, UnionT):
        return any(_subtype(t1, m, ct) for m in t2.members)
    if isinstance(t1, ClassT) and isinstance(t2, ClassT):
        return ct.class_le(t1.name, t2.name)
    if isinstance(t1, RecordT) and isinstance(t2, RecordT):
        f2 = t2.field_map()
        for k, _, ty in t1.fields:
            if k not in f2 or not _subtype(ty, f2[k][1], ct):
                return False
        keys1 = {k for k, _, _ in t1.fields}
        return all(opt or k in keys1 for k, (opt, _) in f2.items())
    return False


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantPool:
    entries: tuple[tuple[Expr, TypeExpr], ...] = ()


EMPTY_CONSTANTS = ConstantPool()
