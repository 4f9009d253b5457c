"""Core language definitions: types, effects, expressions, and class tables.

Everything here is immutable and safe to share. The type lattice has Nil at
the bottom and Obj at the top; effects are canonical sets of region atoms
ordered by subsumption, with Pure (empty) at the bottom and * at the top.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, Optional, Union


class DefinitionError(Exception):
    """A name (class, method, native, column) is missing or redeclared."""


class Value:
    """Base of the library's immutable values: types, effects, terms,
    runtime values, specs and results.

    A subclass names its fields in __slots__, in constructor order, and
    assigns each once in its __init__; nothing assigns to a field later.
    Two values are equal when they are of the same class and their fields
    are equal; the hash is that of the fields, and repr is
    Name(field=value, ...).
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass keeps its parents' fields, after them.
        cls._fields = tuple(f for c in reversed(cls.__mro__)
                            for f in c.__dict__.get("__slots__", ()))
        # The key == and hash read, built in C: one field's value, or the
        # tuple of several. A fieldless class is its own key.
        cls._key = attrgetter(*cls._fields) if cls._fields else type

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


RESERVED_LEAF_CLASSES = ("Bool", "Str", "Int", "Sym")


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class ClassT(Value):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class ClassOf(Value):
    """Singleton class type: the type of the class object itself."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class UnionT(Value):
    __slots__ = ("members",)

    def __init__(self, members: tuple[TypeExpr, ...]) -> None:
        self.members = members  # canonical: non-union, deduped, sorted


class RecordT(Value):
    """Finite record type: fields are (name, optional, type), key-sorted."""

    __slots__ = ("fields",)

    def __init__(self, fields: tuple[tuple[str, bool, TypeExpr], ...]) -> None:
        self.fields = fields

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


def print_type(t: TypeExpr) -> str:
    """A type in goal-file syntax, as goalfile parses it and error messages
    show it."""
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


# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------

class Star(Value):
    __slots__ = ()


class ClassStar(Value):
    __slots__ = ("cls",)

    def __init__(self, cls: str) -> None:
        self.cls = cls


class Region(Value):
    __slots__ = ("cls", "region")

    def __init__(self, cls: str, region: str) -> None:
        self.cls, self.region = cls, region


class SelfStar(Value):
    __slots__ = ()


class SelfRegion(Value):
    __slots__ = ("region",)

    def __init__(self, region: str) -> None:
        self.region = region


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


class Effect(Value):
    """Canonical set of effect atoms; the empty set is Pure."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: tuple[EffectAtom, ...] = ()) -> None:
        self.atoms = atoms

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


class EffectPair(Value):
    __slots__ = ("read", "write")

    def __init__(self, read: Effect = PURE, write: Effect = PURE) -> None:
        self.read, self.write = read, write

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
# Expressions
# ---------------------------------------------------------------------------

class NilLit(Value):
    __slots__ = ()


class TrueLit(Value):
    __slots__ = ()


class FalseLit(Value):
    __slots__ = ()


class IntLit(Value):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class StrLit(Value):
    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value


class SymLit(Value):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class ClassLit(Value):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Var(Value):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Seq(Value):
    __slots__ = ("first", "second")

    def __init__(self, first: Expr, second: Expr) -> None:
        self.first, self.second = first, second


class Call(Value):
    __slots__ = ("recv", "method", "args")

    def __init__(self, recv: Expr, method: str, args: tuple[Expr, ...] = ()) -> None:
        self.recv, self.method, self.args = recv, method, args


class If(Value):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: Expr, then: Expr, orelse: Expr) -> None:
        self.cond, self.then, self.orelse = cond, then, orelse


class Let(Value):
    __slots__ = ("var", "bound", "body")

    def __init__(self, var: str, bound: Expr, body: Expr) -> None:
        self.var, self.bound, self.body = var, bound, body


class RecordLit(Value):
    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[str, Expr], ...]) -> None:
        self.pairs = pairs


class TypedHole(Value):
    __slots__ = ("ty",)

    def __init__(self, ty: TypeExpr) -> None:
        self.ty = ty


class EffectHole(Value):
    __slots__ = ("eff",)

    def __init__(self, eff: Effect) -> None:
        self.eff = eff


Expr = Union[
    NilLit, TrueLit, FalseLit, IntLit, StrLit, SymLit, ClassLit, Var,
    Seq, Call, If, Let, RecordLit, TypedHole, EffectHole,
]


NIL = NilLit()
TRUE = TrueLit()
FALSE = FalseLit()


def children(e: Expr) -> tuple:
    """Sub-terms of a node in left-to-right order."""
    kids = _CHILDREN.get(type(e))
    return () if kids is None else kids(e)


_CHILDREN = {
    Seq: lambda e: (e.first, e.second),
    Call: lambda e: (e.recv, *e.args),
    If: lambda e: (e.cond, e.then, e.orelse),
    Let: lambda e: (e.bound, e.body),
    RecordLit: lambda e: tuple(v for _, v in e.pairs),
}


def walk(e: Expr) -> Iterator[Expr]:
    """Preorder traversal."""
    yield e
    for c in children(e):
        yield from walk(c)


def expr_size(e: Expr) -> int:
    """AST size: method calls and record pairs cost 1 each, all else is free."""
    t = type(e)
    own = 1 if t is Call else len(e.pairs) if t is RecordLit else 0
    return own + sum(map(expr_size, children(e)))


def is_complete(e: Expr) -> bool:
    """True iff the term contains no typed hole and no effect hole."""
    return leftmost_hole(e) is None


class HolePath(Value):
    """The leftmost hole of a term and the frames above it, outermost first.

    A frame is (node, index, kids): a node on the way down, the index of the
    child the path continues into, and the node's children() as found.
    """

    __slots__ = ("hole", "frames")

    def __init__(self, hole: Union[TypedHole, EffectHole],
                 frames: tuple[tuple[Expr, int, tuple], ...]) -> None:
        self.hole, self.frames = hole, frames

    def plug(self, fill: Expr) -> Expr:
        """The term with the hole replaced by fill. Only the nodes on the path
        are rebuilt; every subterm off it is shared with the term, as are a
        call's argument tuple when the path runs through its receiver and a
        record's other pairs."""
        e = fill
        for node, i, kids in reversed(self.frames):
            t = type(node)
            if t is Call:
                a = node.args
                e = (Call(e, node.method, a) if i == 0
                     else Call(node.recv, node.method, a[:i - 1] + (e,) + a[i:]))
            elif t is Seq:
                e = Seq(e, kids[1]) if i == 0 else Seq(kids[0], e)
            elif t is RecordLit:
                pairs = node.pairs
                e = RecordLit(pairs[:i] + ((pairs[i][0], e),) + pairs[i + 1:])
            else:
                new = list(kids)
                new[i] = e
                e = rebuild(node, new)
        return e


def leftmost_hole(e: Expr) -> Optional[HolePath]:
    """The path to the first hole in preorder, or None for a complete term."""
    frames: list = []
    hole = _descend(e, frames)
    return None if hole is None else HolePath(hole, tuple(frames))


_HOLES = (TypedHole, EffectHole)


def _descend(e, frames: list):
    if type(e) in _HOLES:
        return e
    kids = _CHILDREN.get(type(e))
    if kids is None:
        return None
    kids = kids(e)
    for i, c in enumerate(kids):
        if type(c) in _HOLES or type(c) in _CHILDREN:  # not a leaf
            frames.append((e, i, kids))
            hole = _descend(c, frames)
            if hole is not None:
                return hole
            frames.pop()
    return None


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Let):
        return free_vars(e.bound) | (free_vars(e.body) - {e.var})
    return set().union(*map(free_vars, children(e)))


def rebuild(e: Expr, kids: list) -> Expr:
    """Reconstruct a node with replaced children (same order as children());
    the other nodes take their children as their fields, in order."""
    t = type(e)
    if t is Call:
        return Call(kids[0], e.method, tuple(kids[1:]))
    if t is Let:
        return Let(e.var, kids[0], kids[1])
    if t is RecordLit:
        return RecordLit(tuple((k, v) for (k, _), v in zip(e.pairs, kids)))
    return t(*kids) if t in _CHILDREN else e


def alpha_key(e: Expr) -> tuple:
    """Structural key with let-bound variables renamed in traversal order."""
    return _alpha(e, {}, [0])


_LEAVES = (IntLit, StrLit, SymLit, ClassLit, TypedHole, EffectHole)


def _alpha(e, env: dict[str, str], counter: list) -> tuple:
    t = type(e)
    if t is Call:
        return ("call", e.method, _alpha(e.recv, env, counter),
                tuple([_alpha(a, env, counter) for a in e.args]))
    if t is Var:
        return ("var", env.get(e.name, e.name))
    if t is Let:
        fresh = f"%{counter[0]}"
        counter[0] += 1
        bk = _alpha(e.bound, env, counter)
        inner = dict(env)
        inner[e.var] = fresh
        return ("let", fresh, bk, _alpha(e.body, inner, counter))
    if t is RecordLit:
        return ("record", tuple([(k, _alpha(v, env, counter)) for k, v in e.pairs]))
    if t in _LEAVES:
        return (t.__name__, e._key(e))  # its one field
    kids = children(e)
    if not kids:
        return (t.__name__,)
    return (t.__name__, tuple([_alpha(c, env, counter) for c in kids]))


# ---------------------------------------------------------------------------
# Method signatures and the class table
# ---------------------------------------------------------------------------

class MethodSig(Value):
    __slots__ = ("owner", "name", "params", "ret", "eff", "native")

    def __init__(self, owner: TypeExpr, name: str, params: tuple[TypeExpr, ...], ret: TypeExpr,
                 eff: EffectPair = PURE_PAIR, native: Optional[str] = None) -> None:
        self.owner = owner  # ClassT or ClassOf
        self.name = name
        self.params = params
        self.ret = ret
        self.eff = eff
        self.native = native

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
        # (t1, t2) -> whether t1 is a subtype of t2. Declaring a class leaves
        # the relation between known types as it was, so nothing clears this.
        self._subtypes: dict[tuple["TypeExpr", "TypeExpr"], bool] = {}

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


class CallMemo:
    """What one synthesis call learns that depends only on its class table,
    constant pool, parameter types and mode, so that every spec search, the
    condition bank and the evaluator share it: made per call and dropped
    with it (a goal file's validation makes its own for typing).

    Each field is a plain dict, read with get and written by item
    assignment, so a miss recomputes exactly what a hit returns. Keys by
    identity (id of a term or an effect pair) come with an entry holding
    that object, which keeps the id from being reused while the memo lives.
    - expansions: id(candidate) -> typegen.Expansion of its leftmost hole,
      with the dedup keys of its products;
    - wraps: (id(candidate), read effect) -> (candidate, wrapped, its key);
    - normal: id(binding) -> (binding, (its normal form for dedup keys,
      whether that cannot write, whether it is plain)), per let binding,
      and a plain binding's alpha key once a key needed it;
    - roots: return type -> the root typed hole of every search;
    - hole_fills: hole -> the entries of the fills no scope decides, those
      before the scope's and those after;
    - fills: (hole, scope items) -> all its fill entries in that scope;
    - types: id(subterm) -> (subterm, strict, scope, its type there);
    - calls: (method, strict, child types) -> the call rule's type, or the
      (receiver member or None, reason) of its TypeCheckError;
    - methods: (singleton receiver, class, method) -> its signature;
    - effects: the same key -> the signature's effect pair, self-resolved
      at that class;
    - unions: (id(acc), id(pair)) -> (acc, pair, their union), for the
      assertion accumulator.
    """

    __slots__ = ("expansions", "wraps", "normal", "roots", "hole_fills", "fills", "types",
                 "calls", "methods", "effects", "unions")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, {})


def subtype(t1: TypeExpr, t2: TypeExpr, ct: ClassTable) -> bool:
    """The subtype preorder: Nil below all, Obj above all, unions pointwise,
    singleton classes related only to themselves (and Obj), records by width
    over keys with covariant field types and required-key presence."""
    pair = (t1, t2)
    known = ct._subtypes.get(pair)
    if known is None:
        _validate_type(t1, ct)
        _validate_type(t2, ct)
        known = ct._subtypes[pair] = _subtype(t1, t2, ct)
    return known


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

class ConstantPool(Value):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[Expr, TypeExpr], ...] = ()) -> None:
        self.entries = entries
