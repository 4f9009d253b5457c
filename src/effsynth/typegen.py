"""Type checking and type-guided one-step hole expansion.

Checking implements the standard rules for the core language: literals at
their leaf classes, calls via class-table lookup with argument subtyping,
if-expressions at the union of their branches, typed holes at their
annotation, and effect holes at Obj. _RULES holds each node class's rule;
whole-term checking applies them bottom-up.

Expansion fills the leftmost hole (core.leftmost_hole) with constants,
variables, record-field reads, method-call templates, or record-literal
skeletons, rebuilding each product along the path only. With types on, a
product is kept exactly when its whole-term check would succeed, decided
along the path: the children off it are typed, each fill in the hole's
scope, and then only the ancestors are re-derived.

One synthesis call fixes the class table, constant pool, parameter types
and mode, so its memo (core.CallMemo) keeps each candidate's products (an
Expansion: flat terms and delta arrays), the fills of each hole and of each
(hole, scope), the types off the path, and the call rule's outcome.
"""

from __future__ import annotations

import itertools
from array import array
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .core import (
    Atom, BOOL_T, Call, CallMemo, ClassLit, ClassOf, ClassT, ClassTable,
    ConstantPool, DefinitionError, EffectHole, Expr, FalseLit, HolePath, If,
    IntLit, INT_T, Let, NIL_T, NilLit, Not, OBJ_T, Or, RecordLit, RecordT,
    Seq, StrLit, STR_T, SymLit, SYM_T, TrueLit, TypedHole, TypeExpr, UnionT,
    Var, _CHILDREN, children, expr_size, record_of, subtype, union_of, walk,
)

if TYPE_CHECKING:
    from .search import SearchConfig

TypeEnv = dict[str, TypeExpr]


class TypeCheckError(Exception):
    def __init__(self, node, reason: str) -> None:
        super().__init__(reason)
        self.node = node
        self.reason = reason


def _dispatch_member(member: TypeExpr, method: str, args: int, ct: ClassTable):
    """Return (param_types, ret) for a call on one receiver-union member."""
    if isinstance(member, RecordT):
        for k, opt, ty in member.fields:
            if k == method:
                if args != 0:
                    raise TypeCheckError(member, f"record field {method} takes no arguments")
                return (), (union_of(ty, NIL_T) if opt else ty)
        raise TypeCheckError(member, f"record has no field {method}")
    if isinstance(member, (ClassT, ClassOf)):
        try:
            sig = ct.lookup_method(member, method)
        except DefinitionError as exc:
            raise TypeCheckError(member, str(exc)) from None
        if args != len(sig.params):
            raise TypeCheckError(member, f"{method} expects {len(sig.params)} arguments")
        return sig.params, sig.ret
    raise TypeCheckError(member, f"cannot call {method} on {member}")


def typecheck(env: TypeEnv, ct: ClassTable, e: Expr, *, strict: bool = True,
              calls: Optional[dict] = None) -> TypeExpr:
    """Type of e, or TypeCheckError. With strict=False the checker never
    raises: unknown names fall back to Obj and side conditions are skipped
    (used by the type-ablation modes, which still need types for let-bound
    variables). calls memoizes the call rule (see _call_type); without one
    the check keeps its own."""
    try:
        return _check(env, ct, e, strict, {} if calls is None else calls)
    except TypeCheckError:
        if strict:
            raise
        return OBJ_T


def _check(env: TypeEnv, ct: ClassTable, e, strict: bool, calls: dict) -> TypeExpr:
    if isinstance(e, Let):
        bound = _check(env, ct, e.bound, strict, calls)
        body = _check({**env, e.var: bound}, ct, e.body, strict, calls)
        return node_type(env, ct, e, (bound, body), strict, calls)
    return node_type(env, ct, e, [_check(env, ct, c, strict, calls) for c in children(e)],
                     strict, calls)


def node_type(env: TypeEnv, ct: ClassTable, e, kid_tys, strict: bool, calls: dict) -> TypeExpr:
    """The typing rule of one node, _RULES's for its class: the type of e
    under env, given the types of its children in children() order (a let
    body's under env with the variable bound). Whole-term checking, the path
    check and the merge condition bank all type nodes through here."""
    rule = _RULES.get(type(e))
    if rule is None:
        raise TypeCheckError(e, f"cannot type {type(e).__name__}")
    return rule(env, ct, e, kid_tys, strict, calls)


def _call_type(env, ct, e, kid_tys, strict, calls):
    """The call rule, kept per (method, strict, child types) in calls, as it
    depends on nothing else for one class table; a kept error is raised
    again at this node, or at the receiver member that lacks the method."""
    key = (e.method, strict, tuple(kid_tys))
    got = calls.get(key)
    if got is None:
        try:
            got = _call_rule(e, kid_tys, strict, ct)
        except TypeCheckError as exc:
            got = (None if exc.node is e else exc.node, exc.reason)
        calls[key] = got
    if type(got) is tuple:
        raise TypeCheckError(e if got[0] is None else got[0], got[1])
    return got


def _var_type(env, ct, e, kid_tys, strict, calls):
    ty = env.get(e.name)
    if ty is None and strict:
        raise TypeCheckError(e, f"unbound variable {e.name}")
    return OBJ_T if ty is None else ty


def _class_type(env, ct, e, kid_tys, strict, calls):
    if strict:
        ct.require_class(e.name)
    return ClassOf(e.name)


def _atom_type(env, ct, e, kid_tys, strict, calls):
    if strict and not subtype(kid_tys[0], BOOL_T, ct):
        raise TypeCheckError(e, f"condition has type {kid_tys[0]}, not Bool")
    return BOOL_T


def _const(ty: TypeExpr):
    return lambda *_: ty


def _second(env, ct, e, kid_tys, *_):
    return kid_tys[1]


_RULES = {
    Call: _call_type,
    Var: _var_type,
    TypedHole: lambda env, ct, e, *_: e.ty,
    Seq: _second,
    Let: _second,
    EffectHole: _const(OBJ_T),
    NilLit: _const(NIL_T),
    TrueLit: _const(BOOL_T),
    FalseLit: _const(BOOL_T),
    IntLit: _const(INT_T),
    StrLit: _const(STR_T),
    SymLit: _const(SYM_T),
    ClassLit: _class_type,
    RecordLit: lambda env, ct, e, kid_tys, *_: record_of(
        (k, False, t) for (k, _), t in zip(e.pairs, kid_tys)),
    If: lambda env, ct, e, kid_tys, *_: union_of(kid_tys[1], kid_tys[2]),
    Atom: _atom_type,
    Not: _const(BOOL_T),
    Or: _const(BOOL_T),
}


def _call_rule(e: Call, kid_tys, strict: bool, ct: ClassTable) -> TypeExpr:
    """A call's type: the union of its return types over the receiver's
    members, each dispatched with its arguments checked (with strict)."""
    recv_ty = kid_tys[0]
    members = recv_ty.members if isinstance(recv_ty, UnionT) else (recv_ty,)
    # A Nil-only receiver has no methods; Nil members of a wider union are
    # tolerated statically (the nil case surfaces as a runtime error).
    live = [m for m in members if m != NIL_T]
    if not live:
        raise TypeCheckError(e, f"method {e.method} missing on Nil")
    rets = []
    for m in live:
        try:
            params, ret = _dispatch_member(m, e.method, len(e.args), ct)
        except TypeCheckError:
            if strict:
                raise
            params, ret = None, OBJ_T
        if strict and params is not None:
            for arg_ty, p in zip(kid_tys[1:], params):
                if not subtype(arg_ty, p, ct):
                    raise TypeCheckError(
                        e, f"argument of type {arg_ty} does not fit {p} in {e.method}")
        rets.append(ret)
    return union_of(*rets)


# ---------------------------------------------------------------------------
# Filling the leftmost hole
# ---------------------------------------------------------------------------

class Expansion:
    """The products of a candidate's leftmost hole, stored flat: the terms
    and their size and hole-count deltas, and once the search has keyed
    them, their dedup keys (the terms themselves when every key is its
    term)."""

    __slots__ = ("cand", "exprs", "dsizes", "dholes", "keys")

    def __init__(self, cand: Expr, exprs: tuple, dsizes: array, dholes: array) -> None:
        self.cand = cand
        self.exprs = exprs
        self.dsizes = dsizes
        self.dholes = dholes
        self.keys: Optional[Sequence] = None

    def __len__(self) -> int:
        return len(self.exprs)


def fill_leftmost(env: TypeEnv, ct: ClassTable, path: HolePath,
                  hole_fills: Callable[[], tuple[list, list]],
                  scope_fills: Callable[[TypeEnv], list], check: bool,
                  memo: CallMemo) -> Expansion:
    """The products of replacing path's hole by each fill: hole_fills()'s
    first list, scope_fills(scope) for the scope at the hole, then its
    second list. With check, of a candidate that types, only the products
    whose whole-term typecheck would succeed are kept, decided along the
    path: the children off it are typed, each fill in the scope, then the
    ancestors once per fill type other than the hole's.

    memo, one synthesis call's, keeps the products per candidate, the
    entries of hole_fills() per hole (typed in no scope: they have no free
    variable), all entries per (hole, scope), and the types off the path."""
    cand = path.frames[0][0] if path.frames else path.hole
    done = memo.expansions.get(id(cand))
    if done is not None and done.cand is cand:
        return done
    try:
        scope, frames = _path_types(env, ct, path, check, memo)
    except TypeCheckError:
        # A term off the path does not type, so no product would.
        done = Expansion(cand, (), array("h"), array("h"))
    else:
        hole = path.hole
        key = (hole, tuple(scope.items()))
        entries = memo.fills.get(key)
        if entries is None:
            parts = memo.hole_fills.get(hole)
            if parts is None:
                parts = memo.hole_fills[hole] = [_fill_entries({}, ct, fills, check, memo.calls)
                                                 for fills in hole_fills()]
            mid = _fill_entries(scope, ct, scope_fills(scope), check, memo.calls)
            entries = memo.fills[key] = tuple(
                a + b + c for a, b, c in zip(parts[0], mid, parts[1]))
        terms, dsizes, dholes, types = entries
        if check:
            # the candidate types, so a fill of its hole's type changes no ancestor's type
            fits = {node_type(scope, ct, hole, (), True, memo.calls): True}
            for ty in types:
                if ty not in fits:
                    fits[ty] = _path_accepts(ct, frames, ty, memo.calls)
            if not all(fits.values()):
                kept = [j for j, ty in enumerate(types) if fits[ty]]
                terms = [terms[j] for j in kept]
                dsizes = array("h", [dsizes[j] for j in kept])
                dholes = array("h", [dholes[j] for j in kept])
        # every candidate whose fills all fit shares the entries' deltas
        done = Expansion(cand, tuple(map(path.plug, terms)), dsizes, dholes)
    memo.expansions[id(cand)] = done
    return done


def _path_types(env: TypeEnv, ct: ClassTable, path: HolePath, strict: bool, memo: CallMemo):
    """The scope at the hole and, per frame outermost first, (node, index,
    scope, child types) with the slot at index empty, as is a let body's
    whose binding holds the hole. Without strict only the scope is made,
    with lenient let binding types."""
    scope = env
    frames = []
    for node, i, kids in path.frames:
        if type(node) is Let:
            if i == 0:
                frames.append((node, i, scope, [None, None]))
                continue
            bound = _kid_type(scope, ct, node.bound, strict, memo)
            frames.append((node, i, scope, [bound, None]))
            scope = {**scope, node.var: bound}
        elif strict:
            frames.append((node, i, scope, [
                None if j == i else _kid_type(scope, ct, k, True, memo)
                for j, k in enumerate(kids)]))
    return scope, frames


def _kid_type(scope: TypeEnv, ct: ClassTable, k, strict: bool, memo: CallMemo) -> TypeExpr:
    """k's type in scope, lenient without strict; a subterm's is kept by its
    identity with the scope, as the call's candidates share subterms."""
    if type(k) not in _CHILDREN:
        return node_type(scope, ct, k, (), strict, memo.calls)
    got = memo.types.get(id(k))
    if got is None or got[0] is not k or got[1] is not strict or got[2] != scope:
        ty = (_check(scope, ct, k, True, memo.calls) if strict
              else typecheck(scope, ct, k, strict=False, calls=memo.calls))
        got = memo.types[id(k)] = (k, strict, dict(scope), ty)
    return got[3]


def _path_accepts(ct: ClassTable, frames: list, ty: TypeExpr, calls: dict) -> bool:
    """Whether every ancestor of the hole types when the hole's subterm has
    type ty; a let whose binding holds the hole re-checks its body."""
    try:
        for node, i, scope, kid_tys in reversed(frames):
            if isinstance(node, Let) and i == 0:
                kid_tys = (ty, _check({**scope, node.var: ty}, ct, node.body, True, calls))
            else:
                kid_tys = list(kid_tys)
                kid_tys[i] = ty
            ty = node_type(scope, ct, node, kid_tys, True, calls)
    except TypeCheckError:
        return False
    return True


def _fill_entries(scope: TypeEnv, ct: ClassTable, fills: list[Expr], check: bool,
                  calls: dict) -> tuple:
    """The fills, their size and hole-count deltas, and their types, as
    parallel sequences; with check the type is the fill's in the scope,
    and a fill that does not type is dropped (without, every type is
    None)."""
    terms, dsizes, dholes, types = [], array("h"), array("h"), []
    for fill in fills:
        ty = None
        if check:
            try:
                ty = _check(scope, ct, fill, True, calls)
            except TypeCheckError:
                continue
        terms.append(fill)
        dsizes.append(expr_size(fill))
        dholes.append(sum(isinstance(n, (TypedHole, EffectHole)) for n in walk(fill)) - 1)
        types.append(ty)
    return tuple(terms), dsizes, dholes, tuple(types)


# ---------------------------------------------------------------------------
# Typed-hole expansion
# ---------------------------------------------------------------------------

def record_shapes(rec: RecordT):
    """rec's required keys with each subset of its optional ones, by subset
    size, then in combination order: key-sorted (key, type) lists."""
    required = [(k, ty) for k, opt, ty in rec.fields if not opt]
    optional = [(k, ty) for k, opt, ty in rec.fields if opt]
    for size in range(len(optional) + 1):
        for combo in itertools.combinations(optional, size):
            yield sorted(required + list(combo), key=lambda kv: kv[0])


def expand_typed_hole(env: TypeEnv, ct: ClassTable, sigma: ConstantPool,
                      path: Optional[HolePath], cfg: SearchConfig,
                      memo: CallMemo) -> Expansion:
    """One-step expansions of path's hole if it is a typed hole, in
    deterministic order: constants, variables, record-field reads,
    method-call templates, then (for record-typed holes) one literal per
    subset of optional keys. With cfg.types_on, a fill's type must fit the
    hole and a product is dropped on a narrowing contradiction anywhere in
    it (see fill_leftmost); without, every fill is offered."""
    if path is None or not isinstance(path.hole, TypedHole):
        return Expansion(None, (), array("h"), array("h"))
    target = path.hole.ty

    def fits(ty: TypeExpr) -> bool:
        return not cfg.types_on or subtype(ty, target, ct)

    def hole_fills() -> tuple[list, list]:
        consts = [lit for lit, ty in sigma.entries if fits(ty)]
        rest: list[Expr] = [
            Call(TypedHole(sig.owner), sig.name, tuple(TypedHole(p) for p in sig.params))
            for sig in ct.all_sigs() if fits(sig.ret)]
        if isinstance(target, RecordT):
            rest += [RecordLit(tuple((k, TypedHole(ty)) for k, ty in pairs))
                     for pairs in record_shapes(target)]
        return consts, rest

    def scope_fills(scope: TypeEnv) -> list[Expr]:
        out: list[Expr] = [Var(name) for name, ty in scope.items() if fits(ty)]
        for name, ty in scope.items():
            if isinstance(ty, RecordT):
                for k, opt, fty in ty.fields:
                    if fits(union_of(fty, NIL_T) if opt else fty):
                        out.append(Call(Var(name), k, ()))
        return out

    return fill_leftmost(env, ct, path, hole_fills, scope_fills, cfg.types_on, memo)
