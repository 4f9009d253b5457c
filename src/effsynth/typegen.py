"""Type checking and type-guided one-step hole expansion.

Checking implements the standard rules for the core language: literals at
their leaf classes, calls via class-table lookup with argument subtyping,
if-expressions at the union of their branches, typed holes at their
annotation, and effect holes at Obj. One function holds the rule for each
node; whole-term checking applies it bottom-up.

Expansion fills the leftmost hole with constants, variables, record-field
reads, method-call templates, or record-literal skeletons. It works on the
path down to that hole (core.leftmost_hole), the one descent per expansion:
each product is rebuilt along the path only and carries how much its size
and hole count differ from the candidate's. With types on, a product is kept
exactly when its whole-term check would succeed, so narrowing contradictions
(such as calling a method on a Nil-typed receiver) are pruned at once; the
check types the children off the path once per expansion, each fill in the
hole's scope, and then re-derives only the ancestors on the path.

An expansion depends on the candidate alone once the class table, constant
pool, parameter types and mode are fixed, as they are for one synthesis
call. So the call's memo (core.CallMemo) keeps each candidate's products
(an Expansion: flat terms, an array of size deltas and one of hole-count
deltas, shared when every fill fits), each (hole, scope)'s fills, and the
call rule's outcome per (method, strict, child types), an error included.
"""

from __future__ import annotations

import itertools
from array import array
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .core import (
    Atom, BOOL_T, Call, CallMemo, ClassLit, ClassOf, ClassT, ClassTable,
    ConstantPool, DefinitionError, EffectHole, Expr, FalseLit, HolePath, If,
    IntLit, INT_T, Let, NIL_T, NilLit, Not, OBJ_T, Or, RecordLit, RecordT,
    Seq, StrLit, STR_T, SymLit, SYM_T, TrueLit, TypedHole, TypeExpr, UnionT,
    Var, children, expr_size, record_of, subtype, union_of, walk,
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
    variables). calls memoizes the call rule (see node_type); without one
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
        body = _check(_bind(env, e.var, bound), ct, e.body, strict, calls)
        return node_type(env, ct, e, (bound, body), strict, calls)
    return node_type(env, ct, e, [_check(env, ct, c, strict, calls) for c in children(e)],
                     strict, calls)


def _bind(env: TypeEnv, var: str, ty: TypeExpr) -> TypeEnv:
    inner = dict(env)
    inner[var] = ty
    return inner


def node_type(env: TypeEnv, ct: ClassTable, e, kid_tys, strict: bool, calls: dict) -> TypeExpr:
    """The typing rule of one node: the type of e under env, given the types
    of its children in children() order (a let body's under env with the
    variable bound). Whole-term checking, the path check after a hole fill
    and the merge condition bank's compositions all type nodes through
    here. The call rule depends only on the method, the child types, strict
    and the class table, so calls keeps its outcome per (method, strict,
    child types); a kept error is raised again at this node, or at the
    receiver member that had no such method."""
    if isinstance(e, Call):
        key = (e.method, strict, tuple(kid_tys))
        got = calls.get(key)
        if got is None:
            try:
                got = _call_rule(e, kid_tys, strict, ct)
            except TypeCheckError as exc:
                got = (None if exc.node is e else exc.node, exc.reason)
            calls[key] = got
        if isinstance(got, tuple):
            raise TypeCheckError(e if got[0] is None else got[0], got[1])
        return got
    if isinstance(e, Var):
        if e.name not in env:
            if strict:
                raise TypeCheckError(e, f"unbound variable {e.name}")
            return OBJ_T
        return env[e.name]
    if isinstance(e, TypedHole):
        return e.ty
    if isinstance(e, (Seq, Let)):
        return kid_tys[1]
    if isinstance(e, EffectHole):
        return OBJ_T
    if isinstance(e, NilLit):
        return NIL_T
    if isinstance(e, (TrueLit, FalseLit)):
        return BOOL_T
    if isinstance(e, IntLit):
        return INT_T
    if isinstance(e, StrLit):
        return STR_T
    if isinstance(e, SymLit):
        return SYM_T
    if isinstance(e, ClassLit):
        if strict:
            ct.require_class(e.name)
        return ClassOf(e.name)
    if isinstance(e, RecordLit):
        return record_of((k, False, t) for (k, _), t in zip(e.pairs, kid_tys))
    if isinstance(e, If):
        return union_of(kid_tys[1], kid_tys[2])
    if isinstance(e, Atom):
        if strict and not subtype(kid_tys[0], BOOL_T, ct):
            raise TypeCheckError(e, f"condition has type {kid_tys[0]}, not Bool")
        return BOOL_T
    if isinstance(e, (Not, Or)):
        return BOOL_T
    raise TypeCheckError(e, f"cannot type {type(e).__name__}")


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

class Product(NamedTuple):
    """One expansion of a candidate: the new term, and how much its size and
    its number of holes differ from the candidate's."""

    expr: Expr
    dsize: int
    dholes: int


class Expansion:
    """The products of a candidate's leftmost hole, stored flat: the terms
    and their size and hole-count deltas, and once the search has keyed
    them, their dedup keys (the terms themselves when every key is its
    term). Iterating gives Products."""

    __slots__ = ("cand", "exprs", "dsizes", "dholes", "keys")

    def __init__(self, cand: Expr, exprs: tuple, dsizes: array, dholes: array) -> None:
        self.cand = cand
        self.exprs = exprs
        self.dsizes = dsizes
        self.dholes = dholes
        self.keys: Optional[Sequence] = None

    def __len__(self) -> int:
        return len(self.exprs)

    def __iter__(self):
        return map(Product, self.exprs, self.dsizes, self.dholes)


def fill_leftmost(env: TypeEnv, ct: ClassTable, path: HolePath,
                  fills: Callable[[TypeEnv], list[Expr]], check: bool,
                  memo: CallMemo) -> Expansion:
    """The products of replacing path's hole by each of fills(scope), where
    scope is the environment at the hole, in fill order. With check, only
    the products whose whole-term typecheck would succeed are kept, decided
    along the path alone: the children off the path are typed once, each
    fill in the scope, then each ancestor is re-derived from its new child
    type, once per distinct fill type.

    memo belongs to one synthesis call (one class table, constant pool,
    parameter typing and mode), for which the products depend on the
    candidate alone: they are kept per candidate, by identity, and each
    (hole, scope)'s fills with their types and size and hole-count
    deltas."""
    cand = path.frames[0][0] if path.frames else path.hole
    done = memo.expansions.get(id(cand))
    if done is not None and done.cand is cand:
        return done
    try:
        scope, frames = _path_types(env, ct, path, check, memo.calls)
    except TypeCheckError:
        # A term off the path does not type, so no product would.
        done = Expansion(cand, (), array("h"), array("h"))
    else:
        key = (path.hole, tuple(scope.items()))
        entries = memo.fills.get(key)
        if entries is None:
            entries = memo.fills[key] = _fill_entries(scope, ct, fills(scope), check,
                                                      memo.calls)
        terms, dsizes, dholes, types = entries
        kept = range(len(terms))
        if check:
            fits: dict = {}
            for ty in types:
                if ty not in fits:
                    fits[ty] = _path_accepts(ct, frames, ty, memo.calls)
            kept = [j for j, ty in enumerate(types) if fits[ty]]
            if len(kept) < len(terms):
                dsizes = array("h", [dsizes[j] for j in kept])
                dholes = array("h", [dholes[j] for j in kept])
        # every candidate whose fills all fit shares the entries' deltas
        done = Expansion(cand, tuple([path.plug(terms[j]) for j in kept]), dsizes, dholes)
    memo.expansions[id(cand)] = done
    return done


def _path_types(env: TypeEnv, ct: ClassTable, path: HolePath, strict: bool, calls: dict):
    """The scope at the hole and, per frame outermost first, (node, index,
    scope, child types) with the slot at index empty. A let whose binding
    holds the hole also leaves its body's slot empty: the body is typed per
    fill. Without strict only the scope is needed, and a let-bound variable
    gets its binding's lenient type."""
    scope = env
    frames = []
    for node, i, kids in path.frames:
        if isinstance(node, Let):
            if i == 0:
                frames.append((node, i, scope, [None, None]))
                continue
            bound = (_check(scope, ct, node.bound, True, calls) if strict
                     else typecheck(scope, ct, node.bound, strict=False, calls=calls))
            frames.append((node, i, scope, [bound, None]))
            scope = _bind(scope, node.var, bound)
        elif strict:
            frames.append((node, i, scope, [
                None if j == i else _check(scope, ct, k, True, calls)
                for j, k in enumerate(kids)]))
    return scope, frames


def _path_accepts(ct: ClassTable, frames: list, ty: TypeExpr, calls: dict) -> bool:
    """Whether every ancestor of the hole types when the hole's subterm has
    type ty; a let whose binding holds the hole re-checks its body."""
    try:
        for node, i, scope, kid_tys in reversed(frames):
            if isinstance(node, Let) and i == 0:
                kid_tys = (ty, _check(_bind(scope, node.var, ty), ct, node.body, True, calls))
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

    def fills(scope: TypeEnv) -> list[Expr]:
        known: dict = {}  # type -> whether it fits the hole

        def fits(ty: TypeExpr) -> bool:
            if not cfg.types_on:
                return True
            ok = known.get(ty)
            if ok is None:
                ok = known[ty] = subtype(ty, target, ct)
            return ok

        out: list[Expr] = []
        for lit, ty in sigma.entries:
            if fits(ty):
                out.append(lit)
        for name, ty in scope.items():
            if fits(ty):
                out.append(Var(name))
        for name, ty in scope.items():
            if isinstance(ty, RecordT):
                for k, opt, fty in ty.fields:
                    if fits(union_of(fty, NIL_T) if opt else fty):
                        out.append(Call(Var(name), k, ()))
        for sig in ct.all_sigs():
            if fits(sig.ret):
                out.append(Call(
                    TypedHole(sig.owner), sig.name,
                    tuple(TypedHole(p) for p in sig.params),
                ))
        if isinstance(target, RecordT):
            required = [(k, ty) for k, opt, ty in target.fields if not opt]
            optional = [(k, ty) for k, opt, ty in target.fields if opt]
            for size in range(len(optional) + 1):
                for combo in itertools.combinations(optional, size):
                    pairs = tuple(sorted(required + list(combo), key=lambda kv: kv[0]))
                    out.append(RecordLit(tuple((k, TypedHole(ty)) for k, ty in pairs)))
        return out

    return fill_leftmost(env, ct, path, fills, cfg.types_on, memo)
