"""Type checking and type-guided one-step hole expansion.

Checking implements the standard rules for the core language: literals at
their leaf classes, calls via class-table lookup with argument subtyping,
if-expressions at the union of their branches, typed holes at their
annotation, and effect holes at Obj. Expansion rewrites the leftmost hole
with constants, variables, record-field reads, method-call templates, or
record-literal skeletons, then re-checks each candidate whole so narrowing
contradictions (such as calling a method on a Nil-typed receiver) are pruned
immediately.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    Atom, BOOL_T, Call, ClassLit, ClassOf, ClassT, ClassTable, Cond,
    ConstantPool, DefinitionError, EffectHole, Expr, FalseLit, If, IntLit,
    INT_T, Let, NIL_T, NilLit, Not, OBJ_T, Or, RecordLit, RecordT, Seq,
    StrLit, STR_T, SymLit, SYM_T, TrueLit, TypedHole, TypeExpr, UnionT, Var,
    children, leftmost_hole, rebuild, record_of, subtype, union_of,
)

TypeEnv = dict[str, TypeExpr]


class TypeCheckError(Exception):
    def __init__(self, node, reason: str) -> None:
        super().__init__(reason)
        self.node = node
        self.reason = reason


@dataclass(frozen=True)
class RuleConfig:
    """Which side conditions the synthesis rules enforce.

    Ablations replace the subtype / effect-subsumption side conditions with
    "always true" while the structural rules stay in place; condition
    synthesis additionally restricts call templates to pure-write methods.
    """

    types_on: bool = True
    effects_on: bool = True
    pure_apps_only: bool = False


FULL_RULES = RuleConfig()


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


def typecheck(env: TypeEnv, ct: ClassTable, e: Expr, *, strict: bool = True) -> TypeExpr:
    """Type of e, or TypeCheckError. With strict=False the checker never
    raises: unknown names fall back to Obj and side conditions are skipped
    (used by the type-ablation modes, which still need types for let-bound
    variables)."""
    try:
        return _check(env, ct, e, strict)
    except TypeCheckError:
        if strict:
            raise
        return OBJ_T


def _check(env: TypeEnv, ct: ClassTable, e: Expr, strict: bool) -> TypeExpr:
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
    if isinstance(e, Var):
        if e.name not in env:
            if strict:
                raise TypeCheckError(e, f"unbound variable {e.name}")
            return OBJ_T
        return env[e.name]
    if isinstance(e, Seq):
        _check(env, ct, e.first, strict)
        return _check(env, ct, e.second, strict)
    if isinstance(e, Let):
        bound = _check(env, ct, e.bound, strict)
        inner = dict(env)
        inner[e.var] = bound
        return _check(inner, ct, e.body, strict)
    if isinstance(e, If):
        check_cond(env, ct, e.cond, strict=strict)
        t1 = _check(env, ct, e.then, strict)
        t2 = _check(env, ct, e.orelse, strict)
        return union_of(t1, t2)
    if isinstance(e, RecordLit):
        fields = []
        for k, v in e.pairs:
            fields.append((k, False, _check(env, ct, v, strict)))
        return record_of(fields)
    if isinstance(e, TypedHole):
        return e.ty
    if isinstance(e, EffectHole):
        return OBJ_T
    if isinstance(e, Call):
        recv_ty = _check(env, ct, e.recv, strict)
        arg_tys = [_check(env, ct, a, strict) for a in e.args]
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
                for arg_ty, p in zip(arg_tys, params):
                    if not subtype(arg_ty, p, ct):
                        raise TypeCheckError(
                            e, f"argument of type {arg_ty} does not fit {p} in {e.method}")
            rets.append(ret)
        return union_of(*rets)
    raise TypeCheckError(e, f"cannot type {type(e).__name__}")


def check_cond(env: TypeEnv, ct: ClassTable, c: Cond, *, strict: bool = True) -> TypeExpr:
    if isinstance(c, Atom):
        t = typecheck(env, ct, c.expr, strict=strict)
        if strict and not subtype(t, BOOL_T, ct):
            raise TypeCheckError(c, f"condition has type {t}, not Bool")
        return BOOL_T
    if isinstance(c, Not):
        check_cond(env, ct, c.inner, strict=strict)
        return BOOL_T
    if isinstance(c, Or):
        check_cond(env, ct, c.left, strict=strict)
        check_cond(env, ct, c.right, strict=strict)
        return BOOL_T
    raise TypeCheckError(c, f"bad condition {c!r}")


# ---------------------------------------------------------------------------
# Leftmost-hole rewriting
# ---------------------------------------------------------------------------

def rewrite_leftmost_hole(
    e: Expr,
    env: TypeEnv,
    ct: ClassTable,
    on_typed: Optional[Callable[[TypeExpr, TypeEnv], list[Expr]]],
    on_effect: Optional[Callable[[object, TypeEnv], list[Expr]]],
) -> list[Expr]:
    """Rewrite the single leftmost hole of e, whichever kind it is.

    The matching callback produces replacement subterms given the hole
    annotation and the type environment in scope at the hole; a None callback
    means holes of that kind are not rewritten here (an empty result).
    """
    hole = leftmost_hole(e)
    if hole is None:
        return []
    if isinstance(hole, TypedHole) and on_typed is None:
        return []
    if isinstance(hole, EffectHole) and on_effect is None:
        return []

    def go(node, scope: TypeEnv) -> Optional[list]:
        if isinstance(node, TypedHole):
            return on_typed(node.ty, scope)
        if isinstance(node, EffectHole):
            return on_effect(node.eff, scope)
        kids = _children_with_env(node, scope, ct)
        for i, (child, child_env) in enumerate(kids):
            replaced = go(child, child_env)
            if replaced is not None:
                out = []
                for r in replaced:
                    new_kids = [c for c, _ in kids]
                    new_kids[i] = r
                    out.append(rebuild(node, new_kids))
                return out
        return None

    return go(e, env) or []


def _children_with_env(node, scope: TypeEnv, ct: ClassTable):
    """children() paired with the environment each child is checked under."""
    if isinstance(node, Let):
        bound_env = scope
        inner = dict(scope)
        # The bound expression precedes the body, so if the leftmost hole is
        # in the body the binding is already hole-free and typeable.
        inner[node.var] = typecheck(scope, ct, node.bound, strict=False)
        return [(node.bound, bound_env), (node.body, inner)]
    return [(c, scope) for c in children(node)]


# ---------------------------------------------------------------------------
# Typed-hole expansion
# ---------------------------------------------------------------------------

def expand_typed_hole(env: TypeEnv, ct: ClassTable, sigma: ConstantPool,
                      e: Expr, cfg: RuleConfig = FULL_RULES) -> list[Expr]:
    """One-step expansions of the leftmost typed hole, in deterministic order:
    constants, variables, record-field reads, method-call templates, then
    (for record-typed holes) one literal per subset of optional keys. Each
    candidate is re-checked whole and dropped on a narrowing contradiction."""

    def fits(t1: TypeExpr, t2: TypeExpr) -> bool:
        return subtype(t1, t2, ct) if cfg.types_on else True

    def fills(target: TypeExpr, scope: TypeEnv) -> list[Expr]:
        out: list[Expr] = []
        for lit, ty in sigma.entries:
            if fits(ty, target):
                out.append(lit)
        for name, ty in scope.items():
            if fits(ty, target):
                out.append(Var(name))
        for name, ty in scope.items():
            if isinstance(ty, RecordT):
                for k, opt, fty in ty.fields:
                    read_ty = union_of(fty, NIL_T) if opt else fty
                    if fits(read_ty, target):
                        out.append(Call(Var(name), k, ()))
        for sig in ct.all_sigs():
            if cfg.pure_apps_only and not sig.eff.write.is_pure():
                continue
            if fits(sig.ret, target):
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

    candidates = rewrite_leftmost_hole(e, env, ct, fills, None)
    if not cfg.types_on:
        return candidates
    kept = []
    for c in candidates:
        try:
            typecheck(env, ct, c)
        except TypeCheckError:
            continue
        kept.append(c)
    return kept
