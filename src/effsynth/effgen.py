"""Effect-guided rewriting: wrapping failed candidates and filling effect holes.

A candidate that fails an assertion with read effect r is rewritten to
let x = e in (effect-hole r; typed-hole t): the effect hole asks for a write
to the state the failing assertion read, the trailing typed hole restores the
candidate's type. Effect holes are filled either with nil (removing them) or
with a call to a method whose self-resolved write effect subsumes the hole,
most-specific writers first.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Optional

from .core import (
    Call, CallMemo, ClassStar, ClassTable, Effect, EffectHole, EffectPair, Expr,
    HolePath, Let, MethodSig, NilLit, Region, Seq, SelfRegion, SelfStar,
    Star, TypedHole, TypeExpr, canon_effect, eff_subsumes,
    resolve_self, type_key, walk,
)
from .typegen import Expansion, TypeEnv, fill_leftmost

if TYPE_CHECKING:
    from .search import SearchConfig


def _fresh_let_var(e: Expr) -> str:
    used = {n.var for n in walk(e) if isinstance(n, Let)}
    i = 0
    while f"t{i}" in used:
        i += 1
    return f"t{i}"


def wrap_effect_hole(e: Expr, err_eff: EffectPair, ty: TypeExpr) -> Expr:
    """Bind the failed candidate and sequence an effect hole carrying the
    failure's read component before a typed hole of the candidate's type."""
    var = _fresh_let_var(e)
    return Let(var, e, Seq(EffectHole(err_eff.read), TypedHole(ty)))


def write_specificity(eff: Effect) -> int:
    """Coarseness rank used to try precise writers first: all-region sets
    beat class-star sets beat star; a pure write ranks last."""
    if eff.is_pure():
        return -1
    if any(isinstance(a, Star) for a in eff.atoms):
        return 0
    if any(isinstance(a, ClassStar) for a in eff.atoms):
        return 1
    return 2


def expand_effect_hole(ct: ClassTable, path: Optional[HolePath], env: TypeEnv,
                       cfg: SearchConfig, memo: CallMemo) -> Expansion:
    """One-step expansions of path's hole if it is an effect hole: nil
    first, then one call template per method whose self-resolved write
    effect subsumes the hole (every writing method without
    cfg.effects_on). A matching method's own read effect precedes the call
    as a fresh effect hole unless pure. With cfg.types_on, products go
    through the same path check as typed-hole products
    (typegen.fill_leftmost)."""
    if path is None or not isinstance(path.hole, EffectHole):
        return Expansion(None, (), array("h"), array("h"))
    eff = path.hole.eff

    def fills(scope: TypeEnv) -> list[Expr]:
        out: list[Expr] = [NilLit()]
        if eff.is_pure():
            # A pure hole is satisfied by nil alone; every write subsumes it,
            # so matching would flood the search with useless insertions.
            return out
        writes = [(sig, resolve_self(sig.eff.write, sig.owner_class(), ct))
                  for sig in ct.all_sigs()]
        ranked = sorted(writes, key=lambda sw: (
            -write_specificity(sw[1]), type_key(sw[0].owner), sw[0].name))
        for sig, resolved_w in ranked:
            if cfg.effects_on and not eff_subsumes(eff, resolved_w, ct):
                continue
            if not cfg.effects_on and resolved_w.is_pure():
                continue
            call = Call(TypedHole(sig.owner), sig.name,
                        tuple(TypedHole(p) for p in sig.params))
            resolved_r = resolve_self(sig.eff.read, sig.owner_class(), ct)
            if resolved_r.is_pure():
                out.append(call)
            else:
                out.append(Seq(EffectHole(resolved_r), call))
        return out

    return fill_leftmost(env, ct, path, fills, cfg.types_on, memo)


# ---------------------------------------------------------------------------
# Effect-precision erasure
# ---------------------------------------------------------------------------

def erase_effect(eff: Effect, precision: str, ct: ClassTable) -> Effect:
    if precision == "precise" or eff.is_pure():
        return eff
    if precision == "class":
        atoms = []
        for a in eff.atoms:
            if isinstance(a, Region):
                atoms.append(ClassStar(a.cls))
            elif isinstance(a, SelfRegion):
                atoms.append(SelfStar())
            else:
                atoms.append(a)
        return canon_effect(atoms, ct)
    if precision == "purity":
        return Effect((Star(),))
    raise ValueError(f"unknown precision {precision!r}")


def erase_table(ct: ClassTable, precision: str) -> ClassTable:
    """A copy of the class table with every signature's effects coarsened."""
    if precision == "precise":
        return ct
    out = ClassTable()
    for cls in ct.classes():
        parent = ct.parent_of(cls)
        if parent is not None and not out.has_class(cls):
            _add_with_ancestors(out, ct, cls)
    for sig in ct.all_sigs():
        pair = EffectPair(
            erase_effect(sig.eff.read, precision, ct),
            erase_effect(sig.eff.write, precision, ct),
        )
        out.add_method(MethodSig(sig.owner, sig.name, sig.params, sig.ret,
                                 pair, sig.native))
    return out


def _add_with_ancestors(out: ClassTable, src: ClassTable, cls: str) -> None:
    parent = src.parent_of(cls)
    if parent is None or out.has_class(cls):
        return
    if not out.has_class(parent):
        _add_with_ancestors(out, src, parent)
    out.add_class(cls, parent)
