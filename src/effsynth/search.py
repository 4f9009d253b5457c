"""The per-spec worklist synthesis loop, `generate`.

Candidates are explored best-first: most passed assertions, then smallest
size, then insertion order. A worklist entry is a plain (-passed, size,
seq, candidate, holes) tuple. Popping a candidate descends once to its
leftmost hole and expands it there; each product carries how much its size
and hole count differ from its candidate's, so no product is walked again
to size it. Complete products are evaluated at once, and one that fails an
assertion is re-enqueued wrapped in an effect hole carrying the failure's
read effect, until the size bound, the budget (evaluations and pops) or
the deadline cuts the search off. Counts go to the caller's SearchStats.

The searches of one synthesis call share its memo (core.CallMemo): the
root hole, each popped candidate's products with their dedup keys, and
each wrap. Every search starts from the same root object, so a later
search finds the products of what an earlier one popped by identity. The
memo holds only facts fixed for the call, so search order, counts and
results are those of a search without it."""

from __future__ import annotations

import operator
import sys
import time
from heapq import heappop, heappush
from typing import Optional

from .core import (
    Call, CallMemo, ClassTable, ConstantPool, Expr, Let, NilLit, Seq, TypedHole,
    TypeExpr, Value, Var, _alpha, alpha_key, children, free_vars, leftmost_hole, rebuild,
)
from .effgen import expand_effect_hole, wrap_effect_hole
from .interp import AssertErr, Spec, SpecStart, param_env, run_spec
from .runtime import World
from .typegen import Expansion, TypeEnv, expand_typed_hole, typecheck

# Ablation modes build deeply right-nested candidates; the default CPython
# limit is too tight for recursive AST walks over them.
if sys.getrecursionlimit() < 20_000:
    sys.setrecursionlimit(20_000)

MODES = ("full", "types_only", "effects_only", "none")
PRECISIONS = ("precise", "class", "purity")


class SearchConfig(Value):
    """Knobs for one synthesis run. The search itself is fully deterministic;
    there is no seed. max_size bounds the size of every enqueued candidate."""

    __slots__ = ("max_size", "mode", "precision", "candidate_budget", "timeout_s")

    def __init__(self, max_size: int = 64, mode: str = "full", precision: str = "precise",
                 candidate_budget: int = 50_000, timeout_s: Optional[float] = None) -> None:
        self.max_size = max_size
        self.mode = mode
        self.precision = precision
        self.candidate_budget = candidate_budget
        self.timeout_s = timeout_s
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.precision not in PRECISIONS:
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.max_size < 1:
            raise ValueError("max_size must be >= 1")
        if self.candidate_budget < 1:
            raise ValueError("candidate_budget must be >= 1")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError("timeout_s must be > 0")

    @property
    def types_on(self) -> bool:
        """Type guidance: hole fills and their paths must type."""
        return self.mode in ("full", "types_only")

    @property
    def effects_on(self) -> bool:
        """Effect guidance: an effect hole's writers must subsume it."""
        return self.mode in ("full", "effects_only")

    @property
    def wrap_enabled(self) -> bool:
        # Disabling both guidance kinds means naive term enumeration: no
        # effect holes are ever inserted.
        return self.mode != "none"


class SearchStats:
    """Counts of one or more searches; a plain class, like the run reports
    (see driver.RunReport)."""

    __slots__ = ("expanded", "evaluated", "pops", "peak_queue")

    def __init__(self, expanded: int = 0, evaluated: int = 0, pops: int = 0,
                 peak_queue: int = 0) -> None:
        self.expanded = expanded
        self.evaluated = evaluated
        self.pops = pops
        self.peak_queue = peak_queue


# ---------------------------------------------------------------------------
# Candidate dedup keys
# ---------------------------------------------------------------------------

def normalize_for_key(e: Expr, ct: ClassTable, memo: Optional[dict] = None) -> Expr:
    """Erase dead shapes the rewrite rules keep reintroducing: a sequenced
    nil, a let immediately returning its binding, and a let whose binding is
    unused and cannot write. A subterm with nothing to erase is returned as
    it is, not rebuilt. Used only for duplicate suppression. memo, kept for
    one synthesis call (the class table decides which methods write), holds
    the normal form of each let's binding by the binding's identity: a wrap
    binds a failed candidate that all of the wrap's descendants share."""
    return _normal(e, ct.impure_method_names(), {} if memo is None else memo)[0]


def _normal(e: Expr, impure: frozenset, memo: dict) -> tuple[Expr, bool, bool]:
    """e's normal form, whether that cannot write (it calls no method of
    impure), and whether it is plain (see _plain)."""
    t = type(e)
    if t is Call:
        recv = _normal(e.recv, impure, memo)
        args = [_normal(a, impure, memo) for a in e.args]
        out = e
        if recv[0] is not e.recv or any(n[0] is not a for n, a in zip(args, e.args)):
            out = Call(recv[0], e.method, tuple([n[0] for n in args]))
        return (out, recv[1] and all(n[1] for n in args) and e.method not in impure,
                recv[2] and all(n[2] for n in args))
    if t is Let:
        bound = memo.get(id(e.bound))
        if bound is None or bound[0] is not e.bound:
            bound = memo[id(e.bound)] = (e.bound, _normal(e.bound, impure, memo))
        bound, body = bound[1], _normal(e.body, impure, memo)
        if type(body[0]) is Var and body[0].name == e.var:
            return bound
        if bound[1] and e.var not in free_vars(body[0]):
            return body
        out = e if bound[0] is e.bound and body[0] is e.body else Let(e.var, bound[0], body[0])
        return out, bound[1] and body[1], False
    if t is Seq:
        first, second = _normal(e.first, impure, memo), _normal(e.second, impure, memo)
        if type(first[0]) is NilLit:
            return second
        out = e if first[0] is e.first and second[0] is e.second else Seq(first[0], second[0])
        return out, first[1] and second[1], False
    kids = children(e)
    if not kids:
        return e, True, True
    new = [_normal(k, impure, memo) for k in kids]
    out = e
    if any(n[0] is not k for n, k in zip(new, kids)):
        out = rebuild(e, [n[0] for n in new])
    return out, all(n[1] for n in new), all(n[2] for n in new)


def _plain(e: Expr) -> bool:
    """No let and no sequence anywhere in e."""
    t = type(e)
    if t is Call:
        return _plain(e.recv) and all(map(_plain, e.args))
    if t is Let or t is Seq:
        return False
    return all(map(_plain, children(e)))


def dedup_key(e: Expr, ct: ClassTable, memo: Optional[dict] = None) -> object:
    """Candidates with equal keys are duplicates: equal up to the erasures of
    normalize_for_key and the names of let-bound variables. A term with no
    let or sequence is its own key, since equality of such terms is
    structural; the others are normalized (through memo, see
    normalize_for_key) and alpha-keyed if a let or sequence survives, an
    outer let's plain binding once per memo (it numbers no let)."""
    if _plain(e):
        return e
    memo = {} if memo is None else memo
    e, _, plain = _normal(e, ct.impure_method_names(), memo)
    if plain:
        return e
    got = memo.get(id(e.bound)) if type(e) is Let else None
    if got is None or got[0] is not e.bound or not got[1][2]:
        return alpha_key(e)
    if len(got) == 2:
        got = memo[id(e.bound)] = (*got, _alpha(e.bound, {}, [1]))
    return ("let", "%0", got[2], _alpha(e.body, {e.var: "%0"}, [1]))


def _product_keys(products: Expansion, cand_size: int, cand_holes: int, max_size: int,
                  ct: ClassTable, memo: dict):
    """The dedup key of each product the search keeps: every complete one,
    and every other within max_size (the others get themselves, unread).
    When every key is its product the products are the keys, as for a
    plain candidate: typed-hole fills are plain, and an effect hole sits
    only under a wrap's let."""
    exprs = products.exprs
    if _plain(products.cand):
        return exprs
    keys = [p if holes and cand_size + dsize > max_size else dedup_key(p, ct, memo)
            for p, dsize, holes in zip(exprs, products.dsizes,
                                       (cand_holes + d for d in products.dholes))]
    return exprs if all(map(operator.is_, keys, exprs)) else keys


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

def generate(
    goal_params: tuple[TypeExpr, ...],
    ret_ty: TypeExpr,
    ct: ClassTable,
    sigma: ConstantPool,
    spec: Spec,
    world: World,
    cfg: SearchConfig,
    stats: SearchStats,
    deadline: Optional[float],
    start: SpecStart,
    memo: CallMemo,
) -> Optional[Expr]:
    """A complete expression passing one spec, or None once the worklist,
    the budget, or the deadline runs out. Every candidate runs from
    `start`, the spec's start. The search counts into `stats`, and its
    budget is cfg.candidate_budget evaluations and as many pops from the
    counts at entry. The deadline is an absolute time.monotonic() value
    checked between pops, so one deadline can span every search of a
    session. memo is the synthesis call's (core.CallMemo): a search that
    pops a candidate an earlier search of the call popped gets its
    products, their dedup keys and its wraps from there."""
    env: TypeEnv = param_env(goal_params)
    budget = stats.evaluated + cfg.candidate_budget
    pop_budget = stats.pops + cfg.candidate_budget
    max_size = cfg.max_size
    seq = 0
    # (-passed, size, seq, candidate, holes): best-first by passed
    # assertions, then size, then insertion order; seq is unique.
    heap: list[tuple[int, int, int, Expr, int]] = []
    seen: set = set()

    def push(passed: int, cand: Expr, size: int, holes: int, key: object) -> None:
        nonlocal seq
        known = len(seen)
        seen.add(key)
        if len(seen) == known:
            return
        heappush(heap, (-passed, size, seq, cand, holes))
        seq += 1
        stats.peak_queue = max(stats.peak_queue, len(heap))

    root = memo.roots.get(ret_ty)
    if root is None:
        root = memo.roots[ret_ty] = TypedHole(ret_ty)
    push(0, root, 0, 1, root)
    while heap:
        if deadline is not None and time.monotonic() > deadline:
            return None
        if stats.evaluated >= budget or stats.pops >= pop_budget:
            return None
        neg_passed, cand_size, _, cand, cand_holes = heappop(heap)
        stats.pops += 1

        path = leftmost_hole(cand)
        if isinstance(path.hole, TypedHole):
            products = expand_typed_hole(env, ct, sigma, path, cfg, memo)
        else:
            products = expand_effect_hole(ct, path, env, cfg, memo)
        stats.expanded += len(products)

        keys = products.keys
        if keys is None:
            keys = products.keys = _product_keys(products, cand_size, cand_holes, max_size, ct,
                                                 memo.normal)
        for p, key, dsize, dholes in zip(products.exprs, keys, products.dsizes,
                                         products.dholes):
            size = cand_size + dsize
            holes = cand_holes + dholes
            if holes and size > max_size:
                continue
            if holes:
                push(-neg_passed, p, size, holes, key)
                continue
            known = len(seen)
            seen.add(key)
            if len(seen) == known:
                continue
            if stats.evaluated >= budget:
                return None
            res = run_spec(p, len(goal_params), spec, world, ct, start, memo)
            stats.evaluated += 1
            if res.ok:
                return p
            # Runtime errors carry no effect hint; the candidate is dropped.
            # Let, sequence and holes add no size: a wrap is as large as p
            # and has two holes.
            if cfg.wrap_enabled and isinstance(res.outcome, AssertErr) and size <= max_size:
                read = res.outcome.eff.read
                wrap = memo.wraps.get((id(p), read))
                if wrap is None or wrap[0] is not p:
                    ty = (typecheck(env, ct, p, strict=False, calls=memo.calls)
                          if cfg.types_on else ret_ty)
                    wrapped = wrap_effect_hole(p, res.outcome.eff, ty)
                    wrap = memo.wraps[(id(p), read)] = (p, wrapped,
                                                         dedup_key(wrapped, ct, memo.normal))
                push(res.passed_count, wrap[1], size, 2, wrap[2])
    return None
