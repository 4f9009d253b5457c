"""The per-spec worklist synthesis loop, `generate`.

Candidates are explored best-first: most passed assertions, then smallest
size, then insertion order. Popping a candidate descends once to its
leftmost hole and expands it there. A worklist entry is a plain
(-passed, size, seq, candidate, holes) tuple, and each product carries how
much its size and hole count differ from its candidate's, so no product is
walked again to size it or to tell whether it is complete. Complete
expansions are evaluated immediately, failures with an assertion error are
re-enqueued wrapped in an effect hole carrying the failure's read effect,
and everything else goes back on the worklist until the size bound, the
evaluation budget, or the deadline cuts the search off. The search counts
into its caller's SearchStats, so one set of counts can span a session."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

from .core import (
    Call, ClassTable, ConstantPool, Expr, Let, NilLit, Seq, TypedHole,
    TypeExpr, Value, Var, alpha_key, children, free_vars, leftmost_hole,
    rebuild, walk,
)
from .effgen import expand_effect_hole, wrap_effect_hole
from .interp import AssertErr, Spec, SpecStart, param_env, run_spec
from .runtime import World
from .typegen import TypeEnv, expand_typed_hole, typecheck

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


@dataclass
class SearchStats:
    expanded: int = 0
    evaluated: int = 0
    pops: int = 0
    peak_queue: int = 0


# ---------------------------------------------------------------------------
# Candidate dedup keys
# ---------------------------------------------------------------------------

def _write_pure(e: Expr, ct: ClassTable) -> bool:
    impure = ct.impure_method_names()
    return not any(isinstance(n, Call) and n.method in impure for n in walk(e))


def normalize_for_key(e: Expr, ct: ClassTable) -> Expr:
    """Erase dead shapes the rewrite rules keep reintroducing: a sequenced
    nil, a let immediately returning its binding, and a let whose binding is
    unused and cannot write. A subterm with nothing to erase is returned as
    it is, not rebuilt. Used only for duplicate suppression."""
    kids = children(e)
    if kids:
        new = [normalize_for_key(c, ct) for c in kids]
        if any(n is not c for n, c in zip(new, kids)):
            e = rebuild(e, new)
    if isinstance(e, Seq) and isinstance(e.first, NilLit):
        return e.second
    if isinstance(e, Let):
        if isinstance(e.body, Var) and e.body.name == e.var:
            return e.bound
        if e.var not in free_vars(e.body) and _write_pure(e.bound, ct):
            return e.body
    return e


def _plain(e: Expr) -> bool:
    """No let and no sequence anywhere in e."""
    if isinstance(e, Call):
        return _plain(e.recv) and all(map(_plain, e.args))
    if isinstance(e, (Let, Seq)):
        return False
    return all(map(_plain, children(e)))


def dedup_key(e: Expr, ct: ClassTable) -> object:
    """Candidates with equal keys are duplicates: equal up to the erasures of
    normalize_for_key and the names of let-bound variables. A term with no
    let or sequence is its own key, since equality of such terms is
    structural; only the others are normalized, and alpha-keyed if a let
    or sequence survives."""
    if _plain(e):
        return e
    e = normalize_for_key(e, ct)
    return e if _plain(e) else alpha_key(e)


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
) -> Optional[Expr]:
    """A complete expression passing one spec, or None once the worklist,
    the evaluation budget, or the deadline runs out. Every candidate runs
    from `start`, the spec's start. The search counts into `stats`, and
    its budget is cfg.candidate_budget evaluations from the count at
    entry. The deadline is an absolute time.monotonic() value checked
    between pops, so one deadline can span every search of a session."""
    env: TypeEnv = param_env(goal_params)
    budget = stats.evaluated + cfg.candidate_budget
    seq = 0
    # (-passed, size, seq, candidate, holes): best-first by passed
    # assertions, then size, then insertion order; seq is unique.
    heap: list[tuple[int, int, int, Expr, int]] = []
    seen: set = set()
    fill_memo: dict = {}  # shared by every expansion of this search

    def push(passed: int, cand: Expr, size: int, holes: int) -> None:
        nonlocal seq
        key = dedup_key(cand, ct)
        if key in seen:
            return
        seen.add(key)
        heappush(heap, (-passed, size, seq, cand, holes))
        seq += 1
        stats.peak_queue = max(stats.peak_queue, len(heap))

    push(0, TypedHole(ret_ty), 0, 1)
    while heap:
        if deadline is not None and time.monotonic() > deadline:
            return None
        if stats.evaluated >= budget:
            return None
        neg_passed, cand_size, _, cand, cand_holes = heappop(heap)
        stats.pops += 1

        path = leftmost_hole(cand)
        if isinstance(path.hole, TypedHole):
            products = expand_typed_hole(env, ct, sigma, path, cfg, fill_memo)
        else:
            products = expand_effect_hole(ct, path, env, cfg, fill_memo)
        stats.expanded += len(products)

        for p, dsize, dholes in products:
            size = cand_size + dsize
            holes = cand_holes + dholes
            if holes == 0:
                key = dedup_key(p, ct)
                if key in seen:
                    continue
                seen.add(key)
                if stats.evaluated >= budget:
                    return None
                res = run_spec(p, len(goal_params), spec, world, ct, start)
                stats.evaluated += 1
                if res.ok:
                    return p
                if cfg.wrap_enabled and isinstance(res.outcome, AssertErr):
                    ty = typecheck(env, ct, p, strict=False) if cfg.types_on else ret_ty
                    # Let, sequence and holes add no size: the wrapped term
                    # is as large as p and has two holes.
                    wrapped = wrap_effect_hole(p, res.outcome.eff, ty)
                    if size <= cfg.max_size:
                        push(res.passed_count, wrapped, size, 2)
                # Runtime errors carry no effect hint; the candidate is dropped.
            elif size <= cfg.max_size:
                push(-neg_passed, p, size, holes)
    return None
