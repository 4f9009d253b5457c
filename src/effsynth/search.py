"""The per-spec worklist synthesis loop.

Candidates are explored best-first: most passed assertions, then smallest
size, then insertion order. Popping a candidate descends once to its
leftmost hole and expands it there; each worklist entry carries its
candidate's size and hole count, and each product the deltas of both, so no
product is walked again to size it or to tell whether it is complete.
Complete expansions are evaluated immediately, failures with an assertion
error are re-enqueued wrapped in an effect hole carrying the failure's read
effect, and everything else goes back on the worklist until the size bound,
the evaluation budget, or the deadline cuts the search off.
"""

from __future__ import annotations

import heapq
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    Call, ClassTable, ConstantPool, Expr, Let, NilLit, Seq, TypedHole,
    TypeExpr, Value, Var, alpha_key, children, free_vars, leftmost_hole,
    rebuild, walk,
)
from .effgen import expand_effect_hole, wrap_effect_hole
from .interp import AssertErr, Spec, SpecResult, SpecStart, run_spec, spec_start
from .runtime import World
from .typegen import RuleConfig, TypeEnv, expand_typed_hole, typecheck

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

    def rules(self) -> RuleConfig:
        return RuleConfig(
            types_on=self.mode in ("full", "types_only"),
            effects_on=self.mode in ("full", "effects_only"),
        )

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


class WorkItem(Value):
    """Worklist entry: best-first by passed assertions, then candidate size,
    then insertion order (seq is unique per search). The candidate's size
    and number of holes travel with it, so no product is walked for them."""

    __slots__ = ("passed", "cand", "seq", "size", "holes")

    def __init__(self, passed: int, cand: Expr, seq: int, size: int, holes: int) -> None:
        self.passed = passed
        self.cand = cand
        self.seq = seq
        self.size = size
        self.holes = holes

    def key(self) -> tuple[int, int, int]:
        return (-self.passed, self.size, self.seq)


@dataclass
class GenerateResult:
    expr: Optional[Expr]
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.expr is not None


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

def search(
    env: TypeEnv,
    ret_ty: TypeExpr,
    ct: ClassTable,
    sigma: ConstantPool,
    cfg: SearchConfig,
    evaluate: Callable[[Expr], SpecResult],
    *,
    stats: Optional[SearchStats] = None,
    deadline: Optional[float] = None,
) -> GenerateResult:
    """Core worklist loop, parameterized by the candidate evaluator. The
    deadline is an absolute time.monotonic() value checked between pops;
    callers that own a whole synthesis session pass one so the budget spans
    every search."""
    if deadline is None and cfg.timeout_s is not None:
        deadline = time.monotonic() + cfg.timeout_s
    stats = stats if stats is not None else SearchStats()
    found = _run(env, ret_ty, ct, sigma, cfg, cfg.rules(), evaluate,
                 cfg.wrap_enabled, deadline, stats)
    return GenerateResult(found, stats)


def _run(env, ret_ty, ct, sigma, cfg, rules, evaluate, wrap_on, deadline,
         stats) -> Optional[Expr]:
    """The worklist loop: the passing candidate, or None once the worklist,
    the evaluation budget, or the deadline runs out."""
    seq = 0
    heap: list[tuple[tuple[int, int, int], WorkItem]] = []
    seen: set = set()
    fill_memo: dict = {}  # shared by every expansion of this search

    def push(passed: int, cand: Expr, size: int, holes: int) -> None:
        nonlocal seq
        key = dedup_key(cand, ct)
        if key in seen:
            return
        seen.add(key)
        item = WorkItem(passed, cand, seq, size, holes)
        heapq.heappush(heap, (item.key(), item))
        seq += 1
        stats.peak_queue = max(stats.peak_queue, len(heap))

    push(0, TypedHole(ret_ty), 0, 1)
    while heap:
        if deadline is not None and time.monotonic() > deadline:
            return None
        if stats.evaluated >= cfg.candidate_budget:
            return None
        _, item = heapq.heappop(heap)
        passed = item.passed
        stats.pops += 1

        path = leftmost_hole(item.cand)
        if isinstance(path.hole, TypedHole):
            products = expand_typed_hole(env, ct, sigma, path, rules, fill_memo)
        else:
            products = expand_effect_hole(ct, path, env, rules, fill_memo)
        stats.expanded += len(products)

        for p, dsize, dholes in products:
            size = item.size + dsize
            holes = item.holes + dholes
            if holes == 0:
                key = dedup_key(p, ct)
                if key in seen:
                    continue
                seen.add(key)
                if stats.evaluated >= cfg.candidate_budget:
                    return None
                res = evaluate(p)
                stats.evaluated += 1
                if res.ok:
                    return p
                if wrap_on and isinstance(res.outcome, AssertErr):
                    ty = typecheck(env, ct, p, strict=False) if rules.types_on else ret_ty
                    # Let, sequence and holes add no size: the wrapped term
                    # is as large as p and has two holes.
                    wrapped = wrap_effect_hole(p, res.outcome.eff, ty)
                    if size <= cfg.max_size:
                        push(res.passed_count, wrapped, size, 2)
                # Runtime errors carry no effect hint; the candidate is dropped.
            elif size <= cfg.max_size:
                push(passed, p, size, holes)
    return None


def generate(
    goal_params: tuple[TypeExpr, ...],
    ret_ty: TypeExpr,
    ct: ClassTable,
    sigma: ConstantPool,
    spec: Spec,
    world: World,
    cfg: SearchConfig,
    stats: Optional[SearchStats] = None,
    deadline: Optional[float] = None,
    start: Optional[SpecStart] = None,
) -> GenerateResult:
    """Search for a complete expression passing one spec. Every candidate
    runs from `start`, the spec's start; it is built here when not given."""
    env: TypeEnv = {f"arg{i}": t for i, t in enumerate(goal_params)}
    if start is None:
        start = spec_start(spec, len(goal_params), world, ct)

    def evaluate(body: Expr) -> SpecResult:
        return run_spec(body, len(goal_params), spec, world, ct, start)

    return search(env, ret_ty, ct, sigma, cfg, evaluate, stats=stats,
                  deadline=deadline)
