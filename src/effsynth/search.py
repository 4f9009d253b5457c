"""The per-spec worklist synthesis loop.

Candidates are explored best-first: most passed assertions, then smallest
size, then insertion order. Popping a candidate expands its leftmost hole;
complete expansions are evaluated immediately, failures with an assertion
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
    ClassTable, ConstantPool, Expr, Let, NilLit, Seq, TypedHole, TypeExpr,
    Var, alpha_key, children, expr_size, is_complete, leftmost_hole, rebuild,
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


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for one synthesis run. The search itself is fully deterministic;
    there is no seed. size_schedule is the iterative-deepening ladder of
    maximum candidate sizes."""

    size_schedule: tuple[int, ...] = (8, 16, 32, 64)
    mode: str = "full"
    precision: str = "precise"
    candidate_budget: int = 50_000
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.precision not in PRECISIONS:
            raise ValueError(f"unknown precision {self.precision!r}")
        if not self.size_schedule or min(self.size_schedule) < 1:
            raise ValueError("size_schedule entries must be >= 1")
        if self.candidate_budget < 1:
            raise ValueError("candidate_budget must be >= 1")

    @property
    def max_size(self) -> int:
        return self.size_schedule[-1]

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
    max_size_reached: int = 0
    wall_ms: float = 0.0


@dataclass(frozen=True)
class WorkItem:
    """Worklist entry: best-first by passed assertions, then candidate size,
    then insertion order (seq is unique per search stage)."""

    passed: int
    cand: Expr
    seq: int
    size: int

    def key(self) -> tuple[int, int, int]:
        return (-self.passed, self.size, self.seq)


@dataclass
class GenerateResult:
    expr: Optional[Expr]
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.expr is not None


class BudgetExhausted(Exception):
    pass


# ---------------------------------------------------------------------------
# Candidate dedup keys
# ---------------------------------------------------------------------------

def _write_pure(e: Expr, ct: ClassTable) -> bool:
    from .core import Call, walk

    impure = ct.impure_method_names()
    return not any(isinstance(n, Call) and n.method in impure for n in walk(e))


def normalize_for_key(e: Expr, ct: ClassTable) -> Expr:
    """Erase dead shapes the rewrite rules keep reintroducing: a sequenced
    nil, a let immediately returning its binding, and a let whose binding is
    unused and cannot write. Used only for duplicate suppression."""
    kids = [normalize_for_key(c, ct) for c in children(e)]
    e = rebuild(e, kids)
    if isinstance(e, Seq) and isinstance(e.first, NilLit):
        return e.second
    if isinstance(e, Let):
        if isinstance(e.body, Var) and e.body.name == e.var:
            return e.bound
        from .core import free_vars

        if e.var not in free_vars(e.body) and _write_pure(e.bound, ct):
            return e.body
    return e


def dedup_key(e: Expr, ct: ClassTable) -> tuple:
    return alpha_key(normalize_for_key(e, ct))


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
    wrap: bool = True,
    stats: Optional[SearchStats] = None,
    rules: Optional[RuleConfig] = None,
    deadline: Optional[float] = None,
) -> GenerateResult:
    """Core worklist loop, parameterized by the candidate evaluator so both
    spec solving and branch-condition synthesis share it. The deadline is an
    absolute time.monotonic() value checked between pops; callers that own a
    whole synthesis session pass one so the budget spans every search."""
    t0 = time.monotonic()
    if deadline is None and cfg.timeout_s is not None:
        deadline = t0 + cfg.timeout_s
    stats = stats if stats is not None else SearchStats()
    rules = rules if rules is not None else cfg.rules()
    wrap_on = wrap and cfg.wrap_enabled
    try:
        for max_size in cfg.size_schedule:
            stats.max_size_reached = max(stats.max_size_reached, max_size)
            found = _stage(env, ret_ty, ct, sigma, cfg, rules, evaluate,
                           wrap_on, max_size, deadline, stats)
            if found is not None:
                return GenerateResult(found, stats)
    except BudgetExhausted:
        pass
    finally:
        stats.wall_ms += (time.monotonic() - t0) * 1000.0
    return GenerateResult(None, stats)


def _stage(env, ret_ty, ct, sigma, cfg, rules, evaluate, wrap_on, max_size,
           deadline, stats) -> Optional[Expr]:
    seq = 0
    heap: list[tuple[tuple[int, int, int], WorkItem]] = []
    seen: set = set()
    root = TypedHole(ret_ty)

    def push(passed: int, cand: Expr, size: Optional[int] = None) -> None:
        nonlocal seq
        key = dedup_key(cand, ct)
        if key in seen:
            return
        seen.add(key)
        if size is None:
            size = expr_size(cand)
        item = WorkItem(passed, cand, seq, size)
        heapq.heappush(heap, (item.key(), item))
        seq += 1
        stats.peak_queue = max(stats.peak_queue, len(heap))

    push(0, root)
    while heap:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhausted
        if stats.evaluated >= cfg.candidate_budget:
            raise BudgetExhausted
        _, item = heapq.heappop(heap)
        cand, passed = item.cand, item.passed
        stats.pops += 1

        hole = leftmost_hole(cand)
        if isinstance(hole, TypedHole):
            products = expand_typed_hole(env, ct, sigma, cand, rules)
        else:
            products = expand_effect_hole(ct, cand, env, rules)
        stats.expanded += len(products)

        for p in products:
            if is_complete(p):
                key = dedup_key(p, ct)
                if key in seen:
                    continue
                seen.add(key)
                if stats.evaluated >= cfg.candidate_budget:
                    raise BudgetExhausted
                res = evaluate(p)
                stats.evaluated += 1
                if res.ok:
                    return p
                if wrap_on and isinstance(res.outcome, AssertErr):
                    ty = typecheck(env, ct, p, strict=False) if rules.types_on else ret_ty
                    wrapped = wrap_effect_hole(p, res.outcome.eff, ty)
                    wsize = expr_size(wrapped)
                    if wsize <= max_size:
                        push(res.passed_count, wrapped, wsize)
                # Runtime errors carry no effect hint; the candidate is dropped.
            else:
                psize = expr_size(p)
                if psize <= max_size:
                    push(passed, p, psize)
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

    return search(env, ret_ty, ct, sigma, cfg, evaluate, wrap=True, stats=stats,
                  deadline=deadline)
