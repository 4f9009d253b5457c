"""Branch-condition synthesis and the tuple-merging algebra.

A merge tuple (expr, cond, specs) hypothesizes that "if cond then expr"
satisfies the given specs. Chains of tuples denote if/else-if programs; the
rewrite rules collapse equal expressions under implied or disjoined
conditions, resynthesize conditions that fail to separate differing
expressions, fold boolean branches back into their conditions, and guess
negated conditions when the tests confirm them. The merge search tries tuple
orderings, rewrites each chain to fixpoint, and keeps the smallest program
that passes every spec.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from .core import (
    Atom, BOOL_T, Call, Cond, ConstantPool, Expr, FalseLit, If, NIL, Not, Or,
    PURE_PAIR, TRUE, TRUE_COND, TrueLit, TypeExpr, alpha_key, expr_size,
    ClassTable,
)
from .interp import (
    AssertErr, Evaluator, Ok, Spec, SpecResult, SpecStart, run_spec, spec_start,
)
from .runtime import RuntimeError_, TRUE_V, World
from .sat import implies_valid
from .search import SearchConfig, SearchStats, search
from .typegen import TypeEnv


# ---------------------------------------------------------------------------
# Condition utilities
# ---------------------------------------------------------------------------

def canon_cond(c: Cond) -> Cond:
    """Double negations cancel; everything else is structural."""
    if isinstance(c, Not):
        inner = canon_cond(c.inner)
        if isinstance(inner, Not):
            return inner.inner
        return Not(inner)
    if isinstance(c, Or):
        return Or(canon_cond(c.left), canon_cond(c.right))
    return c


def canon_not(c: Cond) -> Cond:
    return canon_cond(Not(c))


def cond_key(c: Cond) -> tuple:
    return alpha_key(canon_cond(c))


def cond_eq(c1: Cond, c2: Cond) -> bool:
    return cond_key(c1) == cond_key(c2)


def is_tautology(c: Cond) -> bool:
    """Recognizes the b-or-not-b shape the boolean folding rules produce."""
    c = canon_cond(c)
    if c == TRUE_COND:
        return True
    if isinstance(c, Or):
        return (is_tautology(c.left) or is_tautology(c.right)
                or cond_eq(c.left, canon_not(c.right)))
    return False


def cond_as_expr(c: Cond) -> Expr:
    """A Bool-valued expression computing the condition."""
    if isinstance(c, Atom):
        return c.expr
    if isinstance(c, Not):
        return Call(cond_as_expr(c.inner), "!", ())
    return If(c.left, TRUE, cond_as_expr(c.right))


# ---------------------------------------------------------------------------
# Tuples and terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergeTuple:
    expr: Expr
    cond: Cond
    specs: frozenset[int]


@dataclass(frozen=True)
class MergeTerm:
    tuples: tuple[MergeTuple, ...]

    def spec_ids(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for t in self.tuples:
            out |= t.specs
        return out

    def prog(self) -> Expr:
        body: Expr = NIL
        for t in reversed(self.tuples):
            body = If(t.cond, t.expr, body)
        return _normalize_prog(body)


def _normalize_prog(e: Expr) -> Expr:
    if not isinstance(e, If):
        return e
    els = _normalize_prog(e.orelse)
    cond = canon_cond(e.cond)
    if is_tautology(cond):
        return e.then
    if isinstance(els, If) and els.orelse == NIL and cond_eq(els.cond, canon_not(cond)):
        els = els.then
    return If(cond, e.then, els)


# ---------------------------------------------------------------------------
# Session plumbing
# ---------------------------------------------------------------------------

@dataclass
class MergeSession:
    """Everything condition synthesis and merging need to run and count."""

    goal_params: tuple[TypeExpr, ...]
    ret_ty: TypeExpr
    ct: ClassTable
    sigma: ConstantPool
    world: World
    cfg: SearchConfig
    specs: tuple[Spec, ...]
    cond_cache: list[Cond] = field(default_factory=list)
    cond_memo: dict = field(default_factory=dict)
    stats: SearchStats = field(default_factory=SearchStats)
    orderings_tried: int = 0
    deadline: Optional[float] = None
    # id(spec) -> (spec, its start); keyed by identity because hashing a
    # Spec walks its whole setup.
    starts: dict = field(default_factory=dict, init=False, repr=False)

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def start(self, spec: Spec) -> SpecStart:
        """The spec's start, built on first use and kept for the session."""
        entry = self.starts.get(id(spec))
        if entry is None or entry[0] is not spec:
            entry = (spec, spec_start(spec, len(self.goal_params), self.world, self.ct))
            self.starts[id(spec)] = entry
        return entry[1]

    def param_env(self) -> TypeEnv:
        return {f"arg{i}": t for i, t in enumerate(self.goal_params)}

    def count_eval(self) -> None:
        self.stats.evaluated += 1

    def absorb(self, stats: SearchStats) -> None:
        self.stats.expanded += stats.expanded
        self.stats.evaluated += stats.evaluated
        self.stats.pops += stats.pops
        self.stats.peak_queue = max(self.stats.peak_queue, stats.peak_queue)

    def run_body(self, body: Expr, spec: Spec) -> SpecResult:
        self.count_eval()
        return run_spec(body, len(self.goal_params), spec, self.world, self.ct,
                        self.start(spec))


def make_merge_tuple(session: MergeSession, expr: Expr, cond: Cond,
                     spec_ids: frozenset[int]) -> MergeTuple:
    """Tuple constructor enforcing that expr passes each of its specs."""
    for i in sorted(spec_ids):
        if not session.run_body(expr, session.specs[i]).ok:
            raise ValueError(f"merge tuple expression fails spec {i}")
    return MergeTuple(expr, cond, frozenset(spec_ids))


def _cond_holds(session: MergeSession, c: Cond, spec: Spec, want: bool) -> bool:
    """Evaluate a condition at a spec's start in the goal's argument scope;
    a runtime error, also in the spec's setup or arguments, is a miss."""
    start = session.start(spec)
    if start.error is not None:
        return False
    session.world.restore(start.checkpoint)
    try:
        return Evaluator(session.world, session.ct).eval_cond(start.param_env(), c) == want
    except RuntimeError_:
        return False


def _battery(session: MergeSession, c: Cond,
             checks: list[tuple[Spec, bool]]) -> SpecResult:
    session.count_eval()
    passed = 0
    for spec, want in checks:
        if _cond_holds(session, c, spec, want):
            passed += 1
        else:
            return SpecResult(passed, AssertErr(PURE_PAIR))
    return SpecResult(passed, Ok(TRUE_V))


# ---------------------------------------------------------------------------
# Condition synthesis
# ---------------------------------------------------------------------------

def synth_condition(session: MergeSession, true_ids: frozenset[int],
                    false_ids: frozenset[int]) -> Optional[Cond]:
    """A condition truthy under every true-spec setup and falsy under every
    false-spec setup. Tries true, previously synthesized conditions, and
    their negations before searching; the search is type-guided only and its
    call templates are restricted to pure-write methods."""
    memo_key = (tuple(sorted(true_ids)), tuple(sorted(false_ids)))
    if memo_key in session.cond_memo:
        return session.cond_memo[memo_key]
    if session.expired():
        return None
    checks = [(session.specs[i], True) for i in sorted(true_ids)]
    checks += [(session.specs[j], False) for j in sorted(false_ids)]

    shortlist: list[Cond] = [TRUE_COND]
    shortlist += list(session.cond_cache)
    shortlist += [canon_not(c) for c in session.cond_cache]
    tried = set()
    for cand in shortlist:
        key = cond_key(cand)
        if key in tried:
            continue
        tried.add(key)
        if _battery(session, cand, checks).ok:
            session.cond_memo[memo_key] = cand
            return cand
    if session.expired():
        return None

    rules = replace(session.cfg.rules(), effects_on=False, pure_apps_only=True)
    stats = SearchStats()
    result = search(
        session.param_env(), BOOL_T, session.ct, session.sigma, session.cfg,
        lambda body: _battery(session, Atom(body), checks),
        wrap=False, stats=stats, rules=rules, deadline=session.deadline,
    )
    # _battery already counted its calls through the session.
    stats.evaluated = 0
    session.absorb(stats)
    cond = Atom(result.expr) if result.found else None
    if cond is not None and not any(cond_eq(cond, c) for c in session.cond_cache):
        session.cond_cache.append(cond)
    session.cond_memo[memo_key] = cond
    return cond


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------

def rewrite_merge(term: MergeTerm, session: MergeSession) -> MergeTerm:
    """Apply the adjacent-pair rules to fixpoint. Condition resynthesis fires
    at most once per pair; if it cannot find separating conditions the pair
    is left in its original chained form. Rewriting also stops when a chain
    repeats, because the negation guesses can undo each other, and past the
    session deadline; the chain is returned as far as it got."""
    tuples = list(term.tuples)
    tried_resynth: set = set()
    visited = {tuple(map(_tuple_key, tuples))}
    changed = True
    while changed and not session.expired():
        changed = False
        for i in range(len(tuples) - 1):
            step = _rewrite_pair(tuples[i], tuples[i + 1], session, tried_resynth)
            if step is None:
                continue
            if len(step) == 1:
                tuples[i : i + 2] = [step[0]]
            else:
                tuples[i], tuples[i + 1] = step
            state = tuple(map(_tuple_key, tuples))
            changed = state not in visited
            visited.add(state)
            break
    return MergeTerm(tuple(tuples))


def _tuple_key(t: MergeTuple) -> tuple:
    return (alpha_key(t.expr), cond_key(t.cond), tuple(sorted(t.specs)))


def _is_true(e: Expr) -> bool:
    return isinstance(e, TrueLit)


def _is_false(e: Expr) -> bool:
    return isinstance(e, FalseLit)


def _rewrite_pair(t1: MergeTuple, t2: MergeTuple, session: MergeSession,
                  tried_resynth: set) -> Optional[tuple]:
    union = t1.specs | t2.specs
    e_eq = alpha_key(t1.expr) == alpha_key(t2.expr)
    imp12 = implies_valid(t1.cond, t2.cond)
    imp21 = implies_valid(t2.cond, t1.cond)

    if e_eq and imp12:
        return (MergeTuple(t1.expr, t1.cond, union),)
    if e_eq and imp21:
        return (MergeTuple(t1.expr, t2.cond, union),)
    if e_eq:
        return (MergeTuple(t1.expr, Or(t1.cond, t2.cond), union),)

    neg_related = cond_eq(t2.cond, canon_not(t1.cond))
    if _is_true(t1.expr) and _is_false(t2.expr) and neg_related:
        return (MergeTuple(cond_as_expr(t1.cond), Or(t1.cond, t2.cond), union),)
    if _is_false(t1.expr) and _is_true(t2.expr) and neg_related:
        return (MergeTuple(cond_as_expr(t2.cond), Or(t1.cond, t2.cond), union),)

    if not neg_related:
        guess = canon_not(t1.cond)
        session.count_eval()
        if all(_cond_holds(session, guess, session.specs[j], True)
               for j in sorted(t2.specs)):
            return (t1, MergeTuple(t2.expr, guess, t2.specs))
        guess = canon_not(t2.cond)
        if not cond_eq(t1.cond, guess):
            session.count_eval()
            if all(_cond_holds(session, guess, session.specs[i], True)
                   for i in sorted(t1.specs)):
                return (MergeTuple(t1.expr, guess, t1.specs), t2)

    if (imp12 or imp21) and not e_eq:
        mark = (_tuple_key(t1), _tuple_key(t2))
        if mark in tried_resynth:
            return None
        tried_resynth.add(mark)
        b1 = synth_condition(session, t1.specs, t2.specs)
        b2 = synth_condition(session, t2.specs, t1.specs)
        if b1 is not None and b2 is not None:
            return (MergeTuple(t1.expr, b1, t1.specs),
                    MergeTuple(t2.expr, b2, t2.specs))
    return None


# ---------------------------------------------------------------------------
# The merge search
# ---------------------------------------------------------------------------

def merge_program(tuples: list[MergeTuple], session: MergeSession) -> Optional[Expr]:
    """Try tuple orderings (all permutations up to six tuples, rotations past
    that), rewrite each, and return the smallest body passing every spec."""
    n = len(tuples)
    if n <= 6:
        orderings = list(itertools.permutations(range(n)))
    else:
        orderings = [tuple(range(k, n)) + tuple(range(k)) for k in range(n)]
    best: Optional[tuple[int, Expr]] = None
    for order in orderings:
        if session.expired():
            break
        session.orderings_tried += 1
        term = rewrite_merge(MergeTerm(tuple(tuples[i] for i in order)), session)
        body = term.prog()
        if all(session.run_body(body, s).ok for s in session.specs):
            size = expr_size(body)
            if best is None or size < best[0]:
                best = (size, body)
    return best[1] if best else None
