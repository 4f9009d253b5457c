"""Branch-condition synthesis and the tuple-merging algebra.

A merge tuple (expr, cond, specs) hypothesizes that "if cond then expr"
satisfies the given specs. Chains of tuples denote if/else-if programs; the
rewrite rules collapse equal expressions under implied or disjoined
conditions, resynthesize conditions that fail to separate differing
expressions, fold boolean branches back into their conditions, and guess
negated conditions when the tests confirm them. Merging builds one decision
list, as EUSolver's decision-tree unification does, and simplifies it once.

A condition is a term of the same language, tested for truthiness: a bank
term, `true`, its negation `(if c false true)` (negate) or a disjunction
`(if a true b)`. sat.implies_valid reads `if` as the connective.

Condition synthesis answers only from one bank per merge session:
write-pure terms over the goal's arguments, enumerated bottom-up by size and
kept one per observational class, i.e. per static type and results at the
goal's spec starts. Results are the runtime values the evaluator returns;
a relation is the value of its rows, so results of separate evaluations
compare directly. A composed term's results are computed from its operands'
kept results, one call per start, as TRANSIT and Escher build value vectors.
Every condition search of the session reads the same bank and grows it only
when no kept term separates its specs. With types on, it builds no == the
call rule refuses (typegen.comparable).
"""

from __future__ import annotations

import itertools
import time
from typing import Optional

from .core import (
    BOOL_T, Call, CallMemo, ClassTable, ConstantPool, Expr, FALSE, FalseLit, If,
    NIL, RecordLit, RecordT, TRUE, TrueLit, TypeExpr, Value, Var, alpha_key,
    subtype,
)
from .interp import Evaluator, Spec, SpecResult, SpecStart, param_env, run_spec, spec_start
from .runtime import (TRUE_V, ClassV, NilV, RecordV, RuntimeError_, World, record_v,
                      truthy)
from .sat import implies_valid
from .search import SearchConfig, SearchStats
from .typegen import TypeCheckError, comparable, node_type, record_shapes, value_eq


# ---------------------------------------------------------------------------
# Condition utilities
# ---------------------------------------------------------------------------

def negate(c: Expr) -> Expr:
    """The condition (if c false true); a negation's negation is its
    condition, so negations never stack."""
    if type(c) is If and type(c.then) is FalseLit and type(c.orelse) is TrueLit:
        return c.cond
    return If(c, FALSE, TRUE)


# ---------------------------------------------------------------------------
# Tuples and terms
# ---------------------------------------------------------------------------

class MergeTuple(Value):
    __slots__ = ("expr", "cond", "specs")

    def __init__(self, expr: Expr, cond: Expr, specs: frozenset[int]) -> None:
        self.expr, self.cond, self.specs = expr, cond, specs


class MergeTerm(Value):
    __slots__ = ("tuples",)

    def __init__(self, tuples: tuple[MergeTuple, ...]) -> None:
        self.tuples = tuples

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
    if implies_valid(TRUE, e.cond):
        return e.then
    if (isinstance(els, If) and els.orelse == NIL
            and alpha_key(els.cond) == alpha_key(negate(e.cond))):
        els = els.then
    return If(e.cond, e.then, els)


# ---------------------------------------------------------------------------
# Session plumbing
# ---------------------------------------------------------------------------

class MergeSession:
    """Everything condition synthesis and merging need to run and count, for
    one synthesis call: its specs and their starts, its counts, its
    condition memo and bank, and its core.CallMemo, which the call's spec
    searches, its bank and its evaluations share."""

    def __init__(self, goal_params: tuple[TypeExpr, ...], ct: ClassTable,
                 sigma: ConstantPool, world: World, cfg: SearchConfig,
                 specs: tuple[Spec, ...], deadline: Optional[float] = None) -> None:
        self.goal_params = goal_params
        self.ct = ct
        self.sigma = sigma
        self.world = world
        self.cfg = cfg
        self.specs = specs
        self.deadline = deadline
        self.cond_memo: dict = {}
        self.stats = SearchStats()
        self.orderings_tried = 0  # 1 once the decision list has been rewritten
        self.memo = CallMemo()
        # id(spec) -> (spec, its start); keyed by identity because hashing a
        # Spec walks its whole setup.
        self.starts: dict = {}
        # (id(body), id(spec)) -> (body, spec, result): run_body's record, with
        # each spec search's solution
        self.outcomes: dict = {}
        self.bank: Optional[ConditionBank] = None

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def start(self, spec: Spec) -> SpecStart:
        """The spec's start, built on first use and kept for the session."""
        entry = self.starts.get(id(spec))
        if entry is None:
            entry = (spec, spec_start(spec, len(self.goal_params), self.world, self.ct,
                                      self.memo))
            self.starts[id(spec)] = entry
        return entry[1]

    def count_eval(self) -> None:
        self.stats.evaluated += 1

    def run_body(self, body: Expr, spec: Spec) -> SpecResult:
        """body's result on spec, evaluated once per call."""
        key = (id(body), id(spec))
        entry = self.outcomes.get(key)
        if entry is None:
            self.count_eval()
            entry = self.outcomes[key] = (body, spec, run_spec(
                body, len(self.goal_params), spec, self.world, self.ct, self.start(spec),
                self.memo))
        return entry[2]


def make_merge_tuple(session: MergeSession, expr: Expr, cond: Expr,
                     spec_ids: frozenset[int]) -> MergeTuple:
    """Tuple constructor enforcing that expr passes each of its specs."""
    for i in sorted(spec_ids):
        if not session.run_body(expr, session.specs[i]).ok:
            raise ValueError(f"merge tuple expression fails spec {i}")
    return MergeTuple(expr, cond, frozenset(spec_ids))


class _Error:
    """The per-start result of a runtime error, wherever it was raised."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ERR"


ERR = _Error()


def _at_start(session: MergeSession, term: Expr, spec: Spec) -> object:
    """A complete term's value at a spec's start in the goal's argument
    scope; ERR if a runtime error is raised, also in the spec's setup or
    arguments."""
    start = session.start(spec)
    if start.error is not None:
        return ERR
    session.world.restore(start.checkpoint)
    ev = Evaluator(session.world, session.ct, session.memo)
    try:
        return ev.eval(param_env(start.args), term)
    except RuntimeError_:
        return ERR


def _cond_holds(session: MergeSession, c: Expr, spec: Spec, want: bool) -> bool:
    """Whether c's truthiness at a spec's start is want; an error is a miss."""
    got = _at_start(session, c, spec)
    return got is not ERR and truthy(got) == want


def _battery(session: MergeSession, term, specs, operands=()) -> tuple:
    """One candidate evaluation: the term's result at each spec's start.

    Without operands the whole term is evaluated at every start. Given the
    operands of a call or record literal, bank terms whose results are per
    spec of specs, each result is built from theirs instead: ERR where the
    start or an operand errs, else the record of the operand values, or
    one call on them in the restored start world."""
    session.count_eval()
    if not operands:
        return tuple(_at_start(session, term, spec) for spec in specs)
    world = session.world
    ev = Evaluator(world, session.ct, session.memo)
    out = []
    for n, spec in enumerate(specs):
        start = session.start(spec)
        vals = [k.results[n] for k in operands]
        if start.error is not None or any(v is ERR for v in vals):
            out.append(ERR)
        elif isinstance(term, RecordLit):
            out.append(record_v(dict(zip((k for k, _ in term.pairs), vals))))
        else:
            # the call reads this start's world; restoring before every
            # call also drops the writes of a method wrongly declared pure
            world.restore(start.checkpoint)
            try:
                out.append(ev.call(vals[0], term.method, tuple(vals[1:])))
            except RuntimeError_:
                out.append(ERR)
    return tuple(out)


# ---------------------------------------------------------------------------
# Condition synthesis
# ---------------------------------------------------------------------------

def synth_condition(session: MergeSession, true_ids: frozenset[int],
                    false_ids: frozenset[int]) -> Optional[Expr]:
    """A condition truthy at every true-spec start and falsy at every
    false-spec start, or None: the first Bool term of the session's
    condition bank that fits. An empty false side needs no condition.
    Overlapping sides have none, nor do twins: specs whose starts have
    equal arguments and worlds."""
    if not false_ids:
        return TRUE
    memo_key = (tuple(sorted(true_ids)), tuple(sorted(false_ids)))
    if memo_key in session.cond_memo:
        return session.cond_memo[memo_key]
    if session.expired() or true_ids & false_ids:
        return None
    specs = [session.specs[i] for i in memo_key[0] + memo_key[1]]
    starts = [(st.args, st.checkpoint) for st in map(session.start, specs)]
    if any(st in starts[len(true_ids):] for st in starts[:len(true_ids)]):
        return None
    cond = session.cond_memo[memo_key] = search(session, true_ids, false_ids)
    return cond


def search(session: MergeSession, true_ids: frozenset[int],
           false_ids: frozenset[int]) -> Optional[Expr]:
    """The condition search: the session's bank, built on first use, asked
    for its first Bool term that fits the two sides."""
    if session.bank is None:
        session.bank = ConditionBank(session)
    return session.bank.find(true_ids, false_ids)


class BankTerm(Value):
    __slots__ = ("expr", "ty", "results")

    def __init__(self, expr: Expr, ty: Optional[TypeExpr], results: tuple) -> None:
        self.expr = expr
        self.ty = ty  # None with types off: every term fits everywhere
        self.results = results  # per spec start of the goal, in spec order


class ConditionBank:
    """Complete terms over the goal's arguments, enumerated bottom-up by size
    and kept one per observational class (TRANSIT, Escher).

    Each level holds the terms of one expr_size, made in the order in which
    typed-hole expansion fills a hole: pool constants, arguments,
    record-field reads, calls of the methods without a write effect in
    all_sigs() order, then key-sorted record literals of those methods'
    record-typed parameters. A composed term's operands come from smaller,
    finished levels; with types on, an operand fits its slot by subtyping
    and the composed node must type; core.eq operand pairs that are not
    comparable are skipped unbuilt. Each term gets one result per spec
    start of the goal and is keyed by (static type, per-start results);
    only the first term per key is kept. A term that errs at every start is
    dropped, since every term built on it errs there too. Leaves and field
    reads are evaluated whole; a composed term's result at a start is one
    call on, or the record of, its operands' kept results there.

    A kept term is interchangeable with the dropped terms of its key inside
    any bank term: bank terms run only at spec starts and their methods do
    not write, so no subterm sees another's effects, and equal results at
    every start give equal results in any context of calls and records.
    That is also why building a term's results from its kept operands'
    gives what evaluating it whole would.

    Bool-typed candidates are admitted before the rest of their level,
    which only a bank grown past it needs. == on operands never nil (it
    errs as a receiver), a record (== reads a field) or a class is
    symmetric and reflexive: x == r is not evaluated once r == x was, nor
    x == x once true wherever x does not err is kept.
    """

    def __init__(self, session: MergeSession) -> None:
        self.session = session
        self.types_on = session.cfg.types_on
        self.env = param_env(session.goal_params)
        self.levels: list[list[BankTerm]] = []
        self.by_key: dict = {}  # one kept term per key
        self.evaluated = 0  # batteries run
        # Bool terms in bank order, each with its truth per start (None: error).
        self.conds: list[tuple[Expr, tuple]] = []
        ct = session.ct
        self.sigs = [s for s in ct.all_sigs() if s.eff.write.is_pure()]
        records = (p for s in self.sigs for p in s.params if isinstance(p, RecordT))
        self.records = list(dict.fromkeys(records))
        # methods each signature of which runs core.eq on one argument
        self.eq_names = {s.name for s in self.sigs if self.types_on and value_eq(ct, s.name)
                         and all(len(t.params) == 1 for t in ct.all_sigs() if t.name == s.name)}
        self.eq_pairs = set()  # (id(x), id(r), type) of each x == r evaluated
        self._fitting: dict = {}
        self._pending = self.candidates()

    def find(self, true_ids: frozenset[int], false_ids: frozenset[int]) -> Optional[Expr]:
        """The first Bool term truthy at every true-spec start and falsy at
        every false-spec start, without an error at any of them. Grows the
        bank only while no term fits, by at most cfg.candidate_budget
        evaluations per call, up to cfg.max_size and the session
        deadline."""
        def fits(truth: tuple) -> bool:
            return (all(truth[i] is True for i in true_ids)
                    and all(truth[j] is False for j in false_ids))

        for expr, truth in self.conds:
            if fits(truth):
                return expr
        session = self.session
        stop = self.evaluated + session.cfg.candidate_budget
        while self.evaluated < stop:
            if session.expired():
                return None
            cand = next(self._pending, None)
            if cand is None:
                return None
            known = len(self.conds)
            self.admit(*cand)
            if len(self.conds) > known and fits(self.conds[-1][1]):  # a new Bool term
                return self.conds[-1][0]
        return None

    def admit(self, expr: Expr, ty: Optional[TypeExpr],
              operands: tuple = ()) -> Optional[BankTerm]:
        """Evaluate a candidate of the level being built, from its operands'
        results if given; the kept term of its key (itself if the key is
        new), or None if it errs everywhere or _mirror or _reflexive knows
        its key."""
        session = self.session
        if (len(operands) == 2 and type(expr) is Call and expr.method in self.eq_names
                and not any(type(v) in (NilV, RecordV, ClassV)
                            for k in operands for v in k.results)):
            if self._mirror(ty, *operands) or self._reflexive(ty, *operands):
                return None
            self.eq_pairs.add((id(operands[0]), id(operands[1]), ty))
        self.evaluated += 1
        results = _battery(session, expr, session.specs, operands)
        if all(r is ERR for r in results):
            return None
        key = (ty, results, isinstance(expr, RecordLit))
        kept = self.by_key.get(key)
        if kept is not None:
            return kept
        kept = self.by_key[key] = BankTerm(expr, ty, results)
        self.levels[-1].append(kept)
        if ty is None or subtype(ty, BOOL_T, session.ct):
            self.conds.append((expr, tuple(None if r is ERR else truthy(r) for r in results)))
        return kept

    def _mirror(self, ty: TypeExpr, x: BankTerm, r: BankTerm) -> bool:
        return (id(r), id(x), ty) in self.eq_pairs

    def _reflexive(self, ty: TypeExpr, x: BankTerm, r: BankTerm) -> bool:
        return x is r and (ty, tuple(ERR if v is ERR else TRUE_V for v in x.results),
                           False) in self.by_key

    def _deferred(self, ty: Optional[TypeExpr]) -> bool:
        return ty is not None and not subtype(ty, BOOL_T, self.session.ct)

    def candidates(self):
        """(term, static type, operands) per candidate, level by level, the
        _deferred last; a level is opened before its first candidate and is
        finished, in candidate order, when the next one opens. The operands
        of a call or record literal are the kept terms it is built from."""
        session = self.session
        for size in range(session.cfg.max_size + 1):
            self.levels.append([])
            later = []
            rank = {}  # id(term) -> its place; a kept term's id stays its own
            for n, cand in enumerate(self._level(size)):
                rank[id(cand[0])] = n
                if self._deferred(cand[1]):
                    later.append(cand)
                else:
                    yield cand
            yield from later
            self.levels[-1].sort(key=lambda t: rank[id(t.expr)])

    def _level(self, size: int):
        session = self.session
        if size == 0:
            for lit, _ in session.sigma.entries:
                yield from self._typed(lit)
            for name in self.env:
                yield from self._typed(Var(name))
        if size == 1:
            for name, ty in self.env.items():
                if isinstance(ty, RecordT):
                    for k, _, _ in ty.fields:
                        yield from self._typed(Call(Var(name), k, ()), kid_tys=(ty,))
        for sig in self.sigs:
            eq = sig.name in self.eq_names
            for kids in self._operands((sig.owner, *sig.params), size - 1):
                if eq and not comparable(kids[0].ty, kids[1].ty, session.ct):
                    continue
                yield from self._typed(
                    Call(kids[0].expr, sig.name, tuple(k.expr for k in kids[1:])), kids)
        made = set()  # two record types can share a literal
        for pairs in (p for rec in self.records for p in record_shapes(rec)):
            for kids in self._operands([ty for _, ty in pairs], size - len(pairs)):
                lit = RecordLit(tuple((k, kid.expr) for (k, _), kid in zip(pairs, kids)))
                if lit not in made:
                    made.add(lit)
                    yield from self._typed(lit, kids)

    def _typed(self, expr: Expr, operands: tuple = (), kid_tys=None):
        """expr with its static type and operands, if its node types given
        its children's types (the operands' unless stated); with types off
        every node is kept, untyped."""
        if not self.types_on:
            yield expr, None, operands
            return
        if kid_tys is None:
            kid_tys = [k.ty for k in operands]
        try:
            yield expr, node_type(self.env, self.session.ct, expr, kid_tys, True,
                                  self.session.memo.calls), operands
        except TypeCheckError:
            pass

    def _operands(self, want, total: int):
        """Operand tuples for slots of the wanted types whose sizes sum to
        total, from finished levels: size splits in lexicographic order,
        then kept terms in bank order."""
        for pools in self._splits(tuple(want), total):
            yield from itertools.product(*pools)

    def _splits(self, want: tuple, total: int):
        """Per split of total over the slots, in lexicographic order, each
        slot's pool; a split with an empty pool is skipped whole."""
        if total < 0 or not want:
            if total == 0:
                yield []
            return
        for size in (range(total + 1) if len(want) > 1 else (total,)):
            pool = self._fits(size, want[0])
            if pool:
                for rest in self._splits(want[1:], total - size):
                    yield [pool, *rest]

    def _fits(self, size: int, ty: TypeExpr) -> list[BankTerm]:
        """The kept terms of a finished level that fill a slot of type ty;
        as in typed-hole expansion, record literals fill record-typed slots
        only."""
        key = (size, ty if self.types_on else isinstance(ty, RecordT))
        pool = self._fitting.get(key)
        if pool is None:
            pool = self._fitting[key] = [
                t for t in self.levels[size]
                if (isinstance(ty, RecordT) or not isinstance(t.expr, RecordLit))
                and (not self.types_on or subtype(t.ty, ty, self.session.ct))]
        return pool


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------

def rewrite_merge(term: MergeTerm, session: MergeSession) -> MergeTerm:
    """Apply the adjacent-pair rules to fixpoint, each pair knowing the specs
    of the tuples after it. Rewriting stops when a chain repeats, as guesses
    can undo each other and resynthesis can restate a pair, and past the
    session deadline; the chain is returned as far as it got."""
    tuples = list(term.tuples)
    visited = {tuple(map(_tuple_key, tuples))}
    changed = True
    while changed and not session.expired():
        changed = False
        for i in range(len(tuples) - 1):
            later = frozenset().union(*(t.specs for t in tuples[i + 2:]))
            step = _rewrite_pair(tuples[i], tuples[i + 1], later, session)
            if step is None:
                continue
            tuples[i : i + 2] = step
            state = tuple(map(_tuple_key, tuples))
            changed = state not in visited
            visited.add(state)
            break
    return MergeTerm(tuple(tuples))


def _tuple_key(t: MergeTuple) -> tuple:
    return (alpha_key(t.expr), alpha_key(t.cond), tuple(sorted(t.specs)))


def _rewrite_pair(t1: MergeTuple, t2: MergeTuple, later: frozenset[int],
                  session: MergeSession) -> Optional[tuple]:
    union = t1.specs | t2.specs
    e_eq = alpha_key(t1.expr) == alpha_key(t2.expr)
    imp12 = implies_valid(t1.cond, t2.cond)
    imp21 = implies_valid(t2.cond, t1.cond)

    if e_eq and imp12:
        return (MergeTuple(t1.expr, t1.cond, union),)
    if e_eq and imp21:
        return (MergeTuple(t1.expr, t2.cond, union),)
    either = If(t1.cond, TRUE, t2.cond)
    if e_eq:
        return (MergeTuple(t1.expr, either, union),)

    guess = negate(t1.cond)
    neg_related = alpha_key(t2.cond) == alpha_key(guess)
    if isinstance(t1.expr, TrueLit) and isinstance(t2.expr, FalseLit) and neg_related:
        return (MergeTuple(t1.cond, either, union),)
    if isinstance(t1.expr, FalseLit) and isinstance(t2.expr, TrueLit) and neg_related:
        return (MergeTuple(t2.cond, either, union),)

    # A guessed negation holds wherever the other branch fails, so it would
    # also catch the later specs; guess only at the end of the chain.
    if not neg_related and not later:
        session.count_eval()
        if all(_cond_holds(session, guess, session.specs[j], True)
               for j in sorted(t2.specs)):
            return (t1, MergeTuple(t2.expr, guess, t2.specs))
        guess = negate(t2.cond)
        if alpha_key(t1.cond) != alpha_key(guess):
            session.count_eval()
            if all(_cond_holds(session, guess, session.specs[i], True)
                   for i in sorted(t1.specs)):
                return (MergeTuple(t1.expr, guess, t1.specs), t2)

    if imp12 or imp21:
        b1 = synth_condition(session, t1.specs, t2.specs | later)
        b2 = synth_condition(session, t2.specs, t1.specs | later)
        if b1 is not None and b2 is not None:
            return (MergeTuple(t1.expr, b1, t1.specs),
                    MergeTuple(t2.expr, b2, t2.specs))
    return None


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------

def merge_program(tuples: list[MergeTuple], session: MergeSession) -> Optional[Expr]:
    """One decision list, rewritten by the rules: tuples with alpha-equal
    expressions share a branch, each branch's condition separates its specs
    from those of every later branch, and the last branch has none. None if
    a condition is not found; the caller checks the body on every spec."""
    branches: dict = {}  # alpha key of the expression -> (expr, specs)
    for t in tuples:
        expr, specs = branches.get(alpha_key(t.expr), (t.expr, frozenset()))
        branches[alpha_key(t.expr)] = (expr, specs | t.specs)
    chain = []
    rest = list(branches.values())
    for k, (expr, specs) in enumerate(rest):
        later = frozenset().union(*(s for _, s in rest[k + 1:]))
        cond = synth_condition(session, specs, later) if later else TRUE
        if cond is None:
            return None
        chain.append(MergeTuple(expr, cond, specs))
    session.orderings_tried = 1
    return rewrite_merge(MergeTerm(tuple(chain)), session).prog()
