"""Evaluations a synthesis call skips because it already knows their outcome.

The condition bank admits a level's Bool-typed candidates before its others
and does not evaluate a value-equality call whose key is known (its mirror
was admitted, or it compares a term with itself). The merge session answers
a body it has already run on a spec from its record. Each must change the
evaluated count only: the bank keeps the same terms in the same order and
answers every condition search as a bank without them does, and a
synthesis call returns the same program.
"""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import lookup_goal_text, random_hierarchy
from effsynth import driver, merge
from effsynth.core import (
    BOOL_T, ClassT, ConstantPool, INT_T, IntLit, MethodSig, NIL_T, NilLit, STR_T, StrLit,
    subtype, union_of,
)
from effsynth.driver import synthesize
from effsynth.effgen import erase_table
from effsynth.goalfile import build, load_goal_file, parse_goal_file, print_expr
from effsynth.interp import Spec, SpecStart
from effsynth.merge import ERR, ConditionBank, MergeSession
from effsynth.runtime import (
    FALSE_V, TRUE_V, IntV, NIL_V, ObjV, StrV, World, install_core_methods,
)
from effsynth.search import SearchConfig

ROOT = Path(__file__).resolve().parent.parent

from test_merge import MISDECLARED_WRITER  # noqa: E402


def session_of(text, mode="full", precision="precise", max_size=5):
    """A merge session over a goal text's specs, with the class table of its
    precision, as a synthesis call makes it."""
    gf = parse_goal_file(text)
    ct, world = build(gf)
    cfg = SearchConfig(mode=mode, precision=precision, max_size=max_size)
    return MergeSession(
        goal_params=gf.goal.param_types, ct=erase_table(ct, precision),
        sigma=gf.goal.constants, world=world, cfg=cfg, specs=gf.goal.specs)


def unpruned(monkeypatch):
    """Turn the bank's rules off: every candidate evaluated, in candidate
    order."""
    monkeypatch.setattr(ConditionBank, "_mirror", lambda self, ty, x, r: False)
    monkeypatch.setattr(ConditionBank, "_reflexive", lambda self, ty, x, r: False)
    monkeypatch.setattr(ConditionBank, "_deferred", lambda self, ty: False)


def splits(n_specs):
    """Every (true, false) split of every set of at most 4 specs, with a
    nonempty false side."""
    for k in range(1, min(n_specs, 4) + 1):
        for chosen in itertools.combinations(range(n_specs), k):
            for bits in itertools.product((True, False), repeat=k):
                if not all(bits):
                    yield (frozenset(i for i, b in zip(chosen, bits) if b),
                           frozenset(i for i, b in zip(chosen, bits) if not b))


def bank_outcome(make, levels):
    """What one bank does: the kept (expr, ty, results) of its first
    `levels` levels and its conditions, grown in find's order, with the
    batteries that took; then, on a fresh bank, find's answer to every
    split and the batteries those took."""
    bank = ConditionBank(make())
    for cand in bank._pending:
        if len(bank.levels) > levels:
            break
        bank.admit(*cand)
    kept = [[(t.expr, t.ty, t.results) for t in level] for level in bank.levels[:levels]]
    conds = list(bank.conds)
    grown = bank.evaluated
    s = make()
    bank = ConditionBank(s)
    answers = [bank.find(t, f) for t, f in splits(len(s.specs))]
    return (kept, conds, answers), (grown, bank.evaluated)


def assert_matches_reference(monkeypatch, make, levels):
    pruned, counts = bank_outcome(make, levels)
    with monkeypatch.context() as m:
        unpruned(m)
        reference, ref_counts = bank_outcome(make, levels)
    assert pruned[0] == reference[0]  # kept terms per level, in order
    assert pruned[1] == reference[1]  # conditions
    assert pruned[2] == reference[2]  # find's answers
    assert counts[0] <= ref_counts[0] and counts[1] <= ref_counts[1]
    return counts, ref_counts


def goal_text(name):
    if name.startswith("lookup"):
        return lookup_goal_text(int(name[len("lookup"):]))
    if name == "misdeclared_writer":
        return MISDECLARED_WRITER
    return (ROOT / "goals" / f"{name}.goal").read_text(encoding="utf-8")


REFERENCE_CASES = (
    [("s4_user_exists", "precise"), ("s5_branching", "precise")]
    + [("update_post", p) for p in ("precise", "class", "purity")]
    + [(f"lookup{n}", "precise") for n in range(3, 9)]
    + [("misdeclared_writer", "precise")])


@pytest.mark.parametrize("goal,precision", REFERENCE_CASES,
                         ids=[f"{g}-{p}" for g, p in REFERENCE_CASES])
def test_the_pruned_bank_is_the_unpruned_one(monkeypatch, goal, precision):
    text = goal_text(goal)
    counts, ref_counts = assert_matches_reference(
        monkeypatch, lambda: session_of(text, precision=precision), levels=5)
    assert counts[0] < ref_counts[0]


def test_types_off_banks_are_unchanged(monkeypatch):
    # without types every term is a condition and no == is value equality
    text = goal_text("s5_branching")
    counts, ref_counts = assert_matches_reference(
        monkeypatch, lambda: session_of(text, mode="effects_only", max_size=3), levels=3)
    assert counts == ref_counts


def random_goal_session(seed):
    """A session over a random class tree with the core methods and one
    more value-equality method, `same`, on a random class. Its arguments
    are objects, numbers or strings, some nilable, and its starts are
    planted: one per spec, each with its own argument values."""
    rng = random.Random(seed)
    ct = random_hierarchy(rng)
    install_core_methods(ct)
    classes = [c for c in ct.classes() if c.startswith("C")]
    ct.add_method(MethodSig(ClassT(rng.choice(classes)), "same", (ClassT("Obj"),), BOOL_T,
                            native="core.eq"))
    params = []
    for _ in range(rng.randint(1, 3)):
        ty = ClassT(rng.choice(classes + ["Int", "Str"]))
        params.append(union_of(ty, NIL_T) if rng.random() < 0.4 else ty)

    def value(ty):
        members = getattr(ty, "members", (ty,))
        if NIL_T in members and rng.random() < 0.3:
            return NIL_V
        cls = next(m for m in members if m != NIL_T).name
        if cls == "Int":
            return IntV(rng.randint(0, 1))
        if cls == "Str":
            return StrV(rng.choice("ab"))
        below = [c for c in classes if subtype(ClassT(c), ClassT(cls), ct)]
        return ObjV(rng.choice(below), rng.randint(1, 2))

    world = World({})
    specs = tuple(Spec(f"s{i}", (), (), (NilLit(),)) for i in range(rng.randint(2, 4)))
    starts = [SpecStart(world.checkpoint(), {}, tuple(value(t) for t in params))
              for _ in specs]
    sigma = ConstantPool(((IntLit(0), INT_T), (StrLit("a"), STR_T), (NilLit(), NIL_T)))

    def make():
        s = MergeSession(goal_params=tuple(params), ct=ct, sigma=sigma, world=world,
                         cfg=SearchConfig(max_size=4), specs=specs)
        for spec, start in zip(specs, starts):
            s.starts[id(spec)] = (spec, start)
        return s
    return make


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**16))
def test_random_hierarchy_banks_are_the_unpruned_ones(seed):
    # hypothesis does not reset function-scoped fixtures between examples
    with pytest.MonkeyPatch.context() as m:
        assert_matches_reference(m, random_goal_session(seed), levels=4)


# arg0 is nil at the first start and "a" at the second
NILABLE = """
(constants ("a" Str))
(goal is_a
  (sig ((u Nil Str) -> Bool))
  (consts "a")
  (spec "nil" (setup (call! nil)) (post (assert (call x_r == false))))
  (spec "a" (setup (call! "a")) (post (assert (call x_r == true)))))
"""


def test_a_nil_operand_keeps_its_mirror_and_itself_evaluated(monkeypatch):
    """nil == "a" errs where "a" == nil is false, and nil == nil errs where
    the reflexive rule would answer true: with an operand nil at some
    start, neither rule may answer for the bank."""
    s = session_of(NILABLE, max_size=2)
    bank = ConditionBank(s)
    ran = []
    battery = merge._battery
    monkeypatch.setattr(merge, "_battery",
                        lambda session, term, *rest: ran.append(print_expr(term))
                        or battery(session, term, *rest))
    for cand in bank._pending:
        if len(bank.levels) > 2:
            break
        bank.admit(*cand)
    kept = {print_expr(t.expr): t.results for level in bank.levels for t in level}
    assert kept['(call "a" == arg0)'] == (FALSE_V, TRUE_V)
    assert kept['(call arg0 == "a")'] == (ERR, TRUE_V)
    # true at both starts is kept, so the rule without the guard would skip
    assert kept['(call "a" == "a")'] == (TRUE_V, TRUE_V)
    for term in ('(call "a" == arg0)', '(call arg0 == "a")', "(call arg0 == arg0)"):
        assert ran.count(term) == 1, term


def test_each_skip_saves_one_battery_and_changes_nothing_else(monkeypatch):
    # lookup3's argument and constants are strings at every start, so
    # both rules apply
    asked = {"mirror": 0, "reflexive": 0}

    def counting(name, rule):
        def ask(self, *args):
            known = rule(self, *args)
            asked[name] += known
            return known
        return ask

    def grown():
        bank = ConditionBank(session_of(lookup_goal_text(3), max_size=3))
        for cand in bank._pending:
            if len(bank.levels) > 3:
                break
            bank.admit(*cand)
        return bank

    with monkeypatch.context() as m:
        m.setattr(ConditionBank, "_mirror", counting("mirror", ConditionBank._mirror))
        m.setattr(ConditionBank, "_reflexive", counting("reflexive", ConditionBank._reflexive))
        bank = grown()
    unpruned(monkeypatch)
    reference = grown()
    assert asked["mirror"] > 0 and asked["reflexive"] > 0
    assert reference.evaluated - bank.evaluated == asked["mirror"] + asked["reflexive"]
    assert bank.levels == reference.levels


# ---------------------------------------------------------------------------
# Remembered spec outcomes
# ---------------------------------------------------------------------------

def _goal(name):
    return load_goal_file(str(ROOT / "goals" / f"{name}.goal"))


def test_a_body_runs_once_per_spec_and_session():
    gf, ct, world = _goal("s5_branching")
    s = MergeSession(goal_params=gf.goal.param_types, ct=ct, sigma=gf.goal.constants,
                     world=world, cfg=SearchConfig(), specs=gf.goal.specs)
    body = IntLit(1)
    first = s.run_body(body, s.specs[0])
    assert s.stats.evaluated == 1
    assert s.run_body(body, s.specs[0]) is first
    assert s.stats.evaluated == 1
    # an equal body that is another object, or another spec, runs
    s.run_body(IntLit(1), s.specs[0])
    s.run_body(body, s.specs[1])
    assert s.stats.evaluated == 3


def _runs(monkeypatch):
    """Count merge.run_spec calls, the session's spec runs, by phase: before
    merge_program returns and after (the final gate)."""
    runs = {"before": 0, "gate": 0}
    phase = ["before"]
    run_spec, merge_program = merge.run_spec, driver.merge_program

    def counted(*args, **kwargs):
        runs[phase[0]] += 1
        return run_spec(*args, **kwargs)

    def merging(*args):
        body = merge_program(*args)
        phase[0] = "gate"
        return body

    monkeypatch.setattr(merge, "run_spec", counted)
    monkeypatch.setattr(driver, "merge_program", merging)
    return runs


@pytest.mark.parametrize("goal,merged", [("s5_branching", True), ("s7_fold_branches", False),
                                         ("s1_lvar", False)])
def test_only_a_merged_body_reruns_at_the_final_gate(monkeypatch, goal, merged):
    gf, ct, world = _goal(goal)
    runs = _runs(monkeypatch)
    program, report = synthesize(gf.goal, ct, world, SearchConfig())
    assert program is not None
    assert (report.paths > 1) == merged
    assert runs["gate"] == (len(gf.goal.specs) if merged else 0)


def test_a_record_never_crosses_synthesis_calls(monkeypatch):
    gf, ct, world = _goal("s7_fold_branches")
    reports = []
    for _ in range(2):
        with monkeypatch.context() as m:
            runs = _runs(m)
            program, report = synthesize(gf.goal, ct, world, SearchConfig())
        reports.append((print_expr(program.body), report.candidates_evaluated,
                        runs["before"]))
    assert reports[0] == reports[1]
    # the reuse checks of the later specs run the first spec's solution
    assert reports[0][2] > 0


def test_the_record_holds_only_solutions_and_session_runs(monkeypatch):
    gf, ct, world = _goal("s3_method_chains")
    sessions = []
    real = driver.MergeSession

    def kept(*args, **kwargs):
        sessions.append(real(*args, **kwargs))
        return sessions[-1]

    monkeypatch.setattr(driver, "MergeSession", kept)
    program, report = synthesize(gf.goal, ct, world, SearchConfig())
    (s,) = sessions
    # one tuple, found by the first spec's search and reused by the others:
    # the record holds its runs, not the candidates the search evaluated
    assert report.tuple_count == 1 and report.candidates_evaluated > len(gf.goal.specs)
    assert [(e[0], e[1]) for e in s.outcomes.values()] == [
        (program.body, spec) for spec in gf.goal.specs]
    assert all(e[2].ok for e in s.outcomes.values())
