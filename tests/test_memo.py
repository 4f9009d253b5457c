"""The per-call memo (core.CallMemo) changes nothing but time.

A synthesis call keeps what only its class table, constants, parameter
types and mode decide: expansions with their dedup keys, wraps, the root
hole, fill entries, the call typing rule, method lookups and effect
accumulation. These tests check that a memo that never stores gives the
same searches, that the memoized typing rule agrees with a fresh one on
every node the acceptance cells type, and that nothing stays behind in the
class table after a call.
"""

import pytest

from effsynth import merge, search, typegen
from effsynth.core import (
    Call, CallMemo, ClassT, INT_T, IntLit, NIL_T, StrLit, STR_T, Var, union_of,
)
from effsynth.driver import synthesize
from effsynth.goalfile import build, load_goal_file, parse_goal_file, print_expr, print_program
from effsynth.runtime import relation_class
from effsynth.search import MODES, SearchConfig
from effsynth.typegen import TypeCheckError, node_type

from conftest import lookup_goal_text

BUNDLED = ("s1_lvar", "s2_false", "s3_method_chains", "s4_user_exists", "s5_branching",
           "s7_fold_branches", "update_post")


class NeverStores:
    """A mapping read with get and written by item assignment that forgets
    every write; any other use fails."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


def forgetful_memo(monkeypatch):
    def init(memo):
        for name in CallMemo.__slots__:
            setattr(memo, name, NeverStores())

    monkeypatch.setattr(CallMemo, "__init__", init)


def _load(goal):
    if goal.startswith("lookup"):
        gf = parse_goal_file(lookup_goal_text(int(goal[len("lookup"):])))
        return (gf, *build(gf))
    return load_goal_file(f"goals/{goal}.goal")


def _outcome(res):
    out = res.outcome
    fields = tuple(getattr(out, f) for f in type(out)._fields)
    return res.passed_count, type(out).__name__, fields


def _recorded_run(monkeypatch, goal, mode):
    """Every candidate evaluation of one synthesis call, in order, as
    (spec, printed candidate, outcome), with the report and the program."""
    gf, ct, world = _load(goal)
    seen = []

    def watched(body, arity, spec, *rest):
        res = run_spec(body, arity, spec, *rest)
        seen.append((spec.title, print_expr(body), _outcome(res)))
        return res

    run_spec = search.run_spec
    monkeypatch.setattr(search, "run_spec", watched)
    program, report = synthesize(gf.goal, ct, world,
                                 SearchConfig(mode=mode, candidate_budget=2000))
    monkeypatch.setattr(search, "run_spec", run_spec)
    report = report.to_dict()
    report.pop("wall_ms")
    for ps in report["per_spec"]:
        ps.pop("wall_ms")
    return seen, report, print_program(program) if program else None


MEMO_CASES = [(g, m) for g in BUNDLED for m in MODES] + [("lookup3", "full"),
                                                         ("lookup5", "full")]


@pytest.mark.parametrize("goal,mode", MEMO_CASES, ids=[f"{g}-{m}" for g, m in MEMO_CASES])
def test_a_forgetful_memo_gives_the_same_search(monkeypatch, goal, mode):
    kept = _recorded_run(monkeypatch, goal, mode)
    forgetful_memo(monkeypatch)
    forgot = _recorded_run(monkeypatch, goal, mode)
    assert kept[0], "no candidate was evaluated"
    assert kept[0] == forgot[0]
    assert kept[1:] == forgot[1:]


ACCEPTANCE = [
    ("s1_lvar", "full", "precise", 50_000), ("s2_false", "full", "precise", 50_000),
    ("s3_method_chains", "full", "precise", 50_000),
    ("s4_user_exists", "full", "precise", 50_000), ("s5_branching", "full", "precise", 50_000),
    ("s7_fold_branches", "full", "precise", 50_000), ("update_post", "full", "precise", 100_000),
    ("update_post", "types_only", "precise", 100_000),
    # types off: nothing strict is typed, so a short run is the whole story
    ("update_post", "effects_only", "precise", 2_000),
    ("update_post", "none", "precise", 2_000),
    ("update_post", "full", "class", 100_000), ("update_post", "full", "purity", 100_000),
]


def test_memoized_typing_agrees_with_a_fresh_rule(monkeypatch):
    # every strict (node, child types) the acceptance cells' searches and
    # condition banks type, typed again through one shared memo and through
    # a fresh one each time
    calls = errors = 0
    for goal, mode, precision, budget in ACCEPTANCE:
        gf, ct, world = _load(goal)
        typed = {}

        def recorded(env, ct_, e, kid_tys, strict, calls):
            if strict:
                key = (id(e), tuple(map(id, kid_tys)), tuple(env.items()))
                typed.setdefault(key, (env, ct_, e, tuple(kid_tys)))
            return node_type(env, ct_, e, kid_tys, strict, calls)

        monkeypatch.setattr(typegen, "node_type", recorded)
        monkeypatch.setattr(merge, "node_type", recorded)
        # without the bank's filter on == pairs, the call rule refuses them
        monkeypatch.setattr(merge, "comparable", lambda *args: True)
        synthesize(gf.goal, ct, world, SearchConfig(mode=mode, precision=precision,
                                                    candidate_budget=budget))
        monkeypatch.setattr(typegen, "node_type", node_type)
        monkeypatch.setattr(merge, "node_type", node_type)
        shared: dict = {}
        for env, ct_, e, kid_tys in typed.values():
            def rule(memo):
                try:
                    return node_type(env, ct_, e, kid_tys, True, memo), None, None
                except TypeCheckError as exc:
                    return None, exc.node, exc.reason
            fresh, memoized = rule({}), rule(shared)
            assert memoized == fresh, (goal, mode, precision, print_expr(e), kid_tys)
            # an error at the call itself is raised at this very node
            assert (memoized[1] is e) == (fresh[1] is e)
            errors += fresh[2] is not None
            calls += isinstance(e, Call)
    # not vacuous: calls were typed, and some were refused
    assert calls > 1000 and errors > 100, (calls, errors)


def test_memoized_typing_refuses_at_the_same_node(blog):
    # keys shared by different nodes, and argument types that decide: each
    # call typed through one memo raises where a fresh rule raises
    ct, _ = blog
    post, rel = ClassT("Post"), ClassT(relation_class("Post"))
    cases = [
        (Call(Var("a"), "title", ()), (NIL_T,)),  # no methods on Nil
        (Call(Var("b"), "title", ()), (NIL_T,)),
        (Call(Var("p"), "title=", (StrLit("x"),)), (post, STR_T)),
        (Call(Var("p"), "title=", (IntLit(1),)), (post, INT_T)),  # argument misfit
        (Call(Var("q"), "title=", (IntLit(2),)), (post, INT_T)),
        (Call(Var("r"), "title", ()), (union_of(post, rel),)),  # a member lacks it
        (Call(Var("s"), "title", ()), (union_of(post, rel),)),
        (Call(Var("p"), "title", (StrLit("x"),)), (post, STR_T)),  # arity
        (Call(Var("q"), "title", (StrLit("y"),)), (post, STR_T)),
    ]
    shared: dict = {}
    outcomes = []
    for e, kid_tys in cases:
        got = []
        for memo in ({}, shared):
            try:
                got.append((node_type({}, ct, e, kid_tys, True, memo), None, None))
            except TypeCheckError as exc:
                got.append((None, exc.node, exc.reason))
        fresh, memoized = got
        assert memoized == fresh, print_expr(e)
        assert (memoized[1] is e) == (fresh[1] is e), print_expr(e)
        outcomes.append("ok" if fresh[2] is None else "call" if fresh[1] is e else "member")
    assert outcomes == ["call", "call", "ok", "call", "call", "member", "member",
                        "member", "member"]


def _table_state(ct):
    return {k: v for k, v in vars(ct).items()
            if k not in ("_subtypes", "_sig_cache", "_impure_cache")}


@pytest.mark.parametrize("goal", ["s5_branching", "update_post"])
def test_a_call_leaves_nothing_behind(goal):
    gf, ct, world = load_goal_file(f"goals/{goal}.goal")
    before = {k: (type(v), dict(v) if isinstance(v, dict) else v)
              for k, v in _table_state(ct).items()}
    reports = []
    for _ in range(2):
        program, report = synthesize(gf.goal, ct, world, SearchConfig())
        report = report.to_dict()
        report.pop("wall_ms")
        for ps in report["per_spec"]:
            ps.pop("wall_ms")
        reports.append((print_program(program), report))
    assert reports[0] == reports[1]
    after = {k: (type(v), dict(v) if isinstance(v, dict) else v)
             for k, v in _table_state(ct).items()}
    assert after == before
