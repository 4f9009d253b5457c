import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from effsynth.core import (
    BOOL_T, Call, ClassLit, ClassOf, ClassT, ConstantPool, EffectHole,
    FalseLit, IntLit, Let, NilLit, PURE, RecordLit, Seq, StrLit, STR_T,
    TrueLit, TypedHole, Var, alpha_key, children, expr_size, free_vars, is_complete,
    leftmost_hole,
    rebuild, walk,
)
from effsynth import search
from effsynth.driver import synthesize
from effsynth.goalfile import build, load_goal_file, parse_goal_file, print_expr
from effsynth.interp import RuntimeErr, SetupStmt, Spec, run_spec
from effsynth.search import SearchConfig, SearchStats, dedup_key, normalize_for_key

from conftest import run_generate
from test_acceptance import CELLS as ACCEPTANCE_CELLS


def call(recv, m, *args):
    return Call(recv, m, tuple(args))


def eq(a, b):
    return call(a, "==", b)


def mkspec(setup, args, post, title="t"):
    return Spec(title, tuple(setup), tuple(args), tuple(post))


# `synth --budget 50` on this goal ran until killed before the budget
# bounded pops.
NO_COMPLETE_TERM = """
(schema Post (title Str))
(goal g (sig (-> Bool)) (consts)
  (spec "t" (setup (call!)) (post (assert (call x_r == true)))))
"""

BASE_CONSTS = ConstantPool((
    (TrueLit(), BOOL_T), (FalseLit(), BOOL_T), (StrLit(""), STR_T),
))


class TestConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SearchConfig(mode="fast")

    def test_rejects_unknown_precision(self):
        with pytest.raises(ValueError):
            SearchConfig(precision="fuzzy")

    def test_rejects_nonpositive_max_size(self):
        with pytest.raises(ValueError):
            SearchConfig(max_size=0)

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
    def test_rejects_nonpositive_or_nan_timeout(self, timeout):
        with pytest.raises(ValueError):
            SearchConfig(timeout_s=timeout)

    def test_wrap_disabled_only_for_none(self):
        assert SearchConfig(mode="none").wrap_enabled is False
        for mode in ("full", "types_only", "effects_only"):
            assert SearchConfig(mode=mode).wrap_enabled


class TestDedupKey:
    def test_alpha_renaming(self, blog):
        ct, _ = blog
        a = Let("t0", StrLit("x"), Var("t0"))
        b = Let("zz", StrLit("x"), Var("zz"))
        assert dedup_key(a, ct) == dedup_key(b, ct)

    def test_alpha_renaming_below_the_root(self, blog):
        ct, _ = blog
        a = call(Let("t0", StrLit("x"), Seq(Var("t0"), Var("t0"))), "title")
        b = call(Let("zz", StrLit("x"), Seq(Var("zz"), Var("zz"))), "title")
        assert dedup_key(a, ct) == dedup_key(b, ct)
        c = call(Let("t0", StrLit("y"), Seq(Var("t0"), Var("t0"))), "title")
        assert dedup_key(a, ct) != dedup_key(c, ct)

    def test_lets_in_the_body_of_a_plain_binding_stay_apart(self, blog):
        # the outer binding's key comes from the memo after its first use;
        # the body's lets are numbered after the outer one's, never as it
        ct, _ = blog
        write = call(ClassLit("Post"), "create", RecordLit(()))
        memo: dict = {}
        keys = set()
        for _ in range(2):
            for inner in ("x", "y"):
                e = Let("x", write, Let("y", write, Var(inner)))
                key = dedup_key(e, ct, memo)
                assert key == alpha_key(normalize_for_key(e, ct))
                keys.add(key)
        assert len(keys) == 2

    def test_sequenced_nil_erased(self, blog):
        ct, _ = blog
        assert dedup_key(Seq(NilLit(), Var("x")), ct) == dedup_key(Var("x"), ct)

    def test_trivial_let_erased(self, blog):
        ct, _ = blog
        e = Let("t", call(ClassLit("Post"), "create", RecordLit(())), Var("t"))
        assert dedup_key(e, ct) == dedup_key(call(ClassLit("Post"), "create", RecordLit(())), ct)

    def test_unused_pure_binding_erased(self, blog):
        ct, _ = blog
        pure = call(call(ClassLit("Post"), "where", RecordLit(())), "first")
        e = Let("t", pure, StrLit("done"))
        assert dedup_key(e, ct) == dedup_key(StrLit("done"), ct)

    def test_unused_writing_binding_kept(self, blog):
        ct, _ = blog
        writing = call(ClassLit("Post"), "create", RecordLit(()))
        e = Let("t", writing, StrLit("done"))
        assert dedup_key(e, ct) != dedup_key(StrLit("done"), ct)

    def test_plain_term_is_its_own_key(self, blog):
        ct, _ = blog
        e = call(call(ClassLit("Post"), "where", RecordLit(())), "first")
        assert dedup_key(e, ct) is e

    def test_nested_wrap_residue_collapses(self, blog):
        ct, _ = blog
        base = call(call(ClassLit("Post"), "where", RecordLit(())), "first")
        once = Let("t0", base, Seq(NilLit(), Var("t0")))
        twice = Let("t1", once, Seq(NilLit(), Var("t1")))
        assert dedup_key(once, ct) == dedup_key(base, ct)
        assert dedup_key(twice, ct) == dedup_key(base, ct)


_KEY_LEAVES = st.sampled_from([
    NilLit(), TrueLit(), IntLit(0), IntLit(1), StrLit(""), StrLit("a"),
    Var("x"), Var("t0"), Var("t1"), TypedHole(STR_T), EffectHole(PURE),
    ClassLit("Post"),
])


def _key_terms(depth=3):
    if depth == 0:
        return _KEY_LEAVES
    sub = _key_terms(depth - 1)
    return st.one_of(
        _KEY_LEAVES,
        st.builds(Seq, sub, sub),
        st.builds(Let, st.sampled_from(["t0", "t1", "x"]), sub, sub),
        st.builds(lambda r, m, a: Call(r, m, a), sub,
                  st.sampled_from(["first", "title", "create"]),
                  st.lists(sub, max_size=1).map(tuple)),
        st.builds(lambda v: RecordLit((("slug", v),)), sub),
    )


def _variant(draw, a):
    """A term likely to share a's key: a renamed, wrapped in erasable
    shapes, or a itself; else a fresh term."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return a
    if kind == 1:
        return Seq(NilLit(), a)
    if kind == 2:
        return Let("t9", a, Var("t9"))
    if kind == 3:
        return Let("t9", draw(_KEY_LEAVES), a)
    if kind == 4:
        return Let("t9", a, Seq(NilLit(), Var("t9")))
    return draw(_key_terms())


class TestDedupKeyProperty:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_same_equivalence_as_normalize_then_alpha_key(self, blog, data):
        # the old composition is the oracle
        ct, _ = blog
        a = data.draw(_key_terms())
        b = _variant(data.draw, a)

        def old(e):
            return alpha_key(normalize_for_key(e, ct))

        assert (dedup_key(a, ct) == dedup_key(b, ct)) == (old(a) == old(b))


def _reference_normal(e, ct):
    """normalize_for_key rule by rule: children first, then the three
    erasures, with free variables and write effects found by full walks."""
    kids = children(e)
    if kids:
        new = [_reference_normal(c, ct) for c in kids]
        if new != list(kids):
            e = rebuild(e, new)
    if isinstance(e, Seq) and isinstance(e.first, NilLit):
        return e.second
    if isinstance(e, Let):
        if isinstance(e.body, Var) and e.body.name == e.var:
            return e.bound
        impure = ct.impure_method_names()
        if e.var not in free_vars(e.body) and not any(
                isinstance(n, Call) and n.method in impure for n in walk(e.bound)):
            return e.body
    return e


_SHARED_NORMAL: list = []  # one memo across examples, as a search shares one


class TestNormalForm:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_the_rule_by_rule_reference(self, blog, data):
        ct, _ = blog
        if not _SHARED_NORMAL:
            _SHARED_NORMAL.append({})
        a = data.draw(_key_terms())
        b = _variant(data.draw, a)
        for e in (a, b, Let("t9", a, Seq(b, a))):
            want = _reference_normal(e, ct)
            assert normalize_for_key(e, ct) == want
            assert normalize_for_key(e, ct, _SHARED_NORMAL[0]) == want
            # the key is the normal form's alpha key, also where the
            # binding's part comes from the memo
            key = dedup_key(e, ct, _SHARED_NORMAL[0])
            assert key == (want if search._plain(want) else alpha_key(want))

        def old(e):
            return alpha_key(_reference_normal(e, ct))

        assert (dedup_key(a, ct, _SHARED_NORMAL[0]) == dedup_key(b, ct)) == (old(a) == old(b))


class TestGenerate:
    def test_identity_goal(self, blog):
        ct, world = blog
        spec = mkspec([], [StrLit("v")], [eq(Var("x_r"), StrLit("v"))])
        expr, _ = run_generate((STR_T,), STR_T, ct, BASE_CONSTS, spec, world, SearchConfig())
        assert expr == Var("arg0")

    def test_constant_goal(self, blog):
        ct, world = blog
        spec = mkspec([], [], [eq(Var("x_r"), FalseLit())])
        expr, _ = run_generate((), BOOL_T, ct, BASE_CONSTS, spec, world, SearchConfig())
        assert expr == FalseLit()

    def test_effectful_goal_builds_let_seq_shape(self, blog):
        # the single-spec analogue of the retitling flow: the failing title
        # assert pulls in the title writer via its effect hole
        ct, world = blog
        sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")),))
        setup = [SetupStmt(call(ClassLit("Post"), "create",
                                RecordLit((("slug", StrLit("zzz")), ("title", StrLit("old"))))), "d"),
                 SetupStmt(call(ClassLit("Post"), "create",
                                RecordLit((("slug", StrLit("s")), ("title", StrLit("old"))))), "p")]
        post = [eq(call(Var("x_r"), "id"), call(Var("p"), "id")),
                eq(call(Var("x_r"), "title"), StrLit("new"))]
        spec = mkspec(setup, [StrLit("s"), StrLit("new")], post)
        expr, _ = run_generate((STR_T, STR_T), ClassT("Post"), ct, sigma, spec, world,
                               SearchConfig())
        assert expr is not None
        methods = [n.method for n in walk(expr) if isinstance(n, Call)]
        assert "title=" in methods
        assert run_spec(expr, 2, spec, world, ct).ok

    def test_no_solution_carries_stats(self, blog):
        ct, world = blog
        spec = mkspec([], [], [FalseLit()])
        cfg = SearchConfig(max_size=2, candidate_budget=50)
        expr, stats = run_generate((), BOOL_T, ct, BASE_CONSTS, spec, world, cfg)
        assert expr is None
        assert stats.evaluated <= 50
        assert stats.expanded > 0

    def test_determinism(self, blog):
        ct, world = blog
        spec = mkspec([], [StrLit("v")], [eq(Var("x_r"), StrLit("v"))])
        runs = []
        for _ in range(2):
            expr, stats = run_generate((STR_T,), STR_T, ct, BASE_CONSTS, spec, world,
                                       SearchConfig())
            runs.append((expr, stats.evaluated, stats.expanded, stats.pops))
        assert runs[0] == runs[1]

    def test_budget_monotonicity(self, blog):
        ct, world = blog
        spec = mkspec([], [StrLit("v")], [eq(Var("x_r"), StrLit("v"))])
        small, small_stats = run_generate((STR_T,), STR_T, ct, BASE_CONSTS, spec, world,
                                          SearchConfig(candidate_budget=10))
        assert small is not None
        for budget in (50, 500):
            again, stats = run_generate((STR_T,), STR_T, ct, BASE_CONSTS, spec, world,
                                        SearchConfig(candidate_budget=budget))
            assert again == small
            assert stats.evaluated == small_stats.evaluated

    def test_budget_counts_from_the_count_at_entry(self, blog):
        # a session's stats arrive with earlier searches' evaluations in
        # them; the budget is this search's own
        ct, world = blog
        spec = mkspec([], [StrLit("v")], [eq(Var("x_r"), StrLit("v"))])
        expr, stats = run_generate((STR_T,), STR_T, ct, BASE_CONSTS, spec, world,
                                   SearchConfig(candidate_budget=5),
                                   SearchStats(evaluated=1000))
        assert expr == Var("arg0")
        assert 1000 < stats.evaluated <= 1005

    def test_budget_bounds_pops_without_evaluations(self):
        # no constant leads to Post, so no Bool term is ever complete and
        # nothing is evaluated; the budget still ends the search, and the
        # timeout only stops a search the budget failed to bound
        gf = parse_goal_file(NO_COMPLETE_TERM)
        ct, world = build(gf)
        spec = gf.goal.specs[0]
        cfg = SearchConfig(candidate_budget=50, timeout_s=30)
        expr, stats = run_generate((), BOOL_T, ct, gf.goal.constants, spec, world, cfg)
        assert expr is None
        assert stats.evaluated == 0
        assert 0 < stats.pops <= 50

    def test_budget_counts_pops_from_the_count_at_entry(self):
        gf = parse_goal_file(NO_COMPLETE_TERM)
        ct, world = build(gf)
        _, stats = run_generate((), BOOL_T, ct, gf.goal.constants, gf.goal.specs[0], world,
                                SearchConfig(candidate_budget=50, timeout_s=30),
                                SearchStats(pops=1000))
        assert stats.pops == 1050

    def test_returned_candidate_passes_spec(self, blog):
        ct, world = blog
        spec = mkspec([], [StrLit("a")], [eq(Var("x_r"), StrLit("a"))])
        expr, _ = run_generate((STR_T,), STR_T, ct, BASE_CONSTS, spec, world, SearchConfig())
        result = run_spec(expr, 1, spec, world, ct)
        assert result.ok and result.passed_count == len(spec.post)

    def test_size_bound_prunes(self, blog):
        ct, world = blog
        sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")),))
        setup = [SetupStmt(call(ClassLit("Post"), "create", RecordLit(())), "p")]
        spec = mkspec(setup, [], [eq(call(Var("x_r"), "id"), call(Var("p"), "id"))])
        cfg = SearchConfig(max_size=1, candidate_budget=2000)
        expr, _ = run_generate((), ClassT("Post"), ct, sigma, spec, world, cfg)
        # the solution needs where({}).first of size 2, beyond the bound
        assert expr is None

    def test_timeout_stops_search(self, blog):
        ct, world = blog
        spec = mkspec([], [], [FalseLit()])
        cfg = SearchConfig(candidate_budget=10_000_000, timeout_s=0.2)
        expr, _ = run_generate((), BOOL_T, ct, BASE_CONSTS, spec, world, cfg)
        assert expr is None

    def test_mode_none_cannot_build_sequenced_writes(self, blog):
        # without effect holes the let/seq shape is out of the grammar
        ct, world = blog
        sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")),))
        setup = [SetupStmt(call(ClassLit("Post"), "create",
                                RecordLit((("slug", StrLit("s")),))), "p")]
        post = [eq(call(Var("x_r"), "id"), call(Var("p"), "id")),
                eq(call(Var("x_r"), "title"), StrLit("new"))]
        spec = mkspec(setup, [StrLit("new")], post)
        cfg = SearchConfig(mode="none", max_size=6, candidate_budget=3000)
        expr, _ = run_generate((STR_T,), ClassT("Post"), ct, sigma, spec, world, cfg)
        assert expr is None

    def test_priority_prefers_more_passed_asserts(self, blog):
        # instrumented check: the solution descends from the wrapped
        # candidate that already passed the id assert, found well before the
        # budget that naive exploration would need
        ct, world = blog
        sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")),))
        setup = [SetupStmt(call(ClassLit("Post"), "create",
                                RecordLit((("slug", StrLit("zzz")),))), "d"),
                 SetupStmt(call(ClassLit("Post"), "create",
                                RecordLit((("slug", StrLit("s")), ("title", StrLit("old"))))), "p")]
        post = [eq(call(Var("x_r"), "id"), call(Var("p"), "id")),
                eq(call(Var("x_r"), "title"), StrLit("new"))]
        spec = mkspec(setup, [StrLit("s"), StrLit("new")], post)
        expr, stats = run_generate((STR_T, STR_T), ClassT("Post"), ct, sigma, spec, world,
                                   SearchConfig())
        assert isinstance(expr, Let)
        assert stats.evaluated < 500


class TestWorklistOrder:
    def test_pops_never_shrink_when_nothing_passes(self, blog, monkeypatch):
        # with no assertion ever passing, best-first is smallest-first: the
        # candidates popped (one leftmost_hole call each) never shrink
        ct, world = blog
        sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")), (StrLit(""), STR_T)))
        spec = mkspec([], [StrLit("v")], [FalseLit()])
        sizes = []

        def watched(cand):
            sizes.append(expr_size(cand))
            return leftmost_hole(cand)

        monkeypatch.setattr(search, "leftmost_hole", watched)
        expr, stats = run_generate((STR_T,), ClassT("Post"), ct, sigma, spec, world,
                                   SearchConfig(mode="none", candidate_budget=300))
        assert expr is None
        assert len(sizes) == stats.pops > 1
        assert sizes == sorted(sizes) and sizes[-1] > sizes[0]


class TestDispatchSoundness:
    def test_well_typed_candidates_never_miss_methods(self, blog, monkeypatch):
        # runtime smoke property: every complete candidate the type-guided
        # search evaluates either runs, fails an assert, or trips on nil --
        # never on a missing method (nil receivers come from first-on-empty)
        ct, world = blog

        sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")),))
        setup = [SetupStmt(call(ClassLit("Post"), "create",
                                RecordLit((("slug", StrLit("s")),))), "p")]
        spec = mkspec(setup, [StrLit("s")],
                      [eq(call(Var("x_r"), "id"), call(Var("p"), "id")),
                       eq(call(Var("x_r"), "title"), StrLit("z"))])
        kinds = []

        def watched(*args):
            res = run_spec(*args)
            if isinstance(res.outcome, RuntimeErr):
                kinds.append(res.outcome.kind)
            return res

        monkeypatch.setattr(search, "run_spec", watched)
        # the budget bounds pops as well as evaluations: 2,500 pops make
        # about 400 evaluations here
        run_generate((STR_T,), ClassT("Post"), ct, sigma, spec, world,
                     SearchConfig(max_size=5, candidate_budget=2500))
        assert kinds, "expected some runtime failures among candidates"
        assert "method-missing" not in kinds
        assert set(kinds) <= {"nil-method-missing"}


class TestDedupSoundness:
    # the acceptance cells whose searches end within seconds: every one but
    # the two 100,000-candidate ablations without type guidance
    FAST = [c for c in ACCEPTANCE_CELLS if c[1] not in ("effects_only", "none")]

    @pytest.mark.parametrize("goal,mode,precision,budget", FAST,
                             ids=["-".join(c[:3]) for c in FAST])
    def test_equal_keys_mean_equal_outcomes(self, monkeypatch, goal, mode, precision, budget):
        # every complete candidate keyed in the call behaves as its normal
        # form, and the terms of one key give one outcome, on every spec of
        # the goal. A key drops a dead let only if its binding cannot write,
        # and that binding is a candidate that failed an assertion on the
        # spec of the search that expands the let, so it ran there without
        # a runtime error.
        gf, ct, world = load_goal_file(f"goals/{goal}.goal")
        by_key: dict = {}

        def recorded(e, ct_, *rest):
            key = dedup_key(e, ct_, *rest)
            if is_complete(e):
                by_key.setdefault(key, {})[e] = None
            return key

        monkeypatch.setattr(search, "dedup_key", recorded)
        synthesize(gf.goal, ct, world, SearchConfig(mode=mode, precision=precision,
                                                    candidate_budget=budget))
        monkeypatch.setattr(search, "dedup_key", dedup_key)
        erased = 0
        for terms in by_key.values():
            for t in terms:
                normal = normalize_for_key(t, ct)
                erased += normal is not t
                for spec in gf.goal.specs:
                    assert (run_spec(t, gf.goal.arity, spec, world, ct)
                            == run_spec(normal, gf.goal.arity, spec, world, ct)), print_expr(t)
        groups = [list(terms) for terms in by_key.values() if len(terms) > 1]
        for terms in groups:
            for spec in gf.goal.specs:
                outcomes = {run_spec(t, gf.goal.arity, spec, world, ct) for t in terms}
                assert len(outcomes) == 1, (spec.title, [print_expr(t) for t in terms])
        if goal == "update_post":
            assert groups and erased  # not vacuous: keys erased and merged terms
