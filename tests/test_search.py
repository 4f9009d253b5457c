import pytest

from effsynth.core import (
    BOOL_T, Call, ClassLit, ClassOf, ClassT, ConstantPool, FalseLit, Let,
    NilLit, RecordLit, Seq, StrLit, STR_T, TrueLit, Var, expr_size, walk,
)
from effsynth.interp import SetupStmt, Spec, run_spec
from effsynth.search import (
    SearchConfig, SearchStats, dedup_key, generate, normalize_for_key,
)


def call(recv, m, *args):
    return Call(recv, m, tuple(args))


def eq(a, b):
    return call(a, "==", b)


def mkspec(setup, args, post, title="t"):
    return Spec(title, tuple(setup), tuple(args), tuple(post))


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

    def test_nested_wrap_residue_collapses(self, blog):
        ct, _ = blog
        base = call(call(ClassLit("Post"), "where", RecordLit(())), "first")
        once = Let("t0", base, Seq(NilLit(), Var("t0")))
        twice = Let("t1", once, Seq(NilLit(), Var("t1")))
        assert dedup_key(once, ct) == dedup_key(base, ct)
        assert dedup_key(twice, ct) == dedup_key(base, ct)


class TestGenerate:
    def test_identity_goal(self, blog):
        ct, world = blog
        spec = mkspec([], [StrLit("v")], [eq(Var("x_r"), StrLit("v"))])
        res = generate((STR_T,), STR_T, ct, BASE_CONSTS, spec, world, SearchConfig())
        assert res.expr == Var("arg0")

    def test_constant_goal(self, blog):
        ct, world = blog
        spec = mkspec([], [], [eq(Var("x_r"), FalseLit())])
        res = generate((), BOOL_T, ct, BASE_CONSTS, spec, world, SearchConfig())
        assert res.expr == FalseLit()

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
        res = generate((STR_T, STR_T), ClassT("Post"), ct, sigma, spec, world,
                       SearchConfig())
        assert res.expr is not None
        methods = [n.method for n in walk(res.expr) if isinstance(n, Call)]
        assert "title=" in methods
        assert run_spec(res.expr, 2, spec, world, ct).ok

    def test_no_solution_carries_stats(self, blog):
        ct, world = blog
        spec = mkspec([], [], [FalseLit()])
        cfg = SearchConfig(max_size=2, candidate_budget=50)
        res = generate((), BOOL_T, ct, BASE_CONSTS, spec, world, cfg)
        assert res.expr is None
        assert res.stats.evaluated <= 50
        assert res.stats.expanded > 0

    def test_determinism(self, blog):
        ct, world = blog
        spec = mkspec([], [StrLit("v")], [eq(Var("x_r"), StrLit("v"))])
        runs = []
        for _ in range(2):
            stats = SearchStats()
            res = generate((STR_T,), STR_T, ct, BASE_CONSTS, spec, world,
                           SearchConfig(), stats)
            runs.append((res.expr, stats.evaluated, stats.expanded, stats.pops))
        assert runs[0] == runs[1]

    def test_budget_monotonicity(self, blog):
        ct, world = blog
        spec = mkspec([], [StrLit("v")], [eq(Var("x_r"), StrLit("v"))])
        small = generate((STR_T,), STR_T, ct, BASE_CONSTS, spec, world,
                         SearchConfig(candidate_budget=10))
        assert small.expr is not None
        for budget in (50, 500):
            again = generate((STR_T,), STR_T, ct, BASE_CONSTS, spec, world,
                             SearchConfig(candidate_budget=budget))
            assert again.expr == small.expr
            assert again.stats.evaluated == small.stats.evaluated

    def test_returned_candidate_passes_spec(self, blog):
        ct, world = blog
        spec = mkspec([], [StrLit("a")], [eq(Var("x_r"), StrLit("a"))])
        res = generate((STR_T,), STR_T, ct, BASE_CONSTS, spec, world, SearchConfig())
        result = run_spec(res.expr, 1, spec, world, ct)
        assert result.ok and result.passed_count == len(spec.post)

    def test_size_bound_prunes(self, blog):
        ct, world = blog
        sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")),))
        setup = [SetupStmt(call(ClassLit("Post"), "create", RecordLit(())), "p")]
        spec = mkspec(setup, [], [eq(call(Var("x_r"), "id"), call(Var("p"), "id"))])
        cfg = SearchConfig(max_size=1, candidate_budget=2000)
        res = generate((), ClassT("Post"), ct, sigma, spec, world, cfg)
        # the solution needs where({}).first of size 2, beyond the bound
        assert res.expr is None

    def test_timeout_stops_search(self, blog):
        ct, world = blog
        spec = mkspec([], [], [FalseLit()])
        cfg = SearchConfig(candidate_budget=10_000_000, timeout_s=0.2)
        res = generate((), BOOL_T, ct, BASE_CONSTS, spec, world, cfg)
        assert res.expr is None

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
        res = generate((STR_T,), ClassT("Post"), ct, sigma, spec, world, cfg)
        assert res.expr is None

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
        res = generate((STR_T, STR_T), ClassT("Post"), ct, sigma, spec, world,
                       SearchConfig())
        assert isinstance(res.expr, Let)
        assert res.stats.evaluated < 500


class TestWorkItemOrdering:
    def test_key_prefers_passed_then_size_then_seq(self):
        from effsynth.search import WorkItem

        a = WorkItem(passed=2, cand=Var("a"), seq=9, size=5)
        b = WorkItem(passed=1, cand=Var("b"), seq=1, size=0)
        c = WorkItem(passed=1, cand=Var("c"), seq=2, size=0)
        d = WorkItem(passed=1, cand=Var("d"), seq=0, size=3)
        assert sorted([d, c, b, a], key=lambda w: w.key()) == [a, b, c, d]


class TestDispatchSoundness:
    def test_well_typed_candidates_never_miss_methods(self, blog):
        # runtime smoke property: every complete candidate the type-guided
        # search evaluates either runs, fails an assert, or trips on nil --
        # never on a missing method (nil receivers come from first-on-empty)
        ct, world = blog
        from effsynth.core import ClassOf, ClassT
        from effsynth.interp import RuntimeErr

        sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")),))
        setup = [SetupStmt(call(ClassLit("Post"), "create",
                                RecordLit((("slug", StrLit("s")),))), "p")]
        spec = mkspec(setup, [StrLit("s")],
                      [eq(call(Var("x_r"), "id"), call(Var("p"), "id")),
                       eq(call(Var("x_r"), "title"), StrLit("z"))])
        kinds = []

        def watched(body):
            res = run_spec(body, 1, spec, world, ct)
            if isinstance(res.outcome, RuntimeErr):
                kinds.append(res.outcome.kind)
            return res

        from effsynth.search import search
        from effsynth.core import BOOL_T

        search({"arg0": STR_T}, ClassT("Post"), ct, sigma,
               SearchConfig(max_size=5, candidate_budget=400), watched)
        assert kinds, "expected some runtime failures among candidates"
        assert "method-missing" not in kinds
        assert set(kinds) <= {"nil-method-missing"}
