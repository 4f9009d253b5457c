import pytest

from effsynth.core import (
    Call, ClassLit, Effect, FalseLit, If, IntLit, Let, NilLit, PURE_PAIR,
    RecordLit, Region, Seq, StrLit, TrueLit, TypedHole, Var,
)
from pathlib import Path

from effsynth.core import STR_T
from effsynth.goalfile import load_goal_file
from effsynth.interp import (
    AssertErr, Ok, RuntimeErr, Spec, SetupStmt, SpecResult, eval_expr,
    run_spec, spec_start,
)
from effsynth.runtime import IntV, RuntimeError_, StrV


def call(recv, m, *args):
    return Call(recv, m, tuple(args))


def eq(a, b):
    return call(a, "==", b)


def mkspec(setup, args, post, title="t"):
    return Spec(title, tuple(setup), tuple(args), tuple(post))


class TestEvalExpr:
    def test_if_false_branch(self, blog):
        ct, world = blog
        e = If(FalseLit(), IntLit(1), IntLit(2))
        assert eval_expr({}, world, ct, e) == IntV(2)

    def test_call_on_nil_is_runtime_error(self, blog):
        ct, world = blog
        with pytest.raises(RuntimeError_) as exc:
            eval_expr({}, world, ct, call(NilLit(), "m"))
        assert exc.value.kind == "nil-method-missing"

    def test_let_and_seq(self, blog):
        ct, world = blog
        e = Let("t", IntLit(1), Seq(Var("t"), Var("t")))
        assert eval_expr({}, world, ct, e) == IntV(1)

    def test_unbound_var(self, blog):
        ct, world = blog
        with pytest.raises(RuntimeError_):
            eval_expr({}, world, ct, Var("ghost"))

    def test_create_and_read(self, blog):
        ct, world = blog
        e = Let("p", call(ClassLit("Post"), "create",
                          RecordLit((("title", StrLit("hi")),))),
                call(Var("p"), "title"))
        assert eval_expr({}, world, ct, e) == StrV("hi")

    def test_truthiness_partition(self, blog):
        ct, world = blog
        for lit, expect in [(IntLit(0), IntV(1)), (StrLit(""), IntV(1)),
                            (TrueLit(), IntV(1)), (FalseLit(), IntV(2)),
                            (NilLit(), IntV(2))]:
            e = If(lit, IntLit(1), IntLit(2))
            assert eval_expr({}, world, ct, e) == expect, lit


class TestRunSpec:
    def test_identity_goal(self, blog):
        ct, world = blog
        spec = mkspec([], [StrLit("v")], [eq(Var("x_r"), StrLit("v"))])
        res = run_spec(Var("arg0"), 1, spec, world, ct)
        assert res == SpecResult(1, Ok(StrV("v")))

    def test_counting_stops_at_first_failure(self, blog):
        ct, world = blog
        spec = mkspec([], [], [TrueLit(), FalseLit(), TrueLit()])
        res = run_spec(NilLit(), 0, spec, world, ct)
        assert res.passed_count == 1
        assert isinstance(res.outcome, AssertErr)

    def test_failing_read_is_reported(self, blog):
        ct, world = blog
        setup = [SetupStmt(call(ClassLit("Post"), "create",
                                RecordLit((("title", StrLit("old")),))), "p")]
        spec = mkspec(setup, [], [eq(call(Var("p"), "title"), StrLit("new"))])
        res = run_spec(NilLit(), 0, spec, world, ct)
        assert res.passed_count == 0
        assert res.outcome.eff.read == Effect((Region("Post", "title"),))
        assert res.outcome.eff.write.is_pure()

    def test_error_excludes_effects_of_passed_asserts(self, blog):
        # hand-evaluated oracle: assert 1 reads Post.title and passes, the
        # accumulator resets, assert 2 reads Post.slug and fails; the error
        # pair must be exactly the second assert's reads
        ct, world = blog
        setup = [SetupStmt(call(ClassLit("Post"), "create",
                                RecordLit((("title", StrLit("a")),
                                           ("slug", StrLit("b"))))), "p")]
        post = [eq(call(Var("p"), "title"), StrLit("a")),
                eq(call(Var("p"), "slug"), StrLit("wrong"))]
        res = run_spec(NilLit(), 0, mkspec(setup, [], post), world, ct)
        assert res.passed_count == 1
        assert res.outcome.eff.read == Effect((Region("Post", "slug"),))

    def test_setup_and_body_effects_invisible(self, blog):
        ct, world = blog
        body = call(ClassLit("Post"), "create", RecordLit(()))
        spec = mkspec([], [], [FalseLit()])
        res = run_spec(body, 0, spec, world, ct)
        assert res.outcome == AssertErr(PURE_PAIR)

    def test_runtime_error_in_setup(self, blog):
        ct, world = blog
        spec = mkspec([SetupStmt(call(NilLit(), "boom"))], [], [TrueLit()])
        res = run_spec(NilLit(), 0, spec, world, ct)
        assert res == SpecResult(0, RuntimeErr("nil-method-missing", "boom"))

    def test_runtime_error_mid_post_keeps_count(self, blog):
        ct, world = blog
        spec = mkspec([], [], [TrueLit(), call(NilLit(), "boom")])
        res = run_spec(NilLit(), 0, spec, world, ct)
        assert res.passed_count == 1
        assert isinstance(res.outcome, RuntimeErr)

    def test_world_reset_between_runs(self, blog):
        ct, world = blog
        body = call(ClassLit("Post"), "create", RecordLit(()))
        spec = mkspec([], [], [eq(call(Var("x_r"), "id"), IntLit(1))])
        assert run_spec(body, 0, spec, world, ct).ok
        assert run_spec(body, 0, spec, world, ct).ok  # ids restart at 1

    def test_prefix_property(self, blog):
        # if a body passes asserts 1..k, any prefix of the post passes whole
        ct, world = blog
        setup = [SetupStmt(call(ClassLit("Post"), "create",
                                RecordLit((("title", StrLit("t")),))), "p")]
        post = [TrueLit(),
                eq(call(Var("p"), "title"), StrLit("t")),
                IntLit(0),
                eq(Var("x_r"), StrLit("out"))]
        full = run_spec(StrLit("out"), 0, mkspec(setup, [], post), world, ct)
        assert full.ok and full.passed_count == 4
        for j in range(1, 5):
            res = run_spec(StrLit("out"), 0, mkspec(setup, [], post[:j]), world, ct)
            assert res.ok and res.passed_count == j

    def test_arity_mismatch(self, blog):
        ct, world = blog
        spec = mkspec([], [StrLit("a")], [TrueLit()])
        res = run_spec(NilLit(), 2, spec, world, ct)
        assert isinstance(res.outcome, RuntimeErr)

    def test_spec_requires_asserts(self):
        with pytest.raises(Exception):
            Spec("t", (), (), ())

    def test_ok_carries_result_value(self, blog):
        ct, world = blog
        spec = mkspec([], [], [TrueLit()])
        res = run_spec(IntLit(7), 0, spec, world, ct)
        assert res.outcome == Ok(IntV(7))


class TestOverviewAnalogue:
    def test_query_chain_fails_third_assert_with_title_read(self):
        # the where/first candidate passes the id and author asserts of the
        # retitle spec, then fails on the unchanged title; the error carries
        # the title read that later guides the effect-hole insertion
        from effsynth.core import ClassLit, RecordLit, Region, Effect
        from effsynth.goalfile import load_goal_file

        gf, ct, world = load_goal_file("goals/update_post.goal")
        spec = gf.goal.specs[0]
        c9 = call(call(ClassLit("Post"), "where",
                       RecordLit((("slug", Var("arg1")),))), "first")
        res = run_spec(c9, gf.goal.arity, spec, world, ct)
        assert res.passed_count == 2
        assert isinstance(res.outcome, AssertErr)
        assert Region("Post", "title") in res.outcome.eff.read.atoms

    def test_same_candidate_satisfies_the_second_spec(self):
        from effsynth.core import ClassLit, RecordLit
        from effsynth.goalfile import load_goal_file

        gf, ct, world = load_goal_file("goals/update_post.goal")
        c9 = call(call(ClassLit("Post"), "where",
                       RecordLit((("slug", Var("arg1")),))), "first")
        res = run_spec(c9, gf.goal.arity, gf.goal.specs[1], world, ct)
        assert res.ok and res.passed_count == 4


class TestReportedEffectsAreSelfFree:
    def test_assert_err_pair_is_resolved(self, blog):
        # signatures carry self atoms; the reported pair must not
        ct, world = blog
        spec = mkspec([], [], [call(ClassLit("Post"), "exists?",
                                    RecordLit((("slug", StrLit("zz")),)))])
        res = run_spec(NilLit(), 0, spec, world, ct)
        assert isinstance(res.outcome, AssertErr)
        assert not res.outcome.eff.read.has_self()
        assert not res.outcome.eff.write.has_self()


def probe_bodies(gf):
    """Bodies that raise, return an argument, write rows (an existing row's
    column, a new row) or read what those writes would leave behind."""
    bodies = [call(NilLit(), "boom")]
    bodies += [Var(f"arg{i}") for i in range(gf.goal.arity)]
    for schema in gf.schemas:
        col = next((c for c, ty in schema.columns if ty == STR_T), None)
        if col is None:
            continue
        cls = ClassLit(schema.cls)
        first = call(call(cls, "where", RecordLit(())), "first")
        mark = RecordLit(((col, StrLit("overwritten")),))
        writes = [call(first, f"{col}=", StrLit("overwritten")), call(cls, "create", mark)]
        reads = [call(cls, "exists?", mark), first, call(first, "id")]
        bodies += writes + reads
    return bodies


class TestSpecStart:
    @pytest.mark.parametrize("path", sorted(Path("goals").glob("*.goal")),
                             ids=lambda p: p.stem)
    def test_shared_start_matches_fresh_replay(self, path):
        # every body, writing ones before reading ones, run twice on one
        # start, must give the result and leave the world state that a
        # replay from an empty world gives
        gf, ct, world = load_goal_file(str(path))
        bodies = probe_bodies(gf)

        def outcomes(start=None):
            return [(run_spec(b, gf.goal.arity, spec, world, ct, start), world.checkpoint())
                    for b in bodies]

        for spec in gf.goal.specs:
            fresh = outcomes()
            start = spec_start(spec, gf.goal.arity, world, ct)
            assert start.error is None
            assert outcomes(start) == fresh, spec.title
            assert outcomes(start) == fresh, spec.title

    def test_start_is_not_changed_by_runs(self, blog):
        ct, world = blog
        setup = [SetupStmt(call(ClassLit("Post"), "create",
                                RecordLit((("title", StrLit("t")),))), "p")]
        spec = mkspec(setup, [], [eq(call(Var("p"), "title"), StrLit("t"))])
        start = spec_start(spec, 0, world, ct)
        body = Let("q", call(ClassLit("Post"), "where", RecordLit(())),
                   call(call(Var("q"), "first"), "title=", StrLit("changed")))
        assert not run_spec(body, 0, spec, world, ct, start).ok
        assert world.tables["Post"][1]["title"] == StrV("changed")
        assert start.checkpoint.tables["Post"][1]["title"] == StrV("t")
        assert run_spec(NilLit(), 0, spec, world, ct, start).ok

    def test_setup_relation_answers_first_after_restores(self, blog):
        # a relation bound by the setup carries its rows, so it still finds
        # them after runs that wrote and created rows were rolled back
        ct, world = blog
        post = ClassLit("Post")
        setup = [SetupStmt(call(post, "create", RecordLit((("slug", StrLit("s")),))), "p"),
                 SetupStmt(call(post, "where", RecordLit((("slug", StrLit("s")),))), "r")]
        spec = mkspec(setup, [Var("r")], [eq(Var("x_r"), Var("p"))])
        start = spec_start(spec, 1, world, ct)
        first = call(Var("arg0"), "first")
        writes = Seq(call(first, "slug=", StrLit("moved")),
                     call(post, "create", RecordLit((("slug", StrLit("s")),))))
        for body in (first, writes, first):
            res = run_spec(body, 1, spec, world, ct, start)
            assert res.ok == (body is first)
        assert res.outcome == Ok(start.env["p"])

    def test_hole_is_not_evaluable(self, blog):
        ct, world = blog
        spec = mkspec([], [], [TrueLit()])
        body = Seq(NilLit(), TypedHole(STR_T))
        assert run_spec(body, 0, spec, world, ct) == SpecResult(
            0, RuntimeErr("not-evaluable", "cannot evaluate TypedHole"))

    def test_setup_error(self, blog):
        ct, world = blog
        spec = mkspec([SetupStmt(call(NilLit(), "boom"))], [call(NilLit(), "bang")],
                      [TrueLit()])
        start = spec_start(spec, 1, world, ct)
        assert (start.error.kind, start.error_stage) == ("nil-method-missing", "setup")
        assert start.checkpoint is None
        fresh = run_spec(NilLit(), 1, spec, world, ct)
        assert fresh == run_spec(NilLit(), 1, spec, world, ct, start)
        assert fresh == SpecResult(0, RuntimeErr("nil-method-missing", "boom"))

    def test_arity_mismatch_comes_before_arguments(self, blog):
        ct, world = blog
        spec = mkspec([], [call(NilLit(), "bang")], [TrueLit()])
        start = spec_start(spec, 2, world, ct)
        assert (start.error.kind, start.error_stage) == ("arity", "args")
        fresh = run_spec(NilLit(), 2, spec, world, ct)
        assert fresh == run_spec(NilLit(), 2, spec, world, ct, start)
        assert fresh.outcome.kind == "arity"

    def test_argument_error(self, blog):
        ct, world = blog
        spec = mkspec([], [call(NilLit(), "bang")], [TrueLit()])
        start = spec_start(spec, 1, world, ct)
        assert (start.error.kind, start.error_stage) == ("nil-method-missing", "args")
        fresh = run_spec(NilLit(), 1, spec, world, ct)
        assert fresh == run_spec(NilLit(), 1, spec, world, ct, start)
        assert fresh == SpecResult(0, RuntimeErr("nil-method-missing", "bang"))
