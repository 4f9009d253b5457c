import itertools
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from effsynth.core import (
    Atom, BOOL_T, Call, ClassLit, ClassOf, ClassT, ConstantPool, FalseLit,
    If, IntLit, NIL, NilLit, Not, Or, RecordLit, Seq, StrLit, STR_T,
    TRUE_COND, TrueLit, Var, expr_size, walk,
)
from effsynth.interp import SetupStmt, Spec
from effsynth.merge import (
    MergeSession, MergeTerm, MergeTuple, _cond_holds, canon_cond, canon_not,
    cond_as_expr, cond_eq, implies, is_tautology, make_merge_tuple,
    merge_program, rewrite_merge, synth_condition,
)
from effsynth.search import SearchConfig


def call(recv, m, *args):
    return Call(recv, m, tuple(args))


def eq(a, b):
    return call(a, "==", b)


def atom(name: str):
    return Atom(Var(name))


# ---------------------------------------------------------------------------
# Conditions and implication
# ---------------------------------------------------------------------------

class TestCondUtils:
    def test_double_negation_cancels(self):
        c = atom("a")
        assert canon_cond(Not(Not(c))) == c
        assert cond_eq(c, Not(Not(c)))

    def test_canon_not(self):
        c = atom("a")
        assert canon_not(Not(c)) == c

    def test_tautology_shapes(self):
        c = atom("a")
        assert is_tautology(TRUE_COND)
        assert is_tautology(Or(c, Not(c)))
        assert is_tautology(Or(Not(c), c))
        assert not is_tautology(Or(c, atom("b")))

    def test_cond_as_expr(self):
        c = Atom(eq(Var("x"), TrueLit()))
        assert cond_as_expr(c) == c.expr
        assert cond_as_expr(Not(c)) == call(c.expr, "!")
        both = cond_as_expr(Or(c, Not(c)))
        assert isinstance(both, If) and both.then == TrueLit()


class TestImplies:
    def test_reflexive(self):
        table = {}
        b = atom("b")
        assert implies(b, b, table)

    def test_weakening_into_disjunction(self):
        table = {}
        b, c = atom("b"), atom("c")
        assert implies(b, Or(b, c), table)
        assert not implies(Or(b, c), b, table)

    def test_distinct_atoms_unrelated(self):
        # the true literal is just another atom variable, never shortcut
        table = {}
        assert not implies(TRUE_COND, atom("b"), table)

    def test_negation(self):
        table = {}
        b = atom("b")
        assert implies(b, Not(Not(b)), table)
        assert not implies(b, Not(b), table)

    def test_atom_identity_is_syntactic(self):
        table = {}
        c1 = Atom(eq(Var("x"), IntLit(1)))
        c2 = Atom(eq(Var("x"), IntLit(1)))
        assert implies(c1, c2, table)
        c3 = Atom(eq(Var("x"), IntLit(2)))
        assert not implies(c1, c3, table)

    def test_matches_truth_table_oracle(self):
        rng = random.Random(9)
        atoms = [atom(n) for n in "abcd"]

        def random_cond(depth):
            if depth == 0 or rng.random() < 0.4:
                return rng.choice(atoms)
            if rng.random() < 0.5:
                return Not(random_cond(depth - 1))
            return Or(random_cond(depth - 1), random_cond(depth - 1))

        def truth(c, assignment):
            if isinstance(c, Atom):
                return assignment[c.expr.name]
            if isinstance(c, Not):
                return not truth(c.inner, assignment)
            return truth(c.left, assignment) or truth(c.right, assignment)

        for _ in range(300):
            b1, b2 = random_cond(3), random_cond(3)
            expected = all(
                (not truth(b1, dict(zip("abcd", bits)))) or truth(b2, dict(zip("abcd", bits)))
                for bits in itertools.product((False, True), repeat=4)
            )
            assert implies(b1, b2, {}) == expected


# ---------------------------------------------------------------------------
# Rewrite rules on fixtures
# ---------------------------------------------------------------------------

def mkspec(title, setup, args, post):
    return Spec(title, tuple(setup), tuple(args), tuple(post))


@pytest.fixture
def session(blog):
    ct, world = blog
    sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")),))
    find = SetupStmt(call(ClassLit("Post"), "create",
                          RecordLit((("slug", StrLit("present")),))), "p")
    specs = (
        mkspec("has-it", [find], [StrLit("present")],
               [eq(Var("x_r"), Var("x_r"))]),
        mkspec("lacks-it", [], [StrLit("absent")],
               [eq(Var("x_r"), Var("x_r"))]),
    )
    return MergeSession(
        goal_params=(STR_T,), ret_ty=STR_T, ct=ct, sigma=sigma, world=world,
        cfg=SearchConfig(max_size=6, candidate_budget=300),
        specs=specs,
    )


def specs_of(term: MergeTerm):
    return term.spec_ids()


class TestRewriteRules:
    def tuple_(self, expr, cond, ids):
        return MergeTuple(expr, cond, frozenset(ids))

    def test_rule1_identical_tuples_fold(self, session):
        t = self.tuple_(Var("arg0"), atom("b"), {0})
        u = self.tuple_(Var("arg0"), atom("b"), {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert out.tuples == (self.tuple_(Var("arg0"), atom("b"), {0, 1}),)

    def test_rule2_implication_keeps_stronger_cond(self, session):
        b = atom("b")
        t = self.tuple_(Var("arg0"), b, {0})
        u = self.tuple_(Var("arg0"), Or(b, atom("c")), {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert out.tuples == (self.tuple_(Var("arg0"), b, {0, 1}),)
        assert specs_of(out) == frozenset({0, 1})

    def test_rule3_disjunction_when_no_implication(self, session):
        t = self.tuple_(Var("arg0"), atom("b"), {0})
        u = self.tuple_(Var("arg0"), atom("c"), {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert out.tuples == (
            self.tuple_(Var("arg0"), Or(atom("b"), atom("c")), {0, 1}),)

    def test_rule4_resynthesizes_separating_conditions(self, session):
        # same TrueLit condition, different expressions: the rewriter must
        # find a condition true for spec 0 and false for spec 1
        t = MergeTuple(StrLit("present"), TRUE_COND, frozenset({0}))
        u = MergeTuple(StrLit("absent"), TRUE_COND, frozenset({1}))
        out = rewrite_merge(MergeTerm((t, u)), session)
        b1 = out.tuples[0].cond
        assert b1 != TRUE_COND
        assert specs_of(out) == frozenset({0, 1})
        # the found condition is the exists? query on the seeded slug
        assert "exists?" in [n.method for n in walk(cond_as_expr(b1))
                             if isinstance(n, Call)]

    def test_rule4_falls_back_when_unseparable(self, session):
        # same setups in both specs make separation impossible
        session = MergeSession(
            goal_params=session.goal_params, ret_ty=session.ret_ty,
            ct=session.ct, sigma=session.sigma, world=session.world,
            cfg=SearchConfig(max_size=2, candidate_budget=60),
            specs=(session.specs[1], session.specs[1]),
        )
        t = MergeTuple(StrLit("x"), TRUE_COND, frozenset({0}))
        u = MergeTuple(StrLit("y"), TRUE_COND, frozenset({1}))
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert out.tuples == (t, u)

    def test_rule5_boolean_collapse(self, session):
        b = atom("b")
        t = self.tuple_(TrueLit(), b, {0})
        u = self.tuple_(FalseLit(), Not(b), {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert len(out.tuples) == 1
        merged = out.tuples[0]
        assert merged.expr == Var("b")
        assert merged.cond == Or(b, Not(b))
        assert merged.specs == frozenset({0, 1})

    def test_rule6_boolean_collapse_mirrored(self, session):
        b = atom("b")
        t = self.tuple_(FalseLit(), Not(b), {0})
        u = self.tuple_(TrueLit(), b, {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert len(out.tuples) == 1
        assert out.tuples[0].expr == Var("b")
        assert out.tuples[0].specs == frozenset({0, 1})

    def test_rule7_guesses_negated_condition(self, session):
        # spec 1 has no matching row, so the negated exists? holds under it
        exists = Atom(call(ClassLit("Post"), "exists?",
                           RecordLit((("slug", StrLit("present")),))))
        t = self.tuple_(StrLit("present"), exists, {0})
        u = self.tuple_(StrLit("absent"), atom("q"), {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert out.tuples[0] == t
        assert out.tuples[1].cond == canon_not(exists)

    def test_rule8_guesses_negated_condition_mirrored(self, session):
        missing = Atom(call(ClassLit("Post"), "exists?",
                            RecordLit((("slug", StrLit("nowhere")),))))
        t = self.tuple_(StrLit("present"), atom("q"), {0})
        u = self.tuple_(StrLit("absent"), missing, {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        # the guess !missing holds under spec 0's setup, replacing q
        assert out.tuples[0].cond == canon_not(missing)
        assert out.tuples[1] == u

    def test_rewrites_preserve_spec_sets(self, session):
        rng = random.Random(17)
        conds = [atom("b"), atom("c"), Not(atom("b")), TRUE_COND]
        exprs = [Var("arg0"), TrueLit(), FalseLit(), StrLit("present")]
        for _ in range(25):
            tuples = tuple(
                MergeTuple(rng.choice(exprs), rng.choice(conds), frozenset({i % 2}))
                for i in range(rng.randint(1, 4)))
            before = MergeTerm(tuples).spec_ids()
            out = rewrite_merge(MergeTerm(tuples), session)
            assert out.spec_ids() == before

    def test_rewrite_terminates_and_is_deterministic(self, session):
        b = atom("b")
        tuples = (
            self.tuple_(Var("arg0"), b, {0}),
            self.tuple_(Var("arg0"), Not(b), {1}),
            self.tuple_(TrueLit(), b, {0}),
        )
        a = rewrite_merge(MergeTerm(tuples), session)
        c = rewrite_merge(MergeTerm(tuples), session)
        assert a == c


_CONDS = st.recursive(
    st.sampled_from([
        TRUE_COND, atom("q"), Atom(eq(Var("arg0"), StrLit("present"))),
        Atom(call(ClassLit("Post"), "exists?", RecordLit((("slug", StrLit("present")),)))),
    ]),
    lambda sub: st.one_of(sub.map(Not), st.tuples(sub, sub).map(lambda lr: Or(*lr))),
    max_leaves=3)

_TUPLES = st.lists(st.builds(
    MergeTuple,
    st.sampled_from([StrLit("present"), StrLit("absent"), Var("arg0"), TrueLit(), FalseLit()]),
    _CONDS,
    st.sampled_from([frozenset({0}), frozenset({1}), frozenset({0, 1})]),
), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tuples=_TUPLES)
def test_rewrite_merge_terminates_on_random_chains(session, tuples):
    # a fresh session per chain; the deadline only bounds a failing run
    fresh = MergeSession(
        goal_params=session.goal_params, ret_ty=session.ret_ty, ct=session.ct,
        sigma=session.sigma, world=session.world,
        cfg=SearchConfig(max_size=2, candidate_budget=60), specs=session.specs,
        deadline=time.monotonic() + 10.0,
    )
    out = rewrite_merge(MergeTerm(tuple(tuples)), fresh)
    assert not fresh.expired()
    assert out.spec_ids() == MergeTerm(tuple(tuples)).spec_ids()


class TestProg:
    def test_single_true_tuple_collapses(self):
        term = MergeTerm((MergeTuple(Var("x"), TRUE_COND, frozenset({0})),))
        assert term.prog() == Var("x")

    def test_tautology_guard_collapses(self):
        b = atom("b")
        term = MergeTerm((MergeTuple(Var("x"), Or(b, Not(b)), frozenset({0})),))
        assert term.prog() == Var("x")

    def test_negation_chain_folds_to_if_else(self):
        b = atom("b")
        term = MergeTerm((
            MergeTuple(Var("x"), b, frozenset({0})),
            MergeTuple(Var("y"), Not(b), frozenset({1})),
        ))
        assert term.prog() == If(b, Var("x"), Var("y"))

    def test_unrelated_conditions_keep_else_if_shape(self):
        term = MergeTerm((
            MergeTuple(Var("x"), atom("b"), frozenset({0})),
            MergeTuple(Var("y"), atom("c"), frozenset({1})),
        ))
        assert term.prog() == If(atom("b"), Var("x"), If(atom("c"), Var("y"), NIL))


class TestSynthCondition:
    def test_empty_false_side_returns_true(self, session):
        cond = synth_condition(session, frozenset({0}), frozenset())
        assert cond == TRUE_COND

    def test_separating_condition_found(self, session):
        cond = synth_condition(session, frozenset({0}), frozenset({1}))
        assert cond is not None and cond != TRUE_COND

    def test_negation_shortlist_reused(self, session):
        forward = synth_condition(session, frozenset({0}), frozenset({1}))
        backward = synth_condition(session, frozenset({1}), frozenset({0}))
        assert cond_eq(backward, canon_not(forward))

    def test_contradiction_unsolvable(self, session):
        session.cfg = SearchConfig(max_size=2, candidate_budget=60)
        cond = synth_condition(session, frozenset({0}), frozenset({0}))
        assert cond is None


class TestMergeProgram:
    def test_single_tuple_returns_bare_expression(self, session):
        t = make_merge_tuple(session, Var("arg0"), TRUE_COND, frozenset({0, 1}))
        body = merge_program([t], session)
        assert body == Var("arg0")

    def test_identical_expressions_fold_to_straight_line(self, session):
        # oracle: any valid merge of three same-expression tuples has no ifs
        tuples = [
            MergeTuple(Var("arg0"), TRUE_COND, frozenset({0})),
            MergeTuple(Var("arg0"), TRUE_COND, frozenset({1})),
        ]
        body = merge_program(tuples, session)
        assert body == Var("arg0")
        assert not any(isinstance(n, If) for n in walk(body))

    def test_merged_program_passes_all_specs(self, session):
        t = MergeTuple(StrLit("present"), TRUE_COND, frozenset({0}))
        u = MergeTuple(StrLit("absent"), TRUE_COND, frozenset({1}))
        body = merge_program([t, u], session)
        assert body is not None
        for spec in session.specs:
            assert session.run_body(body, spec).ok

    def test_no_valid_ordering_returns_none(self, session):
        session.cfg = SearchConfig(max_size=2, candidate_budget=60)
        bad = MergeTuple(Call(NilLit(), "boom", ()), TRUE_COND, frozenset({0, 1}))
        assert merge_program([bad], session) is None

    def test_tuple_constructor_validates(self, session):
        with pytest.raises(ValueError):
            make_merge_tuple(session, Call(NilLit(), "boom", ()), TRUE_COND,
                             frozenset({0}))


class TestThreeWayFold:
    def test_three_identical_tuples_leave_no_branches(self, session):
        # oracle: a valid merge of three same-expression tuples is branch-free
        tuples = [
            MergeTuple(Var("arg0"), atom("b"), frozenset({0})),
            MergeTuple(Var("arg0"), atom("c"), frozenset({1})),
            MergeTuple(Var("arg0"), TRUE_COND, frozenset({0, 1})),
        ]
        body = merge_program(tuples, session)
        assert body == Var("arg0")
        assert not any(isinstance(n, If) for n in walk(body))


class TestCondHolds:
    def test_setup_and_argument_errors_are_misses(self, session):
        boom = call(NilLit(), "boom")
        bad_setup = mkspec("bad-setup", [SetupStmt(boom)], [StrLit("x")], [TrueLit()])
        bad_arg = mkspec("bad-arg", [], [boom], [TrueLit()])
        for spec in (bad_setup, bad_arg):
            assert not _cond_holds(session, TRUE_COND, spec, True)
            assert not _cond_holds(session, Not(TRUE_COND), spec, False)
        assert _cond_holds(session, TRUE_COND, session.specs[0], True)

    def test_each_spec_sees_its_own_state(self, session):
        exists = Atom(call(ClassLit("Post"), "exists?",
                           RecordLit((("slug", StrLit("present")),))))
        for _ in range(2):
            assert _cond_holds(session, exists, session.specs[0], True)
            assert _cond_holds(session, exists, session.specs[1], False)


class TestDeadline:
    def test_expired_session_stops_condition_search_and_rewriting(self, session):
        session.deadline = time.monotonic() - 1.0
        assert synth_condition(session, frozenset({0}), frozenset({1})) is None
        t = MergeTuple(Var("arg0"), atom("b"), frozenset({0}))
        u = MergeTuple(Var("arg0"), atom("b"), frozenset({1}))
        assert rewrite_merge(MergeTerm((t, u)), session).tuples == (t, u)
        assert session.stats.evaluated == 0
