import itertools
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import NEAR_TWINS, lookup_goal_text
from effsynth import merge
from effsynth.core import (
    BOOL_T, Call, ClassLit, ClassOf, ClassT, ClassTable, ConstantPool, FALSE, FalseLit, If,
    IntLit, Let, NIL, NilLit, RecordLit, StrLit, STR_T, TRUE, TrueLit, Var,
    alpha_key, children, rebuild, walk,
)
from effsynth.goalfile import build, load_goal_file, parse_goal_file
from effsynth.interp import SetupStmt, Spec, eval_expr, spec_start
from effsynth.merge import (
    ERR, ConditionBank, MergeSession, MergeTerm, MergeTuple, _at_start, _battery,
    _cond_holds, make_merge_tuple, merge_program, negate, rewrite_merge, search,
    synth_condition,
)
from effsynth.runtime import (
    FALSE_V, NilV, RecordV, StrV, TRUE_V, World, install_core_methods, relation_class, truthy,
)
from effsynth.sat import implies_valid
from effsynth.typegen import typecheck
from effsynth.search import SearchConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

from heavy import inflate  # noqa: E402


def call(recv, m, *args):
    return Call(recv, m, tuple(args))


def eq(a, b):
    return call(a, "==", b)


def either(a, b):
    """The disjunction of two conditions, as merging builds it."""
    return If(a, TRUE, b)


# ---------------------------------------------------------------------------
# Conditions and implication
# ---------------------------------------------------------------------------

class TestCondUtils:
    def test_double_negation_cancels(self):
        c = Var("a")
        assert negate(c) == If(c, FALSE, TRUE)
        assert negate(negate(c)) == c
        assert alpha_key(negate(negate(c))) == alpha_key(c)

    def test_negating_a_negation_strips_it(self):
        c = Var("a")
        assert negate(If(c, FALSE, TRUE)) == c

    def test_tautology_shapes(self):
        c = Var("a")
        assert implies_valid(TRUE, TRUE)
        assert implies_valid(TRUE, either(c, negate(c)))
        assert implies_valid(TRUE, either(negate(c), c))
        assert not implies_valid(TRUE, either(c, Var("b")))

    def test_conditions_are_bool_expressions(self, blog):
        ct, world = blog
        c = eq(Var("x"), TrueLit())
        for x in (TRUE_V, FALSE_V):
            got = eval_expr({"x": x}, world, ct, c)
            assert eval_expr({"x": x}, world, ct, negate(c)) == (FALSE_V if truthy(got)
                                                                 else TRUE_V)
            assert eval_expr({"x": x}, world, ct, either(c, negate(c))) == TRUE_V
        for cond in (negate(c), either(c, negate(c))):
            assert typecheck({"x": BOOL_T}, ct, cond) == BOOL_T


class TestImplies:
    def test_reflexive(self):
        b = Var("b")
        assert implies_valid(b, b)

    def test_weakening_into_disjunction(self):
        b, c = Var("b"), Var("c")
        assert implies_valid(b, either(b, c))
        assert not implies_valid(either(b, c), b)

    def test_distinct_atoms_unrelated(self):
        # true is a constant, and it implies no condition that can be false
        assert not implies_valid(TRUE, Var("b"))

    def test_literal_atoms_are_constants(self):
        a = Var("a")
        assert implies_valid(negate(a), TRUE)
        assert implies_valid(a, TRUE)
        assert implies_valid(FALSE, a)
        assert not implies_valid(TRUE, FALSE)
        assert implies_valid(TRUE, either(a, negate(a)))

    def test_negation(self):
        b = Var("b")
        # built by hand: negate would strip the inner negation
        assert implies_valid(b, If(If(b, FALSE, TRUE), FALSE, TRUE))
        assert not implies_valid(b, negate(b))

    def test_simple_validities(self):
        a, b = Var("a"), Var("b")
        assert implies_valid(a, a)
        assert implies_valid(a, either(a, b))
        assert not implies_valid(a, b)
        assert not implies_valid(either(a, b), a)
        # a and b, written as not (not a or not b)
        assert implies_valid(negate(either(negate(a), negate(b))), a)

    def test_atoms_equal_up_to_let_names_are_one_variable(self):
        x = eq(Var("x"), IntLit(1))
        c1 = Let("a", x, Var("a"))
        c2 = Let("b", x, Var("b"))
        assert implies_valid(c1, c2)
        assert not implies_valid(c1, negate(c2))
        assert not implies_valid(c1, Let("a", x, x))

    def test_atom_identity_is_syntactic(self):
        c1 = eq(Var("x"), IntLit(1))
        c2 = eq(Var("x"), IntLit(1))
        assert implies_valid(c1, c2)
        c3 = eq(Var("x"), IntLit(2))
        assert not implies_valid(c1, c3)

    def test_matches_truth_table_oracle(self):
        rng = random.Random(9)
        atoms = [Var(n) for n in "abcd"]

        def random_cond(depth):
            if depth == 0 or rng.random() < 0.4:
                return rng.choice(atoms)
            if rng.random() < 0.5:
                return negate(random_cond(depth - 1))
            return either(random_cond(depth - 1), random_cond(depth - 1))

        def truth(c, assignment):
            if isinstance(c, Var):
                return assignment[c.name]
            if isinstance(c, If):
                return truth(c.then if truth(c.cond, assignment) else c.orelse, assignment)
            return isinstance(c, TrueLit)

        for _ in range(300):
            b1, b2 = random_cond(3), random_cond(3)
            expected = all(
                (not truth(b1, dict(zip("abcd", bits)))) or truth(b2, dict(zip("abcd", bits)))
                for bits in itertools.product((False, True), repeat=4)
            )
            assert implies_valid(b1, b2) == expected


_BOOL_VARS = ("a", "b", "c")
_BOOL_CONDS = st.recursive(
    st.sampled_from([TRUE, FALSE, *map(Var, _BOOL_VARS)]),
    lambda sub: st.one_of(sub.map(negate), st.tuples(sub, sub).map(lambda lr: either(*lr))),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(premise=_BOOL_CONDS, conclusion=_BOOL_CONDS)
def test_implies_valid_agrees_with_the_evaluator(premise, conclusion):
    """On conditions over Bool variables, built as merging builds them,
    implies_valid is validity under the evaluator: every assignment of the
    variables under which the premise evaluates truthy makes the conclusion
    truthy too. Negating twice gives the condition back."""
    ct = ClassTable()
    install_core_methods(ct)
    world = World({})

    def holds(c, bits):
        env = {n: TRUE_V if bit else FALSE_V for n, bit in zip(_BOOL_VARS, bits)}
        return truthy(eval_expr(env, world, ct, c))

    valid = all(not holds(premise, bits) or holds(conclusion, bits)
                for bits in itertools.product((False, True), repeat=len(_BOOL_VARS)))
    assert implies_valid(premise, conclusion) == valid
    for c in (premise, conclusion):
        assert alpha_key(negate(negate(c))) == alpha_key(c)


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
        goal_params=(STR_T,), ct=ct, sigma=sigma, world=world,
        cfg=SearchConfig(max_size=6, candidate_budget=300),
        specs=specs,
    )


def goal_session(text, mode="full", specs=slice(None)):
    """A merge session over a goal text's specs, or the given slice of them."""
    gf = parse_goal_file(text)
    ct, world = build(gf)
    return MergeSession(
        goal_params=gf.goal.param_types, ct=ct, sigma=gf.goal.constants,
        world=world, cfg=SearchConfig(mode=mode), specs=gf.goal.specs[specs])


def lookup_session(n):
    """A merge session over the specs of the flat lookup goal `lookup<n>`."""
    return goal_session(lookup_goal_text(n))


def specs_of(term: MergeTerm):
    return term.spec_ids()


class TestRewriteRules:
    def tuple_(self, expr, cond, ids):
        return MergeTuple(expr, cond, frozenset(ids))

    def test_rule1_identical_tuples_fold(self, session):
        t = self.tuple_(Var("arg0"), Var("b"), {0})
        u = self.tuple_(Var("arg0"), Var("b"), {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert out.tuples == (self.tuple_(Var("arg0"), Var("b"), {0, 1}),)

    def test_rule2_implication_keeps_stronger_cond(self, session):
        b = Var("b")
        t = self.tuple_(Var("arg0"), b, {0})
        u = self.tuple_(Var("arg0"), either(b, Var("c")), {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert out.tuples == (self.tuple_(Var("arg0"), b, {0, 1}),)
        assert specs_of(out) == frozenset({0, 1})

    def test_rule3_disjunction_when_no_implication(self, session):
        t = self.tuple_(Var("arg0"), Var("b"), {0})
        u = self.tuple_(Var("arg0"), Var("c"), {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert out.tuples == (
            self.tuple_(Var("arg0"), either(Var("b"), Var("c")), {0, 1}),)

    def test_rule4_resynthesizes_separating_conditions(self, session):
        # same TrueLit condition, different expressions: the rewriter must
        # find a condition true for spec 0 and false for spec 1
        t = MergeTuple(StrLit("present"), TRUE, frozenset({0}))
        u = MergeTuple(StrLit("absent"), TRUE, frozenset({1}))
        out = rewrite_merge(MergeTerm((t, u)), session)
        b1 = out.tuples[0].cond
        assert b1 != TRUE
        assert specs_of(out) == frozenset({0, 1})
        # the found condition is the exists? query on the seeded slug
        assert "exists?" in [n.method for n in walk(b1) if isinstance(n, Call)]

    def test_rule4_falls_back_when_unseparable(self, session):
        # same setups in both specs make separation impossible
        session = MergeSession(
            goal_params=session.goal_params, ct=session.ct,
            sigma=session.sigma, world=session.world,
            cfg=SearchConfig(max_size=2, candidate_budget=60),
            specs=(session.specs[1], session.specs[1]),
        )
        t = MergeTuple(StrLit("x"), TRUE, frozenset({0}))
        u = MergeTuple(StrLit("y"), TRUE, frozenset({1}))
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert out.tuples == (t, u)

    def test_rule5_boolean_collapse(self, session):
        b = Var("b")
        t = self.tuple_(TrueLit(), b, {0})
        u = self.tuple_(FalseLit(), negate(b), {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert len(out.tuples) == 1
        merged = out.tuples[0]
        assert merged.expr == Var("b")
        assert merged.cond == either(b, negate(b))
        assert merged.specs == frozenset({0, 1})

    def test_rule6_boolean_collapse_mirrored(self, session):
        b = Var("b")
        t = self.tuple_(FalseLit(), negate(b), {0})
        u = self.tuple_(TrueLit(), b, {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert len(out.tuples) == 1
        assert out.tuples[0].expr == Var("b")
        assert out.tuples[0].specs == frozenset({0, 1})

    def test_rule7_guesses_negated_condition(self, session):
        # spec 1 has no matching row, so the negated exists? holds under it
        exists = call(ClassLit("Post"), "exists?", RecordLit((("slug", StrLit("present")),)))
        t = self.tuple_(StrLit("present"), exists, {0})
        u = self.tuple_(StrLit("absent"), Var("q"), {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        assert out.tuples[0] == t
        assert out.tuples[1].cond == negate(exists)

    def test_rule8_guesses_negated_condition_mirrored(self, session):
        missing = call(ClassLit("Post"), "exists?", RecordLit((("slug", StrLit("nowhere")),)))
        t = self.tuple_(StrLit("present"), Var("q"), {0})
        u = self.tuple_(StrLit("absent"), missing, {1})
        out = rewrite_merge(MergeTerm((t, u)), session)
        # the guess !missing holds under spec 0's setup, replacing q
        assert out.tuples[0].cond == negate(missing)
        assert out.tuples[1] == u

    def test_rewrites_preserve_spec_sets(self, session):
        rng = random.Random(17)
        conds = [Var("b"), Var("c"), negate(Var("b")), TRUE]
        exprs = [Var("arg0"), TrueLit(), FalseLit(), StrLit("present")]
        for _ in range(25):
            tuples = tuple(
                MergeTuple(rng.choice(exprs), rng.choice(conds), frozenset({i % 2}))
                for i in range(rng.randint(1, 4)))
            before = MergeTerm(tuples).spec_ids()
            out = rewrite_merge(MergeTerm(tuples), session)
            assert out.spec_ids() == before

    def test_negation_guess_waits_for_the_end_of_the_chain(self):
        # guessing (not k0) for the middle branch holds at its own spec but
        # would also route spec 2 into it; only the last pair may guess
        s = lookup_session(3)
        k0, k1, k2 = (eq(StrLit(f"k{i}"), Var("arg0")) for i in range(3))
        chain = (MergeTuple(IntLit(0), k0, frozenset({0})),
                 MergeTuple(IntLit(1), k1, frozenset({1})),
                 MergeTuple(IntLit(2), k2, frozenset({2})))
        out = rewrite_merge(MergeTerm(chain), s)
        assert out.tuples == chain[:2] + (MergeTuple(IntLit(2), negate(k1), frozenset({2})),)
        assert out.prog() == If(k0, IntLit(0), If(k1, IntLit(1), IntLit(2)))

    def test_resynthesis_keeps_later_specs_out(self):
        # k0 implies (k0 or k1), so rule 4 resynthesizes the first pair; the
        # new conditions must stay false at specs 2 and 3, which the pair
        # never saw
        s = lookup_session(4)
        k0, k1, k2 = (eq(StrLit(f"k{i}"), Var("arg0")) for i in range(3))
        chain = (MergeTuple(IntLit(0), k0, frozenset({0})),
                 MergeTuple(IntLit(1), either(k0, k1), frozenset({1})),
                 MergeTuple(IntLit(2), k2, frozenset({2})),
                 MergeTuple(IntLit(3), TRUE, frozenset({3})))
        body = rewrite_merge(MergeTerm(chain), s).prog()
        assert all(s.run_body(body, spec).ok for spec in s.specs)

    def test_rewrite_terminates_and_is_deterministic(self, session):
        b = Var("b")
        tuples = (
            self.tuple_(Var("arg0"), b, {0}),
            self.tuple_(Var("arg0"), negate(b), {1}),
            self.tuple_(TrueLit(), b, {0}),
        )
        a = rewrite_merge(MergeTerm(tuples), session)
        c = rewrite_merge(MergeTerm(tuples), session)
        assert a == c


_CONDS = st.recursive(
    st.sampled_from([
        TRUE, Var("q"), eq(Var("arg0"), StrLit("present")),
        call(ClassLit("Post"), "exists?", RecordLit((("slug", StrLit("present")),))),
    ]),
    lambda sub: st.one_of(sub.map(negate), st.tuples(sub, sub).map(lambda lr: either(*lr))),
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
        goal_params=session.goal_params, ct=session.ct,
        sigma=session.sigma, world=session.world,
        cfg=SearchConfig(max_size=2, candidate_budget=60), specs=session.specs,
        deadline=time.monotonic() + 10.0,
    )
    out = rewrite_merge(MergeTerm(tuple(tuples)), fresh)
    assert not fresh.expired()
    assert out.spec_ids() == MergeTerm(tuple(tuples)).spec_ids()


class TestProg:
    def test_single_true_tuple_collapses(self):
        term = MergeTerm((MergeTuple(Var("x"), TRUE, frozenset({0})),))
        assert term.prog() == Var("x")

    def test_tautology_guard_collapses(self):
        b = Var("b")
        term = MergeTerm((MergeTuple(Var("x"), either(b, negate(b)), frozenset({0})),))
        assert term.prog() == Var("x")

    def test_negation_chain_folds_to_if_else(self):
        b = Var("b")
        term = MergeTerm((
            MergeTuple(Var("x"), b, frozenset({0})),
            MergeTuple(Var("y"), negate(b), frozenset({1})),
        ))
        assert term.prog() == If(b, Var("x"), Var("y"))

    def test_unrelated_conditions_keep_else_if_shape(self):
        term = MergeTerm((
            MergeTuple(Var("x"), Var("b"), frozenset({0})),
            MergeTuple(Var("y"), Var("c"), frozenset({1})),
        ))
        assert term.prog() == If(Var("b"), Var("x"), If(Var("c"), Var("y"), NIL))


class TestSynthCondition:
    def test_empty_false_side_returns_true(self, session):
        cond = synth_condition(session, frozenset({0}), frozenset())
        assert cond == TRUE
        assert session.stats.evaluated == 0

    def test_separating_condition_found(self, session):
        cond = synth_condition(session, frozenset({0}), frozenset({1}))
        assert cond is not None and cond != TRUE

    def test_backward_condition_is_a_bank_term(self, session):
        # the bank is the only source of conditions: the backward condition
        # is not the forward one negated but a kept Bool term of its own
        forward = synth_condition(session, frozenset({0}), frozenset({1}))
        backward = synth_condition(session, frozenset({1}), frozenset({0}))
        assert any(backward is expr for expr, _ in session.bank.conds)
        assert backward != forward
        assert _cond_holds(session, backward, session.specs[1], True)
        assert _cond_holds(session, backward, session.specs[0], False)

    def test_contradiction_unsolvable(self, session):
        session.cfg = SearchConfig(max_size=2, candidate_budget=60)
        cond = synth_condition(session, frozenset({0}), frozenset({0}))
        assert cond is None

    def test_overlapping_sides_give_none_without_evaluating(self, session):
        for true_ids, false_ids in (({0}, {0}), ({0, 1}, {1}), ({1}, {0, 1})):
            assert synth_condition(session, frozenset(true_ids), frozenset(false_ids)) is None
        assert session.stats.evaluated == 0
        assert session.bank is None

    def test_found_condition_is_a_bank_term(self, session):
        cond = synth_condition(session, frozenset({0}), frozenset({1}))
        assert any(cond is expr for expr, _ in session.bank.conds)
        # asked again, the bank answers from its kept terms without growing
        evaluated = session.stats.evaluated
        assert search(session, frozenset({0}), frozenset({1})) is cond
        assert session.stats.evaluated == evaluated


def twin_session(blog, cfg, deadline=None, near=False):
    """Two specs with the same setup and arguments: no term separates them.
    Near twins differ only in a User row the second spec also creates,
    which no term over Post and the argument can see."""
    ct, world = blog
    setup = [SetupStmt(call(ClassLit("Post"), "create",
                            RecordLit((("slug", StrLit("present")),))), "p")]
    user = SetupStmt(call(ClassLit("User"), "create", RecordLit((
        ("name", StrLit("u")), ("username", StrLit("u"))))))
    second = setup + [user] if near else setup
    specs = tuple(mkspec(title, rows, [StrLit("present")], [TrueLit()])
                  for title, rows in (("first", setup), ("second", second)))
    return MergeSession(
        goal_params=(STR_T,), ct=ct,
        sigma=ConstantPool(((ClassLit("Post"), ClassOf("Post")),)), world=world,
        cfg=cfg, specs=specs, deadline=deadline)


class TestConditionBank:
    @pytest.mark.parametrize("mode", ["full", "effects_only"])
    def test_twins_give_none_without_evaluating(self, blog, mode):
        s = twin_session(blog, SearchConfig(mode=mode, candidate_budget=10**6))
        assert synth_condition(s, frozenset({0}), frozenset({1})) is None
        assert synth_condition(s, frozenset({1}), frozenset({0})) is None
        assert s.stats.evaluated == 0
        assert s.bank is None

    def test_unseparable_sides_stop_at_the_budget(self, blog):
        s = twin_session(blog, SearchConfig(candidate_budget=100), near=True)
        assert synth_condition(s, frozenset({0}), frozenset({1})) is None
        # the budget in the bank, which would run dry only after 120
        # evaluations
        assert s.stats.evaluated == 100
        assert next(s.bank._pending, None) is not None

    def test_unseparable_sides_stop_at_the_deadline(self, blog):
        # without types the bank keeps finding new values for many seconds
        s = twin_session(blog, SearchConfig(mode="effects_only", candidate_budget=10**6),
                         deadline=time.monotonic() + 0.2, near=True)
        t0 = time.monotonic()
        assert synth_condition(s, frozenset({0}), frozenset({1})) is None
        assert time.monotonic() - t0 < 0.2 + 1.0
        assert s.expired()

    def test_relations_are_keyed_by_their_rows(self, blog):
        # a relation is the value of the rows it matched: queries over the
        # same rows, also one made by the setup, are one value, and queries
        # over different rows are kept apart
        ct, world = blog
        post = ClassLit("Post")
        setup = [SetupStmt(call(post, "create", RecordLit((("slug", StrLit(t)),))))
                 for t in ("a", "b")]
        setup.append(SetupStmt(call(post, "where", RecordLit(())), "r"))
        spec = mkspec("two-posts", setup, [StrLit("a"), Var("r")], [TrueLit()])
        rel = ClassT(relation_class("Post"))
        s = MergeSession(
            goal_params=(STR_T, rel), ct=ct,
            sigma=ConstantPool(((post, ClassOf("Post")),)), world=world,
            cfg=SearchConfig(), specs=(spec,))
        bank = ConditionBank(s)
        bank.levels.append([])
        by_slug = call(post, "where", RecordLit((("slug", Var("arg0")),)))
        every = call(post, "where", RecordLit(()))
        same_rows = call(post, "where", RecordLit((("slug", StrLit("a")),)))
        kept = [bank.admit(e, rel) for e in (by_slug, every, same_rows, Var("arg1"))]
        assert kept[0].expr == by_slug and kept[1].expr == every
        assert kept[0].results != kept[1].results
        assert kept[2] is kept[0]
        assert kept[3] is kept[1]
        assert _battery(s, eq(every, Var("arg1")), s.specs) == (TRUE_V,)
        assert _battery(s, eq(by_slug, Var("arg1")), s.specs) == (FALSE_V,)


def substitute(e, old, new):
    if e == old:
        return new
    kids = children(e)
    return rebuild(e, [substitute(k, old, new) for k in kids]) if kids else e


@pytest.mark.parametrize("goal", ["update_post", "s5_branching"])
def test_dropped_terms_are_interchangeable_with_their_representatives(goal):
    """Observational equivalence is sound: a term the bank drops as a
    duplicate, put in place of the term kept for its key inside any bank
    term, leaves that term's per-start results unchanged."""
    gf, ct, world = load_goal_file(f"goals/{goal}.goal")
    s = MergeSession(
        goal_params=gf.goal.param_types, ct=ct,
        sigma=gf.goal.constants, world=world, cfg=SearchConfig(),
        specs=gf.goal.specs)
    bank = ConditionBank(s)
    dropped = []
    for expr, ty, operands in bank.candidates():
        if len(bank.levels) > 4:  # level 4 opened: sizes 0-3 are done
            break
        kept = bank.admit(expr, ty, operands)
        if kept is not None and kept.expr is not expr:
            dropped.append((expr, kept.expr))
    assert dropped
    checked = 0
    for level in bank.levels[:4]:
        for term in level:
            for dup, rep in dropped:
                swapped = substitute(term.expr, rep, dup)
                if swapped != term.expr:
                    checked += 1
                    assert _battery(s, swapped, s.specs) == term.results, (term.expr, dup)
    assert checked > 0


def grow(bank, levels):
    """Admit every candidate of the bank's first `levels` levels."""
    for cand in bank.candidates():
        if len(bank.levels) > levels:
            break
        bank.admit(*cand)


GOAL_PATHS = sorted((ROOT / "goals").glob("*.goal"))
# s1_lvar and s2_false create no rows, so heavy.inflate has none to decoy
ORACLE_GOALS = (
    [(p.stem, p.read_text(encoding="utf-8")) for p in GOAL_PATHS]
    + [(f"{p.stem}-inflated{seed}", inflate(p.read_text(encoding="utf-8"), seed))
       for p in GOAL_PATHS if p.stem not in ("s1_lvar", "s2_false") for seed in (0, 1)]
    + [(f"lookup{n}", lookup_goal_text(n)) for n in (3, 5, 8)]
    + [("near_twins", NEAR_TWINS)])


# With types on the banks stay small enough to check two more levels, where
# the first terms that err at some starts but not all appear (size 4 in s4
# and s5, size 5 in update_post) and become operands.
ORACLE_LEVELS = {"full": 6, "effects_only": 4}


@pytest.mark.parametrize("mode", ["full", "effects_only"])
@pytest.mark.parametrize("text", [t for _, t in ORACLE_GOALS],
                         ids=[name for name, _ in ORACLE_GOALS])
def test_kept_results_match_whole_term_evaluation(text, mode):
    """A kept term's results, built from its operands' kept results, are
    those of evaluating the whole term at each spec start."""
    s = goal_session(text, mode)
    bank = ConditionBank(s)
    levels = ORACLE_LEVELS[mode]
    grow(bank, levels)
    for t in (t for level in bank.levels[:levels] for t in level):
        assert t.results == tuple(_at_start(s, t.expr, spec) for spec in s.specs), t.expr


@pytest.mark.parametrize("goal", ["s4_user_exists", "s5_branching", "update_post", "lookup5",
                                  "near_twins"])
def test_the_bank_skips_only_pairs_the_call_rule_refuses(monkeypatch, goal):
    """The bank's filter on == operand pairs only saves time: without it the
    call rule refuses the same pairs, and the bank makes the same
    candidates."""
    text = dict(ORACLE_GOALS)[goal]

    def candidates():
        bank = ConditionBank(goal_session(text))
        made = []
        for cand in bank.candidates():
            if len(bank.levels) > ORACLE_LEVELS["full"]:
                break
            made.append(cand[:2])
            bank.admit(*cand)
        return made

    real = merge.comparable
    skipped = []
    monkeypatch.setattr(merge, "comparable",
                        lambda *args: real(*args) or skipped.append(args[:2]))
    filtered = candidates()
    monkeypatch.setattr(merge, "comparable", lambda *args: True)
    assert skipped
    assert candidates() == filtered


# `make` is minidb's create declared without its write effect, so the bank
# admits calls of it
MISDECLARED_WRITER = """
(schema Post (slug Str))
(constants ("a" Str) (Post (class-of Post)))
(method (class-of Post) make (params (record (slug Str))) Post (native "minidb.create"))
(goal has_post
  (sig (Str -> Bool))
  (consts "a" Post)
  (spec "no post"
    (setup (call! "a"))
    (post (assert (call x_r == false))))
  (spec "a post"
    (setup (call Post create (record (slug "a"))) (call! "a"))
    (post (assert (call x_r == true)))))
"""


def calls_method(e, name):
    return any(isinstance(n, Call) and n.method == name for n in walk(e))


@pytest.mark.parametrize("specs", [slice(None), slice(1, None), slice(0, 1)],
                         ids=["both", "with-post", "without-post"])
def test_a_misdeclared_writer_leaves_every_start_intact(specs):
    s = goal_session(MISDECLARED_WRITER, specs=specs)
    bank = ConditionBank(s)
    grow(bank, 4)
    kept = [t for level in bank.levels for t in level]
    assert any(calls_method(t.expr, "make") for t in kept)
    for spec in s.specs:
        start = s.start(spec)
        fresh = spec_start(spec, len(s.goal_params), s.world, s.ct)
        assert start.checkpoint.tables == fresh.checkpoint.tables
        assert start.checkpoint.next_id == fresh.checkpoint.next_id
    # terms admitted after the writer ran still read each start's own rows
    for t in kept:
        if not calls_method(t.expr, "make"):
            assert t.results == tuple(_at_start(s, t.expr, spec) for spec in s.specs), t.expr


def test_an_operand_error_at_one_start_errs_there_only():
    s = goal_session(MISDECLARED_WRITER)
    bank = ConditionBank(s)
    bank.levels.append([])
    post, arg = ClassLit("Post"), Var("arg0")
    first = call(call(post, "where", RecordLit((("slug", arg),))), "first")
    slug = call(first, "slug")
    found = bank.admit(first, None)
    assert found.results[0] == NilV() and found.results[1] != NilV()
    # nil has no slug: ERR at the start without a post, its slug at the other
    read = bank.admit(slug, None, (found,))
    assert read.results == (ERR, StrV("a"))
    arg_term = bank.admit(arg, None)
    same = bank.admit(eq(arg, slug), None, (arg_term, read))
    assert same.results == (ERR, TRUE_V)
    rec = bank.admit(RecordLit((("slug", slug),)), None, (read,))
    assert rec.results == (ERR, RecordV((("slug", StrV("a")),)))
    for t in (read, same, rec):
        assert t.results == _battery(s, t.expr, s.specs)


class TestMergeProgram:
    def test_single_tuple_returns_bare_expression(self, session):
        t = make_merge_tuple(session, Var("arg0"), TRUE, frozenset({0, 1}))
        body = merge_program([t], session)
        assert body == Var("arg0")

    def test_identical_expressions_fold_to_straight_line(self, session):
        # oracle: any valid merge of three same-expression tuples has no ifs
        tuples = [
            MergeTuple(Var("arg0"), TRUE, frozenset({0})),
            MergeTuple(Var("arg0"), TRUE, frozenset({1})),
        ]
        body = merge_program(tuples, session)
        assert body == Var("arg0")
        assert not any(isinstance(n, If) for n in walk(body))

    def test_merged_program_passes_all_specs(self, session):
        t = MergeTuple(StrLit("present"), TRUE, frozenset({0}))
        u = MergeTuple(StrLit("absent"), TRUE, frozenset({1}))
        body = merge_program([t, u], session)
        assert body is not None
        for spec in session.specs:
            assert session.run_body(body, spec).ok

    def test_merging_runs_no_spec(self, session):
        # the driver's final gate is the one check of the merged program
        bad = MergeTuple(Call(NilLit(), "boom", ()), TRUE, frozenset({0, 1}))
        assert merge_program([bad], session) == bad.expr
        assert session.stats.evaluated == 0
        assert session.orderings_tried == 1

    def test_unseparable_branches_return_none(self, blog):
        s = twin_session(blog, SearchConfig(candidate_budget=60), near=True)
        tuples = [MergeTuple(StrLit("x"), TRUE, frozenset({0})),
                  MergeTuple(StrLit("y"), TRUE, frozenset({1}))]
        assert merge_program(tuples, s) is None
        assert s.orderings_tried == 0

    def test_tuple_constructor_validates(self, session):
        with pytest.raises(ValueError):
            make_merge_tuple(session, Call(NilLit(), "boom", ()), TRUE,
                             frozenset({0}))


class TestThreeWayFold:
    def test_three_identical_tuples_leave_no_branches(self, session):
        # oracle: a valid merge of three same-expression tuples is branch-free
        tuples = [
            MergeTuple(Var("arg0"), Var("b"), frozenset({0})),
            MergeTuple(Var("arg0"), Var("c"), frozenset({1})),
            MergeTuple(Var("arg0"), TRUE, frozenset({0, 1})),
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
            assert not _cond_holds(session, TRUE, spec, True)
            assert not _cond_holds(session, negate(TRUE), spec, False)
        assert _cond_holds(session, TRUE, session.specs[0], True)

    def test_each_spec_sees_its_own_state(self, session):
        exists = call(ClassLit("Post"), "exists?", RecordLit((("slug", StrLit("present")),)))
        for _ in range(2):
            assert _cond_holds(session, exists, session.specs[0], True)
            assert _cond_holds(session, exists, session.specs[1], False)


class TestDeadline:
    def test_expired_session_stops_condition_search_and_rewriting(self, session):
        session.deadline = time.monotonic() - 1.0
        assert synth_condition(session, frozenset({0}), frozenset({1})) is None
        t = MergeTuple(Var("arg0"), Var("b"), frozenset({0}))
        u = MergeTuple(Var("arg0"), Var("b"), frozenset({1}))
        assert rewrite_merge(MergeTerm((t, u)), session).tuples == (t, u)
        assert session.stats.evaluated == 0
