"""Acceptance suite: one test per criterion, each printing a PASS line.

Every synthesis cell used by criteria 1-4 is run twice up front; criterion 8
checks the two runs byte-for-byte. Run with `pytest -v tests/test_acceptance.py`
for the per-criterion pass/fail lines (add -s for the summary prints).
"""

import itertools
import random
import time

import pytest

from effsynth.core import (
    Atom, BOOL_T, Call, ClassLit, ClassOf, ClassStar, ClassT, ConstantPool,
    Effect, EffectPair, FalseLit, If, IntLit, Let, NilLit, Not, Or, PURE,
    PURE_PAIR, RecordLit, Region, Seq, Star, StrLit, STR_T, TRUE_COND,
    TrueLit, Var, atom_key, canon_effect, eff_subsumes, eff_union, expr_size,
    subtype, union_of, walk,
)
from effsynth.driver import synthesize
from effsynth.goalfile import load_goal_file, print_program
from effsynth.interp import AssertErr, Ok, RuntimeErr, SetupStmt, Spec, run_spec
from effsynth.merge import MergeSession, MergeTerm, MergeTuple, implies, rewrite_merge
from effsynth.runtime import relation_class
from effsynth.search import SearchConfig

from conftest import random_hierarchy


def call(recv, m, *args):
    return Call(recv, m, tuple(args))


def eq(a, b):
    return call(a, "==", b)


def _cell_config(mode, precision, budget):
    return SearchConfig(mode=mode, precision=precision, candidate_budget=budget)


CELLS = [
    ("s1_lvar", "full", "precise", 50_000),
    ("s2_false", "full", "precise", 50_000),
    ("s3_method_chains", "full", "precise", 50_000),
    ("s4_user_exists", "full", "precise", 50_000),
    ("s5_branching", "full", "precise", 50_000),
    ("s7_fold_branches", "full", "precise", 50_000),
    ("update_post", "full", "precise", 100_000),
    ("update_post", "types_only", "precise", 100_000),
    ("update_post", "effects_only", "precise", 100_000),
    ("update_post", "none", "precise", 100_000),
    ("update_post", "full", "class", 100_000),
    ("update_post", "full", "purity", 100_000),
]


@pytest.fixture(scope="module")
def cells():
    """Each synthesis cell run twice: criteria 1-4 read the first run,
    criterion 8 compares the two."""
    loaded = {}
    out = {}
    for goal_name, mode, precision, budget in CELLS:
        if goal_name not in loaded:
            loaded[goal_name] = load_goal_file(f"goals/{goal_name}.goal")
        gf, ct, world = loaded[goal_name]
        runs = []
        for _ in range(2):
            cfg = _cell_config(mode, precision, budget)
            t0 = time.monotonic()
            program, report = synthesize(gf.goal, ct, world, cfg)
            wall_s = time.monotonic() - t0
            runs.append({
                "program_text": print_program(program) if program else "",
                "success": report.success,
                "evaluated": report.candidates_evaluated,
                "expanded": report.candidates_expanded,
                "paths": report.paths,
                "wall_s": wall_s,
                "program": program,
            })
        out[(goal_name, mode, precision)] = runs
    return out


def _passline(n, text):
    print(f"ACCEPTANCE CRITERION {n}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. Synthetic-analogue suite
# ---------------------------------------------------------------------------

def test_criterion_1_synthetic_suite_paths(cells):
    expected_paths = {
        "s1_lvar": 1, "s2_false": 1, "s3_method_chains": 1,
        "s4_user_exists": 1, "s5_branching": 2, "s7_fold_branches": 1,
    }
    for goal_name, paths in expected_paths.items():
        run = cells[(goal_name, "full", "precise")][0]
        assert run["success"], goal_name
        assert run["paths"] == paths, (goal_name, run["paths"])
        assert run["wall_s"] < 60.0, (goal_name, run["wall_s"])
    _passline(1, "six synthetic goals solved under 60s with exact path counts")


# ---------------------------------------------------------------------------
# 2. Overview end-to-end
# ---------------------------------------------------------------------------

def test_criterion_2_overview_end_to_end(cells):
    gf, ct, world = load_goal_file("goals/update_post.goal")
    run = cells[("update_post", "full", "precise")][0]
    assert run["success"]
    assert run["wall_s"] <= 120.0
    program = run["program"]
    # (a) passes both specs
    for spec in gf.goal.specs:
        assert run_spec(program.body, gf.goal.arity, spec, world, ct).ok
    # (b) exactly one if, whose condition queries exists? with author+slug
    ifs = [n for n in walk(program.body) if isinstance(n, If)]
    assert len(ifs) == 1
    cond_calls = [n for n in walk(ifs[0].cond) if isinstance(n, Call)]
    exists_calls = [c for c in cond_calls if c.method == "exists?"]
    assert len(exists_calls) == 1
    rec = exists_calls[0].args[0]
    assert isinstance(rec, RecordLit)
    assert {k for k, _ in rec.pairs} == {"author", "slug"}
    # (c) a title writer on the true branch only
    then_methods = [n.method for n in walk(ifs[0].then) if isinstance(n, Call)]
    else_methods = [n.method for n in walk(ifs[0].orelse) if isinstance(n, Call)]
    assert "title=" in then_methods
    assert "title=" not in else_methods
    _passline(2, "update_post synthesizes the branching retitle program")


# ---------------------------------------------------------------------------
# 3. Guidance ablation
# ---------------------------------------------------------------------------

def test_criterion_3_guidance_ablation(cells):
    full = cells[("update_post", "full", "precise")][0]
    t_only = cells[("update_post", "types_only", "precise")][0]
    e_only = cells[("update_post", "effects_only", "precise")][0]
    none = cells[("update_post", "none", "precise")][0]
    assert full["success"]
    assert not none["success"]
    assert t_only["evaluated"] > full["evaluated"]
    assert e_only["evaluated"] > full["evaluated"]
    _passline(3, f"evaluated: full={full['evaluated']} "
                 f"types-only={t_only['evaluated']} "
                 f"effects-only={e_only['evaluated']} none=failed")


# ---------------------------------------------------------------------------
# 4. Effect-precision degradation
# ---------------------------------------------------------------------------

def test_criterion_4_effect_precision(cells):
    precise = cells[("update_post", "full", "precise")][0]
    coarse = cells[("update_post", "full", "class")][0]
    purity = cells[("update_post", "full", "purity")][0]
    assert precise["success"]
    assert precise["evaluated"] <= coarse["evaluated"] <= purity["evaluated"]
    _passline(4, f"evaluated: precise={precise['evaluated']} "
                 f"class={coarse['evaluated']} purity={purity['evaluated']}")


# ---------------------------------------------------------------------------
# 5. Postcondition semantics oracle
# ---------------------------------------------------------------------------

def _post_title(c):
    return Effect((Region("Post", c),))


def _scenarios():
    """Hand-evaluated spec executions over the blog fixture.

    Each row: (name, setup, call_args, body, post, expected passed count,
    expected outcome kind, expected read atoms, expected write atoms).
    """
    p = SetupStmt(call(ClassLit("Post"), "create",
                       RecordLit((("slug", StrLit("b")), ("title", StrLit("a"))))), "p")
    u = SetupStmt(call(ClassLit("User"), "create",
                       RecordLit((("name", StrLit("x")),))), "u")
    post_star = Effect((ClassStar("Post"),))
    rel_star = Effect((ClassStar(relation_class("Post")),))
    return [
        ("bare true passes", [], (), NilLit(),
         [TrueLit()], 1, Ok, PURE, PURE),
        ("bare false fails pure", [], (), NilLit(),
         [FalseLit()], 0, AssertErr, PURE, PURE),
        ("result comparison passes", [], (), IntLit(7),
         [eq(Var("x_r"), IntLit(7))], 1, Ok, PURE, PURE),
        ("result comparison fails pure", [], (), IntLit(7),
         [eq(Var("x_r"), IntLit(8))], 0, AssertErr, PURE, PURE),
        ("truthy string read", [p], (), NilLit(),
         [call(Var("p"), "title")], 1, Ok, PURE, PURE),
        ("failing title read reported", [p], (), NilLit(),
         [eq(call(Var("p"), "title"), StrLit("z"))], 0, AssertErr,
         _post_title("title"), PURE),
        ("accumulator resets after a pass", [p], (), NilLit(),
         [eq(call(Var("p"), "title"), StrLit("a")),
          eq(call(Var("p"), "slug"), StrLit("z"))], 1, AssertErr,
         _post_title("slug"), PURE),
        ("stop at first failure", [p], (), NilLit(),
         [eq(call(Var("p"), "slug"), StrLit("z")),
          eq(call(Var("p"), "title"), StrLit("a"))], 0, AssertErr,
         _post_title("slug"), PURE),
        ("exists? failure reads the table", [p], (), NilLit(),
         [call(ClassLit("Post"), "exists?", RecordLit((("slug", StrLit("zzz")),)))],
         0, AssertErr, post_star, PURE),
        ("writer charge lands in the write slot", [p], (), NilLit(),
         [eq(call(Var("p"), "title=", StrLit("z")), StrLit("w"))], 0, AssertErr,
         PURE, _post_title("title")),
        ("reads union across one assert", [p, u], (), NilLit(),
         [eq(call(Var("p"), "title"), call(Var("u"), "name"))], 0, AssertErr,
         Effect((Region("Post", "title"), Region("User", "name"))), PURE),
        ("runtime error after a pass keeps the count", [p], (), NilLit(),
         [TrueLit(), call(Var("p"), "boom")], 1, RuntimeErr, None, None),
        ("runtime error in setup", [SetupStmt(call(NilLit(), "boom"))], (), NilLit(),
         [TrueLit()], 0, RuntimeErr, None, None),
        ("body effects are invisible", [], (),
         call(ClassLit("Post"), "create", RecordLit(())),
         [FalseLit()], 0, AssertErr, PURE, PURE),
        ("setup effects are invisible", [p], (), NilLit(),
         [TrueLit(), FalseLit()], 1, AssertErr, PURE, PURE),
        ("zero is truthy", [], (), NilLit(), [IntLit(0)], 1, Ok, PURE, PURE),
        ("empty string is truthy", [], (), NilLit(), [StrLit("")], 1, Ok, PURE, PURE),
        ("nil is falsy", [], (), NilLit(), [NilLit()], 0, AssertErr, PURE, PURE),
        ("objects are truthy", [p], (), NilLit(), [Var("p")], 1, Ok, PURE, PURE),
        ("if-guard reads accumulate on failure", [p], (), NilLit(),
         [If(Atom(eq(call(Var("p"), "title"), StrLit("z"))), TrueLit(), FalseLit())],
         0, AssertErr, _post_title("title"), PURE),
        ("seq charges its head", [p], (), NilLit(),
         [Seq(call(Var("p"), "title"), FalseLit())], 0, AssertErr,
         _post_title("title"), PURE),
        ("let charges its binding", [p], (), NilLit(),
         [Let("v", call(Var("p"), "slug"), eq(Var("v"), StrLit("z")))],
         0, AssertErr, _post_title("slug"), PURE),
        ("query chain failure reads table and relation", [p], (), NilLit(),
         [call(call(ClassLit("Post"), "where", RecordLit((("slug", StrLit("none")),))),
               "first")],
         0, AssertErr,
         Effect(tuple(sorted(post_star.atoms + rel_star.atoms, key=atom_key))),
         PURE),
        ("all asserts pass with counter", [p], (), IntLit(7),
         [TrueLit(), eq(call(Var("p"), "title"), StrLit("a")), eq(Var("x_r"), IntLit(7))],
         3, Ok, PURE, PURE),
        ("argument flows into the result", [], (StrLit("v"),), Var("arg0"),
         [eq(Var("x_r"), StrLit("v"))], 1, Ok, PURE, PURE),
    ]


def test_criterion_5_postcondition_oracle(blog):
    ct, world = blog
    table = _scenarios()
    assert len(table) >= 20
    for (name, setup, args, body, post, want_passed, want_kind,
         want_read, want_write) in table:
        spec = Spec(name, tuple(setup), tuple(args), tuple(post))
        res = run_spec(body, len(args), spec, world, ct)
        assert res.passed_count == want_passed, name
        assert isinstance(res.outcome, want_kind), name
        if want_kind is AssertErr:
            got = res.outcome.eff
            assert got.read == canon_effect(want_read.atoms, ct), name
            assert got.write == canon_effect(want_write.atoms, ct), name
    _passline(5, f"{len(table)} hand-evaluated postcondition scenarios match")


# ---------------------------------------------------------------------------
# 6. Lattice and implication property suites
# ---------------------------------------------------------------------------

def _random_type(rng, ct):
    names = [c for c in ct.classes() if not c.startswith("Relation")]
    kind = rng.random()
    if kind < 0.7:
        return ClassT(rng.choice(names))
    return union_of(*(ClassT(rng.choice(names)) for _ in range(rng.randint(1, 3))))


def test_criterion_6_lattice_properties():
    rng = random.Random(20240817)
    checks = 0
    for _ in range(1000):
        ct = random_hierarchy(rng, n_classes=4)
        t1, t2, t3 = (_random_type(rng, ct) for _ in range(3))
        assert subtype(t1, t1, ct)
        assert subtype(ClassT("Nil"), t1, ct)
        assert subtype(t1, ClassT("Obj"), ct)
        if subtype(t1, t2, ct) and subtype(t2, t3, ct):
            assert subtype(t1, t3, ct)
        classes = ct.classes()
        atoms = [Star(), ClassStar(rng.choice(classes)),
                 Region(rng.choice(classes), rng.choice("ab")),
                 Region(rng.choice(classes), "a")]
        e1 = canon_effect(rng.sample(atoms, rng.randint(0, 3)), ct)
        e2 = canon_effect(rng.sample(atoms, rng.randint(0, 3)), ct)
        e3 = canon_effect(rng.sample(atoms, rng.randint(0, 3)), ct)
        assert canon_effect(e1.atoms, ct) == e1
        u12 = eff_union(e1, e2, ct)
        assert u12 == eff_union(e2, e1, ct)
        assert eff_union(e1, e1, ct) == e1
        assert eff_union(eff_union(e1, e2, ct), e3, ct) == \
            eff_union(e1, eff_union(e2, e3, ct), ct)
        assert eff_subsumes(e1, u12, ct)
        assert eff_subsumes(e1, e1, ct)
        assert eff_subsumes(PURE, e1, ct)
        assert eff_subsumes(e1, Effect((Star(),)), ct)
        if eff_subsumes(e1, e2, ct) and eff_subsumes(e2, e3, ct):
            assert eff_subsumes(e1, e3, ct)
        checks += 1
    assert checks == 1000
    _passline(6, "1000 randomized lattice cases plus the implication oracle")


def test_criterion_6_implies_truth_table_oracle():
    rng = random.Random(99)
    atoms = [Atom(Var(n)) for n in "abcd"]

    def random_cond(depth):
        if depth == 0 or rng.random() < 0.45:
            return rng.choice(atoms)
        if rng.random() < 0.5:
            return Not(random_cond(depth - 1))
        return Or(random_cond(depth - 1), random_cond(depth - 1))

    def truth(c, env):
        if isinstance(c, Atom):
            return env[c.expr.name]
        if isinstance(c, Not):
            return not truth(c.inner, env)
        return truth(c.left, env) or truth(c.right, env)

    for _ in range(1000):
        b1, b2 = random_cond(3), random_cond(3)
        oracle = all(
            (not truth(b1, dict(zip("abcd", bits)))) or truth(b2, dict(zip("abcd", bits)))
            for bits in itertools.product((False, True), repeat=4))
        assert implies(b1, b2, {}) == oracle


# ---------------------------------------------------------------------------
# 7. Rewrite-algebra suite
# ---------------------------------------------------------------------------

def test_criterion_7_rewrite_rules(blog):
    ct, world = blog
    sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")),))
    seed = SetupStmt(call(ClassLit("Post"), "create",
                          RecordLit((("slug", StrLit("present")),))), "p")
    tautology = eq(Var("x_r"), Var("x_r"))
    specs = (
        Spec("spec-with-row", (seed,), (StrLit("present"),), (tautology,)),
        Spec("spec-without-row", (), (StrLit("absent"),), (tautology,)),
    )
    session = MergeSession(
        goal_params=(STR_T,), ret_ty=STR_T, ct=ct, sigma=sigma, world=world,
        cfg=SearchConfig(max_size=6, candidate_budget=2000), specs=specs,
    )
    b, c = Atom(Var("b")), Atom(Var("c"))

    def check(tuples, expect_len, label):
        term = MergeTerm(tuple(tuples))
        out = rewrite_merge(term, session)
        assert out.spec_ids() == term.spec_ids(), label
        assert len(out.tuples) == expect_len, label
        return out

    # (1) identical expressions and conditions fold into one tuple
    check([MergeTuple(Var("arg0"), b, frozenset({0})),
           MergeTuple(Var("arg0"), b, frozenset({1}))], 1, "rule1")
    # (2) equal expressions under an implied condition keep the stronger one
    out = check([MergeTuple(Var("arg0"), b, frozenset({0})),
                 MergeTuple(Var("arg0"), Or(b, c), frozenset({1}))], 1, "rule2")
    assert out.tuples[0].cond == b
    # (3) equal expressions under incomparable conditions disjoin them
    out = check([MergeTuple(Var("arg0"), b, frozenset({0})),
                 MergeTuple(Var("arg0"), c, frozenset({1}))], 1, "rule3")
    assert out.tuples[0].cond == Or(b, c)
    # (4) differing expressions under equal conditions trigger resynthesis
    out = check([MergeTuple(StrLit("present"), TRUE_COND, frozenset({0})),
                 MergeTuple(StrLit("absent"), TRUE_COND, frozenset({1}))], 2, "rule4")
    assert out.tuples[0].cond != TRUE_COND
    exists_calls = [n for n in walk(out.tuples[0].cond)
                    if isinstance(n, Call) and n.method == "exists?"]
    assert exists_calls, "rule4 resynthesized condition queries the store"
    # (5) a true/false pair under negated conditions folds to the condition
    out = check([MergeTuple(TrueLit(), b, frozenset({0})),
                 MergeTuple(FalseLit(), Not(b), frozenset({1}))], 1, "rule5")
    assert out.tuples[0].expr == Var("b")
    assert out.tuples[0].cond == Or(b, Not(b))
    # (6) the mirrored boolean pair folds the same way
    out = check([MergeTuple(FalseLit(), Not(b), frozenset({0})),
                 MergeTuple(TrueLit(), b, frozenset({1}))], 1, "rule6")
    assert out.tuples[0].expr == Var("b")
    # (7) a verified negation replaces the second condition
    exists_cond = Atom(call(ClassLit("Post"), "exists?",
                            RecordLit((("slug", StrLit("present")),))))
    out = check([MergeTuple(StrLit("present"), exists_cond, frozenset({0})),
                 MergeTuple(StrLit("absent"), c, frozenset({1}))], 2, "rule7")
    assert out.tuples[1].cond == Not(exists_cond)
    # (8) the mirrored guess replaces the first condition
    missing_cond = Atom(call(ClassLit("Post"), "exists?",
                             RecordLit((("slug", StrLit("nowhere")),))))
    out = check([MergeTuple(StrLit("present"), c, frozenset({0})),
                 MergeTuple(StrLit("absent"), missing_cond, frozenset({1}))], 2, "rule8")
    assert out.tuples[0].cond == Not(missing_cond)
    _passline(7, "rules (1)-(8) fire on their fixtures and preserve spec sets")


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(cells):
    for key, runs in cells.items():
        first, second = runs
        assert first["program_text"] == second["program_text"], key
        assert first["evaluated"] == second["evaluated"], key
        assert first["expanded"] == second["expanded"], key
        assert first["success"] == second["success"], key
    _passline(8, f"{len(cells)} synthesis cells byte-identical across reruns")
