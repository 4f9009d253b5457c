import itertools
import time

import pytest

from conftest import NEAR_TWINS, lookup_goal_text
from effsynth import driver, interp
from effsynth.core import Call, ClassLit, DefinitionError, NilLit, RecordLit, StrLit
from effsynth.driver import Goal, count_paths, synthesize
from effsynth.goalfile import build, load_goal_file, parse_goal_file, print_program
from effsynth.interp import SetupStmt, Spec, run_spec
from effsynth.runtime import World
from effsynth.search import SearchConfig


def load(name):
    return load_goal_file(f"goals/{name}.goal")


class TestSynthesize:
    def test_zero_specs_is_an_error(self, blog):
        ct, world = blog
        from effsynth.core import ConstantPool, STR_T

        goal = Goal("g", (STR_T,), STR_T, ConstantPool(), ())
        with pytest.raises(DefinitionError):
            synthesize(goal, ct, world, SearchConfig())

    def test_reuse_collapses_specs_onto_one_tuple(self):
        gf, ct, world = load("s7_fold_branches")
        program, report = synthesize(gf.goal, ct, world, SearchConfig())
        assert program is not None
        assert report.tuple_count == 1
        assert report.paths == 1
        assert [p.reused for p in report.per_spec] == [False, True, True]

    def test_fresh_searches_only_for_unexplained_specs(self):
        gf, ct, world = load("s5_branching")
        program, report = synthesize(gf.goal, ct, world, SearchConfig())
        assert program is not None
        assert report.tuple_count == 2
        assert [p.reused for p in report.per_spec] == [False, False, True]

    def test_final_program_passes_every_spec(self):
        gf, ct, world = load("s5_branching")
        program, report = synthesize(gf.goal, ct, world, SearchConfig())
        for spec in gf.goal.specs:
            assert run_spec(program.body, gf.goal.arity, spec, world, ct).ok

    def test_report_counts_are_positive_and_consistent(self):
        gf, ct, world = load("s4_user_exists")
        program, report = synthesize(gf.goal, ct, world, SearchConfig())
        assert report.success
        assert report.candidates_evaluated > 0
        assert report.candidates_expanded > 0
        assert report.goal == "user_exists"
        assert report.merge_orderings_tried == 1

    def test_failure_report_carries_stage(self, blog):
        ct, world = blog
        from effsynth.core import ConstantPool, STR_T, StrLit, Var
        from effsynth.interp import Spec

        impossible = Spec("never", (), (StrLit("a"),),
                          (Call(Var("x_r"), "==", (StrLit("b"),)),))
        goal = Goal("g", (STR_T,), STR_T, ConstantPool(), (impossible,))
        cfg = SearchConfig(max_size=1, candidate_budget=30)
        program, report = synthesize(goal, ct, world, cfg)
        assert program is None
        assert not report.success
        assert report.failed_stage == "spec:never"
        assert report.program_size is None and report.paths is None

    def test_failing_merged_program_stops_at_the_final_gate(self, monkeypatch):
        # merging runs no spec; the driver's final gate is the one check
        gf, ct, world = load("s5_branching")
        monkeypatch.setattr(driver, "merge_program",
                            lambda tuples, session: Call(NilLit(), "boom", ()))
        program, report = synthesize(gf.goal, ct, world, SearchConfig())
        assert program is None
        assert report.failed_stage == "final-gate"
        assert report.program_size is None and report.paths is None

    def test_spec_order_permutation_still_validates(self):
        # outcome-level robustness: any spec order yields a program passing
        # every spec, though not necessarily the same program
        gf, ct, world = load("s5_branching")
        base_specs = gf.goal.specs
        for order in itertools.permutations(range(len(base_specs))):
            goal = Goal(gf.goal.name, gf.goal.param_types, gf.goal.ret,
                        gf.goal.constants, tuple(base_specs[i] for i in order))
            program, report = synthesize(goal, ct, world, SearchConfig())
            assert program is not None, order
            for spec in base_specs:
                assert run_spec(program.body, goal.arity, spec, world, ct).ok

    def test_update_post_spec_order_permutation(self):
        gf, ct, world = load("update_post")
        goal = Goal(gf.goal.name, gf.goal.param_types, gf.goal.ret,
                    gf.goal.constants, tuple(reversed(gf.goal.specs)))
        program, _ = synthesize(goal, ct, world, SearchConfig())
        assert program is not None
        for spec in gf.goal.specs:
            assert run_spec(program.body, goal.arity, spec, world, ct).ok


class TestTimeout:
    def test_merge_stops_at_the_deadline(self):
        # the two specs differ only in a User row that no condition over
        # Post and the argument sees; without types the condition bank
        # keeps growing far past the timeout, so the deadline must end it
        gf = parse_goal_file(NEAR_TWINS)
        ct, world = build(gf)
        cfg = SearchConfig(mode="effects_only", timeout_s=0.3)
        t0 = time.monotonic()
        program, report = synthesize(gf.goal, ct, world, cfg)
        assert time.monotonic() - t0 < 0.3 + 3
        assert program is None
        assert report.tuple_count == 2
        assert report.failed_stage == "merge"
        assert report.bank_candidates > report.bank_terms > 0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_lookup_merge_ends_without_a_timeout(n):
    # one decision list: branch k tests "k<k>" and the last one is the else
    gf = parse_goal_file(lookup_goal_text(n))
    ct, world = build(gf)
    program, report = synthesize(gf.goal, ct, world, SearchConfig())
    assert program is not None
    assert report.paths == count_paths(program.body) == n
    assert report.merge_orderings_tried == 1
    for spec in gf.goal.specs:
        assert run_spec(program.body, gf.goal.arity, spec, world, ct).ok


def with_decoys(goal, rows):
    """The goal with `rows` User rows appended to every spec's setup; no
    query built from the goal's constants or arguments matches them."""
    decoys = tuple(
        SetupStmt(Call(ClassLit("User"), "create", (RecordLit((
            ("name", StrLit(f"zq-decoy-{i}")), ("username", StrLit(f"zq-decoy-{i}")))),)))
        for i in range(rows))
    specs = tuple(Spec(s.title, s.setup + decoys, s.call_args, s.post) for s in goal.specs)
    return Goal(goal.name, goal.param_types, goal.ret, goal.constants, specs)


class TestSetupReplay:
    def test_each_spec_setup_runs_once_per_call(self, monkeypatch):
        gf, ct, world = load("update_post")
        resets = []
        real_reset = World.reset
        monkeypatch.setattr(World, "reset", lambda self: (resets.append(1), real_reset(self)))
        n = len(gf.goal.specs)
        assert synthesize(gf.goal, ct, world, SearchConfig())[0] is not None
        assert len(resets) == n
        synthesize(gf.goal, ct, world, SearchConfig())
        assert len(resets) == 2 * n  # nothing is kept across calls

    def test_decoy_rows_are_created_once_per_spec(self, monkeypatch):
        gf, ct, world = load("update_post")
        creates = []
        real_invoke = interp.invoke_native

        def counting(world, sig, recv, args):
            if sig.native == "minidb.create":
                creates.append(1)
            return real_invoke(world, sig, recv, args)

        monkeypatch.setattr(interp, "invoke_native", counting)
        rows = 50
        outcomes = []
        for goal in (gf.goal, with_decoys(gf.goal, rows)):
            creates.clear()
            program, report = synthesize(goal, ct, world, SearchConfig())
            outcomes.append((print_program(program), report.candidates_evaluated,
                             report.candidates_expanded, len(creates)))
        (prog, evaluated, expanded, plain), decoyed = outcomes
        assert decoyed == (prog, evaluated, expanded, plain + rows * len(gf.goal.specs))


class TestCountPaths:
    def test_straight_line(self):
        from effsynth.core import Var

        assert count_paths(Var("x")) == 1

    def test_if_chain(self):
        from effsynth.core import Atom, If, NIL, TrueLit, Var

        two = If(Atom(TrueLit()), Var("a"), Var("b"))
        assert count_paths(two) == 2
        three = If(Atom(TrueLit()), Var("a"), If(Atom(TrueLit()), Var("b"), NIL))
        assert count_paths(three) == 3

    def test_report_to_dict_schema(self):
        gf, ct, world = load("s1_lvar")
        _, report = synthesize(gf.goal, ct, world, SearchConfig())
        d = report.to_dict()
        assert sorted(d) == sorted([
            "goal", "mode", "precision", "success", "candidates_expanded",
            "candidates_evaluated", "per_spec", "wall_ms", "program_size",
            "paths", "tuple_count", "merge_orderings_tried", "bank_candidates",
            "bank_terms", "pops", "peak_queue", "failed_stage",
        ])
        assert d["failed_stage"] is None
        assert d["pops"] >= 1 and d["peak_queue"] >= 1
        # one expression solves every spec: no condition, so no bank
        assert d["bank_candidates"] == d["bank_terms"] == 0
        assert sorted(d["per_spec"][0]) == sorted([
            "spec", "reused", "candidates_expanded", "candidates_evaluated",
            "wall_ms",
        ])
