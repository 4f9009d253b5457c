import csv
import json
import shutil
from pathlib import Path

import pytest

from effsynth.cli import main


GOALS = Path("goals")

REPORT_KEYS = sorted([
    "goal", "mode", "precision", "success", "candidates_expanded",
    "candidates_evaluated", "per_spec", "wall_ms", "program_size", "paths",
    "tuple_count", "merge_orderings_tried", "bank_candidates", "bank_terms",
    "failed_stage", "pops", "peak_queue",
])

PER_SPEC_KEYS = sorted([
    "spec", "reused", "candidates_expanded", "candidates_evaluated", "wall_ms",
])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSynth:
    def test_success_prints_program(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, _ = run(capsys, "synth", str(GOALS / "s1_lvar.goal"),
                           "--report", str(report))
        assert code == 0
        assert out.strip() == "(def lvar (params arg0) arg0)"
        data = json.loads(report.read_text())
        assert sorted(data) == REPORT_KEYS
        assert sorted(data["per_spec"][0]) == PER_SPEC_KEYS
        assert data["success"] is True
        assert data["paths"] == 1

    def test_failure_exits_one_and_reports(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, err = run(capsys, "synth", str(GOALS / "s7_fold_branches.goal"),
                             "--mode", "none", "--budget", "40",
                             "--report", str(report))
        assert code == 1
        assert "no solution" in err
        data = json.loads(report.read_text())
        assert data["success"] is False
        assert data["program_size"] is None and data["paths"] is None
        assert sorted(data) == REPORT_KEYS

    def test_report_names_the_failed_stage(self, capsys, tmp_path):
        # each spec alone is solvable, but with the same setup and arguments
        # no branch condition can tell them apart
        goal = tmp_path / "twins.goal"
        goal.write_text("""
(constants ("a" Str) ("b" Str))
(goal twins
  (sig (Str -> Str))
  (consts "a" "b")
  (spec "wants a" (setup (call! "k")) (post (assert (call x_r == "a"))))
  (spec "wants b" (setup (call! "k")) (post (assert (call x_r == "b")))))
""", encoding="utf-8")
        report = tmp_path / "r.json"
        code, _, err = run(capsys, "synth", str(goal), "--report", str(report))
        assert code == 1
        assert "(merge," in err
        data = json.loads(report.read_text())
        assert data["success"] is False
        assert data["failed_stage"] == "merge"

    def test_method_without_native_fails_its_candidates(self, capsys, tmp_path):
        # a declared method with no native loads; calling it is a runtime
        # error that drops the candidate, not a traceback
        goal = tmp_path / "loud.goal"
        goal.write_text("""
(schema Post (title Str))
(method Post shout (params) Str)
(constants (Post (class-of Post)))
(goal loud
  (sig (Post -> Str))
  (consts Post)
  (spec "shouts"
    (setup (bind p (call Post create (record (title "hi")))) (call! p))
    (post (assert (call x_r == "HI")))))
""", encoding="utf-8")
        code, out, err = run(capsys, "synth", str(goal), "--budget", "50")
        assert code == 1
        assert out == ""
        # 50 pops, the budget, leave 16 evaluations
        assert err == "no solution for loud (spec:shouts, 16 candidates evaluated)\n"

    def test_budget_ends_a_search_that_completes_nothing(self, capsys, tmp_path):
        # no Bool term can be completed, so nothing is evaluated; the budget
        # bounds the pops and synth gives up instead of running on
        goal = tmp_path / "g.goal"
        goal.write_text("""
(schema Post (title Str))
(goal g (sig (-> Bool)) (consts)
  (spec "t" (setup (call!)) (post (assert (call x_r == true)))))
""", encoding="utf-8")
        code, out, err = run(capsys, "synth", str(goal), "--budget", "50")
        assert code == 1
        assert err == "no solution for g (spec:t, 0 candidates evaluated)\n"

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.goal"
        bad.write_text("(goal", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(bad)])
        assert exc.value.code == 2

    def test_missing_file_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "goals/nope.goal"])
        assert exc.value.code == 2


# A well-formed goal, for the short declarations below to come before.
SHORT_GOAL = '\n(goal g (sig (-> Bool)) (consts) (spec "t" (setup (call!)) (post (assert true))))'

# (goal file text, "L:C: msg" of its reader or declaration error)
BAD_GOALS = [
    ('(constants ("a\\q" Str))', "1:13: bad escape \\q"),
    ('(goal g\n  (consts "abc', "2:11: unterminated string"),
    ("(constants)\n(goal g (sig (-> Bool))", "2:1: unclosed '('"),
    # declarations with too few items, reported at the form that is short
    ("(class)" + SHORT_GOAL, "1:1: (class NAME (parent NAME)?)"),
    ("(schema)" + SHORT_GOAL, "1:1: (schema NAME (COLUMN TYPE)...)"),
    ("(class A (parent))" + SHORT_GOAL, "1:10: (parent NAME)"),
    ("(method Obj m (params) Obj ())" + SHORT_GOAL,
     '1:28: expected (read EFF), (write EFF), or (native "ID")'),
    # class-of takes a class name, not a union or a record type
    ("(method Obj m (params (class-of (u Post Obj))) Obj)" + SHORT_GOAL, "1:23: (class-of NAME)"),
    ("(method Obj m (params) (class-of (record (a Str))))" + SHORT_GOAL, "1:24: (class-of NAME)"),
    ('(method Obj m (params) Obj (native "nope"))' + SHORT_GOAL, "1:28: unknown native nope"),
]


class TestGoalParseErrors:
    @pytest.mark.parametrize("command", ["synth", "check"])
    @pytest.mark.parametrize("text,where", BAD_GOALS,
                             ids=["bad-escape", "unterminated-string", "unclosed-paren",
                                  "short-class", "short-schema", "short-parent",
                                  "empty-method-extra", "class-of-union", "class-of-record",
                                  "unknown-native"])
    def test_exits_two_with_path_and_position(self, capsys, tmp_path, command, text, where):
        goal = tmp_path / "bad.goal"
        goal.write_text(text, encoding="utf-8")
        pfile = tmp_path / "p.prog"
        pfile.write_text("(def g (params) true)", encoding="utf-8")
        argv = [command, str(goal)]
        if command == "check":
            argv += ["--program", str(pfile)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {goal}: {where}\n"


# (goal file text, the declaration error naming the constant or spec): a
# term that does not type, loaded by any command, is an error of the file
ILL_TYPED_GOALS = [
    ('(constants ((call 1 foo) Int))' + SHORT_GOAL,
     "constant (call 1 foo) does not typecheck: method foo missing on Int"),
    ('(goal g (sig (Str -> Str)) (consts)\n'
     '  (spec "t" (setup (call! nope)) (post (assert true))))',
     "spec 't' argument nope does not typecheck: unbound variable nope"),
    ('(goal g (sig (Bool -> Bool)) (consts)\n'
     '  (spec "t" (setup (call! (call "a" == 1))) (post (assert true))))',
     "spec 't' argument (call \"a\" == 1) does not typecheck: == is never true on Str and Int"),
]


class TestIllTypedGoals:
    @pytest.mark.parametrize("command", ["synth", "check"])
    @pytest.mark.parametrize("text,message", ILL_TYPED_GOALS,
                             ids=["constant", "unbound-argument", "incomparable-eq"])
    def test_exits_two_with_one_error_line(self, capsys, tmp_path, command, text, message):
        goal = tmp_path / "bad.goal"
        goal.write_text(text, encoding="utf-8")
        pfile = tmp_path / "p.prog"
        pfile.write_text("(def g (params) true)", encoding="utf-8")
        argv = [command, str(goal)]
        if command == "check":
            argv += ["--program", str(pfile)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        # the message on one line, with types in goal-file syntax
        assert out.err == f"error: {goal}: {message}\n"
        assert "ClassT(" not in out.err


class TestEvalAndCheck:
    def test_eval_roundtrip_all_pass(self, capsys, tmp_path):
        # a synthesized program always evaluates clean against its own goal
        for goal in ["s1_lvar", "s4_user_exists", "s5_branching"]:
            src = GOALS / f"{goal}.goal"
            code, out, _ = run(capsys, "synth", str(src))
            assert code == 0
            pfile = tmp_path / f"{goal}.prog"
            pfile.write_text(out, encoding="utf-8")
            code, out, _ = run(capsys, "eval", str(src), "--program", str(pfile))
            assert code == 0
            assert out.count("PASS") == out.count("\n")

    def test_eval_reports_failing_assert_with_effects(self, capsys, tmp_path):
        pfile = tmp_path / "p.prog"
        pfile.write_text(
            '(def rename_doc (params arg0 arg1) '
            '(call (call Doc where (record (slug arg0))) first))',
            encoding="utf-8")
        code, out, _ = run(capsys, "eval", str(GOALS / "s7_fold_branches.goal"),
                           "--program", str(pfile))
        assert code == 1
        assert "FAIL" in out
        assert "read Doc.title" in out

    @pytest.mark.parametrize("goal,source", [
        ("s1_lvar", "(def lvar (params x) x)"),
        # a let binding arg0 does not capture the parameter x
        ("s1_lvar", '(def lvar (params x) (let arg0 "other" x))'),
        # the first argument is bound to arg1, the second to arg0
        ("s7_fold_branches", "(def rename_doc (params arg1 arg0) (let t0 (call (call Doc where "
                             "(record (slug arg1))) first) (seq (call t0 title= arg0) t0)))"),
    ], ids=["own-name", "shadowing-let", "swapped-names"])
    def test_eval_binds_the_programs_own_parameter_names(self, capsys, tmp_path, goal,
                                                         source):
        pfile = tmp_path / "p.prog"
        pfile.write_text(source, encoding="utf-8")
        for command in ("check", "eval"):
            code, out, _ = run(capsys, command, str(GOALS / f"{goal}.goal"),
                               "--program", str(pfile))
            assert code == 0, (command, out)
        assert "FAIL" not in out and "PASS" in out

    def test_eval_arity_mismatch_exits_two(self, capsys, tmp_path):
        pfile = tmp_path / "p.prog"
        pfile.write_text("(def lvar (params a b) a)", encoding="utf-8")
        code, _, err = run(capsys, "eval", str(GOALS / "s1_lvar.goal"),
                           "--program", str(pfile))
        assert code == 2

    @pytest.mark.parametrize("source", [
        "(def f (params a b c) a)",
        '(def f (params) "x")',
    ], ids=["extra", "missing"])
    def test_check_arity_mismatch_exits_two(self, capsys, tmp_path, source):
        # check must not zip the parameters against the goal's types and
        # silently drop the surplus; it rejects the program as eval does
        pfile = tmp_path / "p.prog"
        pfile.write_text(source, encoding="utf-8")
        for command in ("eval", "check"):
            code, out, err = run(capsys, command, str(GOALS / "s1_lvar.goal"),
                                 "--program", str(pfile))
            assert code == 2, command
            assert "goal expects 1" in err and "ok" not in out

    def test_check_accepts_well_typed(self, capsys, tmp_path):
        pfile = tmp_path / "p.prog"
        pfile.write_text("(def lvar (params arg0) arg0)", encoding="utf-8")
        code, out, _ = run(capsys, "check", str(GOALS / "s1_lvar.goal"),
                           "--program", str(pfile))
        assert code == 0 and "ok" in out

    def test_check_rejects_ill_typed(self, capsys, tmp_path):
        pfile = tmp_path / "p.prog"
        pfile.write_text("(def lvar (params arg0) 42)", encoding="utf-8")
        code, _, err = run(capsys, "check", str(GOALS / "s1_lvar.goal"),
                           "--program", str(pfile))
        assert code == 1
        assert err == "type error: body has type Int, goal returns Str\n"

    @pytest.mark.parametrize("goal,program,message", [
        ("s1_lvar", "(def g (params a) (if a a a))", "condition has type Str, not Bool"),
        ("s1_lvar", "(def g (params a) (call a == 1))", "== is never true on Str and Int"),
        ("update_post", "(def g (params a b c) (call Post create 1))",
         "argument of type Int does not fit (record (author Str opt) (slug Str opt) "
         "(title Str opt)) in create"),
    ], ids=["condition", "incomparable-eq", "argument"])
    def test_check_prints_types_in_goal_syntax(self, capsys, tmp_path, goal, program, message):
        pfile = tmp_path / "p.prog"
        pfile.write_text(program, encoding="utf-8")
        code, _, err = run(capsys, "check", str(GOALS / f"{goal}.goal"),
                           "--program", str(pfile))
        assert code == 1
        assert err == f"type error: {message}\n"

    def test_check_rejects_bad_call(self, capsys, tmp_path):
        pfile = tmp_path / "p.prog"
        pfile.write_text("(def lvar (params arg0) (call nil boom))", encoding="utf-8")
        code, _, err = run(capsys, "check", str(GOALS / "s1_lvar.goal"),
                           "--program", str(pfile))
        assert code == 1


class TestBench:
    def test_bench_csv_schema(self, capsys, tmp_path):
        bench_dir = tmp_path / "goals"
        bench_dir.mkdir()
        shutil.copy(GOALS / "s1_lvar.goal", bench_dir)
        shutil.copy(GOALS / "s2_false.goal", bench_dir)
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", str(bench_dir),
                         "--modes", "full,types-only",
                         "--precisions", "precise,class,purity",
                         "--out", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(out_csv.open()))
        assert len(rows) == 2 * 2 * 3
        assert sorted(rows[0]) == sorted([
            "goal", "mode", "precision", "success", "wall_ms",
            "candidates_evaluated", "program_size", "paths"])
        assert {r["goal"] for r in rows} == {"lvar", "always_false"}
        assert all(r["success"] == "1" for r in rows)

    def test_bench_unknown_mode_exits_two(self, capsys, tmp_path):
        bench_dir = tmp_path / "goals"
        bench_dir.mkdir()
        shutil.copy(GOALS / "s1_lvar.goal", bench_dir)
        code, _, err = run(capsys, "bench", str(bench_dir), "--modes", "warp")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--max-size", "--budget", "--timeout"])
    def test_nonpositive_bounds_exit_two(self, capsys, flag):
        values, message = {
            "--max-size": (["0"], "is not >= 1"),
            "--budget": (["0"], "is not >= 1"),
            "--timeout": (["0", "-1", "nan"], "is not > 0"),
        }[flag]
        for argv in (["synth", str(GOALS / "s1_lvar.goal")], ["bench", str(GOALS)]):
            for value in values:
                with pytest.raises(SystemExit) as exc:
                    main(argv + [flag, value])
                assert exc.value.code == 2
                assert message in capsys.readouterr().err

    def test_bench_empty_dir_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "bench", str(tmp_path))
        assert code == 2
