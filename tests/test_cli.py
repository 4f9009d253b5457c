import csv
import json
import shutil
from pathlib import Path

import pytest

from conftest import lookup_goal_text
from effsynth.cli import main


GOALS = Path("goals")

REPORT_KEYS = sorted([
    "goal", "mode", "precision", "success", "candidates_expanded",
    "candidates_evaluated", "per_spec", "wall_ms", "program_size", "paths",
    "tuple_count", "merge_orderings_tried", "failed_stage",
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
        goal = tmp_path / "lookup3.goal"
        goal.write_text(lookup_goal_text(3), encoding="utf-8")
        report = tmp_path / "r.json"
        code, _, err = run(capsys, "synth", str(goal), "--report", str(report))
        assert code == 1
        assert "(merge," in err
        data = json.loads(report.read_text())
        assert data["success"] is False
        assert data["failed_stage"] == "merge"

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

    def test_eval_arity_mismatch_exits_two(self, capsys, tmp_path):
        pfile = tmp_path / "p.prog"
        pfile.write_text("(def lvar (params a b) a)", encoding="utf-8")
        code, _, err = run(capsys, "eval", str(GOALS / "s1_lvar.goal"),
                           "--program", str(pfile))
        assert code == 2

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
        assert code == 1 and "type error" in err

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

    @pytest.mark.parametrize("flag", ["--max-size", "--budget"])
    def test_nonpositive_bounds_exit_two(self, capsys, flag):
        for argv in (["synth", str(GOALS / "s1_lvar.goal")], ["bench", str(GOALS)]):
            with pytest.raises(SystemExit) as exc:
                main(argv + [flag, "0"])
            assert exc.value.code == 2
            assert "is not >= 1" in capsys.readouterr().err

    def test_bench_empty_dir_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "bench", str(tmp_path))
        assert code == 2
