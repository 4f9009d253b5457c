"""Command-line interface: synth, eval, check, and the bench harness."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .core import DefinitionError, print_type, subtype
from .driver import Program, synthesize
from .goalfile import (
    load_goal_file, parse_program_file, print_effect, print_program,
)
from .interp import AssertErr, run_spec
from .search import PRECISIONS, SearchConfig
from .sexp import ParseError
from .typegen import TypeCheckError, typecheck

_MODE_FLAGS = {"full": "full", "types-only": "types_only",
               "effects-only": "effects_only", "none": "none"}


def _config(args, mode: str, precision: str) -> SearchConfig:
    return SearchConfig(max_size=args.max_size, mode=_MODE_FLAGS[mode], precision=precision,
                        candidate_budget=args.budget, timeout_s=args.timeout)


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is not >= 1")
    return n


def _positive_float(text: str) -> float:
    x = float(text)
    if not x > 0:  # also false for nan
        raise argparse.ArgumentTypeError(f"{text} is not > 0")
    return x


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=sorted(_MODE_FLAGS), default="full")
    p.add_argument("--precision", choices=PRECISIONS, default="precise")
    p.add_argument("--max-size", type=_positive_int, default=64)
    p.add_argument("--budget", type=_positive_int, default=50_000,
                   help="evaluations, and pops, per spec search")
    p.add_argument("--timeout", type=_positive_float, default=None,
                   help="wall-clock limit in seconds")


def _load(path: str):
    try:
        return load_goal_file(path)
    except (ParseError, DefinitionError, OSError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _load_program(path: str, ct) -> Program:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_program_file(fh.read(), set(ct.classes()))
    except (ParseError, OSError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def cmd_synth(args) -> int:
    gf, ct, world = _load(args.file)
    program, report = synthesize(gf.goal, ct, world,
                                 _config(args, args.mode, args.precision))
    if args.report:
        Path(args.report).write_text(json.dumps(report.to_dict(), indent=2) + "\n",
                                     encoding="utf-8")
    if program is None:
        stage = report.failed_stage or "search"
        print(f"no solution for {gf.goal.name} ({stage}, "
              f"{report.candidates_evaluated} candidates evaluated)", file=sys.stderr)
        return 1
    print(print_program(program))
    return 0


def _arity_mismatch(program: Program, gf) -> bool:
    """Report a program whose parameter count is not the goal's arity."""
    if len(program.params) == gf.goal.arity:
        return False
    print(f"error: program takes {len(program.params)} parameters, "
          f"goal expects {gf.goal.arity}", file=sys.stderr)
    return True


def cmd_eval(args) -> int:
    gf, ct, world = _load(args.file)
    program = _load_program(args.program, ct)
    if _arity_mismatch(program, gf):
        return 2
    all_ok = True
    for spec in gf.goal.specs:
        result = run_spec(program.body, gf.goal.arity, spec, world, ct,
                          params=program.params)
        if result.ok:
            print(f"PASS  {spec.title} ({result.passed_count} asserts)")
        elif isinstance(result.outcome, AssertErr):
            eff = result.outcome.eff
            print(f"FAIL  {spec.title}: assert {result.passed_count + 1} failed, "
                  f"read {print_effect(eff.read)}, write {print_effect(eff.write)}")
            all_ok = False
        else:
            err = result.outcome
            print(f"FAIL  {spec.title}: runtime error {err.kind} {err.detail}")
            all_ok = False
    return 0 if all_ok else 1


def cmd_check(args) -> int:
    gf, ct, world = _load(args.file)
    program = _load_program(args.program, ct)
    if _arity_mismatch(program, gf):
        return 2
    env = dict(zip(program.params, gf.goal.param_types))
    try:
        got = typecheck(env, ct, program.body)
    except TypeCheckError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return 1
    if not subtype(got, gf.goal.ret, ct):
        print(f"type error: body has type {print_type(got)}, goal returns "
              f"{print_type(gf.goal.ret)}", file=sys.stderr)
        return 1
    print(f"ok: {program.name} typechecks")
    return 0


def cmd_bench(args) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    precisions = [p.strip() for p in args.precisions.split(",") if p.strip()]
    for m in modes:
        if m not in _MODE_FLAGS:
            print(f"error: unknown mode {m}", file=sys.stderr)
            return 2
    for p in precisions:
        if p not in PRECISIONS:
            print(f"error: unknown precision {p}", file=sys.stderr)
            return 2
    files = sorted(Path(args.dir).glob("*.goal"))
    if not files:
        print(f"error: no .goal files under {args.dir}", file=sys.stderr)
        return 2
    rows = []
    for path in files:
        gf, ct, world = _load(str(path))
        for mode in modes:
            for precision in precisions:
                program, report = synthesize(gf.goal, ct, world,
                                             _config(args, mode, precision))
                rows.append({
                    "goal": gf.goal.name,
                    "mode": mode,
                    "precision": precision,
                    "success": int(report.success),
                    "wall_ms": f"{report.wall_ms:.1f}",
                    "candidates_evaluated": report.candidates_evaluated,
                    "program_size": report.program_size if program else "",
                    "paths": report.paths if program else "",
                })
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=[
            "goal", "mode", "precision", "success", "wall_ms",
            "candidates_evaluated", "program_size", "paths",
        ])
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="effsynth",
        description="Test-driven, type- and effect-guided program synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a program from a goal file")
    p.add_argument("file")
    _add_search_flags(p)
    p.add_argument("--report", help="write a JSON run report here")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("eval", help="run a program against a goal's specs")
    p.add_argument("file")
    p.add_argument("--program", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="typecheck a program against a goal")
    p.add_argument("file")
    p.add_argument("--program", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bench", help="run every goal under each configuration")
    p.add_argument("dir")
    p.add_argument("--modes", default="full")
    p.add_argument("--precisions", default="precise")
    p.add_argument("--budget", type=_positive_int, default=50_000,
                   help="evaluations, and pops, per spec search")
    p.add_argument("--max-size", type=_positive_int, default=64)
    p.add_argument("--timeout", type=_positive_float, default=None)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(fn=cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
