#!/usr/bin/env python3
"""The effsynth benchmark: end-to-end synthesis metrics per workload, and a
traced run that breaks them down by layer.

Run from the root of a checkout of the repository:

    python3 benchmark/run.py --workload suite_full --seed 0 --seconds 50 --trace 0

One process drives the library (`goalfile`, `driver.synthesize`) with no
threads. Set-up imports the library afresh and loads or generates the
workload's goals. The run then makes passes over the workload's cells (one
`synthesize` call each, in an order drawn from the seed): one untimed
warm-up pass, then timed passes until `--seconds` have passed, and at least
two. Set-up is repeated after every timed pass; the median is `setup_s`.
Every returned program is re-run against every spec and its path count
compared with a fixed table; every pass must repeat the reference counts
and printed programs exactly. With `--trace 1` the passes alternate between
untraced and traced (see spans.py); the traced ones give the per-layer
metrics, and both together the tracing overhead. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from spans import LAYERS, Tracer, install, install_loading

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOALS = ROOT / "goals"


@dataclass(frozen=True)
class Cell:
    goal: str
    mode: str = "full"
    precision: str = "precise"
    budget: int | None = None  # None: SearchConfig's default

    @property
    def label(self) -> str:
        return f"{self.goal}/{self.mode}/{self.precision}"


SUITE = ("s1_lvar", "s2_false", "s3_method_chains", "s4_user_exists",
         "s5_branching", "s7_fold_branches")

# suite_full: the paper's headline configuration; update_post's expansion,
#   dedup and merge condition search dominate, setups are tiny, so search
#   and merge work shows and replay cost does not.
# ablation_search: update_post with weakened guidance; expansion, dedup and
#   re-typechecking dominate and evaluation is a small share. The
#   effects_only cell is capped far below the acceptance budget and ends
#   unsolved by design. Run by hand only: its 10-15 s passes leave too few
#   per run for a steady median, so BENCHMARK.json does not list it.
# setup_heavy: four bundled goals with decoy rows before every goal call
#   (heavy.py); search is unchanged and spec evaluation (setup replay plus
#   table scans) dominates. suite_full is its control.
WORKLOADS = {
    "suite_full": tuple(Cell(g) for g in SUITE) + (Cell("update_post", budget=100_000),),
    "ablation_search": (
        Cell("update_post", "types_only", "precise", 100_000),
        Cell("update_post", "full", "class", 100_000),
        Cell("update_post", "effects_only", "precise", 2_000),
    ),
    "setup_heavy": (
        Cell("update_post", budget=100_000), Cell("s5_branching"),
        Cell("s7_fold_branches"), Cell("s4_user_exists"),
    ),
}

# Paths through each bundled goal's program (tests/test_acceptance.py).
EXPECTED_PATHS = {"s5_branching": 2, "update_post": 2}
FAILED_STAGES = ("merge", "final-gate")
MIN_PASSES = 2
LIB_MODULES = ("core", "sexp", "goalfile", "driver", "search", "typegen", "effgen",
               "interp", "runtime", "merge", "sat")


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    outcomes: list  # per cell: (program, report), or the exception raised
    roots: list  # per cell: index of its root span, when traced


def import_library() -> SimpleNamespace:
    """Import every module of the library afresh, as a new process would."""
    for name in [n for n in sys.modules if n == "effsynth" or n.startswith("effsynth.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"effsynth.{m}")
                              for m in LIB_MODULES})


def load_goals(lib, heavy, workload: str, seed: int, tracer=None) -> dict:
    """Goal name -> (GoalFile, ClassTable, World). setup_heavy hands the
    library only the generated text; the others load the bundled files."""
    goals = {}
    for cell in WORKLOADS[workload]:
        if cell.goal in goals:
            continue
        path = GOALS / f"{cell.goal}.goal"
        text = None
        if workload == "setup_heavy":
            text = heavy.inflate(path.read_text(encoding="utf-8"), seed)
        with tracer.span("goalfile.load") if tracer else nullcontext():
            if text is None:
                goals[cell.goal] = lib.goalfile.load_goal_file(str(path))
            else:
                gf = lib.goalfile.parse_goal_file(text)
                goals[cell.goal] = (gf, *lib.goalfile.build(gf))
    return goals


def set_up(heavy, workload: str, seed: int) -> tuple:
    """(lib, goals, seconds) of one set-up: import the library afresh, then
    load or generate the workload's goals."""
    gc.collect()  # start from a heap without the last set-up's garbage
    t0 = time.perf_counter()
    lib = import_library()
    goals = load_goals(lib, heavy, workload, seed)
    return lib, goals, time.perf_counter() - t0


def cpu_now() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_pass(lib, cells, goals, tracer=None) -> Pass:
    gc.collect()
    outcomes, roots = [], []
    c0, t0 = cpu_now(), time.perf_counter()
    for cell in cells:
        gf, ct, world = goals[cell.goal]
        budget = {} if cell.budget is None else {"candidate_budget": cell.budget}
        cfg = lib.search.SearchConfig(mode=cell.mode, precision=cell.precision, **budget)
        with tracer.span("driver.synthesize") if tracer else nullcontext() as root:
            try:
                outcomes.append(lib.driver.synthesize(gf.goal, ct, world, cfg))
            except Exception as exc:  # a cell that raises is a failed cell
                outcomes.append(exc)
        roots.append(root)
    return Pass(time.perf_counter() - t0, cpu_now() - c0, outcomes, roots)


def judge(lib, cell, entry, outcome) -> tuple[str, tuple]:
    """(status, signature) of one cell run. Status is solved (a program that
    passes every spec with the expected path count), failed (a wrong
    program, an exception, or a merge/final-gate failure) or unsolved (the
    search ran out of budget or size). The signature must repeat exactly."""
    if isinstance(outcome, Exception):
        return "failed", ("raised", repr(outcome))
    program, report = outcome
    gf, ct, world = entry
    text = lib.goalfile.print_program(program) if program is not None else ""
    sig = (report.success, report.candidates_evaluated, report.candidates_expanded, text,
           report.failed_stage, report.paths, report.program_size, report.tuple_count,
           report.merge_orderings_tried)
    if program is None:
        return ("failed" if report.failed_stage in FAILED_STAGES else "unsolved"), sig
    meets_specs = all(lib.interp.run_spec(program.body, gf.goal.arity, spec, world, ct).ok
                      for spec in gf.goal.specs)
    paths = lib.driver.count_paths(program.body)
    good = meets_specs and paths == report.paths == EXPECTED_PATHS.get(cell.goal, 1)
    return ("solved" if good else "failed"), sig


def references(lib, heavy, workload, cells, goals, warm: Pass, problems) -> dict:
    """Cell -> the signature every pass must repeat. For setup_heavy it is
    that of the bundled goal, so counts and programs must not depend on the
    decoys or the seed; otherwise it is that of the warm-up pass."""
    if workload != "setup_heavy":
        return {c: judge(lib, c, goals[c.goal], o)[1] for c, o in zip(cells, warm.outcomes)}
    bundled = {g: lib.goalfile.load_goal_file(str(GOALS / f"{g}.goal")) for g in goals}
    for g, (gf, _, _) in goals.items():
        try:
            heavy.check_inflated(bundled[g][0], gf)
        except ValueError as exc:
            problems.append(f"generated goal: {exc}")
    ref = run_pass(lib, cells, bundled)
    return {c: judge(lib, c, bundled[c.goal], o)[1] for c, o in zip(cells, ref.outcomes)}


def tally(lib, cells, goals, passes, ref, problems) -> tuple[int, int, int]:
    attempted = failed = solved = 0
    for k, p in enumerate(passes):
        for cell, outcome in zip(cells, p.outcomes):
            status, sig = judge(lib, cell, goals[cell.goal], outcome)
            attempted += 1
            solved += status == "solved"
            if status == "failed" or sig != ref[cell]:
                failed += 1
                raised = f" ({sig[1]})" if sig[0] == "raised" else ""
                problems.append(f"pass {k} {cell.label}: {status}{raised}, "
                                f"{'differs from' if sig != ref[cell] else 'matches'} reference")
    return attempted, failed, solved


def run_until(lib, cells, goals, deadline: float, trace: bool, between) -> list:
    """Passes until the deadline, and at least MIN_PASSES of them, with a
    call of `between` after each. With trace, passes alternate untraced and
    traced, so that a drift in host speed affects both alike; a traced pass
    comes with its tracer."""
    out = []
    while len(out) < MIN_PASSES or time.perf_counter() < deadline:
        if not trace or len(out) % 2 == 0:
            out.append((run_pass(lib, cells, goals), None))
        else:
            tracer = Tracer()
            install(tracer, lib)
            try:
                out.append((run_pass(lib, cells, goals, tracer), tracer))
            finally:
                tracer.restore()
        between()
    return out


def first_pass_sum(passes: list[Pass], field: str) -> int:
    """A RunReport field summed over the cells of the first timed pass; None
    (no program) counts as 0."""
    return sum(getattr(o[1], field) or 0 for o in passes[0].outcomes
               if not isinstance(o, Exception))


def end_to_end(passes, setups, peak_rss_mb, solved, attempted) -> dict:
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "solved_frac": (solved / attempted, "fraction"),
        "candidates_evaluated": (first_pass_sum(passes, "candidates_evaluated"), "count"),
        "candidates_expanded": (first_pass_sum(passes, "candidates_expanded"), "count"),
        "program_size": (first_pass_sum(passes, "program_size"), "count"),
        "paths": (first_pass_sum(passes, "paths"), "count"),
    }


def per_layer(p: Pass, s: dict, counts: Counter, untraced_wall: float,
              problems: list) -> dict:
    """Per-layer metrics of one traced pass from its span summary and
    counters, after checking the trace."""
    calls, total, own, edges = s["calls"], s["total_s"], s["self_s"], s["edges"]
    reports = [o[1] for o in p.outcomes if not isinstance(o, Exception)]
    evaluated = sum(r.candidates_evaluated for r in reports)
    expanded = sum(r.candidates_expanded for r in reports)
    layer_self: Counter = Counter()
    for name, v in own.items():
        layer_self[name.split(".", 1)[0]] += v

    missing = set(LAYERS) - {"goalfile", "sexp"} - set(layer_self)
    if missing:
        problems.append(f"trace: no spans for layers {sorted(missing)}")
    if s["min_self_s"] < -1e-9 or sum(own.values()) > p.wall_s:
        problems.append("trace: self times negative or above the pass wall time")
    runs = calls["interp.run_spec"]
    orderings = sum(r.merge_orderings_tried for r in reports)
    tuples = sum(r.tuple_count for r in reports)
    agree = (
        ("evaluations", runs + calls["merge.battery"] + counts["merge.guess_evals"], evaluated),
        ("expansions", counts["typegen.products"] + counts["effgen.products"], expanded),
        ("merge orderings", calls["merge.rewrite"], orderings),
        ("merge tuples", calls["merge.make_tuple"], tuples),
    )
    for what, traced, reported in agree:
        if traced != reported:
            problems.append(f"trace: {traced} traced {what}, {reported} reported")

    def ms(name):
        return total[name] * 1000

    per_spec = [ps for r in reports for ps in r.per_spec]
    out = {
        "search.self_ms": (layer_self["search"] * 1000, "ms"),
        "search.pops": (counts["search.pops"], "count"),
        "search.dedup_calls": (calls["search.dedup_key"], "count"),
        "search.dedup_ms": (ms("search.dedup_key"), "ms"),
        "search.evals_per_s": (edges["search.generate", "interp.run_spec"]
                               / total["search.generate"], "1/s"),
        "search.eval_yield": (evaluated / expanded, "fraction"),
        "typegen.expand_calls": (calls["typegen.expand"], "count"),
        "typegen.expand_ms": (ms("typegen.expand"), "ms"),
        "typegen.products": (counts["typegen.products"], "count"),
        "typegen.typecheck_calls": (calls["typegen.typecheck"], "count"),
        # typecheck spans nest only in typecheck spans, so self time is the
        # time spent type checking, counted once.
        "typegen.typecheck_ms": (own["typegen.typecheck"] * 1000, "ms"),
        "effgen.expand_calls": (calls["effgen.expand"], "count"),
        "effgen.expand_ms": (ms("effgen.expand"), "ms"),
        "effgen.products": (counts["effgen.products"], "count"),
        "effgen.wrap_calls": (calls["effgen.wrap"], "count"),
        "interp.run_spec_calls": (runs, "count"),
        "interp.run_spec_ms": (ms("interp.run_spec"), "ms"),
        "interp.world_resets": (counts["interp.world_resets"], "count"),
        "interp.pass_ratio": (counts["interp.outcome.Ok"] / runs, "fraction"),
        "interp.assert_fail_share": (counts["interp.outcome.AssertErr"] / runs, "fraction"),
        "interp.runtime_err_share": (counts["interp.outcome.RuntimeErr"] / runs, "fraction"),
        "runtime.native_calls": (calls["runtime.native"], "count"),
        "runtime.create_calls": (counts["runtime.create_calls"], "count"),
        "merge.ms": (ms("merge.program"), "ms"),
        "merge.cond_synth_calls": (calls["merge.cond_synth"], "count"),
        "merge.cond_synth_ms": (ms("merge.cond_synth"), "ms"),
        "merge.cond_search_calls": (calls["merge.cond_search"], "count"),
        "merge.cond_search_ms": (ms("merge.cond_search"), "ms"),
        "merge.cond_eval_calls": (calls["merge.cond_eval"], "count"),
        "merge.cond_eval_ms": (ms("merge.cond_eval"), "ms"),
        "merge.rewrite_ms": (ms("merge.rewrite"), "ms"),
        "merge.orderings_tried": (orderings, "count"),
        "merge.tuples": (tuples, "count"),
        "sat.implies_calls": (calls["sat.implies"], "count"),
        "sat.implies_ms": (ms("sat.implies"), "ms"),
        "driver.reuse_ratio": (sum(ps.reused for ps in per_spec) / len(per_spec), "fraction"),
        "driver.spec_search_ms": (ms("search.generate"), "ms"),
        "trace.overhead_s": (p.wall_s - untraced_wall, "s"),
        "trace.spans": (s["spans"], "count"),
    }
    for layer in ("driver", "typegen", "effgen", "interp", "runtime", "merge", "sat"):
        out[f"{layer}.self_ms"] = (layer_self[layer] * 1000, "ms")
    return out


def print_cells(cells, p: Pass, roots: dict) -> None:
    for cell, root in zip(cells, p.roots):
        by_layer = " ".join(f"{k}={v * 1000:.0f}" for k, v in sorted(roots[root].items()))
        print(f"  {cell.label}: self ms {by_layer}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "effsynth" / "__init__.py").is_file() or not GOALS.is_dir():
        print(f"error: {SRC / 'effsynth'} or {GOALS} is missing; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import heavy  # imports the library's reader, so only once src/ is on the path

    lib, goals, first = set_up(heavy, args.workload, args.seed)
    setups = [first]
    modules = {n: m for n, m in sys.modules.items()
               if n == "effsynth" or n.startswith("effsynth.")}

    def set_up_again() -> None:
        """A timed set-up between passes, so that set-up and passes see the
        same drift in host speed. Its library is dropped: the passes keep
        theirs, also in sys.modules."""
        setups.append(set_up(heavy, args.workload, args.seed)[2])
        sys.modules.update(modules)

    cells = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(cells)
    # Untimed, so that no timed pass pays for growing the heap; its outputs
    # are checked like those of the timed passes.
    warm = run_pass(lib, cells, goals)
    # Read before the repeated set-ups, whose garbage and the caches they
    # fill would make the peak depend on how many fit into the run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    if args.trace:
        load_tracer = Tracer()
        install_loading(load_tracer, lib)
        try:
            load_goals(lib, heavy, args.workload, args.seed, load_tracer)
        finally:
            load_tracer.restore()
    runs = run_until(lib, cells, goals, start + args.seconds, bool(args.trace), set_up_again)
    passes = [p for p, _ in runs]

    problems: list[str] = []
    ref = references(lib, heavy, args.workload, cells, goals, warm, problems)
    attempted, failed, solved = tally(lib, cells, goals, [warm] + passes, ref, problems)
    if args.trace:
        untraced_wall = statistics.median(p.wall_s for p, t in runs if t is None)
        traced = [(p, t.summary(), t.counts) for p, t in runs if t is not None]
        layers = [per_layer(p, s, counts, untraced_wall, problems) for p, s, counts in traced]
        metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        load = load_tracer.summary()
        if not {"goalfile.load", "sexp.parse"} <= set(load["calls"]):
            problems.append("trace: no spans for goal loading")
        metrics["goalfile.load_ms"] = (load["total_s"]["goalfile.load"] * 1000, "ms")
        metrics["trace.overhead_frac"] = (metrics["trace.overhead_s"][0] / untraced_wall,
                                          "fraction")
        print(f"{args.workload}: per-cell self time by layer, first traced pass")
        print_cells(cells, traced[0][0], traced[0][1]["roots"])
    else:
        metrics = end_to_end(passes, setups, peak_rss_mb, solved, attempted)
    print(f"{args.workload} seed {args.seed}: warm-up and {len(passes)} timed passes, "
          f"{attempted} cell runs, {solved} solved, {failed} failed")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
