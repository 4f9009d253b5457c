"""Golden programs: the printed program, expanded count and pops of the ten
acceptance cells that finish in a second (all but the two types-off cells
at budget 100k) and of the flat lookup goals lookup3-lookup12 in modes full
and types_only, as recorded in golden_programs.json.

A pruning may change how many candidates are evaluated, but not what the
search expands and pops nor the program it returns; a change that moves
any of these must say so and re-record the file.
"""

import json
from pathlib import Path

import pytest

from effsynth.driver import synthesize
from effsynth.goalfile import build, load_goal_file, parse_goal_file, print_program
from effsynth.search import SearchConfig

import test_acceptance as acceptance
from conftest import lookup_goal_text

GOLDEN = json.loads((Path(__file__).parent / "golden_programs.json").read_text())

# every acceptance cell but the two types-off ones, which run 100k evaluations
CELLS = [c for c in acceptance.CELLS if c[1] not in ("effects_only", "none")]


def _outcome(gf, ct, world, cfg):
    program, report = synthesize(gf.goal, ct, world, cfg)
    return {"program": print_program(program) if program else None,
            "expanded": report.candidates_expanded, "pops": report.pops}


def test_every_golden_entry_is_run():
    keys = [f"{g}/{m}/{p}" for g, m, p, _ in CELLS]
    keys += [f"lookup{n}/{m}" for n in range(3, 13) for m in ("full", "types_only")]
    assert sorted(keys) == sorted(GOLDEN)


@pytest.mark.parametrize("goal,mode,precision,budget", CELLS,
                         ids=[f"{g}-{m}-{p}" for g, m, p, _ in CELLS])
def test_acceptance_cell_is_golden(goal, mode, precision, budget):
    gf, ct, world = load_goal_file(f"goals/{goal}.goal")
    cfg = SearchConfig(mode=mode, precision=precision, candidate_budget=budget)
    assert _outcome(gf, ct, world, cfg) == GOLDEN[f"{goal}/{mode}/{precision}"]


@pytest.mark.parametrize("n", range(3, 13))
def test_lookup_is_golden(n):
    gf = parse_goal_file(lookup_goal_text(n))
    ct, world = build(gf)
    for mode in ("full", "types_only"):
        assert _outcome(gf, ct, world, SearchConfig(mode=mode)) == GOLDEN[f"lookup{n}/{mode}"]
