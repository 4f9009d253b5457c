"""Tests of the setup_heavy generator. Run from the repository root:

    python3 -m pytest -q benchmark/test_heavy.py
"""

import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from effsynth.goalfile import load_goal_file, parse_goal_file  # noqa: E402
from heavy import DECOY_ROWS, check_inflated, inflate  # noqa: E402
from run import WORKLOADS  # noqa: E402

GOALS = HERE.parent / "goals"
HEAVY_GOALS = sorted({c.goal for c in WORKLOADS["setup_heavy"]})


@pytest.mark.parametrize("goal", HEAVY_GOALS)
@pytest.mark.parametrize("seed", [0, 7])
def test_generated_goal_validates_and_keeps_specs(goal, seed):
    path = GOALS / f"{goal}.goal"
    bundled, _, _ = load_goal_file(str(path))
    text = inflate(path.read_text(encoding="utf-8"), seed)
    heavy = parse_goal_file(text)  # parsing runs goal-file validation
    assert check_inflated(bundled, heavy) == DECOY_ROWS * len(bundled.goal.specs)


def test_seed_decides_the_decoys():
    text = (GOALS / "s4_user_exists.goal").read_text(encoding="utf-8")
    assert inflate(text, 3) == inflate(text, 3)
    assert inflate(text, 3) != inflate(text, 4)


def test_decoy_matching_a_goal_string_is_rejected():
    path = GOALS / "s4_user_exists.goal"
    bundled, _, _ = load_goal_file(str(path))
    lines = inflate(path.read_text(encoding="utf-8"), 0).splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.lstrip().startswith("(call User create"))
    lines[k] = re.sub(r'\(username "[a-z]+"\)', '(username "alice")', lines[k])
    with pytest.raises(ValueError, match="bad decoy"):
        check_inflated(bundled, parse_goal_file("".join(lines)))
