"""The benchmark command runs and checks its own outputs.

Each workload of BENCHMARK.json, untraced and traced, for one second: the
last line of standard output must be the JSON result with `correct: true`
and no failed cell run. This catches a library change that breaks the
traced run's hooks or an output check before a full benchmark run does.
The four runs share the host's cores; together they take a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = [(w, t) for w in ("suite_full", "setup_heavy") for t in ("0", "1")]


def test_every_workload_runs_correctly_traced_and_untraced():
    procs = [(w, t, subprocess.Popen(
        [sys.executable, "benchmark/run.py", "--workload", w, "--seed", "0",
         "--seconds", "1", "--trace", t],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
        for w, t in RUNS]
    done = [(w, t, *proc.communicate(timeout=120), proc) for w, t, proc in procs]
    for w, t, out, err, proc in done:
        assert proc.returncode == 0, (w, t, err)
        result = json.loads(out.splitlines()[-1])
        assert result["correct"] is True, (w, t, out)
        assert result["failed"] == 0, (w, t, out)
        assert result["attempted"] > 0, (w, t)
