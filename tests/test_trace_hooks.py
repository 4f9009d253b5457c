"""The benchmark's span tracer still fits the library.

`benchmark/spans.py` patches module attributes by name at the layer
boundaries. A renamed or bypassed attribute would drop a layer from the
traced benchmark run without failing anything else, so this test installs
the tracer over the library, synthesizes one bundled goal that reaches
merging, and checks that the hooks fired and agree with the run report.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

from spans import Tracer, install, install_loading  # noqa: E402

from effsynth.driver import synthesize  # noqa: E402
from effsynth import goalfile, merge, runtime  # noqa: E402
from effsynth.goalfile import load_goal_file  # noqa: E402
from effsynth.search import SearchConfig  # noqa: E402

MODULES = ("driver", "search", "typegen", "effgen", "interp", "runtime", "merge", "sat")


def test_spans_cover_the_layers_and_agree_with_the_report():
    lib = SimpleNamespace(**{m: importlib.import_module(f"effsynth.{m}") for m in MODULES})
    gf, ct, world = load_goal_file(str(ROOT / "goals" / "s5_branching.goal"))
    tracer = Tracer()
    try:
        install(tracer, lib)
        patched = list(tracer._patches)
        program, report = synthesize(gf.goal, ct, world, SearchConfig())
    finally:
        tracer.restore()

    assert patched and all(callable(fn) for _, _, fn in patched)
    assert program is not None
    calls = tracer.summary()["calls"]
    assert calls["sat.implies"] > 0
    assert calls["merge.cond_eval"] > 0
    # s5's merge asks the condition bank; a stale merge.search would install
    # and record nothing
    assert calls["merge.cond_search"] > 0
    evaluations = (calls["interp.run_spec"] + calls["merge.battery"]
                   + tracer.counts["merge.guess_evals"])
    assert evaluations == report.candidates_evaluated
    # every condition-bank candidate is one battery
    assert calls["merge.battery"] == report.bank_candidates > 0
    assert 0 < report.bank_terms <= report.bank_candidates
    # the traced benchmark checks rewrites against the reported orderings
    assert calls["merge.rewrite"] == report.merge_orderings_tried == 1


def test_native_spans_and_resets_count_what_ran(monkeypatch):
    # Counted below the tracer's hooks: every native that runs is a
    # _NATIVES entry or a column getter or setter, each of which looks up
    # its row once with _require_row. An evaluator that reached natives
    # other than through interp.invoke_native would run natives that no
    # runtime.native span records.
    ran = Counter()

    def counting(key, fn):
        def run(*args):
            ran[key] += 1
            return fn(*args)
        return run

    for native, fn in list(runtime._NATIVES.items()):
        monkeypatch.setitem(runtime._NATIVES, native, counting(native, fn))
    monkeypatch.setattr(runtime, "_require_row", counting("column", runtime._require_row))
    monkeypatch.setattr(merge, "spec_start", counting("spec_start", merge.spec_start))

    lib = SimpleNamespace(**{m: importlib.import_module(f"effsynth.{m}") for m in MODULES})
    gf, ct, world = load_goal_file(str(ROOT / "goals" / "s5_branching.goal"))
    tracer = Tracer()
    try:
        install(tracer, lib)
        program, _ = synthesize(gf.goal, ct, world, SearchConfig())
    finally:
        tracer.restore()

    assert program is not None
    starts = ran.pop("spec_start")
    assert tracer.summary()["calls"]["runtime.native"] == sum(ran.values()) > 0
    assert tracer.counts["runtime.create_calls"] == ran["minidb.create"] > 0
    # each spec's start replays its setup from one reset, and nothing else resets
    assert tracer.counts["interp.world_resets"] == starts == len(gf.goal.specs)


def test_loading_spans_cover_reader_validation_and_build():
    # goal loading must call the reader, validation and building through
    # goalfile's own module attributes, which the loading tracer replaces
    lib = SimpleNamespace(goalfile=goalfile)
    tracer = Tracer()
    try:
        install_loading(tracer, lib)
        load_goal_file(str(ROOT / "goals" / "s5_branching.goal"))
    finally:
        tracer.restore()
    calls = tracer.summary()["calls"]
    assert calls["sexp.parse"] == 1
    assert calls["goalfile.validate"] == 1
    assert calls["goalfile.build"] >= 1
