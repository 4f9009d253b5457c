"""In-memory span tracing of the library's layers, for the traced run.

A Tracer replaces module attributes of the library with wrappers while it is
installed. Each wrapper records one span (name, start, end, parent) in
parallel arrays; self times are derived afterwards. Attributes are patched
where one module reaches another (the `dedup_key` that `search` calls, the
`expand_typed_hole` that `search` imported from `typegen`, the `search` that
`merge` imported), so a span marks one crossing of a layer boundary. The
first part of a span name is the layer: the repository's module name.
Walks in `core` (alpha keys, sizes, hole renumbering) have no spans of their
own and count toward the span that calls them.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYERS = ("goalfile", "sexp", "driver", "search", "typegen", "effgen", "interp",
          "runtime", "merge", "sat")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def innermost(self) -> str | None:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Record a span around every call of owner.attr. observe(args,
        result) runs after the span closes, for counts taken from the call."""
        fn = getattr(owner, attr)
        nid = self._id(name)
        open_, end, stack, clock = self._open, self.end, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def count(self, owner, attr: str, key, when=None) -> None:
        """Count calls of owner.attr under counts[key] without a span; when,
        if given, decides from the call's arguments whether a call counts."""
        fn = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            if when is None or when(args):
                counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def summary(self) -> dict:
        """Derive from the spans, per span name: calls, total and self
        seconds; per (parent name, child name): calls; per root span: self
        seconds by layer. Also the span count and the smallest self time,
        which is non-negative up to clock rounding when spans nest
        properly."""
        n = len(self.name_id)
        names = [self.names[k] for k in self.name_id]
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        root = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
            else:
                root[i] = i
        calls: Counter = Counter(names)
        total: Counter = Counter()
        self_s: Counter = Counter()
        edges: Counter = Counter()
        roots: dict[int, Counter] = {}
        min_self = 0.0
        for i, name in enumerate(names):
            own = dur[i] - child[i]
            total[name] += dur[i]
            self_s[name] += own
            min_self = min(min_self, own)
            p = self.parent[i]
            if p >= 0:
                edges[names[p], name] += 1
            roots.setdefault(root[i], Counter())[name.split(".", 1)[0]] += own
        return {"calls": calls, "total_s": total, "self_s": self_s, "edges": edges,
                "roots": roots, "spans": n, "min_self_s": min_self}


def install(tracer: Tracer, lib) -> None:
    """Wrap the synthesis layers' boundaries (everything a pass calls)."""
    counts = tracer.counts

    def products(key):
        def observe(args, result):
            counts[key] += len(result)
        return observe

    def outcome(args, result):
        counts["interp.outcome." + type(result.outcome).__name__] += 1

    def native(args, result):
        if args[1].native == "minidb.create":
            counts["runtime.create_calls"] += 1

    tracer.wrap(lib.driver, "generate", "search.generate")
    tracer.wrap(lib.driver, "erase_table", "effgen.erase_table")
    tracer.wrap(lib.driver, "make_merge_tuple", "merge.make_tuple")
    tracer.wrap(lib.driver, "merge_program", "merge.program")
    tracer.wrap(lib.search, "dedup_key", "search.dedup_key")
    tracer.wrap(lib.search, "expand_typed_hole", "typegen.expand",
                products("typegen.products"))
    tracer.wrap(lib.search, "expand_effect_hole", "effgen.expand",
                products("effgen.products"))
    tracer.wrap(lib.search, "wrap_effect_hole", "effgen.wrap")
    tracer.wrap(lib.search, "typecheck", "typegen.typecheck")
    tracer.wrap(lib.typegen, "typecheck", "typegen.typecheck")
    tracer.wrap(lib.search, "run_spec", "interp.run_spec", outcome)
    tracer.wrap(lib.merge, "run_spec", "interp.run_spec", outcome)
    tracer.wrap(lib.interp, "invoke_native", "runtime.native", native)
    tracer.wrap(lib.merge, "rewrite_merge", "merge.rewrite")
    tracer.wrap(lib.merge, "synth_condition", "merge.cond_synth")
    tracer.wrap(lib.merge, "search", "merge.cond_search")
    tracer.wrap(lib.merge, "_battery", "merge.battery")
    tracer.wrap(lib.merge, "_cond_holds", "merge.cond_eval")
    tracer.wrap(lib.merge, "implies_valid", "sat.implies")
    tracer.count(lib.search, "leftmost_hole", "search.pops")
    tracer.count(lib.runtime.World, "reset", "interp.world_resets")
    # A candidate evaluation counted directly by a rewrite rule's negation
    # guess, not by run_spec or a condition battery.
    tracer.count(lib.merge.MergeSession, "count_eval", "merge.guess_evals",
                 when=lambda args: tracer.innermost() == "merge.rewrite")


def install_loading(tracer: Tracer, lib) -> None:
    """Wrap the goal-file layers: the reader, validation and building."""
    tracer.wrap(lib.goalfile, "parse_sexps", "sexp.parse")
    tracer.wrap(lib.goalfile, "_validate", "goalfile.validate")
    tracer.wrap(lib.goalfile, "build", "goalfile.build")
