"""End-to-end synthesis: per-spec solving with solution reuse, then merging.

Each spec is first checked against every expression already found; a hit
adds the spec to that tuple. Only unexplained specs trigger a fresh search.
The collected tuples are then merged into one decision list, and the final
program is re-run against every spec as the one gate: stage `merge` means a
branch had no separating condition, `final-gate` that the merged program
fails a spec.

A synthesis call makes one MergeSession, and with it one core.CallMemo for
what depends only on the call's class table, constants, parameter types and
mode. Every spec search, the condition bank and every evaluation read and
fill it; it is dropped with the session, so nothing learned in one call is
seen by the next, even on the same class table.
"""

from __future__ import annotations

import time
from typing import Optional

from .core import (
    ClassTable, ConstantPool, DefinitionError, Expr, If, TRUE_COND, TypeExpr,
    Value, expr_size,
)
from .effgen import erase_table
from .interp import Spec, param_env
from .merge import MergeSession, MergeTuple, make_merge_tuple, merge_program
from .runtime import World
from .search import SearchConfig, generate


class Goal(Value):
    __slots__ = ("name", "param_types", "ret", "constants", "specs")

    def __init__(self, name: str, param_types: tuple[TypeExpr, ...], ret: TypeExpr,
                 constants: ConstantPool, specs: tuple[Spec, ...]) -> None:
        self.name = name
        self.param_types = param_types
        self.ret = ret
        self.constants = constants
        self.specs = specs

    @property
    def arity(self) -> int:
        return len(self.param_types)


class Program(Value):
    __slots__ = ("name", "params", "body")

    def __init__(self, name: str, params: tuple[str, ...], body: Expr) -> None:
        self.name, self.params, self.body = name, params, body


def count_paths(e: Expr) -> int:
    """Paths through a method body: each if doubles along its branches."""
    if isinstance(e, If):
        return count_paths(e.then) + count_paths(e.orelse)
    return 1


class PerSpecReport:
    __slots__ = ("spec", "reused", "candidates_expanded", "candidates_evaluated", "wall_ms")

    def __init__(self, spec: str, reused: bool, candidates_expanded: int,
                 candidates_evaluated: int, wall_ms: float) -> None:
        self.spec = spec
        self.reused = reused
        self.candidates_expanded = candidates_expanded
        self.candidates_evaluated = candidates_evaluated
        self.wall_ms = wall_ms

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__slots__}


class RunReport:
    """What one synthesis call did, by field name (keyword arguments only;
    failed_stage defaults to None). The reports are plain classes because
    defining a dataclass takes about half a millisecond at every import."""

    __slots__ = ("goal", "mode", "precision", "success", "candidates_expanded",
                 "candidates_evaluated", "per_spec", "wall_ms", "program_size", "paths",
                 "tuple_count", "merge_orderings_tried",
                 "bank_candidates",  # condition-bank candidates evaluated
                 "bank_terms",  # condition-bank terms kept
                 "pops", "peak_queue", "failed_stage")

    def __init__(self, **fields) -> None:
        fields.setdefault("failed_stage", None)
        if set(fields) != set(self.__slots__):
            raise TypeError(f"report fields {sorted(set(fields) ^ set(self.__slots__))}")
        for name, value in fields.items():
            setattr(self, name, value)

    def to_dict(self) -> dict:
        out = {f: getattr(self, f) for f in self.__slots__}
        out["per_spec"] = [p.to_dict() for p in self.per_spec]
        return out


def synthesize(goal: Goal, ct: ClassTable, world: World,
               cfg: SearchConfig) -> tuple[Optional[Program], RunReport]:
    if not goal.specs:
        raise DefinitionError(f"goal {goal.name} has no specs")
    t0 = time.monotonic()
    deadline = None if cfg.timeout_s is None else t0 + cfg.timeout_s
    ct = erase_table(ct, cfg.precision)
    session = MergeSession(
        goal_params=goal.param_types, ct=ct,
        sigma=goal.constants, world=world, cfg=cfg, specs=goal.specs,
        deadline=deadline,
    )
    tuples: list[MergeTuple] = []
    per_spec: list[PerSpecReport] = []

    def report(success: bool, program_size=None, paths=None, stage=None) -> RunReport:
        bank = session.bank
        return RunReport(
            goal=goal.name, mode=cfg.mode, precision=cfg.precision,
            success=success,
            candidates_expanded=session.stats.expanded,
            candidates_evaluated=session.stats.evaluated,
            per_spec=per_spec,
            wall_ms=(time.monotonic() - t0) * 1000.0,
            program_size=program_size, paths=paths,
            tuple_count=len(tuples),
            merge_orderings_tried=session.orderings_tried,
            bank_candidates=bank.evaluated if bank else 0,
            bank_terms=len(bank.by_key) if bank else 0,
            pops=session.stats.pops,
            peak_queue=session.stats.peak_queue,
            failed_stage=stage,
        )

    for idx, spec in enumerate(goal.specs):
        t_spec = time.monotonic()
        evals_before = session.stats.evaluated
        expanded_before = session.stats.expanded
        reused = found = False
        for k, t in enumerate(tuples):
            if session.run_body(t.expr, spec).ok:
                tuples[k] = MergeTuple(t.expr, t.cond, t.specs | {idx})
                reused = True
                break
        if not reused:
            expr = generate(goal.param_types, goal.ret, ct, goal.constants, spec, world,
                            cfg, session.stats, deadline, session.start(spec), session.memo)
            found = expr is not None
            if found:
                tuples.append(make_merge_tuple(session, expr, TRUE_COND, frozenset({idx})))
        per_spec.append(PerSpecReport(
            spec.title, reused,
            session.stats.expanded - expanded_before,
            session.stats.evaluated - evals_before,
            (time.monotonic() - t_spec) * 1000.0,
        ))
        if not (reused or found):
            return None, report(False, stage=f"spec:{spec.title}")

    body = merge_program(tuples, session)
    if body is None:
        return None, report(False, stage="merge")
    for spec in goal.specs:
        if not session.run_body(body, spec).ok:
            return None, report(False, stage="final-gate")
    program = Program(goal.name, tuple(param_env(goal.param_types)), body)
    return program, report(True, program_size=expr_size(body),
                           paths=count_paths(body))
