"""Operational semantics: call-by-value evaluation and spec execution.

A spec runs from its start: the world state, setup bindings and argument
values just before the goal call. spec_start builds it by running the setup
from an empty world once; every run_spec given that start restores its
world checkpoint, so a synthesis call replays each spec's setup once and
hands the same start to every candidate it evaluates on that spec. A
restore shares the checkpoint's tables (runtime.World), so a run costs
what it reads and writes.

Spec execution counts passed assertions and, on an assertion failure, reports
the read/write effect pair accumulated from method calls made while
evaluating that assertion. The accumulator resets after every passed
assertion; effects of setup and candidate-body evaluation are never
observable.
"""

from __future__ import annotations

from typing import Optional, Union

from .core import (
    Call, CallMemo, ClassLit, ClassOf, ClassT, ClassTable, DefinitionError,
    EffectPair, Expr, FalseLit, If, IntLit, Let, NilLit, PURE_PAIR, RecordLit,
    Seq, StrLit, SymLit, TrueLit, Value, Var, pair_union, resolve_self_pair,
)
from .runtime import (
    Checkpoint, ClassV, FALSE_V, NIL_V, NilV, IntV, RecordV, RuntimeError_,
    RuntimeValue, StrV, SymV, TRUE_V, World, invoke_native, record_v, runtime_class_of,
    truthy,
)


# ---------------------------------------------------------------------------
# Specs and results
# ---------------------------------------------------------------------------

class SetupStmt(Value):
    """One setup statement, optionally binding its value for later use."""

    __slots__ = ("expr", "var")

    def __init__(self, expr: Expr, var: Optional[str] = None) -> None:
        self.expr, self.var = expr, var


class Spec(Value):
    """A test: setup statements, the goal-call arguments, and assertions."""

    __slots__ = ("title", "setup", "call_args", "post")

    def __init__(self, title: str, setup: tuple[SetupStmt, ...], call_args: tuple[Expr, ...],
                 post: tuple[Expr, ...]) -> None:
        self.title = title
        self.setup = setup
        self.call_args = call_args
        self.post = post
        if not self.post:
            raise DefinitionError(f"spec {self.title!r} has no assertions")


class Ok(Value):
    __slots__ = ("value",)

    def __init__(self, value: RuntimeValue) -> None:
        self.value = value


class AssertErr(Value):
    __slots__ = ("eff",)

    def __init__(self, eff: EffectPair) -> None:
        self.eff = eff


class RuntimeErr(Value):
    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: str = "") -> None:
        self.kind, self.detail = kind, detail


Outcome = Union[Ok, AssertErr, RuntimeErr]


class SpecResult(Value):
    __slots__ = ("passed_count", "outcome")

    def __init__(self, passed_count: int, outcome: Outcome) -> None:
        self.passed_count, self.outcome = passed_count, outcome

    @property
    def ok(self) -> bool:
        return isinstance(self.outcome, Ok)


RESULT_VAR = "x_r"


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

class Evaluator:
    """Evaluates expressions against a world; charges declared method effects
    (self-resolved at the call site) into an accumulator when one is active.
    eval looks up its rule by the expression's class in _EVAL. A method
    call runs its native through this module's invoke_native. Each method's
    signature and resolved effect pair per receiver class, and each union
    into the accumulator, are kept in the memo of the synthesis call
    (core.CallMemo)."""

    def __init__(self, world: World, ct: ClassTable, memo: CallMemo) -> None:
        self.world = world
        self.ct = ct
        self.memo = memo
        self.acc: Optional[EffectPair] = None

    def eval(self, env: dict[str, RuntimeValue], e: Expr) -> RuntimeValue:
        rule = _EVAL.get(type(e))
        if rule is None:
            raise RuntimeError_("not-evaluable", f"cannot evaluate {type(e).__name__}")
        return rule(self, env, e)

    def _var(self, env, e: Var) -> RuntimeValue:
        if e.name not in env:
            raise RuntimeError_("unbound-var", e.name)
        return env[e.name]

    def _seq(self, env, e: Seq) -> RuntimeValue:
        self.eval(env, e.first)
        return self.eval(env, e.second)

    def _let(self, env, e: Let) -> RuntimeValue:
        inner = dict(env)
        inner[e.var] = self.eval(env, e.bound)
        return self.eval(inner, e.body)

    def _if(self, env, e: If) -> RuntimeValue:
        return self.eval(env, e.then if truthy(self.eval(env, e.cond)) else e.orelse)

    def _record(self, env, e: RecordLit) -> RuntimeValue:
        return record_v({k: self.eval(env, v) for k, v in e.pairs})

    def _call(self, env, e: Call) -> RuntimeValue:
        recv = self.eval(env, e.recv)
        return self.call(recv, e.method, tuple([self.eval(env, a) for a in e.args]))

    def call(self, recv: RuntimeValue, method: str,
             args: tuple[RuntimeValue, ...]) -> RuntimeValue:
        if isinstance(recv, ClassV):
            key = (True, recv.name, method)
        elif isinstance(recv, NilV):
            raise RuntimeError_("nil-method-missing", method)
        elif isinstance(recv, RecordV):
            if args:
                raise RuntimeError_("arity", f"record field {method} takes no arguments")
            for k, v in recv.pairs:
                if k == method:
                    return v
            return NIL_V  # absent optional field
        else:
            key = (False, runtime_class_of(recv), method)
        sig = self.memo.methods.get(key)
        if sig is None:
            singleton, cls, _ = key
            try:
                sig = self.ct.lookup_method(ClassOf(cls) if singleton else ClassT(cls), method)
            except DefinitionError as exc:
                raise RuntimeError_("method-missing", str(exc)) from None
            self.memo.methods[key] = sig
        if len(args) != len(sig.params):
            raise RuntimeError_("arity", f"{method} expects {len(sig.params)} args")
        if self.acc is not None:
            self.acc = self._charge(key, sig)
        return invoke_native(self.world, sig, recv, args)

    def _charge(self, key: tuple, sig) -> EffectPair:
        """The accumulator united with the effect pair of sig, called on the
        receiver class in key, self-resolved. Every accumulator is
        PURE_PAIR or a union kept in the memo, so unions are keyed by the
        identity of the two pairs."""
        memo = self.memo
        resolved = memo.effects.get(key)
        if resolved is None:
            resolved = memo.effects[key] = resolve_self_pair(sig.eff, key[1], self.ct)
        acc = self.acc
        pair = (id(acc), id(resolved))
        united = memo.unions.get(pair)
        if united is None or united[0] is not acc or united[1] is not resolved:
            united = memo.unions[pair] = (acc, resolved, pair_union(acc, resolved, self.ct))
        return united[2]


# Evaluator.eval's rule per expression class; a hole has none.
_EVAL = {
    NilLit: lambda ev, env, e: NIL_V,
    TrueLit: lambda ev, env, e: TRUE_V,
    FalseLit: lambda ev, env, e: FALSE_V,
    IntLit: lambda ev, env, e: IntV(e.value),
    StrLit: lambda ev, env, e: StrV(e.value),
    SymLit: lambda ev, env, e: SymV(e.name),
    ClassLit: lambda ev, env, e: ClassV(e.name),
    Var: Evaluator._var,
    Seq: Evaluator._seq,
    Let: Evaluator._let,
    If: Evaluator._if,
    RecordLit: Evaluator._record,
    Call: Evaluator._call,
}


def eval_expr(env: dict[str, RuntimeValue], world: World, ct: ClassTable,
              e: Expr) -> RuntimeValue:
    """Evaluate an expression; raises RuntimeError_ on failure, with kind
    not-evaluable on a hole."""
    return Evaluator(world, ct, CallMemo()).eval(env, e)


# ---------------------------------------------------------------------------
# Spec execution
# ---------------------------------------------------------------------------

class SpecStart(Value):
    """A spec's state at the goal call: the world checkpoint, the setup's
    bindings and the argument values. When setup or argument evaluation
    raised, `error` holds the exception, `error_stage` says which ("setup"
    or "args"), and there is no checkpoint."""

    __slots__ = ("checkpoint", "env", "args", "error", "error_stage")

    def __init__(self, checkpoint: Optional[Checkpoint], env: dict[str, RuntimeValue],
                 args: tuple[RuntimeValue, ...], error: Optional[RuntimeError_] = None,
                 error_stage: Optional[str] = None) -> None:
        self.checkpoint = checkpoint
        self.env = env
        self.args = args
        self.error = error
        self.error_stage = error_stage


def param_env(params: tuple) -> dict:
    """The goal's argument scope: arg0, arg1, ... bound to params in order,
    argument types for typing or argument values for evaluation."""
    return {f"arg{i}": p for i, p in enumerate(params)}


def spec_start(spec: Spec, goal_arity: int, world: World, ct: ClassTable,
               memo: Optional[CallMemo] = None) -> SpecStart:
    """Reset the world, run the spec's setup and evaluate the goal-call
    arguments. An arity mismatch is reported before any argument runs.
    memo is the synthesis call's; without one the run keeps its own."""
    world.reset()
    ev = Evaluator(world, ct, CallMemo() if memo is None else memo)
    env: dict[str, RuntimeValue] = {}
    stage = "setup"
    try:
        for stmt in spec.setup:
            v = ev.eval(env, stmt.expr)
            if stmt.var is not None:
                env[stmt.var] = v
        stage = "args"
        if len(spec.call_args) != goal_arity:
            raise RuntimeError_("arity", f"goal expects {goal_arity} arguments")
        args = tuple(ev.eval(env, a) for a in spec.call_args)
    except RuntimeError_ as exc:
        return SpecStart(None, env, (), exc, stage)
    return SpecStart(world.checkpoint(), env, args)


def run_spec(body: Expr, goal_arity: int, spec: Spec, world: World,
             ct: ClassTable, start: Optional[SpecStart] = None,
             memo: Optional[CallMemo] = None,
             params: Optional[tuple[str, ...]] = None) -> SpecResult:
    """Restore the spec's start, call the candidate, then check assertions.

    `start` must come from spec_start on the same spec, arity and class
    table; without one, run_spec builds it. `memo` is the synthesis
    call's; without one the run keeps its own. `params` names the body's
    parameters (by default param_env's).
    Per assertion: method calls made while it evaluates accumulate their
    resolved effect pairs; a truthy value bumps the pass counter and clears
    the accumulator, a falsy value stops with the accumulated pair.
    """
    if memo is None:
        memo = CallMemo()
    if start is None:
        start = spec_start(spec, goal_arity, world, ct, memo)
    if start.error is not None:
        return SpecResult(0, RuntimeErr(start.error.kind, start.error.detail))
    world.restore(start.checkpoint)
    ev = Evaluator(world, ct, memo)
    try:
        env = dict(zip(params, start.args)) if params else param_env(start.args)
        result = ev.eval(env, body)
    except RuntimeError_ as exc:
        return SpecResult(0, RuntimeErr(exc.kind, exc.detail))
    env = dict(start.env)
    env[RESULT_VAR] = result

    passed = 0
    for a in spec.post:
        ev.acc = PURE_PAIR
        try:
            v = ev.eval(env, a)
        except RuntimeError_ as exc:
            return SpecResult(passed, RuntimeErr(exc.kind, exc.detail))
        if truthy(v):
            passed += 1
        else:
            return SpecResult(passed, AssertErr(ev.acc))
    return SpecResult(passed, Ok(result))
