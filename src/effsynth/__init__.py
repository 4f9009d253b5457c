"""Test-driven, type- and effect-guided enumerative program synthesis."""

from .core import (
    Atom, BOOL_T, Call, ClassLit, ClassOf, ClassStar, ClassT, ClassTable,
    Cond, ConstantPool, DefinitionError, Effect, EffectHole, EffectPair,
    Expr, FalseLit, If, IntLit, INT_T, Let, MethodSig, NIL_T, NilLit, Not,
    OBJ_T, Or, PURE, PURE_PAIR, RecordLit, RecordT, Region, STR_T, SelfRegion,
    SelfStar, Seq, Star, StrLit, SymLit, TrueLit, TypedHole, TypeExpr,
    UnionT, Var, eff_subsumes, eff_union, expr_size, is_complete, record_of,
    resolve_self, subtype, union_of,
)
from .driver import Goal, Program, RunReport, synthesize
from .goalfile import GoalFile, build, load_goal_file, parse_goal_file, print_program
from .interp import Spec, SpecResult, eval_expr, run_spec
from .runtime import SchemaDecl, World, generate_schema_methods, invoke_native
from .search import SearchConfig, generate
