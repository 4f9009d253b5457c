"""Propositional validity of branch-condition implications.

A condition is a Bool term read as a formula: `if` is the connective, so
`(if c a b)` holds when c and a hold or when c fails and b holds, and the
literals `true` and `false` are constants. Negation `(if c false true)` and
disjunction `(if a true b)`, the forms merging builds, are read that way.
Every other maximal subterm, by its alpha key, is one boolean variable; what
such an atom means is deliberately not modeled. Validity is decided by a
truth table over those variables: merge conditions carry only a handful of
atoms.
"""

from __future__ import annotations

import itertools

from .core import Expr, FalseLit, If, TrueLit, alpha_key


def implies_valid(premise: Expr, conclusion: Expr) -> bool:
    """Validity of premise -> conclusion: no assignment of the atoms makes
    the premise true and the conclusion false."""
    index: dict = {}  # alpha key -> variable
    var: dict[int, int] = {}  # id(atom) -> variable, for the evaluation
    for c in (premise, conclusion):
        _atoms(c, index, var)
    for bits in itertools.product((False, True), repeat=len(index)):
        if _holds(premise, var, bits) and not _holds(conclusion, var, bits):
            return False
    return True


def _atoms(c: Expr, index: dict, var: dict[int, int]) -> None:
    t = type(c)
    if t is If:
        for k in (c.cond, c.then, c.orelse):
            _atoms(k, index, var)
    elif t is not TrueLit and t is not FalseLit:
        var[id(c)] = index.setdefault(alpha_key(c), len(index))


def _holds(c: Expr, var: dict[int, int], bits: tuple[bool, ...]) -> bool:
    t = type(c)
    if t is If:
        return _holds(c.then if _holds(c.cond, var, bits) else c.orelse, var, bits)
    v = var.get(id(c))
    return t is TrueLit if v is None else bits[v]
