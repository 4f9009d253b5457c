"""Propositional validity of branch-condition implications.

The literal atoms `true` and `false` are constants. Every other distinct
atom of the two conditions, by the alpha key of its expression, is one
boolean variable; what such an atom means is deliberately not modeled.
Validity is decided by a truth table over those variables: merge conditions
carry only a handful of atoms.
"""

from __future__ import annotations

import itertools

from .core import Atom, Cond, FalseLit, Not, TrueLit, alpha_key


def implies_valid(premise: Cond, conclusion: Cond) -> bool:
    """Validity of premise -> conclusion: no assignment of the atoms makes
    the premise true and the conclusion false."""
    index: dict = {}  # alpha key -> variable
    var: dict[int, int] = {}  # id(atom) -> variable, for the evaluation
    for c in (premise, conclusion):
        for a in _atoms(c):
            if not isinstance(a.expr, (TrueLit, FalseLit)):
                var[id(a)] = index.setdefault(alpha_key(a.expr), len(index))
    for bits in itertools.product((False, True), repeat=len(index)):
        if _holds(premise, var, bits) and not _holds(conclusion, var, bits):
            return False
    return True


def _atoms(c: Cond):
    if isinstance(c, Atom):
        yield c
    elif isinstance(c, Not):
        yield from _atoms(c.inner)
    else:
        yield from _atoms(c.left)
        yield from _atoms(c.right)


def _holds(c: Cond, var: dict[int, int], bits: tuple[bool, ...]) -> bool:
    if isinstance(c, Atom):
        v = var.get(id(c))
        return isinstance(c.expr, TrueLit) if v is None else bits[v]
    if isinstance(c, Not):
        return not _holds(c.inner, var, bits)
    return _holds(c.left, var, bits) or _holds(c.right, var, bits)
