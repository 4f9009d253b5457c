import random
import time

import pytest

from effsynth.core import CallMemo, ClassTable, STR_T, leftmost_hole
from effsynth.effgen import expand_effect_hole
from effsynth.interp import spec_start
from effsynth.runtime import SchemaDecl, World, install_core_methods, install_schema
from effsynth.search import SearchConfig, SearchStats, generate
from effsynth.typegen import expand_typed_hole


@pytest.fixture
def blog():
    """Class table and world for a two-schema blog fixture."""
    ct = ClassTable()
    install_core_methods(ct)
    user = SchemaDecl("User", (("name", STR_T), ("username", STR_T)))
    post = SchemaDecl("Post", (("author", STR_T), ("title", STR_T), ("slug", STR_T)))
    install_schema(ct, user)
    install_schema(ct, post)
    world = World({"User": user, "Post": post})
    return ct, world


@pytest.fixture
def hierarchy():
    """Small class tree: Animal <- Dog <- Puppy, Animal <- Cat."""
    ct = ClassTable()
    ct.add_class("Animal")
    ct.add_class("Dog", "Animal")
    ct.add_class("Puppy", "Dog")
    ct.add_class("Cat", "Animal")
    return ct


def random_hierarchy(rng: random.Random, n_classes: int = 5) -> ClassTable:
    ct = ClassTable()
    names = [f"C{i}" for i in range(n_classes)]
    for i, name in enumerate(names):
        parent = "Obj" if i == 0 else rng.choice(names[:i] + ["Obj"])
        ct.add_class(name, parent)
    return ct


def lookup_goal_text(n: int) -> str:
    """The flat lookup goal `lookup<n>`: (Str -> Int) mapping "k<i>" to i,
    one spec per key. Merging its n tuples is the hard part."""
    consts = " ".join(f"({i} Int)" for i in range(n))
    consts += " " + " ".join(f'("k{i}" Str)' for i in range(n))
    names = " ".join(str(i) for i in range(n)) + " " + " ".join(f'"k{i}"' for i in range(n))
    specs = "\n".join(
        f'  (spec "k{i}" (setup (call! "k{i}")) (post (assert (call x_r == {i}))))'
        for i in range(n))
    return (f"(constants {consts})\n"
            f"(goal lookup{n}\n  (sig (Str -> Int))\n  (consts {names})\n{specs})\n")


# Two specs whose starts differ only in a User row that no term over Post
# and the argument can read.
NEAR_TWINS = """
(schema Post (author Str) (title Str) (slug Str))
(schema User (name Str) (username Str))
(constants ("a" Str) ("b" Str) (Post (class-of Post)))
(goal pick
  (sig (Str -> Str))
  (consts "a" "b" Post)
  (spec "post only"
    (setup (call Post create (record (slug "present"))) (call! "present"))
    (post (assert (call x_r == "a"))))
  (spec "post and user"
    (setup (call Post create (record (slug "present")))
           (call User create (record (name "u")))
           (call! "present"))
    (post (assert (call x_r == "b")))))
"""


def expand_typed(env, ct, sigma, e, cfg=SearchConfig()):
    """The terms expand_typed_hole makes from e's leftmost hole."""
    return [p.expr for p in expand_typed_hole(env, ct, sigma, leftmost_hole(e), cfg, CallMemo())]


def expand_effect(ct, e, env=None, cfg=SearchConfig()):
    """The terms expand_effect_hole makes from e's leftmost hole."""
    return [p.expr for p in expand_effect_hole(ct, leftmost_hole(e), env or {}, cfg, CallMemo())]


def run_generate(goal_params, ret, ct, sigma, spec, world, cfg, stats=None):
    """search.generate on one spec as synthesize calls it: the spec's start,
    the deadline cfg.timeout_s from now, and fresh stats unless given.
    Returns the expression found (or None) and the stats."""
    stats = SearchStats() if stats is None else stats
    deadline = None if cfg.timeout_s is None else time.monotonic() + cfg.timeout_s
    memo = CallMemo()
    start = spec_start(spec, len(goal_params), world, ct, memo)
    expr = generate(goal_params, ret, ct, sigma, spec, world, cfg, stats, deadline, start, memo)
    return expr, stats
