import random

import pytest
from hypothesis import given, strategies as st

from effsynth import core
from effsynth.core import (
    BOOL_T, Call, ClassLit, ClassOf, ClassStar, ClassT, ClassTable, DefinitionError,
    Effect, EffectHole, EffectPair, IntLit, Let, MethodSig, NIL_T, NilLit,
    OBJ_T, PURE, RecordLit, Region, SELF_STAR, STR_T, SelfRegion, Seq, Star,
    StrLit, SymLit, TypedHole, UnionT, Var, alpha_key, canon_effect, eff_subsumes, eff_union,
    expr_size, is_complete, leftmost_hole, record_of, resolve_self, subtype,
    union_of, walk, If, Atom, Not, INT_T,
)
from conftest import random_hierarchy


def rec(**fields):
    return record_of((k, opt, ty) for k, (opt, ty) in fields.items())


# ---------------------------------------------------------------------------
# Subtyping
# ---------------------------------------------------------------------------

class TestSubtype:
    def test_nil_below_everything(self, hierarchy):
        assert subtype(NIL_T, ClassT("Dog"), hierarchy)
        assert subtype(NIL_T, ClassOf("Dog"), hierarchy)
        assert subtype(NIL_T, rec(a=(True, STR_T)), hierarchy)

    def test_obj_on_top(self, hierarchy):
        assert subtype(ClassT("Dog"), OBJ_T, hierarchy)
        assert subtype(ClassOf("Dog"), OBJ_T, hierarchy)
        assert not subtype(OBJ_T, ClassT("Dog"), hierarchy)

    def test_class_chain(self, hierarchy):
        assert subtype(ClassT("Puppy"), ClassT("Animal"), hierarchy)
        assert subtype(ClassT("Puppy"), ClassT("Dog"), hierarchy)
        assert not subtype(ClassT("Cat"), ClassT("Dog"), hierarchy)
        assert not subtype(ClassT("Animal"), ClassT("Dog"), hierarchy)

    def test_union_member(self, hierarchy):
        u = union_of(ClassT("Dog"), ClassT("Cat"))
        assert subtype(ClassT("Dog"), u, hierarchy)
        assert subtype(ClassT("Puppy"), u, hierarchy)
        assert not subtype(ClassT("Animal"), u, hierarchy)

    def test_union_on_left_needs_all(self, hierarchy):
        u = union_of(ClassT("Dog"), ClassT("Cat"))
        assert subtype(u, ClassT("Animal"), hierarchy)
        assert not subtype(u, ClassT("Dog"), hierarchy)
        assert subtype(union_of(ClassT("Dog"), NIL_T), ClassT("Dog"), hierarchy)

    def test_singleton_classes_do_not_widen(self, hierarchy):
        assert subtype(ClassOf("Dog"), ClassOf("Dog"), hierarchy)
        assert not subtype(ClassOf("Puppy"), ClassOf("Dog"), hierarchy)
        assert not subtype(ClassOf("Dog"), ClassT("Dog"), hierarchy)

    def test_record_width_and_optional(self, hierarchy):
        provided = rec(slug=(False, STR_T))
        target = rec(author=(True, STR_T), slug=(True, STR_T))
        assert subtype(provided, target, hierarchy)
        assert not subtype(rec(extra=(False, STR_T)), target, hierarchy)
        # a required key of the target must be present
        strict = rec(author=(False, STR_T), slug=(True, STR_T))
        assert not subtype(provided, strict, hierarchy)
        assert subtype(rec(author=(False, STR_T)), strict, hierarchy)

    def test_unknown_class_is_a_definition_error(self, hierarchy):
        with pytest.raises(DefinitionError):
            subtype(ClassT("Ghost"), OBJ_T, hierarchy)

    def test_remembered_answers_equal_fresh_ones(self, monkeypatch):
        # both answers are kept per pair: asked twice and in both orders,
        # and again after a class is added, each equals a fresh _subtype,
        # and a pair asked before is not worked out again
        rng = random.Random(11)
        worked = []

        def counted(t1, t2, ct):
            worked.append((t1, t2))
            return fresh(t1, t2, ct)

        fresh = core._subtype
        monkeypatch.setattr(core, "_subtype", counted)
        for _ in range(40):
            ct = random_hierarchy(rng)
            pool = _type_pool(rng, ct)
            pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(30)]
            for round_ in range(2):
                for a, b in pairs:
                    for t1, t2 in ((a, b), (b, a), (a, b)):
                        want = fresh(t1, t2, ct)
                        known = len(worked)
                        assert subtype(t1, t2, ct) == want
                        if round_:
                            assert len(worked) == known
                ct.add_class(f"New{round_}", rng.choice([c for c in ct.classes() if c != "Nil"]))
                pool += [ClassT(f"New{round_}"), union_of(ClassT(f"New{round_}"), pool[0])]
            refused = [pair for pair, ok in ct._subtypes.items() if not ok]
            assert refused and len(refused) < len(ct._subtypes)

    def test_preorder_on_random_hierarchies(self):
        rng = random.Random(7)
        for _ in range(200):
            ct = random_hierarchy(rng)
            pool = [ClassT(c) for c in ct.classes()]
            pool.append(union_of(*rng.sample([ClassT(c) for c in ct.classes()], 2)))
            ts = [rng.choice(pool) for _ in range(3)]
            for t in ts:
                assert subtype(t, t, ct)
            a, b, c = ts
            if subtype(a, b, ct) and subtype(b, c, ct):
                assert subtype(a, c, ct)


def _type_pool(rng, ct):
    """Class, singleton, union and record types over ct's classes."""
    classes = [c for c in ct.classes() if c != "Nil"]
    pool = [ClassT(c) for c in ct.classes()] + [ClassOf(c) for c in classes]
    pool.append(union_of(*rng.sample([ClassT(c) for c in classes], 2)))
    pool.append(union_of(ClassT(rng.choice(classes)), NIL_T))
    for _ in range(3):
        pool.append(rec(**{k: (rng.random() < 0.5, rng.choice(pool[:6]))
                           for k in rng.sample(["a", "b", "c"], rng.randint(0, 2))}))
    return pool


class TestUnionCanon:
    def test_collapse_and_sort(self):
        u = union_of(ClassT("B"), ClassT("A"), ClassT("B"))
        assert u == UnionT((ClassT("A"), ClassT("B")))
        assert union_of(ClassT("A")) == ClassT("A")

    def test_nested_unions_flatten(self):
        u = union_of(union_of(ClassT("A"), ClassT("B")), ClassT("C"))
        assert isinstance(u, UnionT) and len(u.members) == 3

    def test_no_subsumption_collapse(self):
        # Post | Obj stays a union; collapsing by subtyping would widen.
        u = union_of(ClassT("Obj"), ClassT("A"))
        assert isinstance(u, UnionT)

    def test_canonicalization_idempotent(self):
        u = union_of(ClassT("B"), ClassT("A"))
        assert union_of(*u.members) == u

    def test_duplicate_record_keys_rejected(self):
        with pytest.raises(DefinitionError):
            record_of([("a", False, STR_T), ("a", True, STR_T)])


# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------

class TestEffects:
    def test_pure_below_everything(self, hierarchy):
        assert eff_subsumes(PURE, Effect((Region("Dog", "tail"),)), hierarchy)

    def test_star_on_top(self, hierarchy):
        assert eff_subsumes(Effect((Region("Dog", "tail"),)), Effect((Star(),)), hierarchy)
        assert not eff_subsumes(Effect((Star(),)), Effect((ClassStar("Dog"),)), hierarchy)

    def test_region_lifts_along_hierarchy(self, hierarchy):
        tail_p = Effect((Region("Puppy", "tail"),))
        tail_d = Effect((Region("Dog", "tail"),))
        assert eff_subsumes(tail_p, tail_d, hierarchy)
        assert not eff_subsumes(tail_d, tail_p, hierarchy)
        assert eff_subsumes(tail_p, Effect((ClassStar("Dog"),)), hierarchy)
        assert not eff_subsumes(Effect((ClassStar("Dog"),)), tail_d, hierarchy)

    def test_unrelated_classes_unrelated_regions(self, hierarchy):
        assert not eff_subsumes(
            Effect((Region("Dog", "tail"),)), Effect((Region("Cat", "tail"),)), hierarchy)

    def test_canon_star_absorbs(self, hierarchy):
        e = canon_effect([Star(), Region("Dog", "tail")], hierarchy)
        assert e == Effect((Star(),))

    def test_canon_drops_covered_region(self, hierarchy):
        e = canon_effect([ClassStar("Dog"), Region("Puppy", "tail")], hierarchy)
        assert e == Effect((ClassStar("Dog"),))
        e2 = canon_effect([ClassStar("Cat"), Region("Dog", "tail")], hierarchy)
        assert len(e2.atoms) == 2

    def test_canon_idempotent(self, hierarchy):
        rng = random.Random(3)
        atoms = [Star(), ClassStar("Dog"), ClassStar("Cat"),
                 Region("Puppy", "a"), Region("Dog", "a"), Region("Cat", "b")]
        for _ in range(200):
            picked = rng.sample(atoms, rng.randint(0, len(atoms)))
            e = canon_effect(picked, hierarchy)
            assert canon_effect(e.atoms, hierarchy) == e

    def test_union_properties(self, hierarchy):
        rng = random.Random(11)
        atoms = [ClassStar("Dog"), Region("Puppy", "a"), Region("Cat", "b"),
                 Region("Dog", "c"), Star()]
        effs = [canon_effect(rng.sample(atoms, rng.randint(0, 3)), hierarchy)
                for _ in range(40)]
        for e1 in effs[:10]:
            for e2 in effs[10:20]:
                u = eff_union(e1, e2, hierarchy)
                assert u == eff_union(e2, e1, hierarchy)
                assert eff_subsumes(e1, u, hierarchy)
                assert eff_union(e1, e1, hierarchy) == e1
                for e3 in effs[20:24]:
                    assert (eff_union(eff_union(e1, e2, hierarchy), e3, hierarchy)
                            == eff_union(e1, eff_union(e2, e3, hierarchy), hierarchy))

    def test_subsumes_preorder(self, hierarchy):
        rng = random.Random(13)
        atoms = [ClassStar("Dog"), Region("Puppy", "a"), Region("Dog", "a"),
                 Region("Cat", "b"), Star()]
        effs = [canon_effect(rng.sample(atoms, rng.randint(0, 3)), hierarchy)
                for _ in range(30)]
        for e in effs:
            assert eff_subsumes(e, e, hierarchy)
        for a in effs[:8]:
            for b in effs[8:16]:
                for c in effs[16:22]:
                    if eff_subsumes(a, b, hierarchy) and eff_subsumes(b, c, hierarchy):
                        assert eff_subsumes(a, c, hierarchy)


class TestResolveSelf:
    def test_self_star(self, blog):
        ct, _ = blog
        assert resolve_self(Effect((SELF_STAR,)), "Post", ct) == Effect((ClassStar("Post"),))

    def test_self_region(self, blog):
        ct, _ = blog
        assert (resolve_self(Effect((SelfRegion("title"),)), "Post", ct)
                == Effect((Region("Post", "title"),)))

    def test_no_self_atoms_unchanged(self, blog):
        ct, _ = blog
        e = Effect((Region("User", "name"),))
        assert resolve_self(e, "Post", ct) == e


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------

def _naive_size(e):
    from effsynth.core import Call, RecordLit, children

    if isinstance(e, Call):
        return 1 + _naive_size(e.recv) + sum(_naive_size(a) for a in e.args)
    if isinstance(e, RecordLit):
        return len(e.pairs) + sum(_naive_size(v) for _, v in e.pairs)
    return sum(_naive_size(c) for c in children(e))


def _naive_complete(e):
    from effsynth.core import children

    if isinstance(e, (TypedHole, EffectHole)):
        return False
    return all(_naive_complete(c) for c in children(e))


_leaf = st.sampled_from([
    NilLit(), Var("x"), Var("y"), IntLit(1), StrLit("s"),
    TypedHole(STR_T), EffectHole(PURE),
])


def _exprs(depth=3):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.builds(Seq, sub, sub),
        st.builds(lambda r, a: Call(r, "m", (a,)), sub, sub),
        st.builds(lambda r, a, b: Call(r, "m2", (a, b)), sub, sub, sub),
        st.builds(lambda c, t, e: If(Not(Atom(c)), t, e), sub, sub, sub),
        st.builds(lambda b, body: Let("v", b, body), sub, sub),
        st.builds(lambda p: RecordLit((("k", p),)), sub),
        st.builds(lambda p, q: RecordLit((("j", p), ("k", q))), sub, sub),
    )


def test_literal_and_hole_alpha_keys():
    # each literal is keyed by its one field, falsy values included, and a
    # hole by its type
    assert alpha_key(IntLit(0)) == ("IntLit", 0)
    assert alpha_key(IntLit(1)) == ("IntLit", 1)
    assert alpha_key(StrLit("")) == ("StrLit", "")
    assert alpha_key(SymLit("")) == ("SymLit", "")
    assert alpha_key(SymLit("a")) == ("SymLit", "a")
    assert alpha_key(ClassLit("Post")) == ("ClassLit", "Post")
    keys = [alpha_key(x)[1] for x in (IntLit(0), IntLit(1), StrLit(""), SymLit("a"))]
    assert len(set(keys)) == 4
    assert alpha_key(TypedHole(STR_T)) == ("TypedHole", STR_T) != alpha_key(TypedHole(INT_T))
    assert alpha_key(EffectHole(PURE)) != alpha_key(EffectHole(Effect((Star(),))))
    assert alpha_key(TypedHole(union_of(STR_T, NIL_T))) == alpha_key(
        TypedHole(union_of(NIL_T, STR_T)))


class TestExprHelpers:
    def test_size_of_leaves(self):
        assert expr_size(Var("x")) == 0
        assert expr_size(NilLit()) == 0
        assert expr_size(TypedHole(STR_T)) == 0

    def test_size_of_call(self):
        assert expr_size(Call(Var("x"), "m", (Var("y"),))) == 1

    def test_size_of_let_chain(self):
        e = Let("t", Call(Var("x"), "m", ()), Seq(Call(Var("t"), "n", ()), Var("t")))
        assert expr_size(e) == 2

    def test_record_pairs_cost_one_each(self):
        e = RecordLit((("a", Var("x")), ("b", IntLit(1))))
        assert expr_size(e) == 2

    def test_is_complete(self):
        assert not is_complete(TypedHole(ClassT("Obj")))
        assert is_complete(Call(Var("x"), "m", (NilLit(),)))
        assert not is_complete(Let("x", Var("y"), EffectHole(PURE)))

    @given(_exprs())
    def test_size_matches_reference(self, e):
        assert expr_size(e) == _naive_size(e)

    @given(_exprs())
    def test_complete_matches_reference(self, e):
        assert is_complete(e) == _naive_complete(e)

    @given(_exprs())
    def test_leftmost_hole_path(self, e):
        path = leftmost_hole(e)
        assert (path is None) == is_complete(e)
        if path is not None:
            holes = [n for n in walk(e) if isinstance(n, (TypedHole, EffectHole))]
            assert path.hole is holes[0]
            assert path.plug(path.hole) == e
            filled = path.plug(NilLit())
            assert [n for n in walk(filled)
                    if isinstance(n, (TypedHole, EffectHole))] == holes[1:]
            assert expr_size(filled) == expr_size(e)


# ---------------------------------------------------------------------------
# Class table and method lookup
# ---------------------------------------------------------------------------

class TestLookup:
    def test_inherited_singleton_method(self):
        ct = ClassTable()
        ct.add_class("DbRecord")
        ct.add_class("Post", "DbRecord")
        sig = MethodSig(ClassOf("DbRecord"), "exists?", (), BOOL_T)
        ct.add_method(sig)
        assert ct.lookup_method(ClassOf("Post"), "exists?") is sig

    def test_missing_method(self):
        ct = ClassTable()
        with pytest.raises(DefinitionError):
            ct.lookup_method(OBJ_T, "m")

    def test_override_shadows_parent(self, hierarchy):
        parent = MethodSig(ClassT("Animal"), "speak", (), STR_T)
        child = MethodSig(ClassT("Dog"), "speak", (), STR_T)
        hierarchy.add_method(parent)
        hierarchy.add_method(child)
        assert hierarchy.lookup_method(ClassT("Dog"), "speak") is child
        assert hierarchy.lookup_method(ClassT("Cat"), "speak") is parent

    def test_nil_has_no_methods(self, hierarchy):
        hierarchy.add_method(MethodSig(OBJ_T, "m", (), STR_T))
        with pytest.raises(DefinitionError):
            hierarchy.lookup_method(NIL_T, "m")

    def test_duplicate_signature_rejected(self, hierarchy):
        hierarchy.add_method(MethodSig(ClassT("Dog"), "speak", (), STR_T))
        with pytest.raises(DefinitionError):
            hierarchy.add_method(MethodSig(ClassT("Dog"), "speak", (), BOOL_T))

    def test_all_sigs_order_is_insertion_independent(self):
        a = ClassTable()
        b = ClassTable()
        s1 = MethodSig(ClassT("Str"), "m1", (), STR_T)
        s2 = MethodSig(ClassT("Bool"), "m2", (), BOOL_T)
        a.add_method(s1); a.add_method(s2)
        b.add_method(s2); b.add_method(s1)
        assert a.all_sigs() == b.all_sigs()


class TestEffectPairs:
    def test_pair_union_is_componentwise(self, hierarchy):
        from effsynth.core import EffectPair, pair_union

        p1 = EffectPair(read=Effect((Region("Dog", "tail"),)))
        p2 = EffectPair(read=Effect((Region("Cat", "fur"),)),
                        write=Effect((ClassStar("Dog"),)))
        u = pair_union(p1, p2, hierarchy)
        assert u.read == canon_effect([Region("Dog", "tail"), Region("Cat", "fur")], hierarchy)
        assert u.write == Effect((ClassStar("Dog"),))

    def test_pair_union_canonicalizes_components(self, hierarchy):
        from effsynth.core import EffectPair, pair_union

        p1 = EffectPair(write=Effect((Region("Puppy", "tail"),)))
        p2 = EffectPair(write=Effect((ClassStar("Dog"),)))
        u = pair_union(p1, p2, hierarchy)
        assert u.write == Effect((ClassStar("Dog"),))
