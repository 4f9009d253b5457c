import itertools

import pytest

from effsynth.core import (
    Atom, BOOL_T, Call, ClassLit, ClassOf, ClassT, ConstantPool, Effect,
    EffectHole, FalseLit, If, IntLit, INT_T, Let, NIL_T, NilLit, OBJ_T, PURE,
    RecordLit, RecordT, Region, Seq, StrLit, STR_T, TrueLit, TypedHole, UnionT,
    Var, alpha_key, record_of, union_of,
)
from effsynth.effgen import expand_effect_hole
from effsynth.runtime import relation_class
from effsynth.typegen import (
    RuleConfig, TypeCheckError, expand_typed_hole, typecheck,
)


def rec_t(**fields):
    return record_of((k, opt, ty) for k, (opt, ty) in fields.items())


POST_REC = rec_t(author=(True, STR_T), slug=(True, STR_T), title=(True, STR_T))


class TestTypecheck:
    def test_literals(self, blog):
        ct, _ = blog
        assert typecheck({}, ct, NilLit()) == NIL_T
        assert typecheck({}, ct, TrueLit()) == BOOL_T
        assert typecheck({}, ct, IntLit(3)) == INT_T
        assert typecheck({}, ct, StrLit("s")) == STR_T
        assert typecheck({}, ct, ClassLit("Post")) == ClassOf("Post")

    def test_call_on_singleton_hole(self, blog):
        ct, _ = blog
        e = Call(TypedHole(ClassOf("Post")), "exists?", (TypedHole(POST_REC),))
        assert typecheck({}, ct, e) == BOOL_T

    def test_call_on_nil_rejected(self, blog):
        ct, _ = blog
        with pytest.raises(TypeCheckError):
            typecheck({}, ct, Call(NilLit(), "append", (StrLit("x"),)))

    def test_if_yields_branch_union(self, blog):
        ct, _ = blog
        e = If(Atom(TrueLit()), Call(TypedHole(ClassOf("Post")), "create", (TypedHole(POST_REC),)), NilLit())
        assert typecheck({}, ct, e) == union_of(ClassT("Post"), NIL_T)

    def test_effect_hole_types_at_obj(self, blog):
        ct, _ = blog
        assert typecheck({}, ct, EffectHole(PURE)) == OBJ_T

    def test_typed_hole_types_at_annotation(self, blog):
        ct, _ = blog
        assert typecheck({}, ct, TypedHole(STR_T)) == STR_T

    def test_union_receiver_with_nil_member_tolerated(self, blog):
        # a Post|Nil receiver may call Post methods; the nil case is a
        # runtime matter, while a bare Nil receiver is still rejected
        ct, _ = blog
        env = {"t": union_of(ClassT("Post"), NIL_T)}
        assert typecheck(env, ct, Call(Var("t"), "title", ())) == STR_T

    def test_union_receiver_needs_method_on_live_members(self, blog):
        ct, _ = blog
        env = {"t": union_of(ClassT("Post"), ClassT("User"))}
        with pytest.raises(TypeCheckError):
            typecheck(env, ct, Call(Var("t"), "title", ()))
        assert typecheck(env, ct, Call(Var("t"), "id", ())) == INT_T

    def test_record_literal_exact_type(self, blog):
        ct, _ = blog
        e = RecordLit((("slug", StrLit("s")),))
        assert typecheck({}, ct, e) == rec_t(slug=(False, STR_T))

    def test_record_field_read(self, blog):
        ct, _ = blog
        env = {"r": POST_REC, "q": rec_t(name=(False, STR_T))}
        assert typecheck(env, ct, Call(Var("r"), "title", ())) == union_of(STR_T, NIL_T)
        assert typecheck(env, ct, Call(Var("q"), "name", ())) == STR_T
        with pytest.raises(TypeCheckError):
            typecheck(env, ct, Call(Var("r"), "ghost", ()))

    def test_arg_subtyping(self, blog):
        ct, _ = blog
        ok = Call(ClassLit("Post"), "create", (RecordLit((("slug", StrLit("s")),)),))
        assert typecheck({}, ct, ok) == ClassT("Post")
        bad = Call(ClassLit("Post"), "create", (IntLit(1),))
        with pytest.raises(TypeCheckError):
            typecheck({}, ct, bad)

    def test_unbound_var(self, blog):
        ct, _ = blog
        with pytest.raises(TypeCheckError):
            typecheck({}, ct, Var("ghost"))

    def test_lenient_mode_never_raises(self, blog):
        ct, _ = blog
        assert typecheck({}, ct, Var("ghost"), strict=False) == OBJ_T
        assert typecheck({}, ct, Call(NilLit(), "m", ()), strict=False) == OBJ_T


class TestExpandTypedHole:
    def test_create_template_offered_for_post_hole(self, blog):
        ct, _ = blog
        out = expand_typed_hole({}, ct, ConstantPool(), TypedHole(ClassT("Post")))
        keys = {alpha_key(e) for e in out}
        want = Call(TypedHole(ClassOf("Post")), "create", (TypedHole(POST_REC),))
        assert alpha_key(want) in keys

    def test_products_equal_hand_built_templates(self, blog):
        # a hole is its annotation: products of either expansion compare
        # equal to the same templates written by hand
        ct, _ = blog
        create = Call(TypedHole(ClassOf("Post")), "create", (TypedHole(POST_REC),))
        setter = Call(TypedHole(ClassT("Post")), "title=", (TypedHole(STR_T),))
        assert create in expand_typed_hole({}, ct, ConstantPool(), TypedHole(ClassT("Post")))
        rest = TypedHole(ClassT("Post"))
        e = Seq(EffectHole(Effect((Region("Post", "title"),))), rest)
        assert expand_effect_hole(ct, e) == [
            Seq(NilLit(), rest), Seq(setter, rest), Seq(create, rest)]

    def test_singleton_hole_filled_by_class_constant(self, blog):
        ct, _ = blog
        sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")),))
        e = Call(TypedHole(ClassOf("Post")), "create", (TypedHole(POST_REC),))
        out = expand_typed_hole({}, ct, sigma, e)
        # the class literal is the only constant/var fill; call templates
        # whose return is ClassOf do not exist
        heads = [c for c in out if isinstance(c.recv, ClassLit)]
        assert len(heads) == 1 and heads[0].recv == ClassLit("Post")

    def test_record_hole_enumerates_optional_subsets(self, blog):
        # brute-force oracle over subsets of the three optional keys
        ct, _ = blog
        e = Call(ClassLit("Post"), "create", (TypedHole(POST_REC),))
        out = expand_typed_hole({}, ct, ConstantPool(), e)
        lit_sets = set()
        for cand in out:
            arg = cand.args[0]
            if isinstance(arg, RecordLit):
                lit_sets.add(tuple(k for k, _ in arg.pairs))
        expected = set()
        for size in range(4):
            for combo in itertools.combinations(("author", "slug", "title"), size):
                expected.add(combo)
        assert lit_sets == expected
        # the empty record comes first among record literals
        first_rec = next(c.args[0] for c in out if isinstance(c.args[0], RecordLit))
        assert first_rec == RecordLit(())

    def test_nil_receiver_candidate_dropped_by_narrowing(self, blog):
        ct, _ = blog
        sigma = ConstantPool(((NilLit(), NIL_T),))
        e = Call(TypedHole(ClassT("Post")), "title", ())
        out = expand_typed_hole({}, ct, sigma, e)
        assert all(not isinstance(c.recv, NilLit) for c in out)

    def test_variables_fill_by_subtype(self, blog):
        ct, _ = blog
        env = {"arg0": STR_T, "arg1": INT_T}
        out = expand_typed_hole(env, ct, ConstantPool(), TypedHole(STR_T))
        vars_out = [c for c in out if isinstance(c, Var)]
        assert vars_out == [Var("arg0")]

    def test_record_reader_fills(self, blog):
        ct, _ = blog
        env = {"arg2": POST_REC}
        out = expand_typed_hole(env, ct, ConstantPool(), TypedHole(STR_T))
        readers = [c for c in out if isinstance(c, Call) and c.recv == Var("arg2")]
        assert [c.method for c in readers] == ["author", "slug", "title"]

    def test_leftmost_hole_only(self, blog):
        ct, _ = blog
        env = {"x": STR_T}
        e = Seq(TypedHole(STR_T), TypedHole(STR_T))
        out = expand_typed_hole(env, ct, ConstantPool(), e)
        for c in out:
            assert isinstance(c.second, TypedHole)

    def test_effect_hole_first_means_no_typed_expansion(self, blog):
        ct, _ = blog
        e = Seq(EffectHole(PURE), TypedHole(STR_T))
        assert expand_typed_hole({"x": STR_T}, ct, ConstantPool(), e) == []

    def test_one_step_completeness_against_brute_force(self, blog):
        # oracle: the expansion list must equal independent application of
        # the constant / variable / reader / call-template / record rules
        ct, _ = blog
        from effsynth.core import subtype

        sigma = ConstantPool(((StrLit(""), STR_T), (ClassLit("Post"), ClassOf("Post"))))
        env = {"arg0": STR_T, "arg2": rec_t(slug=(True, STR_T))}
        target = STR_T
        out = expand_typed_hole(env, ct, sigma, TypedHole(target))

        expected = []
        for lit, ty in sigma.entries:
            if subtype(ty, target, ct):
                expected.append(lit)
        for name, ty in env.items():
            if subtype(ty, target, ct):
                expected.append(Var(name))
        for name, ty in env.items():
            if isinstance(ty, RecordT):
                for k, opt, fty in ty.fields:
                    rty = union_of(fty, NIL_T) if opt else fty
                    if subtype(rty, target, ct):
                        expected.append(Call(Var(name), k, ()))
        for sig in ct.all_sigs():
            if subtype(sig.ret, target, ct):
                expected.append(Call(TypedHole(sig.owner), sig.name,
                                     tuple(TypedHole(p) for p in sig.params)))
        assert [alpha_key(c) for c in out] == [alpha_key(c) for c in expected]

    def test_determinism(self, blog):
        ct, _ = blog
        env = {"arg0": STR_T}
        sigma = ConstantPool(((StrLit(""), STR_T),))
        a = expand_typed_hole(env, ct, sigma, TypedHole(STR_T))
        b = expand_typed_hole(env, ct, sigma, TypedHole(STR_T))
        assert a == b

    def test_narrowing_soundness(self, blog):
        # every candidate typechecks and the hole position narrowed
        ct, _ = blog
        env = {"arg0": STR_T}
        out = expand_typed_hole(env, ct, ConstantPool(), TypedHole(ClassT("Post")))
        for c in out:
            t = typecheck(env, ct, c)
            from effsynth.core import subtype

            assert subtype(t, ClassT("Post"), ct)

    def test_types_off_ignores_subtyping(self, blog):
        ct, _ = blog
        env = {"arg0": STR_T, "arg1": INT_T}
        cfg = RuleConfig(types_on=False)
        out = expand_typed_hole(env, ct, ConstantPool(), TypedHole(ClassT("Post")), cfg)
        vars_out = [c for c in out if isinstance(c, Var)]
        assert vars_out == [Var("arg0"), Var("arg1")]

    def test_relation_hole_reaches_where(self, blog):
        ct, _ = blog
        rel = ClassT(relation_class("Post"))
        out = expand_typed_hole({}, ct, ConstantPool(), TypedHole(rel))
        methods = {c.method for c in out if isinstance(c, Call)}
        assert "where" in methods
