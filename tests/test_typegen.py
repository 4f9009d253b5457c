import itertools
from heapq import heappush

import pytest

from conftest import expand_effect, expand_typed
from effsynth import search as search_mod
from effsynth.core import (
    Atom, BOOL_T, Call, CallMemo, ClassLit, ClassOf, ClassT, ConstantPool, Effect,
    EffectHole, If, IntLit, INT_T, Let, NIL_T, NilLit, Not, OBJ_T, PURE,
    RecordLit, RecordT, Region, Seq, StrLit, STR_T, TrueLit, TypedHole, Var,
    alpha_key, children, expr_size, leftmost_hole, rebuild, record_of,
    union_of, walk,
)
from effsynth.driver import synthesize
from effsynth.effgen import expand_effect_hole
from effsynth.goalfile import load_goal_file
from effsynth.runtime import relation_class
from effsynth.search import SearchConfig
from effsynth.typegen import TypeCheckError, expand_typed_hole, typecheck


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
        out = expand_typed({}, ct, ConstantPool(), TypedHole(ClassT("Post")))
        keys = {alpha_key(e) for e in out}
        want = Call(TypedHole(ClassOf("Post")), "create", (TypedHole(POST_REC),))
        assert alpha_key(want) in keys

    def test_products_equal_hand_built_templates(self, blog):
        # a hole is its annotation: products of either expansion compare
        # equal to the same templates written by hand
        ct, _ = blog
        create = Call(TypedHole(ClassOf("Post")), "create", (TypedHole(POST_REC),))
        setter = Call(TypedHole(ClassT("Post")), "title=", (TypedHole(STR_T),))
        assert create in expand_typed({}, ct, ConstantPool(), TypedHole(ClassT("Post")))
        rest = TypedHole(ClassT("Post"))
        e = Seq(EffectHole(Effect((Region("Post", "title"),))), rest)
        assert expand_effect(ct, e) == [
            Seq(NilLit(), rest), Seq(setter, rest), Seq(create, rest)]

    def test_singleton_hole_filled_by_class_constant(self, blog):
        ct, _ = blog
        sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")),))
        e = Call(TypedHole(ClassOf("Post")), "create", (TypedHole(POST_REC),))
        out = expand_typed({}, ct, sigma, e)
        # the class literal is the only constant/var fill; call templates
        # whose return is ClassOf do not exist
        heads = [c for c in out if isinstance(c.recv, ClassLit)]
        assert len(heads) == 1 and heads[0].recv == ClassLit("Post")

    def test_record_hole_enumerates_optional_subsets(self, blog):
        # brute-force oracle over subsets of the three optional keys
        ct, _ = blog
        e = Call(ClassLit("Post"), "create", (TypedHole(POST_REC),))
        out = expand_typed({}, ct, ConstantPool(), e)
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
        out = expand_typed({}, ct, sigma, e)
        assert all(not isinstance(c.recv, NilLit) for c in out)

    def test_variables_fill_by_subtype(self, blog):
        ct, _ = blog
        env = {"arg0": STR_T, "arg1": INT_T}
        out = expand_typed(env, ct, ConstantPool(), TypedHole(STR_T))
        vars_out = [c for c in out if isinstance(c, Var)]
        assert vars_out == [Var("arg0")]

    def test_record_reader_fills(self, blog):
        ct, _ = blog
        env = {"arg2": POST_REC}
        out = expand_typed(env, ct, ConstantPool(), TypedHole(STR_T))
        readers = [c for c in out if isinstance(c, Call) and c.recv == Var("arg2")]
        assert [c.method for c in readers] == ["author", "slug", "title"]

    def test_leftmost_hole_only(self, blog):
        ct, _ = blog
        env = {"x": STR_T}
        e = Seq(TypedHole(STR_T), TypedHole(STR_T))
        out = expand_typed(env, ct, ConstantPool(), e)
        for c in out:
            assert isinstance(c.second, TypedHole)

    def test_effect_hole_first_means_no_typed_expansion(self, blog):
        ct, _ = blog
        e = Seq(EffectHole(PURE), TypedHole(STR_T))
        assert expand_typed({"x": STR_T}, ct, ConstantPool(), e) == []

    def test_one_step_completeness_against_brute_force(self, blog):
        # oracle: the expansion list must equal independent application of
        # the constant / variable / reader / call-template / record rules
        ct, _ = blog
        from effsynth.core import subtype

        sigma = ConstantPool(((StrLit(""), STR_T), (ClassLit("Post"), ClassOf("Post"))))
        env = {"arg0": STR_T, "arg2": rec_t(slug=(True, STR_T))}
        target = STR_T
        out = expand_typed(env, ct, sigma, TypedHole(target))

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
        a = expand_typed(env, ct, sigma, TypedHole(STR_T))
        b = expand_typed(env, ct, sigma, TypedHole(STR_T))
        assert a == b

    def test_narrowing_soundness(self, blog):
        # every candidate typechecks and the hole position narrowed
        ct, _ = blog
        env = {"arg0": STR_T}
        out = expand_typed(env, ct, ConstantPool(), TypedHole(ClassT("Post")))
        for c in out:
            t = typecheck(env, ct, c)
            from effsynth.core import subtype

            assert subtype(t, ClassT("Post"), ct)

    def test_types_off_ignores_subtyping(self, blog):
        ct, _ = blog
        env = {"arg0": STR_T, "arg1": INT_T}
        cfg = SearchConfig(mode="effects_only")
        out = expand_typed(env, ct, ConstantPool(), TypedHole(ClassT("Post")), cfg)
        vars_out = [c for c in out if isinstance(c, Var)]
        assert vars_out == [Var("arg0"), Var("arg1")]

    def test_relation_hole_reaches_where(self, blog):
        ct, _ = blog
        rel = ClassT(relation_class("Post"))
        out = expand_typed({}, ct, ConstantPool(), TypedHole(rel))
        methods = {c.method for c in out if isinstance(c, Call)}
        assert "where" in methods


# ---------------------------------------------------------------------------
# The path check against whole-term checking
# ---------------------------------------------------------------------------

def subst_leftmost(e, fill):
    """e with its first hole in preorder replaced by fill, rebuilt whole."""
    done = []

    def go(n):
        if done:
            return n
        if isinstance(n, (TypedHole, EffectHole)):
            done.append(n)
            return fill
        kids = children(n)
        return rebuild(n, [go(k) for k in kids]) if kids else n

    return go(e)


def scope_at_leftmost(env, ct, e):
    """The environment at e's first hole; a let binding's variable has the
    lenient type of its binding. None when e has no hole."""
    if isinstance(e, (TypedHole, EffectHole)):
        return env
    if isinstance(e, Let):
        scope = scope_at_leftmost(env, ct, e.bound)
        if scope is not None:
            return scope
        inner = dict(env)
        inner[e.var] = typecheck(env, ct, e.bound, strict=False)
        return scope_at_leftmost(inner, ct, e.body)
    for k in children(e):
        scope = scope_at_leftmost(env, ct, k)
        if scope is not None:
            return scope
    return None


def whole_term_products(env, ct, sigma, e, cfg):
    """The expansion by the old composition: the fills of the bare hole in
    its scope, each substituted into e, kept when (with types on) the whole
    result typechecks."""
    hole = next(n for n in walk(e) if isinstance(n, (TypedHole, EffectHole)))
    scope = scope_at_leftmost(env, ct, e)
    if isinstance(hole, TypedHole):
        fills = expand_typed(scope, ct, sigma, hole, cfg)
    else:
        fills = expand_effect(ct, hole, scope, cfg)
    out = []
    for fill in fills:
        cand = subst_leftmost(e, fill)
        if cfg.types_on:
            try:
                typecheck(env, ct, cand)
            except TypeCheckError:
                continue
        out.append(cand)
    return out


def hole_count(e):
    return sum(isinstance(n, (TypedHole, EffectHole)) for n in walk(e))


def check_products(env, ct, sigma, path, cfg, products):
    """Products equal the old composition's, with exact size and hole-count
    deltas."""
    cand = path.plug(path.hole)
    assert [p.expr for p in products] == whole_term_products(env, ct, sigma, cand, cfg)
    for p in products:
        assert expr_size(p.expr) == expr_size(cand) + p.dsize
        assert hole_count(p.expr) == hole_count(cand) + p.dholes


TITLE_READ = Effect((Region("Post", "title"),))
PATH_CASES = [
    # a let whose binding holds the hole: the body decides which fills fit
    Let("x", TypedHole(OBJ_T), Call(Var("x"), "title", ())),
    Let("x", TypedHole(OBJ_T),
        Seq(EffectHole(TITLE_READ), Call(Var("x"), "title=", (TypedHole(STR_T),)))),
    Let("x", Let("y", TypedHole(OBJ_T), Var("y")), Call(Var("x"), "slug", ())),
    # siblings off the path decide
    Call(TypedHole(OBJ_T), "title=", (StrLit(""),)),
    Call(TypedHole(OBJ_T), "title=", (IntLit(0),)),
    Call(Var("p"), "title=", (TypedHole(OBJ_T),)),
    Call(ClassLit("Post"), "create", (RecordLit((("slug", TypedHole(OBJ_T)),)),)),
    If(Atom(TypedHole(OBJ_T)), Var("arg0"), NilLit()),
    If(Not(Atom(Var("arg0"))), TypedHole(OBJ_T), NilLit()),
    Let("y", Var("p"), Call(TypedHole(OBJ_T), "title", ())),
    Seq(EffectHole(TITLE_READ), Call(Var("p"), "title", ())),
    Let("t0", Var("p"), Seq(EffectHole(TITLE_READ), TypedHole(ClassT("Post")))),
    # a binding that does not type leaves no product
    Let("x", Call(NilLit(), "title", ()), TypedHole(STR_T)),
]


class TestPathCheck:
    @pytest.mark.parametrize("cfg", [SearchConfig(), SearchConfig(mode="effects_only")],
                             ids=["types", "no-types"])
    @pytest.mark.parametrize("cand", PATH_CASES, ids=range(len(PATH_CASES)))
    def test_products_match_whole_term_check(self, blog, cand, cfg):
        ct, _ = blog
        env = {"arg0": STR_T, "p": ClassT("Post")}
        sigma = ConstantPool(((StrLit(""), STR_T), (NilLit(), NIL_T),
                              (ClassLit("Post"), ClassOf("Post"))))
        path = leftmost_hole(cand)
        if isinstance(path.hole, TypedHole):
            products = expand_typed_hole(env, ct, sigma, path, cfg, CallMemo())
        else:
            products = expand_effect_hole(ct, path, env, cfg, CallMemo())
        check_products(env, ct, sigma, path, cfg, products)
        if cfg.types_on and cand is PATH_CASES[0]:
            # the case is not vacuous: the body drops some fills
            assert 0 < len(products) < len(whole_term_products(
                env, ct, sigma, cand, SearchConfig(mode="effects_only")))

    @pytest.mark.parametrize("mode", ["full", "types_only", "effects_only"])
    def test_every_search_expansion_matches(self, monkeypatch, mode):
        # every expansion update_post reaches, its condition searches
        # included, equals the old composition; every queued candidate
        # carries its true size and hole count
        gf, ct, world = load_goal_file("goals/update_post.goal")
        seen = []

        def typed(env, ct_, sigma, path, cfg, *rest):
            products = expand_typed_hole(env, ct_, sigma, path, cfg, *rest)
            check_products(env, ct_, sigma, path, cfg, products)
            seen.append(len(products))
            return products

        def effect(ct_, path, env, cfg, *rest):
            products = expand_effect_hole(ct_, path, env, cfg, *rest)
            check_products(env, ct_, None, path, cfg, products)
            seen.append(len(products))
            return products

        def checked_push(heap, entry):
            _, size, _, cand, holes = entry
            assert size == expr_size(cand)
            assert holes == hole_count(cand) > 0
            heappush(heap, entry)

        monkeypatch.setattr(search_mod, "expand_typed_hole", typed)
        monkeypatch.setattr(search_mod, "expand_effect_hole", effect)
        monkeypatch.setattr(search_mod, "heappush", checked_push)
        cfg = SearchConfig(mode=mode, candidate_budget=2000)
        _, report = synthesize(gf.goal, ct, world, cfg)
        assert sum(seen) == report.candidates_expanded > 0
