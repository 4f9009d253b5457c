import itertools
import random
import re
import typing
from heapq import heappush

import pytest
from hypothesis import given, settings, strategies as st

from conftest import expand_effect, expand_typed, random_hierarchy
from effsynth import core, interp, runtime as rt, search as search_mod, typegen
from effsynth.core import (
    Atom, BOOL_T, Call, CallMemo, ClassLit, ClassOf, ClassT, ClassTable, ConstantPool,
    DefinitionError, Effect, EffectHole, FalseLit, If, IntLit, INT_T, Let, NIL_T, NilLit, Not,
    OBJ_T, Or, PURE, RecordLit, RecordT, Region, Seq, StrLit, STR_T, SymLit, SYM_T, TrueLit,
    TypedHole, UnionT, Var, alpha_key, children, eff_subsumes, expr_size, leftmost_hole, rebuild,
    record_of, resolve_self, subtype, type_key, union_of, walk,
)
from effsynth.driver import synthesize
from effsynth.effgen import expand_effect_hole, write_specificity
from effsynth.goalfile import load_goal_file
from effsynth.runtime import SchemaDecl, install_core_methods, install_schema, relation_class
from effsynth.search import SearchConfig
from effsynth.typegen import TypeCheckError, expand_typed_hole, node_type, typecheck


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
    assert list(products.exprs) == whole_term_products(env, ct, sigma, cand, cfg)
    for p, dsize, dholes in zip(products.exprs, products.dsizes, products.dholes):
        assert expr_size(p) == expr_size(cand) + dsize
        assert hole_count(p) == hole_count(cand) + dholes


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

    def test_a_shared_subterm_is_typed_in_each_scope(self, blog):
        # one off-path subterm under two scopes through one memo: each
        # expansion equals a fresh memo's, and the scopes decide differently
        ct, _ = blog
        title = Call(Var("x"), "title", ())
        cand = Call(TypedHole(ClassT("Post")), "title=", (title,))
        sigma = ConstantPool(((ClassLit("Post"), ClassOf("Post")),))
        memo, got = CallMemo(), []
        for x in (ClassT("Post"), ClassT("User"), ClassT("Post")):
            memo.expansions.clear()
            args = ({"x": x, "p": ClassT("Post")}, ct, sigma, leftmost_hole(cand), SearchConfig())
            got.append(list(expand_typed_hole(*args, memo).exprs))
            assert got[-1] == list(expand_typed_hole(*args, CallMemo()).exprs)
        assert got[0] == got[2] and got[0] and not got[1]

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


# ---------------------------------------------------------------------------
# The rule table against the isinstance chain it replaced
# ---------------------------------------------------------------------------

def chain_node_type(env, ct, e, kid_tys, strict, calls):
    """node_type as one isinstance chain, the form it had before its rules
    were looked up by class: the oracle for the table."""
    if isinstance(e, Call):
        key = (e.method, strict, tuple(kid_tys))
        got = calls.get(key)
        if got is None:
            try:
                got = typegen._call_rule(e, kid_tys, strict, ct)
            except TypeCheckError as exc:
                got = (None if exc.node is e else exc.node, exc.reason)
            calls[key] = got
        if isinstance(got, tuple):
            raise TypeCheckError(e if got[0] is None else got[0], got[1])
        return got
    if isinstance(e, Var):
        if e.name not in env:
            if strict:
                raise TypeCheckError(e, f"unbound variable {e.name}")
            return OBJ_T
        return env[e.name]
    if isinstance(e, TypedHole):
        return e.ty
    if isinstance(e, (Seq, Let)):
        return kid_tys[1]
    if isinstance(e, EffectHole):
        return OBJ_T
    if isinstance(e, NilLit):
        return NIL_T
    if isinstance(e, (TrueLit, FalseLit)):
        return BOOL_T
    if isinstance(e, IntLit):
        return INT_T
    if isinstance(e, StrLit):
        return STR_T
    if isinstance(e, SymLit):
        return SYM_T
    if isinstance(e, ClassLit):
        if strict:
            ct.require_class(e.name)
        return ClassOf(e.name)
    if isinstance(e, RecordLit):
        return record_of((k, False, t) for (k, _), t in zip(e.pairs, kid_tys))
    if isinstance(e, If):
        return union_of(kid_tys[1], kid_tys[2])
    if isinstance(e, Atom):
        if strict and not subtype(kid_tys[0], BOOL_T, ct):
            raise TypeCheckError(e, f"condition has type {kid_tys[0]}, not Bool")
        return BOOL_T
    if isinstance(e, (Not, Or)):
        return BOOL_T
    raise TypeCheckError(e, f"cannot type {type(e).__name__}")


def chain_check(env, ct, e, strict, calls):
    """Whole-term checking through the oracle rule."""
    if isinstance(e, Let):
        bound = chain_check(env, ct, e.bound, strict, calls)
        body = chain_check({**env, e.var: bound}, ct, e.body, strict, calls)
        return chain_node_type(env, ct, e, (bound, body), strict, calls)
    return chain_node_type(env, ct, e, [chain_check(env, ct, c, strict, calls)
                                        for c in children(e)], strict, calls)


def _blog_table():
    ct = ClassTable()
    install_core_methods(ct)
    install_schema(ct, SchemaDecl("User", (("name", STR_T), ("username", STR_T))))
    install_schema(ct, SchemaDecl("Post", (("author", STR_T), ("title", STR_T),
                                           ("slug", STR_T))))
    return ct


BLOG = _blog_table()
POST_T = ClassT("Post")
RULE_TYPES = [NIL_T, OBJ_T, BOOL_T, STR_T, INT_T, SYM_T, POST_T, ClassOf("Post"),
              ClassT(relation_class("Post")), POST_REC, rec_t(slug=(False, STR_T)),
              union_of(POST_T, NIL_T), union_of(POST_T, ClassT("User")), union_of(BOOL_T, NIL_T)]
_types = st.sampled_from(RULE_TYPES)
_leaves = st.sampled_from([
    NilLit(), TrueLit(), FalseLit(), IntLit(0), StrLit(""), SymLit("s"), ClassLit("Post"),
    ClassLit("Ghost"), Var("x"), Var("y"), Var("unbound"), TypedHole(STR_T),
    TypedHole(POST_T), EffectHole(PURE)])
_methods = st.sampled_from(["title", "title=", "exists?", "where", "create", "==", "id",
                            "slug", "missing"])


def _terms(depth=3):
    if depth == 0:
        return _leaves
    sub = _terms(depth - 1)
    cond = st.one_of(st.builds(Atom, sub), st.builds(lambda c: Not(Atom(c)), sub))
    return st.one_of(
        _leaves,
        st.builds(Seq, sub, sub),
        st.builds(lambda r, m, a: Call(r, m, tuple(a)), sub, _methods,
                  st.lists(sub, max_size=2)),
        st.builds(If, cond, sub, sub),
        st.builds(lambda v, b, body: Let(v, b, body), st.sampled_from(["x", "z"]), sub, sub),
        st.builds(lambda ks, vs: RecordLit(tuple(zip(ks, vs))),
                  st.lists(st.sampled_from(["author", "slug", "title"]), unique=True,
                           max_size=2).map(sorted),
                  st.lists(sub, min_size=2, max_size=2)),
        st.builds(Or, cond, cond),
        cond,
    )


def _rule_outcome(rule, *args):
    """A rule's type, or the class of what it raised, the node (by identity)
    and the reason."""
    try:
        return "type", rule(*args)
    except TypeCheckError as exc:
        return "refused", exc.node, exc.reason
    except DefinitionError as exc:
        return "undefined", str(exc)


def _same(a, b):
    """Equal outcomes; a refusal at a term node is at the very same node, one
    at a receiver member at an equal type (whole-term checking builds some
    types anew)."""
    if a != b:
        return False
    return a[0] != "refused" or isinstance(a[1], (ClassT, ClassOf, UnionT, RecordT)) or a[1] is b[1]


_envs = st.dictionaries(st.sampled_from(["x", "y"]), _types, max_size=2)


class TestRuleTable:
    @settings(max_examples=300, deadline=None)
    @given(_terms(2), st.data(), _envs, st.booleans())
    def test_node_rule_equals_the_chain(self, e, data, env, strict):
        kid_tys = data.draw(st.lists(_types, min_size=len(children(e)),
                                     max_size=len(children(e))))
        new = _rule_outcome(node_type, env, BLOG, e, kid_tys, strict, {})
        old = _rule_outcome(chain_node_type, env, BLOG, e, kid_tys, strict, {})
        assert _same(new, old), (e, kid_tys, new, old)

    @settings(max_examples=300, deadline=None)
    @given(_terms(), _envs, st.booleans())
    def test_whole_term_check_equals_the_chain(self, e, env, strict):
        new = _rule_outcome(typegen._check, env, BLOG, e, strict, {})
        old = _rule_outcome(chain_check, env, BLOG, e, strict, {})
        assert _same(new, old), (e, new, old)

    def test_an_unknown_node_is_refused_alike(self):
        e = Call(Var("x"), "m", ())  # neither a node nor a type: its signature
        for thing in (PURE, BLOG.all_sigs()[0], e.args):
            new = _rule_outcome(node_type, {}, BLOG, thing, (), True, {})
            old = _rule_outcome(chain_node_type, {}, BLOG, thing, (), True, {})
            assert new[0] == "refused" and _same(new, old)
            assert new[2].startswith("cannot type")


def _holds_terms(cls) -> bool:
    """Whether a constructor takes a term, from its annotations."""
    return any(re.search(r"\b(Expr|Cond)\b", str(a))
               for a in getattr(cls.__init__, "__annotations__", {}).values())


def _missing(classes, table) -> list[str]:
    return sorted(c.__name__ for c in classes if c not in table)


def _rule_gaps(rules, kids, evals) -> list[str]:
    """Every class of core's Expr and Cond unions without a typing rule, a
    composite one without children, a non-hole Expr without evaluation."""
    exprs, conds = typing.get_args(core.Expr), typing.get_args(core.Cond)
    composite = [c for c in exprs + conds if _holds_terms(c)]
    return (["rule " + n for n in _missing(exprs + conds, rules)]
            + ["children " + n for n in _missing(composite, kids)]
            + ["eval " + n for n in _missing([c for c in exprs
                                              if c not in (TypedHole, EffectHole)], evals)])


def test_every_term_class_has_its_rules():
    assert _rule_gaps(typegen._RULES, core._CHILDREN, interp._EVAL) == []
    composite = {c for c in typing.get_args(core.Expr) + typing.get_args(core.Cond)
                 if _holds_terms(c)}
    assert composite == {Seq, Call, If, Let, RecordLit, Atom, Not, Or}


def test_rule_scan_sees_a_missing_class():
    rules, kids, evals = dict(typegen._RULES), dict(core._CHILDREN), dict(interp._EVAL)
    del rules[If], kids[Not], evals[SymLit]
    assert _rule_gaps(rules, kids, evals) == ["rule If", "children Not", "eval SymLit"]


# ---------------------------------------------------------------------------
# Fills per hole and per scope against one list per scope
# ---------------------------------------------------------------------------

def one_list_typed_fills(ct, sigma, target, cfg, scope):
    """The typed-hole fills as one list per scope, as they were made before
    the fills that no scope decides were kept per hole."""
    def fits(ty):
        return not cfg.types_on or subtype(ty, target, ct)

    out = [lit for lit, ty in sigma.entries if fits(ty)]
    out += [Var(name) for name, ty in scope.items() if fits(ty)]
    for name, ty in scope.items():
        if isinstance(ty, RecordT):
            for k, opt, fty in ty.fields:
                if fits(union_of(fty, NIL_T) if opt else fty):
                    out.append(Call(Var(name), k, ()))
    for sig in ct.all_sigs():
        if fits(sig.ret):
            out.append(Call(TypedHole(sig.owner), sig.name,
                            tuple(TypedHole(p) for p in sig.params)))
    if isinstance(target, RecordT):
        required = [(k, ty) for k, opt, ty in target.fields if not opt]
        optional = [(k, ty) for k, opt, ty in target.fields if opt]
        for size in range(len(optional) + 1):
            for combo in itertools.combinations(optional, size):
                pairs = tuple(sorted(required + list(combo), key=lambda kv: kv[0]))
                out.append(RecordLit(tuple((k, TypedHole(ty)) for k, ty in pairs)))
    return out


def one_list_effect_fills(ct, eff, cfg):
    out = [NilLit()]
    if eff.is_pure():
        return out
    writes = [(sig, resolve_self(sig.eff.write, sig.owner_class(), ct)) for sig in ct.all_sigs()]
    for sig, w in sorted(writes, key=lambda sw: (-write_specificity(sw[1]),
                                                 type_key(sw[0].owner), sw[0].name)):
        if (not eff_subsumes(eff, w, ct)) if cfg.effects_on else w.is_pure():
            continue
        call = Call(TypedHole(sig.owner), sig.name, tuple(TypedHole(p) for p in sig.params))
        r = resolve_self(sig.eff.read, sig.owner_class(), ct)
        out.append(call if r.is_pure() else Seq(EffectHole(r), call))
    return out


def _random_scopes(rng, gf, ct, n):
    """n scopes over the goal's arguments and let-bound variables, typed
    from the goal's parameter, class, singleton and record types."""
    pool = list(gf.goal.param_types) + [NIL_T, OBJ_T, STR_T, INT_T, BOOL_T]
    pool += [ClassT(c) for c in ct.classes()] + [ClassOf(c) for c in ct.classes()]
    pool += [p for s in ct.all_sigs() for p in s.params if isinstance(p, RecordT)]
    pool.append(union_of(pool[0], NIL_T))
    names = [f"arg{i}" for i in range(gf.goal.arity)] + ["t0", "t1"]
    return [{name: rng.choice(pool) for name in rng.sample(names, rng.randint(0, len(names)))}
            for _ in range(n)]


@pytest.mark.parametrize("mode", ["full", "effects_only"])
def test_fills_per_hole_and_scope_equal_one_list(monkeypatch, mode):
    rng = random.Random(20)
    checked = 0
    for goal in ("s1_lvar", "s3_method_chains", "s4_user_exists", "s5_branching",
                 "s7_fold_branches", "update_post"):
        gf, ct, world = load_goal_file(f"goals/{goal}.goal")
        cfg = SearchConfig(mode=mode, candidate_budget=1000)
        holes = {}

        def popped(cand):
            path = leftmost_hole(cand)
            holes.setdefault(path.hole, None)
            return path

        monkeypatch.setattr(search_mod, "leftmost_hole", popped)
        synthesize(gf.goal, ct, world, cfg)
        monkeypatch.setattr(search_mod, "leftmost_hole", leftmost_hole)
        sigma = gf.goal.constants
        memo = CallMemo()  # one per goal, as one synthesis call has
        for hole in holes:
            for scope in _random_scopes(rng, gf, ct, 8):
                memo.expansions.clear()  # keep the fills, expand again
                if isinstance(hole, TypedHole):
                    expand_typed_hole(scope, ct, sigma, leftmost_hole(hole), cfg, memo)
                    fills = one_list_typed_fills(ct, sigma, hole.ty, cfg, scope)
                else:
                    expand_effect_hole(ct, leftmost_hole(hole), scope, cfg, memo)
                    fills = one_list_effect_fills(ct, hole.eff, cfg)
                got = memo.fills[(hole, tuple(scope.items()))]
                want = typegen._fill_entries(scope, ct, fills, cfg.types_on, {})
                assert got == want, (goal, hole, scope)
                checked += 1
        assert len(memo.hole_fills) == len(holes)
    assert checked > 250


# ---------------------------------------------------------------------------
# Typing ==: operands must be comparable
# ---------------------------------------------------------------------------

def eq_call(t1, t2, method="=="):
    return Call(TypedHole(t1), method, (TypedHole(t2),))


def eq_types(ct, t1, t2, method="=="):
    """Whether `t1 method t2` types strictly."""
    try:
        typecheck({}, ct, eq_call(t1, t2, method))
    except TypeCheckError:
        return False
    return True


def eq_table(seed):
    """A random class tree, plus the blog's two schemas (with their relation
    classes) and the core methods."""
    ct = random_hierarchy(random.Random(seed))
    install_core_methods(ct)
    for name in ("Post", "User"):
        install_schema(ct, SchemaDecl(name, (("name", STR_T),)))
    return ct


def value_type(v):
    """The exact type of a runtime value, as the type system sees it."""
    if isinstance(v, rt.RecordV):
        return record_of((k, False, value_type(x)) for k, x in v.pairs)
    if isinstance(v, rt.ClassV):
        return ClassOf(v.name)
    return ClassT(rt.runtime_class_of(v))


def universe(ct):
    """Runtime values of every class of ct: nil, leaf values, an object of
    every class below Obj that is no leaf or relation class, relations,
    class objects and records."""
    leaves = set(core.RESERVED_LEAF_CLASSES) | {"Obj", "Nil"}
    out = [rt.NIL_V, rt.TRUE_V, rt.FALSE_V, rt.IntV(0), rt.IntV(1), rt.StrV("a"),
           rt.StrV(""), rt.SymV("a"), rt.record_v({}), rt.record_v({"name": rt.StrV("a")})]
    for c in ct.classes():
        if c != "Nil":
            out.append(rt.ClassV(c))
        if c not in leaves and not c.startswith("Relation["):
            out += [rt.ObjV(c, 1), rt.ObjV(c, 2)]
    out += [rt.RelationV(c, ids) for c in ("Post", "User") for ids in ((), (1,), (1, 2))]
    return out


def eq_type_strategy(ct):
    classes = ct.classes()
    member = st.one_of(
        st.sampled_from(classes).map(ClassT),
        st.sampled_from([c for c in classes if c != "Nil"]).map(ClassOf),
        st.sampled_from([rec_t(), rec_t(name=(False, STR_T)), rec_t(name=(True, OBJ_T))]))
    return st.lists(member, min_size=1, max_size=3).map(lambda ms: union_of(*ms))


class TestEqualityRule:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**16), st.data())
    def test_a_refused_comparison_is_never_true(self, seed, data):
        ct = eq_table(seed)
        t1 = data.draw(eq_type_strategy(ct))
        t2 = data.draw(eq_type_strategy(ct))
        if typegen.comparable(t1, t2, ct):
            return
        assert not eq_types(ct, t1, t2)
        ev = interp.Evaluator(rt.World({}), ct, CallMemo())
        values = universe(ct)
        for v1 in (v for v in values if subtype(value_type(v), t1, ct)):
            for v2 in (v for v in values if subtype(value_type(v), t2, ct)):
                try:
                    got = ev.call(v1, "==", (v2,))
                except rt.RuntimeError_:
                    continue
                assert not rt.truthy(got), (t1, t2, v1, v2)

    def test_related_types_stay_comparable(self):
        ct = eq_table(0)
        ct.add_class("Base")
        ct.add_class("Sub", "Base")
        post_rel = ClassT(relation_class("Post"))
        for t1, t2 in [(ClassT("Sub"), ClassT("Base")), (ClassT("Base"), ClassT("Sub")),
                       (STR_T, union_of(NIL_T, STR_T)), (union_of(NIL_T, STR_T), STR_T),
                       (post_rel, post_rel), (ClassT("Post"), ClassT("DbRecord"))]:
            assert eq_types(ct, t1, t2), (t1, t2)
        for t in [STR_T, INT_T, BOOL_T, ClassT("Sub"), post_rel, OBJ_T,
                  union_of(NIL_T, ClassT("Post")), union_of(INT_T, STR_T)]:
            assert eq_types(ct, t, OBJ_T), t
            assert eq_types(ct, OBJ_T, t), t

    def test_unrelated_types_are_refused(self):
        ct = eq_table(0)
        for t1, t2 in [(ClassT(relation_class("Post")), ClassT(relation_class("User"))),
                       (STR_T, ClassT("Post")), (ClassT("Post"), ClassT("User")),
                       (INT_T, STR_T), (STR_T, NIL_T), (OBJ_T, rec_t()),
                       (ClassT("Post"), ClassOf("Post"))]:
            assert not eq_types(ct, t1, t2), (t1, t2)
        # the lenient check of the types-off modes keeps every comparison
        assert typecheck({}, ct, eq_call(STR_T, ClassT("Post")), strict=False) == BOOL_T

    def test_a_user_declared_eq_keeps_every_comparison(self):
        # a Bool#== that negates its receiver is true on `false == "a"`
        ct = eq_table(0)
        ct.add_method(core.MethodSig(BOOL_T, "==", (OBJ_T,), BOOL_T, native="core.not"))
        assert eq_types(ct, BOOL_T, STR_T)
        assert eq_types(ct, ClassT("Post"), STR_T)
        ev = interp.Evaluator(rt.World({}), ct, CallMemo())
        assert ev.call(rt.FALSE_V, "==", (rt.StrV("a"),)) == rt.TRUE_V

    def test_the_rule_follows_the_core_eq_signature(self):
        ct = eq_table(0)
        ct.add_method(core.MethodSig(OBJ_T, "same?", (OBJ_T,), BOOL_T, native="core.eq"))
        assert not eq_types(ct, STR_T, INT_T, "same?")
        assert eq_types(ct, STR_T, union_of(NIL_T, STR_T), "same?")
