import random

from effsynth.core import (
    Call, CallMemo, ClassLit, ClassOf, ClassStar, ClassT, Effect, EffectHole, EffectPair,
    Let, NilLit, PURE, PURE_PAIR, RecordLit, Region, Seq, Star, STR_T,
    TypedHole, Var, canon_effect, eff_subsumes, expr_size, leftmost_hole,
    resolve_self,
)
from conftest import expand_effect
from effsynth.effgen import (
    erase_effect, erase_table, expand_effect_hole, wrap_effect_hole,
    write_specificity,
)
from effsynth.search import SearchConfig
from effsynth.typegen import typecheck


def title_read_err():
    return EffectPair(read=Effect((Region("Post", "title"),)))


class TestWrap:
    def test_shape(self, blog):
        ct, _ = blog
        cand = Call(Call(ClassLit("Post"), "where", (RecordLit(()),)), "first", ())
        wrapped = wrap_effect_hole(cand, title_read_err(), ClassT("Post"))
        assert isinstance(wrapped, Let)
        assert wrapped.bound == cand
        assert isinstance(wrapped.body, Seq)
        assert wrapped.body.first == EffectHole(Effect((Region("Post", "title"),)))
        assert wrapped.body.second == TypedHole(ClassT("Post"))

    def test_wrap_is_type_generic(self, blog):
        ct, _ = blog
        from effsynth.core import BOOL_T, TrueLit

        wrapped = wrap_effect_hole(TrueLit(), PURE_PAIR, BOOL_T)
        assert wrapped.body.second.ty == BOOL_T

    def test_pure_error_wraps_to_pure_hole(self, blog):
        wrapped = wrap_effect_hole(Var("x"), PURE_PAIR, STR_T)
        assert wrapped.body.first.eff == PURE

    def test_fresh_variable_avoids_capture(self):
        inner = Let("t0", Var("x"), Var("t0"))
        wrapped = wrap_effect_hole(inner, PURE_PAIR, STR_T)
        assert wrapped.var == "t1"

    def test_wrap_adds_no_size(self, blog):
        cand = Call(ClassLit("Post"), "create", (RecordLit(()),))
        assert expr_size(wrap_effect_hole(cand, title_read_err(), ClassT("Post"))) \
            == expr_size(cand)


class TestExpandEffectHole:
    def hole(self, eff):
        return Seq(EffectHole(eff), TypedHole(ClassT("Post")))

    def test_nil_always_first(self, blog):
        ct, _ = blog
        out = expand_effect(ct, self.hole(Effect((Region("Post", "title"),))))
        assert isinstance(out[0].first, NilLit)

    def test_title_write_matches_title_setter(self, blog):
        ct, _ = blog
        out = expand_effect(ct, self.hole(Effect((Region("Post", "title"),))))
        calls = [c.first for c in out[1:]]
        assert calls, "expected at least one matching writer"
        # most specific first: the title= setter beats the class-star create
        first = calls[0]
        assert isinstance(first, Call) and first.method == "title="
        methods = {c.method for c in calls if isinstance(c, Call)}
        assert methods == {"title=", "create"}

    def test_every_match_subsumes_hole(self, blog):
        ct, _ = blog
        eff = Effect((Region("Post", "title"),))
        out = expand_effect(ct, self.hole(eff))
        for cand in out[1:]:
            call = cand.first
            call = call.second if isinstance(call, Seq) else call
            sig = ct.lookup_method(call.recv.ty, call.method)
            resolved = resolve_self(sig.eff.write, sig.owner_class(), ct)
            assert eff_subsumes(eff, resolved, ct)

    def test_class_star_hole_matched_by_any_post_writer(self, blog):
        ct, _ = blog
        out = expand_effect(ct, self.hole(Effect((ClassStar("Post"),))))
        methods = {c.first.method for c in out[1:] if isinstance(c.first, Call)}
        assert methods == {"create"}

    def test_unmatched_hole_leaves_only_nil(self, blog):
        ct, _ = blog
        out = expand_effect(ct, self.hole(Effect((Region("User", "name"),))))
        # the name= writer matches; ask for a region nobody writes instead
        out = expand_effect(ct, self.hole(Effect((ClassStar("Obj"),))))
        assert len(out) == 1 and isinstance(out[0].first, NilLit)

    def test_pure_hole_expands_to_nil_only(self, blog):
        ct, _ = blog
        out = expand_effect(ct, self.hole(PURE))
        assert len(out) == 1 and isinstance(out[0].first, NilLit)

    def test_reading_writer_gets_preceding_effect_hole(self, blog):
        # a matching method with a non-pure read is preceded by a hole with
        # that (self-resolved) read effect
        ct, world = blog
        from effsynth.core import MethodSig

        ct.add_method(MethodSig(
            ClassOf("Post"), "sync!", (), ClassT("Post"),
            EffectPair(read=Effect((Region("User", "name"),)),
                       write=Effect((ClassStar("Post"),))),
            native=None,
        ))
        out = expand_effect(ct, self.hole(Effect((Region("Post", "title"),))))
        syncs = [c.first for c in out
                 if isinstance(c.first, Seq) and c.first.second.method == "sync!"]
        assert len(syncs) == 1
        assert syncs[0].first == EffectHole(Effect((Region("User", "name"),)))
        # the product carries one more call and one more hole than the term
        products = expand_effect_hole(
            ct, leftmost_hole(self.hole(Effect((Region("Post", "title"),)))), {},
            SearchConfig(), CallMemo())
        [sync] = [j for j, p in enumerate(products.exprs) if p.first == syncs[0]]
        assert (products.dsizes[sync], products.dholes[sync]) == (1, 1)

    def test_typecheck_preserved(self, blog):
        ct, _ = blog
        env = {"arg0": STR_T}
        base = Let("t0", Call(Call(ClassLit("Post"), "where", (RecordLit(()),)), "first", ()),
                   Seq(EffectHole(Effect((Region("Post", "title"),))),
                       TypedHole(ClassT("Post"))))
        before = typecheck(env, ct, base)
        for cand in expand_effect(ct, base, env):
            assert typecheck(env, ct, cand) == before

    def test_typed_hole_first_means_no_effect_expansion(self, blog):
        ct, _ = blog
        e = Seq(TypedHole(STR_T), EffectHole(Effect((Region("Post", "title"),))))
        assert expand_effect(ct, e) == []

    def test_effects_off_matches_every_impure_writer(self, blog):
        ct, _ = blog
        cfg = SearchConfig(mode="types_only")
        eff = Effect((Region("Post", "title"),))
        out = expand_effect(ct, self.hole(eff), cfg=cfg)
        methods = set()
        for c in out[1:]:
            call = c.first.second if isinstance(c.first, Seq) else c.first
            methods.add(call.method)
        assert {"title=", "author=", "slug=", "create", "name=", "username="} <= methods


class TestErasure:
    def test_class_erasure(self, blog):
        ct, _ = blog
        e = Effect((Region("Post", "title"),))
        assert erase_effect(e, "class", ct) == Effect((ClassStar("Post"),))

    def test_purity_erasure(self, blog):
        ct, _ = blog
        e = Effect((Region("Post", "title"), ClassStar("User")))
        assert erase_effect(e, "purity", ct) == Effect((Star(),))
        assert erase_effect(PURE, "purity", ct) == PURE

    def test_erasure_monotone(self, blog):
        # erase(e1) included in erase(e2) whenever e1 included in e2
        ct, _ = blog
        rng = random.Random(5)
        atoms = [Region("Post", "title"), Region("Post", "slug"),
                 Region("User", "name"), ClassStar("Post"), ClassStar("User"),
                 Star()]
        effs = [canon_effect(rng.sample(atoms, rng.randint(0, 3)), ct)
                for _ in range(60)]
        for precision in ("class", "purity"):
            for e1 in effs[:20]:
                for e2 in effs[20:40]:
                    if eff_subsumes(e1, e2, ct):
                        assert eff_subsumes(erase_effect(e1, precision, ct),
                                            erase_effect(e2, precision, ct), ct)

    def test_erase_table_rewrites_signatures(self, blog):
        ct, _ = blog
        coarse = erase_table(ct, "class")
        sig = coarse.lookup_method(ClassT("Post"), "title=")
        assert sig.eff.write == Effect((ClassStar("Post"),))
        assert coarse.class_le("Post", "DbRecord")

    def test_specificity_ranks(self, blog):
        ct, _ = blog
        assert write_specificity(Effect((Region("Post", "t"),))) == 2
        assert write_specificity(Effect((ClassStar("Post"),))) == 1
        assert write_specificity(Effect((Star(),))) == 0
        assert write_specificity(PURE) == -1


class TestClassModeMatching:
    def test_erased_table_matches_every_post_writer(self, blog):
        # after class-level erasure the failing read is Post-wide, so every
        # method writing anywhere into Post satisfies the hole
        ct, _ = blog
        coarse = erase_table(ct, "class")
        hole = Seq(EffectHole(Effect((ClassStar("Post"),))),
                   TypedHole(ClassT("Post")))
        out = expand_effect(coarse, hole)
        methods = set()
        for c in out[1:]:
            call = c.first.second if isinstance(c.first, Seq) else c.first
            methods.add(call.method)
        assert methods == {"author=", "slug=", "title=", "create"}
