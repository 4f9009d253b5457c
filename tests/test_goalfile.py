import pytest
from hypothesis import given, strategies as st

from effsynth.core import (
    Atom, Call, ClassLit, ClassOf, ClassStar, ClassT, Effect, Not, Or, PURE,
    RecordLit, RecordT, Region, SELF_STAR, STR_T, SelfRegion, Star, StrLit,
    Var, union_of,
)
from effsynth.goalfile import (
    build, parse_effect, parse_expr, parse_goal_file, parse_program_file,
    print_effect, print_expr, print_goal_file, print_program, print_type,
    parse_type,
)
from effsynth.sexp import ParseError, SInt, SList, SStr, Sym, parse_sexps, write_sexp


UPDATE_POST = open("goals/update_post.goal", encoding="utf-8").read()


class TestSexp:
    def test_atoms(self):
        out = parse_sexps('sym 42 -3 "a b" ()')
        assert out == [Sym("sym"), SInt(42), SInt(-3), SStr("a b"), SList(())]

    def test_positions_on_error(self):
        with pytest.raises(ParseError) as exc:
            parse_sexps("(a\n(b")
        assert exc.value.line == 2 and exc.value.col == 1

    def test_comments_ignored(self):
        assert parse_sexps("; c\n(a) ; d\n") == [SList((Sym("a"),))]

    def test_string_escapes_roundtrip(self):
        node = parse_sexps('"a\\"b\\\\c\\n"')[0]
        assert node.value == 'a"b\\c\n'
        assert parse_sexps(write_sexp(node))[0] == node

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_sexps("(a))")


class TestTypeSyntax:
    NAMES = {"Obj", "Nil", "Bool", "Str", "Int", "Sym", "Post"}

    def parse(self, text):
        return parse_type(parse_sexps(text)[0], self.NAMES)

    def test_class(self):
        assert self.parse("Post") == ClassT("Post")

    def test_class_of(self):
        assert self.parse("(class-of Post)") == ClassOf("Post")

    def test_union(self):
        assert self.parse("(u Post Nil)") == union_of(ClassT("Post"), ClassT("Nil"))

    def test_record(self):
        t = self.parse("(record (a Str) (b Int opt))")
        assert t == RecordT((("a", False, STR_T), ("b", True, ClassT("Int"))))

    def test_unknown_class(self):
        with pytest.raises(ParseError):
            self.parse("Ghost")

    def test_roundtrip(self):
        for text in ["Post", "(class-of Post)", "(u Nil Post)",
                     "(record (a Str) (b Int opt))"]:
            t = self.parse(text)
            assert self.parse(print_type(t)) == t


class TestEffectSyntax:
    NAMES = {"Obj", "Post", "User"}

    def parse(self, text):
        return parse_effect(parse_sexps(text)[0], self.NAMES)

    def test_atoms(self):
        assert self.parse("pure") == PURE
        assert self.parse("*") == Effect((Star(),))
        assert self.parse("Post") == Effect((ClassStar("Post"),))
        assert self.parse("Post.title") == Effect((Region("Post", "title"),))
        assert self.parse("self") == Effect((SELF_STAR,))
        assert self.parse("self.title") == Effect((SelfRegion("title"),))

    def test_union(self):
        e = self.parse("(u Post.title User.name)")
        assert set(e.atoms) == {Region("Post", "title"), Region("User", "name")}

    def test_malformed_region(self):
        with pytest.raises(ParseError):
            self.parse("Post.")

    def test_unknown_class(self):
        with pytest.raises(ParseError):
            self.parse("Ghost.title")

    def test_roundtrip(self):
        for text in ["pure", "*", "Post", "Post.title", "self", "self.r",
                     "(u Post.title User.name)"]:
            e = self.parse(text)
            assert self.parse(print_effect(e)) == e


class TestExprSyntax:
    NAMES = {"Obj", "Nil", "Bool", "Str", "Int", "Sym", "Post"}

    def parse(self, text):
        return parse_expr(parse_sexps(text)[0], self.NAMES)

    def test_declared_class_is_a_literal(self):
        assert self.parse("Post") == ClassLit("Post")
        assert self.parse("post") == Var("post")

    def test_call_and_record(self):
        e = self.parse('(call Post create (record (slug "s")))')
        assert e == Call(ClassLit("Post"), "create",
                         (RecordLit((("slug", StrLit("s")),)),))

    def test_if_with_conds(self):
        e = self.parse("(if (not (or x y)) 1 2)")
        assert e.cond == Not(Or(Atom(Var("x")), Atom(Var("y"))))

    def test_roundtrip(self):
        for text in ["nil", "true", "false", "7", '"s"', "(sym k)", "Post",
                     "x", "(seq 1 2)", "(let v 1 v)",
                     "(if (not x) 1 2)", '(call x == "a")',
                     "(record (a 1) (b x))"]:
            e = self.parse(text)
            assert self.parse(print_expr(e)) == e

    def test_duplicate_record_key(self):
        with pytest.raises(ParseError):
            self.parse("(record (a 1) (a 2))")


class TestGoalFileParsing:
    def test_update_post_parses(self):
        gf = parse_goal_file(UPDATE_POST)
        assert gf.goal.name == "update_post"
        assert len(gf.goal.specs) == 2
        assert gf.goal.arity == 3
        assert gf.goal.ret == ClassT("Post")
        assert [s.cls for s in gf.schemas] == ["User", "Post"]
        assert len(gf.goal.constants.entries) == 2

    def test_schema_generates_annotated_signatures(self):
        gf = parse_goal_file(UPDATE_POST)
        ct, _ = build(gf)
        sig = ct.lookup_method(ClassOf("Post"), "exists?")
        assert sig.eff.read == Effect((SELF_STAR,))

    def test_roundtrip_through_printer(self):
        gf = parse_goal_file(UPDATE_POST)
        printed = print_goal_file(gf)
        assert parse_goal_file(printed) == gf

    def test_custom_method_and_class_decls_roundtrip(self):
        text = """
        (class Service)
        (class FastService (parent Service))
        (method Service run (params Str) Bool (read Service.queue) (write *))
        (method (class-of Service) default (params) Service (read self.cfg))
        (constants (true Bool))
        (goal g (sig (Str -> Bool)) (consts true)
          (spec "passes" (setup (call! "x")) (post (assert x_r))))
        """
        gf = parse_goal_file(text)
        assert gf.classes == (("Service", "Obj"), ("FastService", "Service"))
        assert gf.methods[0].eff.write == Effect((Star(),))
        assert gf.methods[1].eff.read == Effect((SelfRegion("cfg"),))
        assert parse_goal_file(print_goal_file(gf)) == gf

    def test_undeclared_goal_const_rejected(self):
        text = """
        (constants (true Bool))
        (goal g (sig (-> Bool)) (consts false)
          (spec "s" (setup (call!)) (post (assert true))))
        """
        with pytest.raises(ParseError):
            parse_goal_file(text)

    def test_spec_that_fails_typecheck_rejected(self):
        text = """
        (constants)
        (goal g (sig (-> Bool)) (consts)
          (spec "s" (setup (call!)) (post (assert (call nil boom)))))
        """
        with pytest.raises(Exception):
            parse_goal_file(text)

    def test_call_arity_validated(self):
        text = """
        (constants)
        (goal g (sig (Str -> Str)) (consts)
          (spec "s" (setup (call!)) (post (assert x_r))))
        """
        with pytest.raises(Exception):
            parse_goal_file(text)

    def test_bind_cannot_shadow_class(self):
        text = """
        (schema Post (title Str))
        (constants)
        (goal g (sig (-> Str)) (consts)
          (spec "s"
            (setup (bind Post (call Post create (record))) (call!))
            (post (assert x_r))))
        """
        with pytest.raises(ParseError):
            parse_goal_file(text)

    def test_all_bundled_goals_parse_and_build(self):
        import pathlib

        for path in sorted(pathlib.Path("goals").glob("*.goal")):
            gf = parse_goal_file(path.read_text(encoding="utf-8"))
            ct, world = build(gf)
            assert parse_goal_file(print_goal_file(gf)) == gf, path


class TestProgramFiles:
    def test_roundtrip(self):
        names = {"Obj", "Nil", "Bool", "Str", "Int", "Sym", "Post"}
        text = '(def m (params arg0) (call Post create (record (slug arg0))))'
        prog = parse_program_file(text, names)
        assert prog.name == "m" and prog.params == ("arg0",)
        assert parse_program_file(print_program(prog), names) == prog

    def test_rejects_extra_forms(self):
        with pytest.raises(ParseError):
            parse_program_file("(def m (params) nil) (def n (params) nil)", set())


_sexp_atoms = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(SInt),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).map(SStr),
    st.text(alphabet="abcxyz-_=!?*<>[].", min_size=1, max_size=8)
      .filter(lambda s: not s.lstrip("+-").isdigit())
      .map(Sym),
)
_sexp_trees = st.recursive(
    _sexp_atoms,
    lambda sub: st.lists(sub, max_size=4).map(lambda xs: SList(tuple(xs))),
    max_leaves=12)


class TestSexpRoundtripProperty:
    @given(_sexp_trees)
    def test_write_then_parse_is_identity(self, node):
        assert parse_sexps(write_sexp(node)) == [node]


class TestClassDeclOrder:
    def test_parent_must_be_declared_first(self):
        text = """
        (class Fast (parent Service))
        (class Service)
        (constants)
        (goal g (sig (-> Bool)) (consts)
          (spec "s" (setup (call!)) (post (assert true))))
        """
        with pytest.raises(ParseError):
            parse_goal_file(text)
