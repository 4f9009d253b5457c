import itertools

import pytest

from effsynth.core import (
    BOOL_T, ClassOf, ClassStar, ClassT, DefinitionError, Effect, INT_T,
    MethodSig, PURE, Region, SELF_STAR, STR_T, eff_subsumes, resolve_self,
)
from effsynth.runtime import (
    BoolV, ClassV, IntV, NIL_V, ObjV, RuntimeError_, SchemaDecl, StrV,
    generate_schema_methods, invoke_native, is_native, record_v, relation_class,
)


def sig_of(ct, owner, name):
    return ct.lookup_method(owner, name)


class TestSchemaMethods:
    def test_writer_carries_column_write(self, blog):
        ct, _ = blog
        sig = sig_of(ct, ClassT("Post"), "title=")
        assert sig.eff.write == Effect((Region("Post", "title"),))
        assert sig.eff.read == PURE

    def test_reader_carries_column_read(self, blog):
        ct, _ = blog
        sig = sig_of(ct, ClassT("Post"), "title")
        assert sig.eff.read == Effect((Region("Post", "title"),))

    def test_exists_self_resolves_at_post(self, blog):
        ct, _ = blog
        sig = sig_of(ct, ClassOf("Post"), "exists?")
        assert sig.eff.read == Effect((SELF_STAR,))
        resolved = resolve_self(sig.eff.read, "Post", ct)
        assert resolved == Effect((ClassStar("Post"),))

    def test_empty_schema_gets_query_methods_only(self):
        schema = SchemaDecl("Empty", ())
        names = sorted(s.name for s in generate_schema_methods(schema))
        assert names == ["create", "exists?", "first", "id", "where"]

    def test_id_reader_type(self, blog):
        ct, _ = blog
        sig = sig_of(ct, ClassT("Post"), "id")
        assert sig.ret == INT_T

    def test_duplicate_column_rejected(self):
        with pytest.raises(DefinitionError):
            SchemaDecl("Bad", (("x", STR_T), ("x", STR_T)))

    def test_first_returns_row_or_nil(self, blog):
        ct, _ = blog
        sig = sig_of(ct, ClassT(relation_class("Post")), "first")
        from effsynth.core import union_of, NIL_T

        assert sig.ret == union_of(ClassT("Post"), NIL_T)


class TestWorld:
    def test_reset_empties_tables(self, blog):
        ct, world = blog
        create = sig_of(ct, ClassOf("Post"), "create")
        invoke_native(world, create, ClassV("Post"), (record_v({"author": StrV("a")}),))
        assert world.row_count("Post") == 1
        world.reset()
        assert world.row_count("Post") == 0

    def test_two_resets_identical(self, blog):
        _, world = blog
        world.reset()
        snap1 = (world.snapshot(), world.next_id)
        world.reset()
        assert (world.snapshot(), world.next_id) == snap1

    def test_restore_shares_rows_and_writes_replace_them(self, blog):
        ct, world = blog
        create = sig_of(ct, ClassOf("Post"), "create")
        set_title = sig_of(ct, ClassT("Post"), "title=")
        obj = invoke_native(world, create, ClassV("Post"), (record_v({"title": StrV("t")}),))
        cp = world.checkpoint()
        for _ in range(2):
            world.restore(cp)
            for cls, table in cp.tables.items():
                assert world.tables[cls] is not table
                assert all(world.tables[cls][i] is row for i, row in table.items())
            invoke_native(world, set_title, obj, (StrV("new"),))
            assert world.tables["Post"][obj.obj_id]["title"] == StrV("new")
            assert cp.tables["Post"][obj.obj_id]["title"] == StrV("t")

    def test_epoch_restart_reuses_ids(self, blog):
        ct, world = blog
        create = sig_of(ct, ClassOf("Post"), "create")
        first = invoke_native(world, create, ClassV("Post"), (record_v({}),))
        world.reset()
        again = invoke_native(world, create, ClassV("Post"), (record_v({}),))
        assert first.obj_id == again.obj_id


class TestNatives:
    def test_create_then_exists(self, blog):
        ct, world = blog
        create = sig_of(ct, ClassOf("Post"), "create")
        exists = sig_of(ct, ClassOf("Post"), "exists?")
        invoke_native(world, create, ClassV("Post"),
                      (record_v({"author": StrV("a"), "slug": StrV("s")}),))
        hit = invoke_native(world, exists, ClassV("Post"),
                            (record_v({"author": StrV("a")}),))
        miss = invoke_native(world, exists, ClassV("Post"),
                             (record_v({"author": StrV("b")}),))
        assert hit == BoolV(True) and miss == BoolV(False)

    def test_partial_create_defaults(self, blog):
        ct, world = blog
        create = sig_of(ct, ClassOf("Post"), "create")
        obj = invoke_native(world, create, ClassV("Post"),
                            (record_v({"author": StrV("a")}),))
        row = world.tables["Post"][obj.obj_id]
        assert row["title"] == StrV("") and row["slug"] == StrV("")

    def test_where_first_on_empty_table(self, blog):
        ct, world = blog
        where = sig_of(ct, ClassOf("Post"), "where")
        first = sig_of(ct, ClassT(relation_class("Post")), "first")
        rel = invoke_native(world, where, ClassV("Post"),
                            (record_v({"slug": StrV("s")}),))
        assert invoke_native(world, first, rel, ()) == NIL_V

    def test_first_picks_smallest_id_over_all_insertion_orders(self, blog):
        # brute-force oracle: whatever the insertion order, first returns the
        # matching row with the smallest object id
        ct, world = blog
        create = sig_of(ct, ClassOf("Post"), "create")
        where = sig_of(ct, ClassOf("Post"), "where")
        first = sig_of(ct, ClassT(relation_class("Post")), "first")
        rows = [{"author": StrV("x"), "slug": StrV("s")},
                {"author": StrV("y"), "slug": StrV("s")},
                {"author": StrV("z"), "slug": StrV("other")}]
        for order in itertools.permutations(range(3)):
            world.reset()
            ids = {}
            for i in order:
                obj = invoke_native(world, create, ClassV("Post"), (record_v(rows[i]),))
                ids[i] = obj.obj_id
            rel = invoke_native(world, where, ClassV("Post"),
                                (record_v({"slug": StrV("s")}),))
            got = invoke_native(world, first, rel, ())
            expected = min(ids[i] for i in (0, 1) )
            assert got == ObjV("Post", expected)

    def test_where_snapshots_matches(self, blog):
        # rows created after the where call are invisible to its first
        ct, world = blog
        create = sig_of(ct, ClassOf("Post"), "create")
        where = sig_of(ct, ClassOf("Post"), "where")
        first = sig_of(ct, ClassT(relation_class("Post")), "first")
        rel = invoke_native(world, where, ClassV("Post"), (record_v({"slug": StrV("s")}),))
        invoke_native(world, create, ClassV("Post"), (record_v({"slug": StrV("s")}),))
        assert invoke_native(world, first, rel, ()) == NIL_V

    def test_relation_ids_do_not_shift_row_ids(self, blog):
        ct, world = blog
        create = sig_of(ct, ClassOf("Post"), "create")
        where = sig_of(ct, ClassOf("Post"), "where")
        a = invoke_native(world, create, ClassV("Post"), (record_v({}),))
        invoke_native(world, where, ClassV("Post"), (record_v({}),))
        b = invoke_native(world, create, ClassV("Post"), (record_v({}),))
        assert b.obj_id == a.obj_id + 1

    def test_reader_and_writer(self, blog):
        ct, world = blog
        create = sig_of(ct, ClassOf("Post"), "create")
        get_title = sig_of(ct, ClassT("Post"), "title")
        set_title = sig_of(ct, ClassT("Post"), "title=")
        obj = invoke_native(world, create, ClassV("Post"),
                            (record_v({"title": StrV("old")}),))
        assert invoke_native(world, get_title, obj, ()) == StrV("old")
        out = invoke_native(world, set_title, obj, (StrV("new"),))
        assert out == StrV("new")
        assert invoke_native(world, get_title, obj, ()) == StrV("new")

    def test_id_reader(self, blog):
        ct, world = blog
        create = sig_of(ct, ClassOf("Post"), "create")
        get_id = sig_of(ct, ClassT("Post"), "id")
        obj = invoke_native(world, create, ClassV("Post"), (record_v({}),))
        assert invoke_native(world, get_id, obj, ()) == IntV(obj.obj_id)

    def test_missing_row_is_runtime_error(self, blog):
        ct, world = blog
        get_title = sig_of(ct, ClassT("Post"), "title")
        with pytest.raises(RuntimeError_):
            invoke_native(world, get_title, ObjV("Post", 99), ())

    def test_unbound_native_is_definition_error(self, blog):
        ct, world = blog
        sig = MethodSig(ClassT("Post"), "mystery", (), STR_T, native="minidb.nope")
        with pytest.raises(DefinitionError):
            invoke_native(world, sig, ClassV("Post"), ())

    def test_method_without_native_is_runtime_error(self, blog):
        ct, world = blog
        sig = MethodSig(ClassT("Post"), "shout", (), STR_T)
        with pytest.raises(RuntimeError_) as exc:
            invoke_native(world, sig, ObjV("Post", 1), ())
        assert exc.value.kind == "no-native"

    def test_known_natives(self):
        assert all(map(is_native, ["minidb.create", "core.eq", "minidb.get:title",
                                   "minidb.set:slug"]))
        assert not any(map(is_native, ["nope", "minidb.nope", "minidb.get:", "minidb.set",
                                       "minidb.put:title"]))

    def test_equality_natives(self, blog):
        ct, world = blog
        eq = sig_of(ct, ClassT("Obj"), "==")
        neg = sig_of(ct, BOOL_T, "!")
        assert invoke_native(world, eq, StrV("a"), (StrV("a"),)) == BoolV(True)
        assert invoke_native(world, eq, StrV("a"), (IntV(1),)) == BoolV(False)
        assert invoke_native(world, eq, ObjV("Post", 1), (ObjV("Post", 1),)) == BoolV(True)
        assert invoke_native(world, eq, ObjV("Post", 1), (ObjV("Post", 2),)) == BoolV(False)
        assert invoke_native(world, neg, BoolV(True), ()) == BoolV(False)

    def test_determinism(self, blog):
        ct, world = blog
        create = sig_of(ct, ClassOf("Post"), "create")
        runs = []
        for _ in range(2):
            world.reset()
            a = invoke_native(world, create, ClassV("Post"), (record_v({"slug": StrV("s")}),))
            runs.append((a, world.snapshot()))
        assert runs[0] == runs[1]


class TestWriteEffectCoverage:
    def test_observed_mutations_within_declared_writes(self, blog):
        # differential oracle: every changed (class, column) cell must be
        # covered by the invoked method's self-resolved write effect
        ct, world = blog
        cases = [
            (ClassOf("Post"), "create", ClassV("Post"),
             (record_v({"author": StrV("a")}),)),
            (ClassOf("Post"), "exists?", ClassV("Post"), (record_v({}),)),
            (ClassOf("Post"), "where", ClassV("Post"), (record_v({}),)),
        ]
        # seed one row so readers and writers have a target
        create = sig_of(ct, ClassOf("Post"), "create")
        seeded = invoke_native(world, create, ClassV("Post"), (record_v({}),))
        cases += [
            (ClassT("Post"), "title=", seeded, (StrV("x"),)),
            (ClassT("Post"), "title", seeded, ()),
            (ClassT("Post"), "id", seeded, ()),
        ]
        for owner, name, recv, args in cases:
            sig = sig_of(ct, owner, name)
            before = world.snapshot()
            invoke_native(world, sig, recv, args)
            after = world.snapshot()
            changed = []
            for cls in after:
                for oid, row in after[cls].items():
                    old = before.get(cls, {}).get(oid)
                    for col, val in row.items():
                        if old is None or old.get(col) != val:
                            changed.append(Effect((Region(cls, col),)))
            declared = resolve_self(sig.eff.write, sig.owner_class(), ct)
            for cell in changed:
                assert eff_subsumes(cell, declared, ct), (name, cell, declared)
