import itertools

import pytest
from hypothesis import given, settings, strategies as st

from effsynth.core import (
    BOOL_T, ClassOf, ClassStar, ClassT, ClassTable, DefinitionError, Effect, INT_T,
    MethodSig, PURE, Region, SELF_STAR, STR_T, SYM_T, eff_subsumes, resolve_self,
)
from effsynth.runtime import (
    BoolV, ClassV, IntV, NIL_V, ObjV, RelationV, RuntimeError_, SchemaDecl, StrV, SymV,
    World, _COLUMN_DEFAULTS, _matches, generate_schema_methods, install_core_methods,
    install_schema, invoke_native, is_native, record_v, relation_class,
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
        # restore shares the checkpoint's tables; the first write to a table
        # copies it, sharing the rows, and leaves the checkpoint unchanged
        ct, world = blog
        create = sig_of(ct, ClassOf("Post"), "create")
        set_title = sig_of(ct, ClassT("Post"), "title=")
        obj = invoke_native(world, create, ClassV("Post"), (record_v({"title": StrV("t")}),))
        cp = world.checkpoint()
        frozen = {cls: dict(table) for cls, table in cp.tables.items()}
        for write in ("create", "set"):
            world.restore(cp)
            assert all(world.tables[cls] is table for cls, table in cp.tables.items())
            if write == "create":
                invoke_native(world, create, ClassV("Post"), (record_v({}),))
            else:
                invoke_native(world, set_title, obj, (StrV("new"),))
            posts = world.tables["Post"]
            assert posts is not cp.tables["Post"]
            assert world.tables["User"] is cp.tables["User"]
            shared = [i for i, row in cp.tables["Post"].items() if posts[i] is row]
            assert shared == ([obj.obj_id] if write == "create" else [])
            assert posts[obj.obj_id]["title"] == StrV("new" if write == "set" else "t")
            assert cp.tables == frozen and cp.next_id == obj.obj_id + 1

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


# ---------------------------------------------------------------------------
# Copy-on-write tables and column indexes, against worlds that copy and scan
# ---------------------------------------------------------------------------

ROW = SchemaDecl("Row", (("s", STR_T), ("i", INT_T), ("b", BOOL_T), ("y", SYM_T)))
TAG = SchemaDecl("Tag", (("s", STR_T),))
COLUMNS = ("s", "i", "b", "y")
# Untyped modes can store any value in any column; IntV(1)/BoolV(True) and
# StrV("a")/SymV("a") hash alike but are different values.
VALUES = st.sampled_from([StrV("a"), SymV("a"), IntV(1), BoolV(True), IntV(0),
                          BoolV(False), StrV(""), SymV("")])
# 0-3 keys; "nope" is no column of either schema
RECORDS = st.dictionaries(st.sampled_from(COLUMNS + ("nope",)), VALUES, max_size=3)
CLASSES = st.sampled_from(["Row", "Tag"])
WRITES = st.one_of(
    st.tuples(st.just("create"), CLASSES, RECORDS),
    st.tuples(st.just("set"), st.integers(0, 40), st.sampled_from(COLUMNS), VALUES),
)
OPS = st.one_of(
    WRITES,
    st.tuples(st.sampled_from(["where", "exists"]), CLASSES, RECORDS),
    st.tuples(st.just("restore")),
)


def _row_world():
    ct = ClassTable()
    install_core_methods(ct)
    install_schema(ct, ROW)
    install_schema(ct, TAG)
    return ct, World({"Row": ROW, "Tag": TAG})


def _deep(tables) -> dict:
    return {cls: {oid: dict(row) for oid, row in table.items()}
            for cls, table in tables.items()}


class CopyingWorld:
    """The world before copy-on-write: restore copies every table, a column
    write changes the world's own copy, a query scans the table."""

    def __init__(self, schemas) -> None:
        self.schemas = schemas
        self.tables = {cls: {} for cls in schemas}
        self.next_id = 1

    def checkpoint(self) -> tuple:
        return _deep(self.tables), self.next_id

    def restore(self, cp: tuple) -> None:
        self.tables, self.next_id = _deep(cp[0]), cp[1]

    def run(self, op: tuple):
        kind = op[0]
        if kind == "create":
            _, cls, rec = op
            self.tables[cls][self.next_id] = {
                col: rec.get(col, _COLUMN_DEFAULTS[ty.name])
                for col, ty in self.schemas[cls].columns}
            self.next_id += 1
            return ObjV(cls, self.next_id - 1)
        if kind == "set":
            _, pick, col, v = op
            oid = pick % self.next_id
            if oid not in self.tables["Row"]:
                return "missing-row"
            self.tables["Row"][oid][col] = v
            return v
        _, cls, rec = op
        pairs = record_v(rec).pairs
        ids = tuple(sorted(oid for oid, row in self.tables[cls].items()
                           if _matches(row, pairs)))
        return RelationV(cls, ids) if kind == "where" else BoolV(bool(ids))


def _run(ct, world, op: tuple):
    """op on the world through its natives, as CopyingWorld.run answers it."""
    kind = op[0]
    if kind == "set":
        _, pick, col, v = op
        try:
            return invoke_native(world, sig_of(ct, ClassT("Row"), f"{col}="),
                                 ObjV("Row", pick % world.next_id), (v,))
        except RuntimeError_ as exc:
            return exc.kind
    name = {"create": "create", "where": "where", "exists": "exists?"}[kind]
    _, cls, rec = op
    return invoke_native(world, sig_of(ct, ClassOf(cls), name), ClassV(cls),
                         (record_v(rec),))


class TestCopyOnWrite:
    @settings(max_examples=200, deadline=None)
    @given(phases=st.lists(st.lists(OPS, max_size=12), min_size=3, max_size=3))
    def test_copy_on_write_never_reaches_a_checkpoint(self, phases):
        # a checkpoint after each of the first two phases; every restore
        # takes the other checkpoint than the last one did
        ct, world = _row_world()
        oracle = CopyingWorld(world.schemas)
        taken = []  # (checkpoint, the oracle's, a deep copy made when taken)
        restores = 0
        for n, ops in enumerate(phases):
            for op in ops:
                if op[0] == "restore":
                    if taken:
                        cp, oracle_cp, _ = taken[restores % len(taken)]
                        world.restore(cp)
                        oracle.restore(oracle_cp)
                        restores += 1
                else:
                    assert _run(ct, world, op) == oracle.run(op), op
                assert world.snapshot() == oracle.tables
                assert world.next_id == oracle.next_id
            if n < 2:
                cp = world.checkpoint()
                taken.append((cp, oracle.checkpoint(), (_deep(cp.tables), cp.next_id)))
        for cp, _, (tables, next_id) in taken:
            assert cp.tables == tables and cp.next_id == next_id


class TestIndexedQueries:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(RECORDS, max_size=12), writes=st.lists(WRITES, max_size=6),
           queries=st.lists(st.tuples(st.sampled_from(["where", "exists"]), CLASSES,
                                      RECORDS), min_size=1, max_size=8))
    def test_indexed_queries_equal_the_scan(self, rows, writes, queries):
        ct, world = _row_world()
        for rec in rows:
            _run(ct, world, ("create", "Row", rec))
        # right after reset every row is written; after the checkpoint the
        # table is clean; then some rows are written again
        for stage in ("replayed", "clean", "written"):
            if stage == "clean":
                world.restore(world.checkpoint())
            if stage == "written":
                for op in writes:
                    _run(ct, world, op)
            for kind, cls, rec in queries:
                pairs = record_v(rec).pairs
                scan = tuple(sorted(oid for oid, row in world.tables[cls].items()
                                    if _matches(row, pairs)))
                got = _run(ct, world, (kind, cls, rec))
                assert got == (RelationV(cls, scan) if kind == "where"
                               else BoolV(bool(scan))), (stage, rec)

    def test_hash_colliding_values_stay_apart(self):
        ct, world = _row_world()
        for v in (IntV(1), BoolV(True), StrV("a"), SymV("a")):
            _run(ct, world, ("create", "Row", {"i": v, "s": v}))
        world.restore(world.checkpoint())
        for n, v in enumerate((IntV(1), BoolV(True), StrV("a"), SymV("a")), start=1):
            for col in ("i", "s"):
                assert _run(ct, world, ("where", "Row", {col: v})) == RelationV("Row", (n,))
        assert _run(ct, world, ("where", "Row", {"nope": IntV(1)})) == RelationV("Row", ())
        assert _run(ct, world, ("where", "Row", {})) == RelationV("Row", (1, 2, 3, 4))
