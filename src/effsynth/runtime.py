"""Runtime values, the world, and the minidb record-store library.

Schemas generate typed and effect-annotated method signatures: per-column
readers carry a column read region, writers the matching write region, and
the class-side query methods (create / exists? / where / first) carry self
effects that resolve to the receiving class at call sites.

The world's state is values: a row is never changed in place (a column
write replaces the row), and a `where` result is a relation value carrying
the ids of the rows it matched, so values made by one evaluation compare
equal to those of another exactly when they denote the same rows. Tables
are shared copy-on-write: a checkpoint and every world restored to it share
its tables, and a world copies a table's id-to-row dict only when it first
writes to it. A checkpointed table is never written again, so it keeps the
column indexes its queries build.
"""

from __future__ import annotations

from typing import Union

from .core import (
    BOOL_T, INT_T, NIL_T, STR_T, SYM_T, ClassOf, ClassT, ClassTable,
    DefinitionError, Effect, EffectPair, MethodSig, Region, SELF_STAR,
    TypeExpr, Value, record_of, union_of,
)


class RuntimeError_(Exception):
    """A runtime failure while evaluating an expression."""

    def __init__(self, kind: str, detail: str = "") -> None:
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind
        self.detail = detail


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class NilV(Value):
    __slots__ = ()


class BoolV(Value):
    __slots__ = ("flag",)

    def __init__(self, flag: bool) -> None:
        self.flag = flag


class IntV(Value):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class StrV(Value):
    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class SymV(Value):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class ClassV(Value):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class ObjV(Value):
    __slots__ = ("cls", "obj_id")

    def __init__(self, cls: str, obj_id: int) -> None:
        self.cls, self.obj_id = cls, obj_id


class RelationV(Value):
    """The rows of class cls that a `where` matched, by ascending id."""

    __slots__ = ("cls", "ids")

    def __init__(self, cls: str, ids: tuple[int, ...]) -> None:
        self.cls, self.ids = cls, ids


class RecordV(Value):
    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[str, RuntimeValue], ...]) -> None:
        self.pairs = pairs  # key-sorted


RuntimeValue = Union[NilV, BoolV, IntV, StrV, SymV, ClassV, ObjV, RelationV, RecordV]

NIL_V = NilV()
TRUE_V = BoolV(True)
FALSE_V = BoolV(False)


def record_v(items: dict[str, RuntimeValue]) -> RecordV:
    return RecordV(tuple(sorted(items.items())))


def truthy(v: RuntimeValue) -> bool:
    return not (isinstance(v, NilV) or v == FALSE_V)


def runtime_class_of(v: RuntimeValue) -> str:
    if isinstance(v, ObjV):
        return v.cls
    if isinstance(v, ClassV):
        return v.name
    if isinstance(v, BoolV):
        return "Bool"
    if isinstance(v, IntV):
        return "Int"
    if isinstance(v, StrV):
        return "Str"
    if isinstance(v, SymV):
        return "Sym"
    if isinstance(v, RelationV):
        return relation_class(v.cls)
    if isinstance(v, NilV):
        return "Nil"
    raise RuntimeError_("no-class", f"value {v!r} has no runtime class")


# ---------------------------------------------------------------------------
# Schemas and the world
# ---------------------------------------------------------------------------

DB_BASE_CLASS = "DbRecord"

_PRIMITIVE_COLUMNS: dict[str, TypeExpr] = {
    "Str": STR_T, "Int": INT_T, "Bool": BOOL_T, "Sym": SYM_T,
}

_COLUMN_DEFAULTS: dict[str, RuntimeValue] = {
    "Str": StrV(""), "Int": IntV(0), "Bool": FALSE_V, "Sym": SymV(""),
}


class SchemaDecl(Value):
    __slots__ = ("cls", "columns")

    def __init__(self, cls: str, columns: tuple[tuple[str, TypeExpr], ...]) -> None:
        self.cls, self.columns = cls, columns
        names = [c for c, _ in self.columns]
        if len(set(names)) != len(names):
            raise DefinitionError(f"duplicate column in schema {self.cls}")
        if "id" in names:
            raise DefinitionError("column name 'id' is reserved")
        for c, ty in self.columns:
            if not (isinstance(ty, ClassT) and ty.name in _PRIMITIVE_COLUMNS):
                raise DefinitionError(f"column {self.cls}.{c} must be a primitive class")


def relation_class(cls: str) -> str:
    return f"Relation[{cls}]"


Row = dict[str, RuntimeValue]


class Table(dict):
    """One class's rows as a checkpoint holds them: id -> row, never written
    once checkpointed. `columns` maps a column to its index, value -> the
    ascending ids of the rows holding it, each built on its first query."""

    __slots__ = ("columns",)

    def __init__(self, rows=()) -> None:
        super().__init__(rows)
        self.columns: dict[str, dict[RuntimeValue, list[int]]] = {}

    def matching(self, pairs: tuple[tuple[str, RuntimeValue], ...]) -> list[int]:
        """Ids of the rows that hold every (column, value) of pairs,
        ascending; the list may be the index's own, which nobody changes."""
        if not pairs:
            return sorted(self)
        best = None
        for col, v in pairs:
            index = self.columns.get(col)
            if index is None:
                index = self.columns[col] = {}
                for oid in sorted(self):
                    row = self[oid]
                    if col in row:
                        index.setdefault(row[col], []).append(oid)
            ids = index.get(v)
            if ids is None:
                return []
            if best is None or len(ids) < len(best):
                best = ids
        if len(pairs) == 1:
            return best
        return [oid for oid in best if _matches(self[oid], pairs)]


Tables = dict[str, dict[int, Row]]


class Checkpoint(Value):
    """A World's state, taken by World.checkpoint: a Table per class."""

    __slots__ = ("tables", "next_id")

    def __init__(self, tables: dict[str, Table], next_id: int) -> None:
        self.tables, self.next_id = tables, next_id


class World:
    """Single-owner state: per-schema row tables and the next row id.

    The world starts from a base checkpoint: reset's empty one, the one
    restored, or the one taken last. It shares the base's tables until it
    writes one; `write` then copies that table and records the ids it
    writes. A query reads the base table's index and re-checks only those
    written rows, so a run from a checkpoint costs what it reads and
    writes. After reset every row is written, so setup replay scans."""

    def __init__(self, schemas: dict[str, SchemaDecl]) -> None:
        self.schemas = dict(schemas)
        self.reset()

    def reset(self) -> None:
        self.restore(Checkpoint({cls: Table() for cls in self.schemas}, 1))

    def fresh_id(self) -> int:
        out = self.next_id
        self.next_id += 1
        return out

    def row_count(self, cls: str) -> int:
        return len(self.tables.get(cls, {}))

    def snapshot(self) -> Tables:
        """A copy of the tables that no later write reaches."""
        return {cls: dict(tbl) for cls, tbl in self.tables.items()}

    def checkpoint(self) -> Checkpoint:
        """The current state, which becomes the world's base."""
        cp = Checkpoint({cls: tbl if cls not in self._written else Table(tbl)
                         for cls, tbl in self.tables.items()}, self.next_id)
        self.restore(cp)
        return cp

    def restore(self, cp: Checkpoint) -> None:
        """Put the world back into the state `cp` was taken in; the
        checkpoint stays untouched, so it can be restored again."""
        self.tables: Tables = dict(cp.tables)
        self.next_id = cp.next_id
        self._base = cp.tables
        self._written: dict[str, set[int]] = {}

    def write(self, cls: str, oid: int, row: Row) -> None:
        """Store row as cls's row oid; the first write to a table since the
        base copies it."""
        written = self._written.get(cls)
        if written is None:
            written = self._written[cls] = set()
            self.tables[cls] = dict(self.tables[cls])
        written.add(oid)
        self.tables[cls][oid] = row

    def select(self, cls: str, pairs: tuple[tuple[str, RuntimeValue], ...]) -> list[int]:
        """Ids of cls's rows that hold every (column, value) of pairs, ascending."""
        ids = self._base[cls].matching(pairs)
        written = self._written.get(cls)
        if written:
            table = self.tables[cls]
            ids = sorted([oid for oid in ids if oid not in written]
                         + [oid for oid in written if _matches(table[oid], pairs)])
        return ids


# ---------------------------------------------------------------------------
# Schema-driven signatures
# ---------------------------------------------------------------------------

def generate_schema_methods(schema: SchemaDecl) -> list[MethodSig]:
    """Signatures a schema contributes: column readers/writers, the id reader,
    and class-side create / exists? / where plus the relation's first."""
    cls = schema.cls
    rel = relation_class(cls)
    all_opt = record_of((c, True, ty) for c, ty in schema.columns)
    sigs: list[MethodSig] = []
    for col, ty in schema.columns:
        sigs.append(MethodSig(
            ClassT(cls), col, (), ty,
            EffectPair(read=Effect((Region(cls, col),))),
            native=f"minidb.get:{col}",
        ))
        sigs.append(MethodSig(
            ClassT(cls), f"{col}=", (ty,), ty,
            EffectPair(write=Effect((Region(cls, col),))),
            native=f"minidb.set:{col}",
        ))
    sigs.append(MethodSig(
        ClassT(cls), "id", (), INT_T,
        EffectPair(read=Effect((Region(cls, "id"),))),
        native="minidb.get:id",
    ))
    self_read = EffectPair(read=Effect((SELF_STAR,)))
    self_write = EffectPair(write=Effect((SELF_STAR,)))
    sigs.append(MethodSig(ClassOf(cls), "create", (all_opt,), ClassT(cls),
                          self_write, native="minidb.create"))
    sigs.append(MethodSig(ClassOf(cls), "exists?", (all_opt,), BOOL_T,
                          self_read, native="minidb.exists"))
    sigs.append(MethodSig(ClassOf(cls), "where", (all_opt,), ClassT(rel),
                          self_read, native="minidb.where"))
    sigs.append(MethodSig(ClassT(rel), "first", (), union_of(ClassT(cls), NIL_T),
                          self_read, native="minidb.first"))
    return sigs


def install_core_methods(ct: ClassTable) -> None:
    """Equality on every class and boolean negation, both pure."""
    ct.add_method(MethodSig(ClassT("Obj"), "==", (ClassT("Obj"),), BOOL_T,
                            native="core.eq"))
    ct.add_method(MethodSig(BOOL_T, "!", (), BOOL_T, native="core.not"))


def install_schema(ct: ClassTable, schema: SchemaDecl) -> None:
    if not ct.has_class(DB_BASE_CLASS):
        ct.add_class(DB_BASE_CLASS)
    ct.add_class(schema.cls, DB_BASE_CLASS)
    ct.add_class(relation_class(schema.cls))
    for sig in generate_schema_methods(schema):
        ct.add_method(sig)


# ---------------------------------------------------------------------------
# Native bindings
# ---------------------------------------------------------------------------

def _require_row(world: World, recv: RuntimeValue) -> tuple[str, dict[str, RuntimeValue]]:
    if not isinstance(recv, ObjV) or recv.cls not in world.tables:
        raise RuntimeError_("bad-receiver", f"not a stored record: {recv!r}")
    row = world.tables[recv.cls].get(recv.obj_id)
    if row is None:
        raise RuntimeError_("missing-row", f"{recv.cls} id {recv.obj_id}")
    return recv.cls, row


def _record_arg(args: tuple[RuntimeValue, ...]) -> RecordV:
    if len(args) != 1 or not isinstance(args[0], RecordV):
        raise RuntimeError_("arity", "expected a single record argument")
    return args[0]


def _schema_for(world: World, recv: RuntimeValue) -> SchemaDecl:
    if not isinstance(recv, ClassV) or recv.name not in world.schemas:
        raise RuntimeError_("bad-receiver", f"not a schema class: {recv!r}")
    return world.schemas[recv.name]


def _matches(row: Row, pairs: tuple[tuple[str, RuntimeValue], ...]) -> bool:
    return all(k in row and row[k] == v for k, v in pairs)


def _native_create(world, sig, recv, args):
    schema = _schema_for(world, recv)
    given = dict(_record_arg(args).pairs)
    row: Row = {}
    for col, ty in schema.columns:
        row[col] = given[col] if col in given else _COLUMN_DEFAULTS[ty.name]
    oid = world.fresh_id()
    world.write(schema.cls, oid, row)
    return ObjV(schema.cls, oid)


def _native_exists(world, sig, recv, args):
    schema = _schema_for(world, recv)
    return BoolV(bool(world.select(schema.cls, _record_arg(args).pairs)))


def _native_where(world, sig, recv, args):
    schema = _schema_for(world, recv)
    return RelationV(schema.cls, tuple(world.select(schema.cls, _record_arg(args).pairs)))


def _native_first(world, sig, recv, args):
    if not isinstance(recv, RelationV):
        raise RuntimeError_("bad-receiver", f"not a relation: {recv!r}")
    return ObjV(recv.cls, recv.ids[0]) if recv.ids else NIL_V


def _native_eq(world, sig, recv, args):
    if len(args) != 1:
        raise RuntimeError_("arity", "== takes one argument")
    return BoolV(recv == args[0])


def _native_not(world, sig, recv, args):
    return BoolV(not truthy(recv))


_NATIVES = {
    "minidb.create": _native_create,
    "minidb.exists": _native_exists,
    "minidb.where": _native_where,
    "minidb.first": _native_first,
    "core.eq": _native_eq,
    "core.not": _native_not,
}


def is_native(native: str) -> bool:
    """Whether invoke_native can run the native ID: a _NATIVES key, or a
    column getter or setter minidb.get:COLUMN or minidb.set:COLUMN."""
    prefix, _, column = native.partition(":")
    return native in _NATIVES or (prefix in ("minidb.get", "minidb.set") and column != "")


def invoke_native(world: World, sig: MethodSig, recv: RuntimeValue,
                  args: tuple[RuntimeValue, ...]) -> RuntimeValue:
    """Run sig's native on recv and args. A method declared without a native
    raises RuntimeError_ no-native, so a candidate calling it is dropped."""
    fn = _NATIVES.get(sig.native)
    if fn is not None:
        return fn(world, sig, recv, args)
    if sig.native is None:
        raise RuntimeError_("no-native",
                            f"method {sig.owner_class()}#{sig.name} has no native binding")
    kind, _, col = sig.native.partition(":")
    if kind == "minidb.get":
        cls, row = _require_row(world, recv)
        if col == "id":
            return IntV(recv.obj_id)
        if col not in row:
            raise RuntimeError_("missing-column", f"{cls}.{col}")
        return row[col]
    if kind == "minidb.set":
        cls, row = _require_row(world, recv)
        if len(args) != 1:
            raise RuntimeError_("arity", f"{col}= takes one argument")
        if col not in row:
            raise RuntimeError_("missing-column", f"{cls}.{col}")
        world.write(cls, recv.obj_id, {**row, col: args[0]})
        return args[0]
    raise DefinitionError(f"unbound native {sig.native}")
