"""No module imports a name it never uses, and the library defines none
that nothing uses.

An `ast` scan over the library (`src/effsynth/*.py`, apart from the
package's `__init__.py` re-exports) and the tests: every name an import
binds must be read somewhere in the same file, in code or in a string
annotation. A second scan: every module-level name the library defines, and
every method and property of its module-level classes apart from dunder
methods, must be referenced somewhere in `src/`, `tests/` or `benchmark/`,
as a name, an attribute, an imported name or a string naming it (the tracer
patches attributes by name).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "effsynth").glob("*.py"))
FILES = sorted(
    [p for p in LIBRARY if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import outside `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                         if isinstance(m, ast.Name)}
    return used


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def test_scan_sees_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c.d\n\ndef f(y: 'a') -> None:\n    c\n")
    assert sorted(set(_imported(tree)) - _used(tree)) == ["b"]


def _defined(tree: ast.Module) -> dict[str, int]:
    """Module-level name -> line of its def, class or assignment, and
    Class.name -> line of each method or property of a module-level class,
    apart from dunder methods."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    out[f"{node.name}.{item.name}"] = item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        out[n.id] = node.lineno
    return out


def _referenced(tree: ast.Module) -> set[str]:
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def _unreferenced(defined: dict[str, int], referenced: set[str]) -> list[str]:
    """The defined names, methods by their own name, that are not referenced."""
    return sorted(name for name in defined if name.rsplit(".", 1)[-1] not in referenced)


def test_every_library_name_is_referenced():
    referenced = set()
    for d in ("src", "tests", "benchmark"):
        for path in (ROOT / d).rglob("*.py"):
            referenced |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path in LIBRARY:
        defined = _defined(ast.parse(path.read_text(encoding="utf-8")))
        unused += [f"{path.name}:{defined[name]} {name}"
                   for name in _unreferenced(defined, referenced)]
    assert not unused, f"names nothing references: {', '.join(unused)}"


def test_scan_sees_an_unreferenced_name():
    tree = ast.parse("A = 1\nB: int = 2\n\ndef f():\n    return g.B\n\nclass C:\n    x = 'f'\n")
    assert _unreferenced(_defined(tree), _referenced(tree)) == ["A", "C"]


def test_scan_sees_an_unreferenced_method():
    tree = ast.parse("class A:\n    def __init__(self):\n        self.used()\n"
                     "    def used(self):\n        pass\n    def unused(self):\n        pass\n"
                     "    @property\n    def prop(self):\n        pass\n\nA()\n")
    assert _unreferenced(_defined(tree), _referenced(tree)) == ["A.prop", "A.unused"]


def _frozen_dataclasses(tree: ast.Module) -> list[int]:
    """Lines of `dataclass(frozen=True)` decorators and calls."""
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Call)
            and (getattr(n.func, "id", None) or getattr(n.func, "attr", None)) == "dataclass"
            and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                    for k in n.keywords)]


def test_library_has_no_frozen_dataclass():
    found = [f"{path.name}:{line}" for path in LIBRARY
             for line in _frozen_dataclasses(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"frozen dataclasses left (use a core.Value subclass): {', '.join(found)}"


def test_scan_sees_a_frozen_dataclass():
    tree = ast.parse("@dataclass(frozen=True)\nclass A:\n    x: int\n\n"
                     "@dataclasses.dataclass(frozen=True, eq=True)\nclass B:\n    y: int\n\n"
                     "@dataclass\nclass C:\n    z: int\n")
    assert _frozen_dataclasses(tree) == [1, 5]


_MUTATORS = {"add", "append", "update", "setdefault", "clear"}
_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _module_containers(tree: ast.Module) -> set[str]:
    """Module-level names bound to a dict, list or set display, comprehension
    or dict()/list()/set() call."""
    out = set()
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if value is None:
            continue
        if not (isinstance(value, _CONTAINERS)
                or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id in ("dict", "list", "set"))):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def _locals(fn) -> set[str]:
    """Names a function binds itself (parameters and stores), unless it
    declares them global."""
    args = fn.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    declared = set()
    for n in ast.walk(fn):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            bound.add(n.id)
        elif isinstance(n, ast.Global):
            declared |= set(n.names)
    return bound - declared


def _global_mutations(tree: ast.Module) -> list[str]:
    """`name:line` of each item assignment to, or add/append/update/
    setdefault/clear call on, a module-level dict, list or set inside a
    function: a cache that would outlive the call that fills it."""
    shared = _module_containers(tree)
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        names = shared - (set() if isinstance(fn, ast.Lambda) else _locals(fn))
        for n in ast.walk(fn):
            targets = []
            if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = [t.value for t in (n.targets if isinstance(n, ast.Assign)
                                             else [n.target])
                           if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)]
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr in _MUTATORS and isinstance(n.func.value, ast.Name)):
                targets = [n.func.value]
            out += [f"{t.id}:{n.lineno}" for t in targets if t.id in names]
    return sorted(set(out))


def test_library_keeps_no_global_cache():
    # whatever the library learns belongs to one synthesis call (its
    # CallMemo) or one validation, never to the process
    found = [f"{path.name} {hit}" for path in LIBRARY
             for hit in _global_mutations(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"module-level containers mutated in functions: {', '.join(found)}"


def test_scan_sees_a_global_memo():
    tree = ast.parse(
        "_MEMO = {}\n_SEEN: set = set()\n_ORDER = []\n_TABLE = {'a': 1}\n\n"
        "def f(k):\n    _MEMO[k] = 1\n    _SEEN.add(k)\n    return _TABLE[k]\n\n"
        "def g(k):\n    _ORDER.append(k)\n    kept = {}\n    kept[k] = _MEMO[k] = 2\n\n"
        "def h(_MEMO):\n    _MEMO[0] = 1\n\n"
        "def i():\n    global _TABLE\n    _TABLE = {}\n    _TABLE['b'] = 2\n")
    assert _global_mutations(tree) == ["_MEMO:14", "_MEMO:7", "_ORDER:12", "_SEEN:8",
                                       "_TABLE:22"]


_TABLE_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__",
                   "__delitem__"}


def _is_table(node) -> bool:
    """Whether node reads `….tables[…]`: one table of a world or checkpoint."""
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "tables")


def _table_writes(tree: ast.Module) -> list[int]:
    """Lines, outside the methods of a module-level class World, that assign
    or delete `….tables[…]` or `….tables[…][…]`, or call a mutating method
    on `….tables[…]`."""
    exempt = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "World":
            exempt |= {id(n) for n in ast.walk(node)}
    out = []
    for n in ast.walk(tree):
        if id(n) in exempt:
            continue
        targets = []
        if isinstance(n, (ast.Assign, ast.Delete)):
            targets = n.targets
        elif isinstance(n, (ast.AugAssign, ast.AnnAssign)):
            targets = [n.target]
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and n.func.attr in _TABLE_MUTATORS and _is_table(n.func.value)):
            out.append(n.lineno)
        out += [n.lineno for t in targets
                if _is_table(t) or (isinstance(t, ast.Subscript) and _is_table(t.value))]
    return sorted(out)


def test_only_the_world_writes_tables():
    # a checkpoint shares its tables with every world restored to it, and
    # World.write copies a table before its first write; a write that went
    # around it could change a checkpoint
    found = [f"{path.name}:{line}" for path in LIBRARY
             for line in _table_writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"table writes outside World: {', '.join(found)}"


def test_scan_sees_a_table_write_outside_the_world():
    tree = ast.parse(
        "class World:\n    def write(self, c, i, r):\n        self.tables[c][i] = r\n\n"
        "def f(world, cp, c, i, r):\n    world.tables[c][i] = r\n"
        "    cp.tables[c].update({i: r})\n    del world.tables[c][i]\n"
        "    world.tables[c] = {}\n    row = world.tables[c][i]\n"
        "    world.tables[c].get(i)\n\n"
        "class Other:\n    def g(self, c, i):\n        self.tables[c][i] += 1\n")
    assert _table_writes(tree) == [6, 7, 8, 9, 15]
