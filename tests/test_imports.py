"""Every name a library module imports is used in it, and every private
helper it defines is used somewhere in the library.

Each module of `src/qgrass` but the package's `__init__` (whose imports are
its public API) is parsed with `ast`; an imported name that the module never
reads is reported.  Attribute access such as `sys.argv` reads `sys` as a
name, so reading names is enough.  Imports from `__future__` are directives
and bind no name.  A module-level function or class whose name starts with
one underscore is dead when no module of the package reads it, as a name or
as an attribute (`module._helper`); defining or importing it is no read.
Private class members are held to the same rule: a method defined in a
class body, an attribute stored as `obj._x = ...`, or a `__slots__` entry,
whose name starts with an underscore (dunders aside), is dead when no module
loads an attribute of that name.  Names are matched across classes, so the
check can miss a dead member that shares a live member's name, but it never
reports a live one.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qgrass"
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
MODULES = sorted(name for name in SOURCES if name != "__init__.py")


def unused_imports(source):
    """The names the source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_dead_names():
    source = "from __future__ import annotations\nimport os.path\nimport re as r\nfrom x import a, b as c\nc(os)\n"
    assert unused_imports(source) == ["a", "r"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_names_it_uses(module):
    assert unused_imports(SOURCES[module]) == []


def dead_private_helpers(sources):
    """The (module, name) pairs of private module-level functions and classes
    that no source reads, sorted."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    )


def test_dead_private_helpers_finds_unread_definitions():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): pass\nclass _Dead: pass\ndef public(): pass\n"
                "def __dunder__(): pass\n",
        "b.py": "from a import _dead as d, _used\nimport a\n_used()\na._Used\n",
        "c.py": "class _Used: pass\n",
    }
    assert dead_private_helpers(sources) == [("a.py", "_Dead"), ("a.py", "_dead")]


def test_every_private_helper_is_read():
    assert dead_private_helpers(SOURCES) == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def dead_private_members(sources):
    """The (module, name) pairs of private methods, stored attributes and
    `__slots__` entries whose name no source loads as an attribute or reads
    as a name, sorted."""
    read, defined = set(), set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif _private(node.attr):
                    defined.add((module, node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(item.name):
                        defined.add((module, item.name))
                    elif isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
                    ):
                        defined.update(
                            (module, c.value)
                            for c in ast.walk(item.value)
                            if isinstance(c, ast.Constant) and isinstance(c.value, str) and _private(c.value)
                        )
    return sorted(d for d in defined if d[1] not in read)


def test_dead_private_members_finds_unread_members():
    sources = {
        "a.py": "class A:\n"
                "    __slots__ = ('_slot_dead', '_slot_used', 'public')\n"
                "    def __init__(self):\n"
                "        self._stored_dead = {}\n"
                "        self._stored_used = {}\n"
                "        self._stored_used[1] = 2\n"
                "        self.__mangled = 0\n"
                "    def _method_dead(self): pass\n"
                "    def _method_used(self): return self._slot_used\n"
                "    def __len__(self): return 0\n",
        "b.py": "from a import A\nA()._method_used()\n",
    }
    assert dead_private_members(sources) == [
        ("a.py", "__mangled"), ("a.py", "_method_dead"), ("a.py", "_slot_dead"), ("a.py", "_stored_dead"),
    ]


def test_every_private_member_is_read():
    assert dead_private_members(SOURCES) == []
