"""Every name a library module imports is used in it.

Each module of `src/qgrass` but the package's `__init__` (whose imports are
its public API) is parsed with `ast`; an imported name that the module never
reads is reported.  Attribute access such as `sys.argv` reads `sys` as a
name, so reading names is enough.  Imports from `__future__` are directives
and bind no name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qgrass"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
