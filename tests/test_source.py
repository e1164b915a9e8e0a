"""Static checks of the package source that no installed linter makes."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "netdrift").glob("*.py"))


def unused_imports(source):
    """(line, name) of each module-level import that binds a name the
    module never reads; `from __future__` imports bind none."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((node.lineno, name))
    return unused


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from math import pi, tau\n\n"
              "def f(x: tau):\n    return os.path.join(x)\n")
    assert unused_imports(source) == [(3, "system"), (4, "pi")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def broad_handlers(source):
    """(line, enclosing function or None) of each `except` clause that
    catches Exception, BaseException or everything."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                caught = child.type
                types = caught.elts if isinstance(caught, ast.Tuple) else [caught]
                if caught is None or any(getattr(t, "id", getattr(t, "attr", None))
                                         in ("Exception", "BaseException") for t in types):
                    found.append((child.lineno, func))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(ast.parse(source), None)
    return found


def test_broad_handlers_are_found():
    source = ("def f():\n    try:\n        pass\n    except:\n        pass\n"
              "def g():\n    try:\n        pass\n    except (ValueError, Exception):\n"
              "        pass\n    except KeyError:\n        pass\n"
              "try:\n    pass\nexcept builtins.BaseException:\n    pass\n")
    assert broad_handlers(source) == [(4, "f"), (9, "g"), (15, None)]


def test_only_the_cli_entry_point_catches_everything():
    # anything broader would also catch, and hide, a MemoryError
    found = [(path.name, func) for path in SOURCES
             for _, func in broad_handlers(path.read_text(encoding="utf-8"))]
    assert found == [("cli.py", "main")]
