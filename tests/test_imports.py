"""Every module of the package uses each name it imports, and every
function, class and method it defines is used somewhere.

Stdlib stand-ins for a linter's unused-import and dead-code rules:
  * a name bound by an import statement anywhere in a module must be read
    somewhere in that module. The package's __init__ is exempt, since it
    imports to re-export;
  * every non-dunder function, class and method defined in the package
    must be referenced by name (read as a variable, an attribute or an
    imported name) somewhere in the package or its tests.
"""

import ast
from pathlib import Path

import pytest

import quiverext

PACKAGE = Path(quiverext.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def definitions(source):
    """(line, name) of every non-dunder function, class and method."""
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def referenced_names(source):
    """Every name the source reads as a variable, an attribute or an import;
    a definition itself is not a reference."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_detector_flags_an_unused_name():
    src = "import os\nfrom a import b, c as d\nprint(b)\n"
    assert unused_imports(src) == [(1, "os"), (2, "d")]


def test_detector_flags_a_dead_definition():
    src = ("class C:\n    def used(self):\n        pass\n\n"
           "    def dead(self):\n        pass\n\n"
           "def __dunder__():\n    pass\n\nC().used()\n")
    used = referenced_names(src)
    assert [d for d in definitions(src) if d[1] not in used] == [(5, "dead")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_dead_definitions():
    used = set()
    for path in SOURCES:
        used |= referenced_names(path.read_text(encoding="utf-8"))
    dead = [(path.name, line, name)
            for path in sorted(PACKAGE.rglob("*.py"))
            for line, name in definitions(path.read_text(encoding="utf-8"))
            if name not in used]
    assert dead == []
