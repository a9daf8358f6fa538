"""Every module of the package uses each name it imports, every function,
class and method it defines is used somewhere, no module defines a
top-level name twice, and no module goes back to dense vectors.

Stdlib stand-ins for a linter's unused-import and dead-code rules:
  * a name bound by an import statement anywhere in a module must be read
    somewhere in that module. The package's __init__ is exempt, since it
    imports to re-export;
  * every non-dunder function, class and method defined in the package
    must be referenced by name (read as a variable, an attribute or an
    imported name) somewhere in the package or its tests;
  * no module of the package or of the tests defines a top-level function
    or class twice: the later definition silently replaces the earlier,
    so a shadowed test is never collected.

The engine has one format for vectors, algebra elements included: the
(index, coeff) pairs of a column (see linalg). So no module of the package
allocates a dense field vector (`[field.zero] * n`, `(f.zero,) * n`) or
names one of the dense helpers that served the second format.
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


def redefinitions(source):
    """(line, name) of every top-level function or class whose name an
    earlier top-level definition of the module already took."""
    seen, out = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name in seen:
                out.append((node.lineno, node.name))
            seen.add(node.name)
    return out


# the dense helpers, read as a name, an import or an attribute
DENSE_NAMES = {"unit_vector", "dense_vector", "linear_combination",
               "nonzero_pairs"}
# the dense members of Algebra and ReducedBasis, read as an attribute
DENSE_ATTRIBUTES = {"dense", "multiply", "basis_vector", "rows", "_rows",
                    "coords"}
DENSE_ALLOCATIONS = ("zero] *", "zero,) *")


def dense_idioms(source):
    """(line, what) of every dense allocation or dense name in source."""
    found = [(n, pattern) for n, line in enumerate(source.splitlines(), 1)
             for pattern in DENSE_ALLOCATIONS if pattern in line]
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name.rsplit(".", 1)[-1] if isinstance(node, ast.alias)
                else None)
        if name in DENSE_NAMES or (isinstance(node, ast.Attribute)
                                   and name in DENSE_ATTRIBUTES):
            found.append((node.lineno, name))
    return sorted(found)


def test_detector_flags_dense_idioms():
    src = ("from .linalg import nonzero_pairs\n"
           "v = [f.zero] * n\n"
           "w = (field.zero,) * n\n"
           "x = a.multiply(a.basis_vector(0), rb.rows[0])\n"
           "rows = a.sparse_multiply(x, x)\n")
    assert dense_idioms(src) == [(1, "nonzero_pairs"), (2, "zero] *"),
                                 (3, "zero,) *"), (4, "basis_vector"),
                                 (4, "multiply"), (4, "rows")]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_dense_vectors(path):
    assert dense_idioms(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_name():
    src = "import os\nfrom a import b, c as d\nprint(b)\n"
    assert unused_imports(src) == [(1, "os"), (2, "d")]


def test_detector_flags_a_dead_definition():
    src = ("class C:\n    def used(self):\n        pass\n\n"
           "    def dead(self):\n        pass\n\n"
           "def __dunder__():\n    pass\n\nC().used()\n")
    used = referenced_names(src)
    assert [d for d in definitions(src) if d[1] not in used] == [(5, "dead")]


def test_detector_flags_a_redefinition():
    src = ("def f():\n    pass\n\nclass C:\n    def f(self):\n        pass\n\n"
           "def test_x():\n    pass\n\nclass f:\n    pass\n\n"
           "def test_x():\n    pass\n")
    assert redefinitions(src) == [(11, "f"), (14, "test_x")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_top_level_redefinitions(path):
    assert redefinitions(path.read_text(encoding="utf-8")) == []


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
