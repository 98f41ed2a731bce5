"""The package surface: ``__all__`` against ``__init__``'s imports, and no
unused module-level import anywhere else in ``src/convsurv`` or in the
test modules."""

import ast
from pathlib import Path

import convsurv

PACKAGE = Path(convsurv.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
# an import kept on purpose for a name that nothing in its module reads
KEEP = "# noqa: F401"


def module_imports(tree):
    """The Import and ImportFrom statements at module level."""
    return [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]


def bound_names(node):
    """The names an import statement binds."""
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def unused_imports(path):
    """(line, name) of each module-level import that the module never reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(node.lineno, name) for node in module_imports(tree)
            if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            and KEEP not in lines[node.lineno - 1]
            for name in bound_names(node) if name not in read]


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [name for node in module_imports(tree) for name in bound_names(node)]
    assert len(set(convsurv.__all__)) == len(convsurv.__all__)
    assert sorted(convsurv.__all__) == sorted(imported)
    for name in convsurv.__all__:
        assert getattr(convsurv, name) is not None


def test_every_module_import_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: found for p in modules if (found := unused_imports(p))}
    assert unused == {}


def test_every_test_module_import_is_used():
    modules = sorted(TESTS.glob("*.py"))
    assert modules
    unused = {p.name: found for p in modules if (found := unused_imports(p))}
    assert unused == {}


def test_unused_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n\nimport math\n"
                      "import os.path\nfrom json import dumps as to_json, loads\n"
                      "from re import sub  # noqa: F401\n\nprint(loads, os)\n")
    assert unused_imports(module) == [(3, "math"), (5, "to_json")]
