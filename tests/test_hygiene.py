"""Static checks on the package source, read with the stdlib ``ast`` module."""

import ast
from pathlib import Path

import nilorbits

PACKAGE = Path(nilorbits.__file__).parent


def imported_names(tree):
    """The names that the module-level and nested imports of ``tree`` bind, ``__future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree):
    """Every name the module reads, annotations included."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_import_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = imported_names(tree) - used_names(tree)
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}


def test_all_lists_exactly_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert set(nilorbits.__all__) == imported_names(tree)
    assert len(nilorbits.__all__) == len(set(nilorbits.__all__)) == 45
