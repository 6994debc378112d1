"""Static checks on the package source, read with the stdlib ``ast`` module."""

import ast
from pathlib import Path

import nilorbits

PACKAGE = Path(nilorbits.__file__).parent
TESTS = Path(__file__).parent


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


def dataclass_fields(tree):
    """(class, field name) for every annotated field of every ``@dataclass`` class in ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield node, stmt.target.id


def test_every_dataclass_field_is_read():
    # A field is read when some attribute load of its name lies outside its
    # class's own __post_init__; its validation alone does not count.
    def parse(paths):
        return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(paths)]

    package = parse(PACKAGE.glob("*.py"))
    loads = [
        node
        for tree in package + parse(TESTS.glob("*.py"))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for cls, field in (f for tree in package for f in dataclass_fields(tree)):
        validation = {
            id(node)
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"
            for node in ast.walk(stmt)
        }
        if not any(node.attr == field and id(node) not in validation for node in loads):
            unread.append("%s.%s" % (cls.name, field))
    assert unread == []
