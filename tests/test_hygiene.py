"""Static checks on the package source, read with the stdlib ``ast`` module."""

import ast
import importlib
import os
import subprocess
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest

import nilorbits
from nilorbits import cli

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
    # The package names each export once, in its name -> module table, and
    # imports the module on first use.
    exports = nilorbits._EXPORTS
    assert nilorbits.__all__ == sorted(exports)
    assert len(nilorbits.__all__) == len(set(nilorbits.__all__)) == 39
    for name, module in exports.items():
        assert getattr(nilorbits, name) is getattr(importlib.import_module("nilorbits." + module), name)
    with pytest.raises(AttributeError):
        nilorbits.no_such_export
    # A submodule misses the table too, so `from nilorbits import cli` imports it.
    with pytest.raises(AttributeError):
        nilorbits.__getattr__("cli")
    from nilorbits import cli as submodule

    assert submodule is sys.modules["nilorbits.cli"]
    assert set(nilorbits.__all__) <= set(dir(nilorbits))


# Exported though no package code reads them: bench/spans.py wraps each one,
# so they go with the benchmark change that unwraps them (ROADMAP items 5 and 12).
BENCH_PINNED = {"kernel_check", "phi_w_x", "representative_matrix"}


def test_every_export_is_read_by_the_package_or_pinned_by_the_bench():
    # An export is read when its name is loaded, as a name or an attribute,
    # somewhere in the package outside its own definition.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    own = {
        (node.name, id(inner))
        for tree in trees
        for _, node in definitions(tree.body)
        for inner in ast.walk(node)
    }
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if (name, id(node)) not in own:
                    read.add(name)
    assert sorted(set(nilorbits.__all__) - read) == sorted(BENCH_PINNED)


def test_paving_imports_nothing_from_jordan():
    # The paving reads its pair matrices off the labelings' pairs, so the
    # Jordan oracle's matrices stay out of it.
    tree = ast.parse((PACKAGE / "paving.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.update((node.module or "").split("."))
            if node.module is None:
                modules.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(part for a in node.names for part in a.name.split("."))
    assert modules and "jordan" not in modules


# (importer, module, name) for each import of another package module's
# underscore name.  A new reach into a private helper fails here and has to be argued.
PRIVATE_IMPORTS = {
    ("checks", "core", "_MIN_RANK"),
    ("checks", "jordan", "_rank_chain"),
    ("checks", "jordan", "_root_sum_rows"),
    ("checks", "jordan", "_root_vectors"),
    ("checks", "paving", "_inversions"),
    ("checks", "paving", "_split_roots"),
    ("cli", "paving", "_split_roots"),
    ("cli", "tables", "_require_table_family"),
}


def test_private_names_imported_across_modules_are_pinned():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update(
                    (path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")
                )
    assert found == PRIVATE_IMPORTS


def definitions(body, prefix=""):
    """(qualified name, node) for every function, method and class under ``body``, nested too."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from definitions(node.body, prefix + node.name + ".")
        else:
            yield from definitions(ast.iter_child_nodes(node), prefix)


def test_every_definition_is_read_by_the_package():
    # A definition is read when its name is loaded, as a name or an attribute,
    # outside its own body somewhere in the package, or when it is exported.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    loads = [
        (node.id if isinstance(node, ast.Name) else node.attr, id(node))
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for tree in trees:
        for qualname, node in definitions(tree.body):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in nilorbits.__all__:
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(load == name and ref not in own for load, ref in loads):
                unread.append(qualname)
    assert unread == []


# The immutable value types built on ``core.Value``.
VALUE_TYPES = {
    "CheckResult",
    "ComponentLabel",
    "DynkinDiagram",
    "FiniteGroupDescriptor",
    "IntMatrix",
    "KernelReport",
    "LabeledDiagram",
    "LieType",
    "OrbitRecord",
    "Partition",
    "SubsetJ",
    "SummandRecord",
    "TableauPermutation",
}


def slot_fields(tree):
    """(class, field name) for every name in the ``__slots__`` of every class in ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["__slots__"]
            ):
                for field in ast.literal_eval(stmt.value):
                    yield node, field


def test_every_slot_field_is_read():
    # A field is read when some attribute load of its name lies outside its
    # class's own __init__ and __post_init__; its validation alone does not count.
    def parse(paths):
        return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(paths)]

    package = parse(PACKAGE.glob("*.py"))
    loads = [
        node
        for tree in package + parse(TESTS.glob("*.py"))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    fields = [f for tree in package for f in slot_fields(tree)]
    # The 13 value types have 29 fields between them; none may drop out of the sweep.
    assert {cls.name for cls, _ in fields} >= VALUE_TYPES
    assert sum(cls.name in VALUE_TYPES for cls, _ in fields) >= 29
    unread = []
    for cls, field in fields:
        validation = {
            id(node)
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name in ("__init__", "__post_init__")
            for node in ast.walk(stmt)
        }
        if not any(node.attr == field and id(node) not in validation for node in loads):
            unread.append("%s.%s" % (cls.name, field))
    assert unread == []


def test_value_protocol_is_defined_on_core_value_only():
    # Trusted builds, equality, hashing and repr come from one base class, so a
    # value type that hand-copies any of them fails here.
    protocol = {"_trusted", "__eq__", "__hash__", "__repr__"}
    definers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    names = {stmt.name}
                elif isinstance(stmt, ast.Assign):
                    names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
                else:
                    continue
                definers += [(path.name, node.name, name) for name in sorted(names & protocol)]
    assert sorted(definers) == [("core.py", "Value", name) for name in sorted(protocol)]


def test_no_module_calls_object_setattr():
    # Value.__init__ stores the fields of every value type through its slot setters.
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"
            ):
                callers.append("%s:%d" % (path.name, node.lineno))
    assert callers == []


# Records with nothing to check: their fields go straight to Value.__init__.
PLAIN_RECORDS = {
    "CheckResult": "core",
    "KernelReport": "orbits",
    "SummandRecord": "decomposition",
}


def test_plain_records_define_no_init():
    defined = {}
    for name, module in PLAIN_RECORDS.items():
        tree = ast.parse((PACKAGE / (module + ".py")).read_text(encoding="utf-8"))
        [cls] = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == name]
        defined[name] = [
            stmt.name for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
        ]
    assert defined == {name: [] for name in PLAIN_RECORDS}


def test_plain_records_refuse_a_wrong_number_of_fields():
    for name, module in PLAIN_RECORDS.items():
        cls = getattr(importlib.import_module("nilorbits." + module), name)
        fields = tuple(range(len(cls.__slots__)))
        value = cls(*fields)
        assert tuple(getattr(value, field) for field in cls.__slots__) == fields
        for wrong in (fields[:-1], fields + (None,)):
            with pytest.raises(TypeError):
                cls(*wrong)


def test_no_module_imports_dataclasses():
    # Importing dataclasses and inspect, and running the decorators, took most
    # of the package's import time; the value types are slotted classes.
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                importers.append(path.name)
    assert importers == []


def test_json_answers_are_written_by_the_cli_writer_only():
    # json.dumps(..., indent=2) runs json's pure-Python encoder; cli._json
    # writes the same bytes, and _write_cells the cell list of `paving --cells`.
    dumps_calls = []
    json_imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            call = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            if call and node.func.attr == "dumps":
                dumps_calls.append("%s:%d" % (path.name, node.lineno))
            elif isinstance(node, ast.Import):
                json_imports += [
                    (path.name, a.name, None) for a in node.names if a.name.split(".")[0] == "json"
                ]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in (
                "json", "_json"
            ):
                json_imports += [(path.name, node.module, a.name) for a in node.names]
    assert dumps_calls == []
    # The C escaper itself, and json.encoder's binding of it where _json is missing.
    assert json_imports == [
        ("cli.py", "_json", "encode_basestring_ascii"),
        ("cli.py", "json.encoder", "encode_basestring_ascii"),
    ]
    assert cli.encode_basestring_ascii is encode_basestring_ascii


def test_importing_the_cli_loads_neither_dataclasses_nor_checks():
    # Deterministic stand-in for the cold-start time of one CLI call; only
    # build_parser, for help and malformed vectors, imports argparse, and
    # the JSON writer takes its escaper from _json, not from the json package.
    code = "import sys, nilorbits.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    modules = [
        "dataclasses", "inspect", "nilorbits.checks", "nilorbits.jordan", "nilorbits.tables",
        "argparse", "gettext", "json",
    ]
    out = subprocess.run(
        [sys.executable, "-c", code, *modules],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"


# The modules that `import nilorbits.cli` leaves out, and what each plain call loads of them.
LAZY_MODULES = ("nilorbits.checks", "nilorbits.jordan", "nilorbits.tables")
FOOTPRINTS = [
    ("orbit --type D --rank 6 --j 2,4", []),
    ("paving --partition 3,2,2,1", []),
    ("decompose --rank 5", []),
    ("orbit --type E7 --j 1,3", ["nilorbits.tables"]),
    ("tables --type E6", ["nilorbits.tables"]),
    ("verify --max-rank 1", list(LAZY_MODULES)),
]


@pytest.mark.parametrize("argv, loaded", FOOTPRINTS, ids=[argv for argv, _ in FOOTPRINTS])
def test_each_command_loads_only_the_modules_it_reads(argv, loaded):
    code = (
        "import sys; from nilorbits import cli; code = cli.main(sys.argv[1:]); "
        "print(code, sorted(set(%r) & set(sys.modules)))" % (LAZY_MODULES,)
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv.split()],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.splitlines()[-1] == "0 %s" % loaded
