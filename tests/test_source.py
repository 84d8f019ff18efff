"""Source checks on `src/hvdesign`: no module-level private name that
nothing reads, no public function or class that is neither exported nor
read, and no import a module never reads."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hvdesign"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def reads(tree: ast.AST) -> set:
    """Every name `tree` loads, bare (`x`) or as an attribute (`m.x`)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def private_definitions(tree: ast.Module) -> list:
    """The private functions, classes and constants a module defines at its
    top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if is_private(name)]


def public_definitions(tree: ast.Module) -> list:
    """The public functions and classes a module defines at its top level."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        node.name for node in tree.body
        if isinstance(node, defs) and not node.name.startswith("_")
    ]


def imported_names(tree: ast.Module) -> list:
    """The names a module's imports bind, anywhere in it."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


def test_the_package_is_parsed():
    assert "hypervector.py" in MODULES and "__init__.py" in MODULES


def test_every_private_name_is_read():
    read = set().union(*map(reads, MODULES.values()))
    unused = [
        f"{module}:{name}"
        for module, tree in MODULES.items()
        for name in private_definitions(tree)
        if name not in read
    ]
    assert not unused, f"private names nothing in src/ reads: {unused}"


def test_every_public_name_is_exported_or_read():
    # The package's names are what `__init__` exports; a public function or
    # class outside that list lives only as long as some module reads it.
    exported = set(imported_names(MODULES["__init__.py"]))
    read = set().union(*map(reads, MODULES.values()))
    orphans = [
        f"{module}:{name}"
        for module, tree in MODULES.items()
        for name in public_definitions(tree)
        if name not in exported and name not in read
    ]
    assert not orphans, f"public names neither exported nor read in src/: {orphans}"


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_is_read(module):
    tree = MODULES[module]
    unused = [name for name in imported_names(tree) if name not in reads(tree)]
    assert not unused, f"{module} imports names it never reads: {unused}"
