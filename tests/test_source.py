"""Checks on the package source itself."""

import ast
import functools
from pathlib import Path

import pytest

import mslwave

PACKAGE = Path(mslwave.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")  # __init__ only re-exports


def unused_imports(path: Path) -> list[str]:
    """``name:line`` of every name that ``path`` imports and never reads,
    except names on a line marked ``# noqa: F401``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa: F401" not in lines[
                    alias.lineno - 1]:
                unused.append(f"{name}:{alias.lineno}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def loaded_names(paths) -> set[str]:
    """Every name some file of ``paths`` reads, as a variable or as an
    attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@functools.cache
def read_names() -> set[str]:
    """Every name some module of the package reads."""
    return loaded_names(PACKAGE.glob("*.py"))


def private_names(path: Path) -> list[str]:
    """The private top-level functions, classes and constants of
    ``path``: those named ``_x``, and all of a module named ``_x``."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__") and (
        name.startswith("_") or path.name.startswith("_"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_name_has_a_reader(path):
    # code with no caller is deleted
    assert [name for name in private_names(path)
            if name not in read_names()] == []


def exported_names() -> list[str]:
    """Every name that ``mslwave/__init__.py`` re-exports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_exported_name_has_a_reader():
    # the public twin of the test above: a re-exported name is read by
    # the package or by a test
    readers = read_names() | loaded_names(Path(__file__).parent.glob("*.py"))
    assert [name for name in exported_names() if name not in readers] == []
