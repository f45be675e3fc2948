"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import mslwave

MODULES = sorted(path for path in Path(mslwave.__file__).parent.glob("*.py")
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
