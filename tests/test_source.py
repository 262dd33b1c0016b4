"""Source hygiene: every name a package module imports is used, every
private definition is read, and every exported name resolves."""

import ast
from pathlib import Path

import pytest

import grmcodes

SRC = Path(__file__).resolve().parent.parent / "src" / "grmcodes"


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def _private_definitions(tree: ast.Module):
    """The package's private module-level functions and classes, and the
    ``_``-prefixed methods of its classes (dunders aside)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name.startswith("_") and not item.name.endswith("__"):
                    yield item


def test_every_private_definition_is_referenced():
    # a deleted caller must not leave its helper behind: each private name is
    # read somewhere in the package outside its own definition
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    uses = []  # (path, line, name) of every name or attribute read
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path, node.lineno, node.attr))
    unused = [
        f"{path.name}: {d.name} (line {d.lineno})"
        for path, tree in trees.items()
        for d in _private_definitions(tree)
        if not any(n == d.name and not (p == path and d.lineno <= line <= d.end_lineno) for p, line, n in uses)
    ]
    assert unused == []


def test_every_exported_name_resolves():
    # a retired name must leave __all__ with its definition
    assert [name for name in grmcodes.__all__ if not hasattr(grmcodes, name)] == []
