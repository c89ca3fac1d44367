"""Every top-level name in the package is used in it or exported.

A function, class or constant that no module loads and ``__init__.py``
does not import has no caller outside its own tests: delete it instead of
keeping it alive through them.
"""

import ast
from pathlib import Path

import lst20tools

PACKAGE = Path(lst20tools.__file__).parent


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
    return {name for name in names if not name.startswith("__")}


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_top_level_name_is_used_or_exported():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    exported = {
        alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = {
        f"{name}.{symbol}"
        for name, tree in trees.items()
        if name != "__init__"
        for symbol in _top_level_names(tree) - used - exported
    }
    assert not unused, sorted(unused)
