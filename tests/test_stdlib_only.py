"""The library imports nothing outside the standard library.

Every absolute import in ``src/lst20tools/*.py`` must name ``__future__``
or a module in ``sys.stdlib_module_names``; relative imports, and the
modules ``__init__.py`` imports by name from its export table, stay inside
the package.
"""

import ast
import sys
from pathlib import Path

import lst20tools

PACKAGE = Path(lst20tools.__file__).parent


def _absolute_imports(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_library_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"__future__"}
    outside = {
        f"{path.name}: {name}"
        for path in PACKAGE.glob("*.py")
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name not in allowed
    }
    assert not outside, sorted(outside)


def _relative_imports(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import format
                names.update(alias.name for alias in node.names)
    return names


def test_package_imports_only_its_own_modules():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    loaded_by_name = set(lst20tools._EXPORTS)
    assert loaded_by_name == modules
    outside = {
        f"{path.name}: {name}"
        for path in PACKAGE.glob("*.py")
        for name in _relative_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name not in modules
    }
    assert not outside, sorted(outside)


def test_no_module_imports_dataclasses():
    """The value classes build on ``schema._Frozen``: ``dataclasses`` loads
    ``inspect`` and ``ast``, a cost that a library view should not add."""
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if "dataclasses" in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert not importers, importers
