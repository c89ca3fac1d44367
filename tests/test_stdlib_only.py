"""The library imports nothing outside the standard library.

Every absolute import in ``src/lst20tools/*.py`` must name ``__future__``
or a module in ``sys.stdlib_module_names``; relative imports stay inside
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
