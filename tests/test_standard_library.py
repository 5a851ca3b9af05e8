"""The package imports nothing outside the Python standard library."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "lttop"


def absolute_imports(path):
    """(line, top-level module) for every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_absolute_import_is_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, PACKAGE
    found = {}
    for path in sources:
        for line, module in absolute_imports(path):
            found.setdefault(module, f"{path.name}:{line}")
    outside = {
        module: where for module, where in found.items() if module not in sys.stdlib_module_names
    }
    assert not outside, outside
    assert "functools" in found  # the walk does see the package's imports
