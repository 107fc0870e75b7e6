"""The runtime is standard-library only: every absolute import in the
package names a standard-library module, and none names ``dataclasses``,
whose import pulls in ``inspect`` and costs every run about 10 ms."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "freemagma"


def absolute_imports() -> list[tuple[str, str]]:
    """(file name, imported module) for every absolute import in the
    package, at any depth of its syntax tree."""
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
            if isinstance(node, ast.Import):
                found += [(module.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((module.name, node.module))
    return found


def test_package_imports_only_stdlib():
    outside = [
        f"{file}: {name}"
        for file, name in absolute_imports()
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_package_never_imports_dataclasses():
    found = [f"{file}: {name}" for file, name in absolute_imports() if name == "dataclasses"]
    assert found == []
