"""Source hygiene: every module-level import in the package is used."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import postcert

MODULES = sorted(p for p in Path(postcert.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their lines."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def test_cli_and_http_import_no_numpy_or_stdlib_http_client():
    """The command line and the HTTP surface load neither numpy nor the
    standard library's HTTP client and its email header parser."""
    import os
    import subprocess
    import sys

    unwanted = ("numpy", "http.client", "email.parser")
    code = ("import sys, postcert.cli, postcert.httpapi; "
            f"print(' '.join(m for m in {unwanted!r} if m in sys.modules))")
    src = str(Path(postcert.__file__).parent.parent)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.split() == []
