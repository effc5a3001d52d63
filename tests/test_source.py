"""Source hygiene: every module-level import in the package is used, and
every public function, class and constant has a use outside the tests."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import postcert

PACKAGE = Path(postcert.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REPO = PACKAGE.parent.parent


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
    standard library's HTTP client nor any ``email`` module, and of the
    package only the log, what it is built on, and themselves: the package
    root imports nothing, and the commands import their subsystems when
    they run."""
    import os
    import subprocess
    import sys

    unwanted = ("numpy", "http.client", "email")
    code = ("import sys, postcert.cli, postcert.httpapi; "
            f"print(' '.join(m for m in {unwanted!r} if m in sys.modules)); "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('postcert'))))")
    src = str(Path(postcert.__file__).parent.parent)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": src})
    stdlib, package = result.stdout.split("\n")[:2]
    assert stdlib.split() == []
    assert package.split() == ["postcert"] + [
        f"postcert.{name}" for name in ("certs", "cli", "crypto", "encoding", "httpapi", "log", "merkle", "timeutil")
    ]


def _public_definitions(path: Path) -> list[str]:
    """The module's public top-level functions, classes and constants."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_definition_is_used_exported_or_documented(path):
    """A public module-level function, class or constant is named again
    somewhere in ``src/`` (the package's ``__init__`` aside) or
    ``perfbench/``, or named in README. An export alone is no use: code that
    only tests call is removed with its tests."""
    sources = MODULES + sorted((REPO / "perfbench").glob("*.py"))
    text = "\n".join(source.read_text() for source in sources)
    readme = (REPO / "README.md").read_text()
    unused = [
        name for name in _public_definitions(path)
        if len(re.findall(rf"\b{name}\b", text)) < 2 and not re.search(rf"\b{name}\b", readme)
    ]
    assert not unused, f"{path.name}: public but unused outside the tests: {unused}"
