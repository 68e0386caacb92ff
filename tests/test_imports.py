"""No module of the package imports a name it never uses, or one from outside
the standard library."""

import ast
from pathlib import Path
import sys

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gptdyn"
PACKAGE_FILES = sorted(PACKAGE.glob("*.py"))
# The package's __init__ imports names only to re-export them.
MODULES = [p for p in PACKAGE_FILES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by imports of ``source`` that no other node of it mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level modules of the absolute imports of ``source`` outside the stdlib."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{m} (line {node.lineno})"
            for m in modules
            if m.split(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_detector_finds_an_unused_import():
    source = "from math import gcd, lcm\nimport os.path\nprint(lcm(2, 3))\n"
    assert unused_imports(source) == ["gcd (line 1)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_finds_a_third_party_import():
    source = "import numpy.linalg\nfrom fractions import Fraction\nfrom .exactla import dot\n"
    assert non_stdlib_imports(source) == ["numpy.linalg (line 1)"]


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=[p.name for p in PACKAGE_FILES])
def test_module_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []
