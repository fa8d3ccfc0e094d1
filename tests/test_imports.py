"""Every name a module imports is used somewhere in that module.

The guard covers the package (apart from `__init__.py`, which imports to
re-export) and the tests.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python_files(directory):
    return sorted(name for name in os.listdir(os.path.join(ROOT, directory))
                  if name.endswith(".py"))


# a package module's test id is its file name; a test's is its path from the root
MODULES = {name: os.path.join("src", "locodl", name)
           for name in _python_files(os.path.join("src", "locodl")) if name != "__init__.py"}
MODULES.update({f"tests/{name}": os.path.join("tests", name) for name in _python_files("tests")})


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_guard_catches_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") \
        == ["os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    with open(os.path.join(ROOT, MODULES[module]), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
