"""Every name a module imports is used somewhere in that module, and the package imports
only at module level.

The unused-import guard covers the package (apart from `__init__.py`, which
imports to re-export) and the tests.  The package imports nothing inside a
function, so no import runs inside a build, a reference solve or a run;
a fresh interpreter checks that, and that `scipy.special` is never loaded.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import locodl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python_files(directory):
    return sorted(name for name in os.listdir(os.path.join(ROOT, directory))
                  if name.endswith(".py"))


# a package module's test id is its file name; a test's is its path from the root
PACKAGE = {name: os.path.join("src", "locodl", name)
           for name in _python_files(os.path.join("src", "locodl"))}
MODULES = {name: path for name, path in PACKAGE.items() if name != "__init__.py"}
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


def function_local_imports(source):
    """The line of each import statement inside a function body, nested ones included."""
    return sorted({node.lineno for function in ast.walk(ast.parse(source))
                   if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(function)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_guard_catches_a_function_local_import():
    source = ("import os\n\nclass A:\n    def f(self):\n        import sys\n"
              "        def g():\n            from math import pi\n        return g\n")
    assert function_local_imports(source) == [5, 7]


@pytest.mark.parametrize("module", sorted(PACKAGE))
def test_no_function_local_imports(module):
    with open(os.path.join(ROOT, PACKAGE[module]), encoding="utf-8") as fh:
        assert function_local_imports(fh.read()) == []


# prints which modules `import locodl.cli` and each problem's `prepare` and short run load
SETUP_PROBE = """
import json, sys
import locodl.cli
from locodl import harness
loaded = {"scipy.special": "scipy.special" in sys.modules}
for n, source in ((5, {"source": "quadratic", "d": 10}),
                  (25, {"source": "dirichlet", "d": 50, "alpha": 1.0}),
                  (87, {"source": "libsvm", "path": sys.argv[1]})):
    config = harness.ExperimentConfig(problem=source, n=n, compressor="rand_k", k=1,
                                      max_iters=20)
    before = set(sys.modules)
    problem, baseline, ref = harness.prepare(config, {})
    prepared = set(sys.modules)
    harness.run_single(config, problem, baseline, ref, 0)
    loaded[source["source"]] = [sorted(prepared - before), sorted(set(sys.modules) - prepared)]
print(json.dumps(loaded))
"""


def test_setup_and_runs_import_nothing(a5a_path):
    # the fresh interpreter imports the same package as this one; the stand-in is sparse
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(locodl.__file__)))
    probe = subprocess.run([sys.executable, "-c", SETUP_PROBE, a5a_path], env=env,
                           capture_output=True, text=True, check=True)
    assert json.loads(probe.stdout) == {"scipy.special": False, "quadratic": [[], []],
                                        "dirichlet": [[], []], "libsvm": [[], []]}
