"""Shared fixtures: small reference problems, an a5a-scale dataset file and an eigensolve counter.

The large-dataset fixture prefers a real LibSVM file pointed to by the
LOCODL_A5A environment variable and otherwise generates a synthetic
binary-sparse stand-in with the same shape (6414 rows, 122 features,
~14 active features per row).  The acceptance criteria's PASS/FAIL lines
are repeated in the terminal summary, since output capture hides them.
"""

import os

import numpy as np
import pytest

from locodl import objectives as obj

A5A_ENV_VAR = "LOCODL_A5A"
A5A_ROWS = 6414
A5A_DIM = 122


def synthesize_binary_dataset(path, rows=A5A_ROWS, d=A5A_DIM, seed=20240501):
    """Write a LibSVM file of sparse binary rows with popularity-skewed features."""
    rng = np.random.default_rng(seed)
    popularity = rng.dirichlet(np.full(d, 0.3))
    w = rng.standard_normal(d) / np.sqrt(14)
    lines = []
    for _ in range(rows):
        idx = rng.choice(d, size=14, replace=False, p=popularity)
        idx.sort()
        score = w[idx].sum() + 0.5 * rng.standard_normal()
        label = 1 if score > 0 else -1
        lines.append(f"{label} " + " ".join(f"{j + 1}:1" for j in idx))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="session")
def a5a_path(tmp_path_factory):
    real = os.environ.get(A5A_ENV_VAR)
    if real and os.path.exists(real):
        return real
    path = tmp_path_factory.mktemp("data") / "a5a_like.libsvm"
    return str(synthesize_binary_dataset(str(path)))


@pytest.fixture(scope="session")
def quad_problem():
    """Fixed random quadratic problem: d = 10, n = 5, kappa = 100."""
    rng = np.random.default_rng(42)
    return obj.random_quadratic_problem(10, 5, 100.0, rng)


@pytest.fixture
def gram_solves(monkeypatch):
    """Counts `max_eigenvalue_gram` calls: a list of the address of each solved matrix."""
    calls = []
    solve = obj.max_eigenvalue_gram

    def counting(features):
        calls.append(features.__array_interface__["data"][0])
        return solve(features)

    monkeypatch.setattr(obj, "max_eigenvalue_gram", counting)
    return calls


# each acceptance criterion's "[criterion N] ..." line, in the order the criteria ran
CRITERION_LINES = []


def pytest_runtest_logreport(report):
    """Keep the criterion lines a test printed, which output capture hides when it passes."""
    if report.when == "call":
        CRITERION_LINES.extend(line for line in report.capstdout.splitlines()
                               if line.startswith("[criterion "))


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
