"""Shared fixtures: small reference problems, an a5a-scale dataset file and an eigensolve counter.

The acceptance suite's replays run in one session-wide worker process, and
the replay criterion that waits for them runs last, so every other module's
tests run while the worker replays.  The large-dataset fixture prefers a
real LibSVM file pointed to by the LOCODL_A5A environment variable and
otherwise generates a synthetic binary-sparse stand-in with the same shape
(6414 rows, 122 features, ~14 active features per row).  The acceptance
criteria's PASS/FAIL lines are repeated in the terminal summary, since
output capture hides them.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import sparse

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
def sparse_libsvm_path(tmp_path_factory):
    """A LibSVM file of 1200 rows of 4 features out of 60: 1200 * 60 > 2^16 entries at 1/15
    density, so its logistic batches take the sparse path."""
    rng = np.random.default_rng(71)
    path = tmp_path_factory.mktemp("sparse") / "sparse.libsvm"
    path.write_text("".join(
        f"{1 if rng.random() < 0.5 else -1} "
        + " ".join(f"{j + 1}:{rng.random():.3f}" for j in np.sort(rng.choice(60, 4, False)))
        + "\n" for _ in range(1200)))
    return str(path)


@pytest.fixture(scope="session")
def quad_problem():
    """Fixed random quadratic problem: d = 10, n = 5, kappa = 100."""
    rng = np.random.default_rng(42)
    return obj.random_quadratic_problem(10, 5, 100.0, rng)


@pytest.fixture
def gram_solves(monkeypatch):
    """Counts `max_eigenvalue_gram` calls: a list of the address of each solved matrix.

    A dense batch solves views of its stack, so a client solved twice repeats an
    address.  A sparse batch solves a fresh copy of each client's rows; every solved
    matrix is kept alive here, so that no copy takes the address of a freed one.  A
    CSR matrix's address is that of its values.
    """
    calls, kept = [], []
    solve = obj.max_eigenvalue_gram

    def counting(features):
        values = features.data if sparse.issparse(features) else features
        calls.append(values.__array_interface__["data"][0])
        kept.append(features)
        return solve(features)

    monkeypatch.setattr(obj, "max_eigenvalue_gram", counting)
    return calls


# the test that waits for the replays: it runs after every other test of the session
REPLAY_CRITERION = "test_criterion_8_byte_identical_replays"


@pytest.fixture(scope="session")
def replays():
    """One `spawn` worker process, which replays each kept config as its runs finish."""
    pool = ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn"))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def pytest_collection_modifyitems(items):
    """Moves the replay criterion to the end of the session, keeping every other test's order."""
    items.sort(key=lambda item: item.name == REPLAY_CRITERION)


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
