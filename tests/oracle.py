"""Per-client formulas of the local functions, written from their definitions.

The library evaluates local functions only in batches, through a `Problem`
(`grads_locals`, `value_mean`).  These one-function-at-a-time formulas are
the reference that the tests hold the batched paths to.
"""

import numpy as np
from scipy.special import expit

from locodl import objectives as obj


def value(f, x):
    """f(x) for a logistic, quadratic or shifted local function."""
    if isinstance(f, obj.ShiftedFunction):
        return value(f.base, x) - 0.5 * f.c * float(x @ x)
    if isinstance(f, obj.QuadraticFunction):
        return float(0.5 * x @ (f.A @ x) - f.b @ x + 0.5 * f.reg * (x @ x))
    # mean of log(1 + exp(-b a^T x)), via the stable log-sum-exp
    losses = np.logaddexp(0.0, -f.shard.labels * (f.shard.features @ x))
    return float(np.mean(losses) + 0.5 * f.reg * float(x @ x))


def grad(f, x):
    """The gradient of `value(f, .)` at x."""
    if isinstance(f, obj.ShiftedFunction):
        return grad(f.base, x) - f.c * x
    if isinstance(f, obj.QuadraticFunction):
        return f.A @ x - f.b + f.reg * x
    labels = f.shard.labels
    # d/dt log(1 + exp(-t)) = -sigmoid(-t)
    coeffs = -labels * expit(-labels * (f.shard.features @ x))
    return f.shard.features.T @ coeffs / f.shard.m + f.reg * x


def minimizer(f):
    """The minimizer of a quadratic local function: the solution of (A + mu I) x = b."""
    return np.linalg.solve(f.A + f.reg * np.eye(f.b.size), f.b)
