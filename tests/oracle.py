"""Per-client formulas of the local functions, written from their definitions.

The library evaluates local functions only in batches, through a `Problem`
(`grads_locals`, `value_mean`).  These one-client-at-a-time formulas take
the client's own arrays and regularization weight, and are the reference
that the tests hold the batched paths to.  `serialize_libsvm` writes a
dataset back as LibSVM text, the inverse the parser's round trips check.
"""

import numpy as np
from scipy.special import expit


def logistic_value(features, labels, reg, x):
    """Mean of log(1 + exp(-b a^T x)) over the client's rows, plus (reg/2)||x||^2."""
    losses = np.logaddexp(0.0, -labels * (features @ x))    # the stable log-sum-exp
    return float(np.mean(losses) + 0.5 * reg * float(x @ x))


def logistic_grad(features, labels, reg, x):
    """The gradient of `logistic_value` at x."""
    # d/dt log(1 + exp(-t)) = -sigmoid(-t)
    coeffs = -labels * expit(-labels * (features @ x))
    return features.T @ coeffs / labels.size + reg * x


def quadratic_value(A, b, reg, x):
    """x^T A x / 2 - b^T x + (reg/2)||x||^2."""
    return float(0.5 * x @ (A @ x) - b @ x + 0.5 * reg * (x @ x))


def quadratic_grad(A, b, reg, x):
    """The gradient of `quadratic_value` at x."""
    return A @ x - b + reg * x


def quadratic_minimizer(A, b, reg=0.0):
    """The minimizer of `quadratic_value`: the solution of (A + reg I) x = b."""
    return np.linalg.solve(A + reg * np.eye(b.size), b)


def serialize_libsvm(shard):
    """Inverse of `data.parse_libsvm`: the nonzero features of every row, labels as -1/+1."""
    lines = []
    for row, label in zip(shard.features.tolist(), shard.labels.tolist()):
        pairs = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row) if v != 0.0)
        head = "+1" if label > 0 else "-1"
        lines.append(f"{head} {pairs}".rstrip())
    return "\n".join(lines) + "\n"
