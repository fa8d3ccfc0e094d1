"""Per-client formulas of the local functions, written from their definitions.

The library evaluates local functions only in batches, through a `Problem`
(`grads_locals`, `value_mean`).  These one-client-at-a-time formulas take
the client's own arrays and regularization weight, and are the reference
that the tests hold the batched paths to.  `serialize_libsvm` writes a
dataset back as LibSVM text, the inverse the parser's round trips check.
`parse_lines` parses LibSVM text one line at a time, the reference that
the tests hold `data.parse_libsvm`'s arrays and errors to.  `compress_round`
spells out each compressor kind as its own branch, the reference that the
tests hold `compressors.compress_round`'s pipeline to, bit for bit.
"""

import math

import numpy as np
from scipy.special import expit

from locodl.compressors import _natural_round, _rand_subsets
from locodl.errors import ParseError


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


def parse_lines(lines):
    """(labels, features), one line at a time; a ParseError names the first bad line."""
    labels, rows, cols, vals = [], [], [], []
    d = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise ParseError(lineno, f"non-numeric label {parts[0]!r}") from None
        prev = 0
        for pair in parts[1:]:
            if ":" not in pair:
                raise ParseError(lineno, f"malformed feature pair {pair!r}")
            idx_s, val_s = pair.split(":", 1)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(lineno, f"malformed feature pair {pair!r}") from None
            if not math.isfinite(val):
                raise ParseError(lineno, f"non-finite feature value {pair!r}")
            if idx <= prev:
                raise ParseError(lineno, f"feature indices must be strictly increasing (saw {idx} after {prev})")
            prev = idx
            rows.append(len(labels))
            cols.append(idx - 1)
            vals.append(val)
        if prev > d:
            d, d_line = prev, lineno
        labels.append(label)
    try:
        features = np.zeros((len(labels), d))
    except (ValueError, MemoryError):
        raise ParseError(d_line, f"feature index {d} is too large: numpy cannot allocate "
                                 f"{len(labels)} x {d} features") from None
    features[rows, cols] = vals
    return labels, features


def compress_round(spec, X, rng):
    """(payloads, saturated) of one round, one branch per kind, drawing from rng
    in the library's order: the rand-k subsets first, then the rounding uniforms."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape

    if spec.kind == "identity":
        return X.copy(), 0

    if spec.kind == "rand_k":
        idx = _rand_subsets(rng, n, d, spec.k)
        payload = np.zeros(X.shape)
        rows = np.arange(n)[:, None]
        payload[rows, idx] = X[rows, idx] * (spec.d / spec.k)
        return payload, 0

    if spec.kind == "natural":
        payload, sat = _natural_round(X, rng)
        return payload, int(sat.sum())

    if spec.kind == "rand_k_natural":
        idx = _rand_subsets(rng, n, d, spec.k)
        rows = np.arange(n)[:, None]
        scaled = X[rows, idx] * (spec.d / spec.k)
        rounded, sat = _natural_round(scaled, rng)
        payload = np.zeros(X.shape)
        payload[rows, idx] = rounded
        return payload, int(sat.sum())

    if spec.kind == "l1_selection":
        cum = np.cumsum(np.abs(X), axis=1)
        norms = cum[:, -1]
        payload = np.zeros(X.shape)
        alive = norms > 0.0
        if alive.any():
            # u <= norms = cum[:, -1], so the selected index j is at most d - 1
            u = rng.random(n) * norms
            j = (cum < u[:, None]).sum(axis=1)
            rows = np.arange(n)
            payload[rows, j] = np.copysign(norms, X[rows, j])
            payload[~alive] = 0.0   # a zero row sends a zero message
        return payload, 0

    raise ValueError(f"unknown compressor kind {spec.kind!r}")
