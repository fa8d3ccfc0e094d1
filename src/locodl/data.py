"""LibSVM ingestion, client partitioning, and Dirichlet synthetic data.

Every loader returns an `objectives.Shard`: (rows, d) float64 features and
labels in {-1, +1}.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, ParseError
from .objectives import Shard


def _normalize_labels(raw):
    alphabet = set(raw)
    if alphabet <= {-1.0, 1.0}:
        return raw
    if alphabet <= {0.0, 1.0}:
        return [1.0 if v == 1.0 else -1.0 for v in raw]
    raise InputError(f"unsupported label alphabet {sorted(alphabet)}; need binary labels")


def parse_libsvm(stream):
    """Parse LibSVM text: one 'label idx:val idx:val ...' sample per line.

    Indices are 1-based and strictly increasing in the source; values must be
    finite; '#' starts a comment; blank lines are skipped.  Labels in {0,1}
    are mapped to {-1,+1}.  d is the largest index present.
    """
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = [line.rstrip("\n") for line in stream]
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
        d = max(d, prev)
        labels.append(label)
    features = np.zeros((len(labels), d))
    features[rows, cols] = vals
    return Shard(features, _normalize_labels(labels))


def serialize_libsvm(shard):
    """Inverse of parse_libsvm: the nonzero features of every row, labels as -1/+1."""
    lines = []
    for row, label in zip(shard.features.tolist(), shard.labels.tolist()):
        pairs = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row) if v != 0.0)
        head = "+1" if label > 0 else "-1"
        lines.append(f"{head} {pairs}".rstrip())
    return "\n".join(lines) + "\n"


def load_libsvm(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh)


def partition(shard, n, seed):
    """Shuffle and split into n equal shards of m = rows // n; the rest is discarded."""
    if n < 1 or n > shard.m:
        raise InputError(f"cannot split {shard.m} rows across {n} clients")
    order = np.random.default_rng(seed).permutation(shard.m)
    m = shard.m // n
    return [Shard(shard.features[idx], shard.labels[idx]) for idx in order[:n * m].reshape(n, m)]


def dirichlet_synthetic(n, d, alpha, seed):
    """One Dirichlet(alpha * 1_d) feature vector per client with a fair-coin label."""
    if alpha <= 0:
        raise InputError("alpha must be positive")
    if n < 1 or d < 2:
        raise InputError("need n >= 1 and d >= 2")
    rng = np.random.default_rng(seed)
    # normalized Gamma draws: standard Dirichlet construction
    gammas = rng.gamma(alpha, 1.0, size=(n, d))
    feats = gammas / gammas.sum(axis=1, keepdims=True)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return Shard(feats, labels)
