"""LibSVM ingestion, client partitioning, and Dirichlet synthetic data.

Every loader returns an `objectives.Shard`: (rows, d) float64 features and
labels in {-1, +1}.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from .errors import InputError, ParseError
from .objectives import Shard


def _normalize_labels(labels):
    alphabet = set(labels.tolist())
    if alphabet <= {-1.0, 1.0}:
        return labels
    if alphabet <= {0.0, 1.0}:
        return np.where(labels == 1.0, 1.0, -1.0)
    raise InputError(f"unsupported label alphabet {sorted(alphabet)}; need binary labels")


def parse_libsvm(stream):
    """Parse LibSVM text: one 'label idx:val idx:val ...' sample per line.

    Indices are 1-based and strictly increasing in the source; values must be
    finite; '#' starts a comment; blank lines are skipped.  Labels in {0,1}
    are mapped to {-1,+1}.  d is the largest index present.  The text is
    converted and checked in bulk; text that fails is parsed again line by
    line, so that the ParseError names the first bad line.
    """
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = [line.rstrip("\n") for line in stream]
    parsed = _parse_bulk(lines)
    labels, features = _parse_lines(lines) if parsed is None else parsed
    return Shard(features, _normalize_labels(np.asarray(labels, dtype=np.float64)))


def _parse_bulk(lines):
    """(labels, features) of the lines, or None if any line is malformed."""
    if any("#" in line for line in lines):
        lines = [line.split("#", 1)[0] for line in lines]
    # each token is held as the number of distinct tokens seen before its first
    # occurrence, so only the distinct tokens stay in memory as strings
    code = defaultdict()
    code.default_factory = code.__len__
    lengths, codes = [], []
    for tokens in map(str.split, lines):
        if tokens:
            lengths.append(len(tokens))
            codes.extend(map(code.__getitem__, tokens))
    distinct = list(code)
    codes = np.array(codes, dtype=np.intp)
    lengths = np.array(lengths, dtype=np.intp)
    is_label = np.zeros(codes.size, dtype=bool)
    is_label[np.cumsum(lengths) - lengths] = True     # each row's first token
    counts = lengths - 1                              # feature pairs per row
    label_codes, pair_codes = codes[is_label], codes[~is_label]
    used_as_label = np.flatnonzero(np.bincount(label_codes, minlength=len(distinct)))
    used_as_pair = np.flatnonzero(np.bincount(pair_codes, minlength=len(distinct)))
    splits = [distinct[c].split(":") for c in used_as_pair.tolist()]
    if any(len(split) != 2 for split in splits):
        return None
    label_of, index_of, value_of = (np.zeros(len(distinct), dtype=dtype)
                                    for dtype in (np.float64, np.int64, np.float64))
    try:
        label_of[used_as_label] = [float(distinct[c]) for c in used_as_label.tolist()]
        index_of[used_as_pair] = [int(split[0]) for split in splits]
        value_of[used_as_pair] = [float(split[1]) for split in splits]
    except (ValueError, OverflowError):
        return None
    index, value = index_of[pair_codes], value_of[pair_codes]
    # each index must exceed the one before it in its row, the first one 0
    before = np.empty_like(index)
    before[1:] = index[:-1]
    before[(np.cumsum(counts) - counts)[counts > 0]] = 0
    if not ((index > before).all() and np.isfinite(value).all()):
        return None
    try:
        features = np.zeros((counts.size, int(index.max()) if index.size else 0))
    except (ValueError, MemoryError):
        return None     # an index too large for an array: the line-by-line parse names it
    features[np.repeat(np.arange(counts.size), counts), index - 1] = value
    return label_of[label_codes], features


def _parse_lines(lines):
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


def load_libsvm(path):
    """`parse_libsvm` of the file at `path`; its input errors name the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_libsvm(fh)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc


def partition(dataset, n, seed):
    """Shuffled rows, m = rows // n per client: (n, m, d) features and (n, m) labels."""
    if n < 1 or n > dataset.m:
        raise InputError(f"cannot split {dataset.m} rows across {n} clients")
    order = np.random.default_rng(seed).permutation(dataset.m)
    m = dataset.m // n
    idx = order[:n * m].reshape(n, m)
    return dataset.features[idx], dataset.labels[idx]


def dirichlet_synthetic(n, d, alpha, seed):
    """One Dirichlet(alpha * 1_d) feature vector per client with a fair-coin label."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise InputError(f"alpha must be finite and positive, got {alpha}")
    if n < 1 or d < 2:
        raise InputError("need n >= 1 and d >= 2")
    rng = np.random.default_rng(seed)
    # normalized Gamma draws: standard Dirichlet construction
    gammas = rng.gamma(alpha, 1.0, size=(n, d))
    feats = gammas / gammas.sum(axis=1, keepdims=True)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return Shard(feats, labels)
