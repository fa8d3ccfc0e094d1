"""LibSVM ingestion, client partitioning, and Dirichlet synthetic data.

Every loader returns an `objectives.Shard` of (rows, d) float64 features and
labels in {-1, +1}.  A LibSVM file's features are the CSR matrix of its
nonzero pairs, built from the parsed arrays, so no dense (rows, d) copy of
the file is ever formed; Dirichlet features are a dense array.
"""

from __future__ import annotations

import io
import math
import os
from collections import defaultdict

import numpy as np
from scipy import sparse

from .errors import InputError, ParseError
from .objectives import Shard


def _normalize_labels(labels):
    alphabet = set(labels.tolist())
    if alphabet <= {-1.0, 1.0}:
        return labels
    if alphabet <= {0.0, 1.0}:
        return np.where(labels == 1.0, 1.0, -1.0)
    raise InputError(f"unsupported label alphabet {sorted(alphabet)}; need binary labels")


# a d x d Gram past physical memory is refused unallocated: under overcommit mode 1
# np.empty grants any reservation, and forming the Gram would then write its pages
_PHYSICAL_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def parse_libsvm(stream):
    """Parse LibSVM text: one 'label idx:val idx:val ...' sample per line.

    Indices are 1-based and strictly increasing in the source; values must be
    finite; '#' starts a comment; blank lines are skipped.  Labels in {0,1}
    are mapped to {-1,+1}.  d is the largest index present.  The text is
    converted and checked in one pass: a failure mask over the token positions
    finds the first bad token, and the ParseError names its line.  The
    features are a CSR matrix of the nonzero pairs: an explicit 'j:0' stores
    nothing, so its arrays are those of `scipy.sparse.csr_matrix` of the dense
    rows, and no dense (rows, d) array is formed.  An index too large for a
    d x d Gram that numpy cannot allocate or physical memory cannot hold fails.
    """
    if isinstance(stream, str):     # split as a file is: at \n, \r\n and \r only
        stream = io.StringIO(stream, newline=None)
    lines = [line.rstrip("\n") for line in stream]
    if any("#" in line for line in lines):
        lines = [line.split("#", 1)[0] for line in lines]
    # each token is held as the number of distinct tokens seen before its first
    # occurrence, so only the distinct tokens stay in memory as strings
    code = defaultdict()
    code.default_factory = code.__len__
    lengths, codes = [], []
    for tokens in map(str.split, lines):
        lengths.append(len(tokens))
        codes.extend(map(code.__getitem__, tokens))
    del lines
    distinct = list(code)
    codes = np.fromiter(codes, dtype=np.intp, count=len(codes))
    lengths = np.array(lengths, dtype=np.intp)
    linenos = np.flatnonzero(lengths) + 1             # the line of each row
    lengths = lengths[linenos - 1]
    starts = np.cumsum(lengths) - lengths             # each row's label
    pairs = np.ones(codes.size, dtype=bool)
    pairs[starts] = False
    label_codes, pair_codes = codes[starts], codes[pairs]
    label_of, bad_label = _convert(distinct, label_codes, float, 0.0)
    pair_of, bad_pair = _convert(distinct, pair_codes, _pair, (0, 0.0))
    try:
        index_of = np.array([index for index, _ in pair_of], dtype=np.int64)
    except OverflowError:   # an index past int64: it fails below, as out of order or too large
        index_of = np.array([index for index, _ in pair_of], dtype=object)
    value_of = np.array([value for _, value in pair_of], dtype=np.float64)
    # d, the largest index if no token fails.  The probe writes no page of the d x d Gram
    # that sets mu, the one dense array of d columns the library forms besides a client's
    # rows, but allocates it, so it runs before the per-token arrays exist; a failure is
    # reported after the token checks
    d = int(index_of.max(initial=0))
    too_large = False
    try:
        if 8 * d * d > _PHYSICAL_MEMORY:
            raise MemoryError
        np.empty((d, d))
    except (ValueError, MemoryError):
        too_large = True
    # a valid label is a malformed pair, so its index is 0: the first index of
    # its row must exceed it.  A label's failure replaces what its pair check says.
    index = index_of[codes]
    del index_of
    fails = (bad_pair | ~np.isfinite(value_of))[codes]
    fails[1:] |= index[1:] <= index[:-1]
    fails[starts] = bad_label[label_codes]

    def line_of(at):
        return int(linenos[np.searchsorted(starts, at, side="right") - 1])

    if fails.any():
        at = int(np.argmax(fails))
        token = distinct[codes[at]]
        if at in starts:
            message = f"non-numeric label {token!r}"
        elif bad_pair[codes[at]]:
            message = f"malformed feature pair {token!r}"
        elif not np.isfinite(value_of[codes[at]]):
            message = f"non-finite feature value {token!r}"
        else:
            message = (f"feature indices must be strictly increasing "
                       f"(saw {index[at]} after {index[at - 1]})")
        raise ParseError(line_of(at), message)
    if too_large:
        raise ParseError(line_of(np.argmax(index)), f"feature index {d} is too large: its "
                                                    f"{d} x {d} Gram entries do not fit in memory")
    # the pairs in row order, each token array dropped after its last use: row r's
    # pairs begin at pair starts[r] - r, past the r labels before its own
    indptr = np.append(starts, codes.size) - np.arange(lengths.size + 1)
    del fails, codes
    indices = index[pairs]
    indices -= 1
    del index, pairs
    values = value_of[pair_codes]
    del pair_codes
    nonzero = values != 0.0
    if not nonzero.all():
        # an explicit 'j:0' stores nothing: `kept` counts the nonzero pairs before each pair
        kept = np.concatenate(([0], np.cumsum(nonzero)))
        values, indices, indptr = values[nonzero], indices[nonzero], kept[indptr]
        del kept
    del nonzero
    features = sparse.csr_matrix((values, indices, indptr), shape=(lengths.size, d))
    labels = np.array(label_of, dtype=np.float64)[label_codes]
    return Shard(features, _normalize_labels(labels))


def _pair(token):
    """(index, value) of an 'idx:val' token; ValueError if it is malformed."""
    index, _, value = token.partition(":")
    return int(index), float(value)


def _convert(distinct, used, convert, fill):
    """convert(token) of each distinct token whose code is in `used`, else `fill`,
    and the mask of the tokens whose conversion raised ValueError."""
    converted, bad = [fill] * len(distinct), np.zeros(len(distinct), dtype=bool)
    for c in np.flatnonzero(np.bincount(used, minlength=len(distinct))).tolist():
        try:
            converted[c] = convert(distinct[c])
        except ValueError:
            bad[c] = True
    return converted, bad


def load_libsvm(path):
    """`parse_libsvm` of the file at `path`; its input errors, and a file that
    cannot be read as UTF-8 text, name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_libsvm(fh)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None


def partition(dataset, n, seed):
    """Shuffled rows, m = rows // n per client: the (n, m) dataset row indices of each client."""
    if n < 1 or n > dataset.m:
        raise InputError(f"cannot split {dataset.m} rows across {n} clients")
    order = np.random.default_rng(seed).permutation(dataset.m)
    m = dataset.m // n
    return order[:n * m].reshape(n, m)


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
