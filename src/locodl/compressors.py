"""Unbiased random compressors with exact variance and bit-cost bookkeeping.

Compression is simulated at full precision: the payload is the real vector
the declared encoding could carry, and `bits` meters the wire size.  The
supported kinds are identity, rand-k sparsification, natural (power-of-two)
quantization, their composition, and l1-magnitude selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

KINDS = ("identity", "rand_k", "natural", "rand_k_natural", "l1_selection")
CERTIFY_BATCH = 500     # trials compressed per round by `certification`

# natural quantization budgets one sign bit plus an 8-bit exponent
_EXP_MIN = -126
_EXP_MAX = 127


def _index_bits(d):
    return (d - 1).bit_length() if d > 1 else 0


def _omega(kind, d, k):
    if kind == "identity":
        return 0.0
    if kind == "rand_k":
        return d / k - 1.0
    if kind == "natural":
        return 1.0 / 8.0
    if kind == "rand_k_natural":
        return 9.0 * d / (8.0 * k) - 1.0
    if kind == "l1_selection":
        return float(d - 1)
    raise InputError(f"unknown compressor kind {kind!r}")


def _bits(kind, d, k):
    if kind == "identity":
        return 32 * d
    if kind == "rand_k":
        return 32 * k + k * _index_bits(d)
    if kind == "natural":
        return 9 * d
    if kind == "rand_k_natural":
        return 9 * k + k * _index_bits(d)
    if kind == "l1_selection":
        return 32 + _index_bits(d)
    raise InputError(f"unknown compressor kind {kind!r}")


@dataclass(frozen=True)
class CompressorSpec:
    kind: str
    d: int
    k: int | None
    omega: float
    bits_per_message: int


def make_spec(kind, d, k=None):
    """Build a CompressorSpec with the closed-form omega and bit cost."""
    if kind not in KINDS:
        raise InputError(f"unknown compressor kind {kind!r}")
    if d < 1:
        raise InputError("d must be positive")
    if kind in ("rand_k", "rand_k_natural"):
        if k is None or not (1 <= k <= d):
            raise InputError("rand-k needs 1 <= k <= d")
    else:
        k = None
    w = _omega(kind, d, k)
    return CompressorSpec(kind, d, k, w, _bits(kind, d, k))


@dataclass(frozen=True)
class CompressedMessage:
    payload: np.ndarray
    bits: int
    saturated: bool = False


def _natural_round(values, rng):
    """Unbiased rounding of each entry to a signed power of two (or zero).

    Returns (rounded, saturated), where `saturated` flags each row with an
    entry clipped to the 8-bit exponent range.
    """
    out = np.zeros(values.shape)
    saturated = np.zeros(values.shape[0], dtype=bool)
    nonzero = values != 0.0
    if nonzero.any():
        v = values[nonzero]
        mant, exp = np.frexp(np.abs(v))  # |v| = mant * 2^exp, mant in [0.5, 1)
        p_up = 2.0 * mant - 1.0          # (|v| - 2^(exp-1)) / 2^(exp-1)
        result_exp = (exp - 1) + (rng.random(v.shape) < p_up)
        clipped = (result_exp < _EXP_MIN) | (result_exp > _EXP_MAX)
        if clipped.any():
            saturated[np.nonzero(nonzero)[0][clipped]] = True
            result_exp = np.clip(result_exp, _EXP_MIN, _EXP_MAX)
        out[nonzero] = np.copysign(np.ldexp(1.0, result_exp), v)
    return out, saturated


def _rand_subsets(rng, n, d, k):
    """n independent uniform k-subsets of {0,...,d-1}, as an (n, k) index array."""
    return np.argpartition(rng.random((n, d)), k - 1, axis=1)[:, :k]


def compress_round(spec, X, rng):
    """Compress one row per client, each with its own independent draw.

    One round consumes a single round-level random stream, so a whole
    communication round costs a handful of numpy operations.  Returns
    (payloads, saturated), where `saturated` counts the clients whose
    message hit the natural exponent range.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.d:
        raise InputError(f"X has shape {X.shape}, spec dimension is {spec.d}")
    if not np.isfinite(X).all():
        raise InputError("input coordinates must be finite")
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

    raise InputError(f"unknown compressor kind {spec.kind!r}")


def compress(spec, x, rng):
    """One client's message: row 0 of a one-client `compress_round`."""
    payload, sat = compress_round(spec, np.asarray(x, dtype=np.float64)[None], rng)
    return CompressedMessage(payload[0], spec.bits_per_message, bool(sat))


def certification(spec, x, trials, rng):
    """Bias and variance figures of `trials` independent compressions of x.

    Compresses x in rounds of CERTIFY_BATCH copies through `compress_round`.
    Returns (unbiased, bias_score, ratio): whether every coordinate's
    empirical mean lies within 4 standard errors of x, the largest
    |mean - x| / (4 se), and the mean of ||C(x) - x||^2 / ||x||^2.
    """
    x = np.asarray(x, dtype=np.float64)
    if trials < 1:
        raise InputError("trials must be positive")
    sq = float(x @ x)
    if sq == 0.0:
        raise InputError("variance ratio is undefined at x = 0")
    total = np.zeros(spec.d)
    total_sq = np.zeros(spec.d)
    err_sum = 0.0
    for start in range(0, trials, CERTIFY_BATCH):
        X = np.tile(x, (min(CERTIFY_BATCH, trials - start), 1))
        payload, _ = compress_round(spec, X, rng)
        total += payload.sum(axis=0)
        total_sq += (payload * payload).sum(axis=0)
        diff = payload - X
        err_sum += float(np.sum(diff * diff))
    mean = total / trials
    var = np.maximum(total_sq / trials - mean * mean, 0.0)
    se = np.sqrt(var / trials)
    bias = np.abs(mean - x)
    unbiased = bool(np.all(bias <= 4.0 * se + 1e-12))
    return unbiased, float(np.max(bias / (4.0 * se + 1e-12))), err_sum / (trials * sq)
