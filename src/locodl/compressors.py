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

CERTIFY_BATCH = 500     # trials compressed per round by `certification`

# natural quantization budgets one sign bit plus an 8-bit exponent
_EXP_MIN = -126
_EXP_MAX = 127


def _index_bits(d):
    return (d - 1).bit_length() if d > 1 else 0


# kind -> (omega, bits per message) as functions of d and k
_COSTS = {
    "identity": lambda d, k: (0.0, 32 * d),
    "rand_k": lambda d, k: (d / k - 1.0, 32 * k + k * _index_bits(d)),
    "natural": lambda d, k: (1.0 / 8.0, 9 * d),
    "rand_k_natural": lambda d, k: (9.0 * d / (8.0 * k) - 1.0, 9 * k + k * _index_bits(d)),
    "l1_selection": lambda d, k: (float(d - 1), 32 + _index_bits(d)),
}
KINDS = tuple(_COSTS)
K_KINDS = ("rand_k", "rand_k_natural")     # the kinds that take a k
NATURAL_KINDS = ("natural", "rand_k_natural")   # the kinds that round to powers of two


@dataclass(frozen=True)
class CompressorSpec:
    kind: str
    d: int
    k: int | None
    omega: float
    bits_per_message: int


def make_spec(kind, d, k=None):
    """Build a CompressorSpec with the closed-form omega and bit cost.

    The only check of (kind, d, k): a k in 1 .. d exactly when the kind takes one.
    """
    if kind not in KINDS:
        raise InputError(f"unknown compressor {kind!r} (choose from {KINDS})")
    if d < 1:
        raise InputError("d must be positive")
    if (k is None) == (kind in K_KINDS):
        raise InputError(f"compressor {kind!r} " + ("needs a k" if k is None
                                                    else f"takes no k, got k = {k}"))
    if k is not None and not 1 <= k <= d:
        raise InputError(f"k = {k}: {kind} needs 1 <= k <= d = {d}")
    return CompressorSpec(kind, d, k, *_COSTS[kind](d, k))


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
    """n independent uniform k-subsets of {0,...,d-1}, as an (n, k) index array.

    Floyd's algorithm, run across all rows at once: column j draws a candidate
    uniform on {0, ..., d-k+j}, and a candidate already earlier in its row is
    replaced by d-k+j, which no earlier column can hold.  One draw of n*k
    uniforms and k-1 vectorized passes, whatever d is; column pairs are
    compared one by one, which beats a 2-D `any` at the small k in use.
    """
    idx = (rng.random((n, k)) * np.arange(d - k + 1, d + 1)).astype(np.intp)
    for j in range(1, k):
        col = idx[:, j]             # a view: the replacement writes into idx
        taken = col == idx[:, 0]
        for i in range(1, j):
            taken |= col == idx[:, i]
        col[taken] = d - k + j
    return idx


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

    # the rest is a pipeline: rand-k selection, then natural rounding of what it sends
    sent, saturated = X, 0
    if spec.kind in K_KINDS:
        idx = _rand_subsets(rng, n, d, spec.k)
        rows = np.arange(n)[:, None]
        sent = X[rows, idx] * (d / spec.k)
    if spec.kind in NATURAL_KINDS:
        sent, sat = _natural_round(sent, rng)
        saturated = int(sat.sum())
    if spec.kind not in K_KINDS:
        return sent, saturated
    payload = np.zeros(X.shape)
    payload[rows, idx] = sent
    return payload, saturated


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
