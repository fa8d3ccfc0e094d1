"""Strongly convex objectives: regularized logistic regression and quadratics.

A `Problem` is one batch of client losses l_1 .. l_n, stacked once and
evaluated with numpy across clients, plus two weights: every local function
is f_i = l_i + (reg/2)||x||^2, and the shared regularizer is
g(x) = (g_weight/2)||x||^2.  A batch holds only its family's stacked data
(the logistic clients' features and labels, or the quadratics' A_i and b_i)
and each client's curvature bounds; the problem adds the weights and the
common (L, mu) constants used by all stepsize schedules.  The folded baseline
(`fold_shared`) and the g = 0 reduction (`reduce_g_zero`) are the same batch
with the weights moved between reg and g_weight.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import wraps

import numpy as np
from scipy import sparse

from .errors import InputError


def _as_2d(a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise InputError("feature matrix must be 2-dimensional")
    return a


@dataclass(frozen=True)
class Shard:
    """A binary classification dataset, as parsed or synthesized.

    The features are a dense array or, as a LibSVM file's are, a CSR matrix.
    """

    features: object      # (m, d): float64 ndarray or scipy.sparse CSR matrix
    labels: np.ndarray    # (m,), entries in {-1, +1}

    def __post_init__(self):
        features = self.features
        object.__setattr__(self, "features", sparse.csr_matrix(features, dtype=np.float64)
                           if sparse.issparse(features) else _as_2d(features))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.float64))
        if self.features.shape[0] < 1:
            raise InputError("shard must contain at least one row")
        if self.labels.shape != (self.features.shape[0],):
            raise InputError("labels must match the number of feature rows")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise InputError("labels must be -1 or +1")

    @property
    def m(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]


def _point_or_stack(method):
    """`method` of an (R, d) stack of points, also called with one (d,) point.

    A point is evaluated as the one-row stack, through the same arithmetic,
    and its value comes back as a float; a stack's come back as an (R,) array.
    """
    @wraps(method)
    def evaluate(self, X):
        X = np.asarray(X, dtype=np.float64)
        values = method(self, X.reshape(-1, X.shape[-1]))
        return values if X.ndim == 2 else float(values[0])
    return evaluate


def row_dots(X, Y):
    """(R,) dot products of the rows of an (R, d) stack with the rows of Y, or with a (d,) Y.

    `matmul` of a (1, d) row by a (d, 1) column calls the same BLAS dot as
    `x @ y` on two vectors, so each value is that product bit for bit.
    """
    return np.matmul(X[:, None, :], Y[..., :, None])[:, 0, 0]


def max_eigenvalue_gram(features):
    """Largest eigenvalue of A^T A, computed exactly from the d x d Gram matrix.

    A CSR matrix's Gram is its sparse product, densified: on integer data it
    equals the dense product bit for bit, and otherwise to rounding.
    """
    if sparse.issparse(features):
        gram = (features.T @ features).toarray()
    else:
        a = _as_2d(features)
        gram = a.T @ a
    return float(np.linalg.eigvalsh(gram)[-1])


# eigvalsh's lam_max exceeds the true value by O(d eps ||G||), about 1e-14 relative
_BOUND_MARGIN = 1.0 + 1e-9


def _client_gram_bounds(features, rows):
    """Per-client upper bounds on lam_max(A_i^T A_i), exact where they can be the largest.

    Client i's rows A_i are features[rows[i]]: a view of an (n, m, d) stack
    indexed by client, or a slice of a CSR matrix's rows, densified one client
    at a time.  Each Gram's Frobenius norm bounds its lam_max; the Grams are
    formed one at a time and only the norms kept.  Clients are solved with
    `max_eigenvalue_gram` in falling order of bound until no remaining bound,
    times the margin, exceeds the largest value solved.  A skipped client
    keeps its bound times the margin, which is still at most that value, so
    the maximum is the all-client maximum bit for bit.
    """
    def client(i):
        a = features[rows[i]]
        return a.toarray() if sparse.issparse(a) else a

    bounds = np.array([np.linalg.norm(a.T @ a) for a in map(client, range(len(rows)))]) \
        * _BOUND_MARGIN
    top = -np.inf
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] <= top:
            break
        bounds[i] = max_eigenvalue_gram(client(i))
        top = max(top, bounds[i])
    return bounds


# the largest double t whose exp(t) is finite; `math.exp` raises OverflowError past it
_LOG_DBL_MAX = math.log(sys.float_info.max)


def _expit(x):
    """1 / (1 + exp(-x)) of each entry of a 1-d array, bit for bit as `scipy.special.expit`.

    The exp is the C library's, through `math.exp`, as in scipy, with
    exp(-x) = inf where -x > log(DBL_MAX).  numpy's vectorized `np.exp`
    differs from it in the last bit on 1-2% of normal draws (numpy 2.4.6 on
    an AVX-512 CPU), which would move the reference solution x*.
    """
    t = -x
    over = t > _LOG_DBL_MAX
    e = np.fromiter(map(math.exp, np.where(over, 0.0, t).tolist()), np.float64, t.size)
    e[over] = np.inf
    return 1.0 / (1.0 + e)


def regularization_for_kappa(dataset, kappa_target):
    """Regularization weight mu giving condition number kappa_target on the whole dataset."""
    return mu_for_kappa(max_eigenvalue_gram(dataset.features), dataset.m, kappa_target)


def mu_for_kappa(lam_max, m, kappa_target):
    """`regularization_for_kappa` of a dataset of m rows with lam_max(A^T A) = lam_max."""
    if kappa_target <= 1:
        raise InputError("kappa_target must exceed 1")
    return lam_max / (4.0 * m * (kappa_target - 1.0))


class _BatchedLogistic:
    """The logistic losses of n clients with m rows each, as one batch.

    Client i's rows are features[rows[i]] with labels labels[rows[i]], for an
    (n, m) array of dataset row indices such as `data.partition` returns.
    The batch keeps the representation its features arrive in, and stores
    them once.  Dense features give the (n, m, d) stack of the selected rows.
    CSR features (a LibSVM file's) give one block-diagonal CSR matrix, so that
    one sparse matvec computes every client's margins against its own model;
    A^T c goes through the block's transpose, a CSC view of the same arrays.
    A CSR batch never forms the stack: it selects the rows from the dataset's
    CSR (the flat (n*m, d) matrix) and shifts client i's column indices by
    i*d for the block, which shares the flat matrix's values and row
    pointers.  The flat matrix serves a common (d,) point and the Hessian.
    `lo` and `hi` are each client's curvature bounds, 0 and
    lam_max(A_i^T A_i) / (4m); that lam_max is exact for the clients that
    could hold the largest (`_client_gram_bounds`), so `hi.max()`, and with
    it L, is exact.  `value_terms`, the n*m margins of one point, sizes
    `mean_value`'s work per point.
    """

    # exp(700) ~ 1e304 is finite, so capped margins never overflow and the
    # coefficient needs no errstate; past the cap the true value is below 1e-304
    _LOGIT_CAP = 700.0

    def __init__(self, features, labels, rows):
        self.b = labels[rows]      # (n, m)
        self.n, self.m = rows.shape
        self.d = features.shape[1]
        self.value_terms = self.b.size
        self.lo = np.zeros(self.n)
        self._block = None
        if sparse.issparse(features):
            self.A = None
            self._flat = features[rows.ravel()]
            # client i's rows are the flat matrix's rows i*m .. (i+1)*m - 1
            self.hi = _client_gram_bounds(self._flat, [slice(i * self.m, (i + 1) * self.m)
                                                       for i in range(self.n)]) / (4.0 * self.m)
            # client i's entries come in its rows' order, m rows a client; its columns move
            # i*d.  The shifted indices are built in the block's index dtype, the flat
            # indices' unless n*d passes int32, so that the block shares them
            dtype = self._flat.indices.dtype if self.n * self.d < 2**31 else np.int64
            indices = np.repeat(np.arange(self.n, dtype=dtype) * self.d,
                                np.diff(self._flat.indptr[::self.m]))
            indices += self._flat.indices
            self._block = sparse.csr_matrix((self._flat.data, indices, self._flat.indptr),
                                            shape=(self.b.size, self.n * self.d))
            # a CSC view of the block's arrays, built once: scipy's .T costs tens of us per call
            self._block_t = self._block.T
        else:
            self.A = features[rows]     # (n, m, d)
            self.hi = _client_gram_bounds(self.A, range(self.n)) / (4.0 * self.m)
        self._coef = -self.b / self.m

    def _margins(self, X):
        """(n, m) margins of each client's rows at its own point, or at a common (d,) point."""
        if self._block is not None:
            product = self._flat @ X if X.ndim == 1 else self._block @ X.ravel()
            return product.reshape(self.b.shape)
        if X.ndim == 1:
            return (self.A.reshape(-1, self.d) @ X).reshape(self.b.shape)
        return np.matmul(self.A, X[..., None])[..., 0]

    def grads(self, X):
        # (-b/m) / (1 + exp(min(b * margins, _LOGIT_CAP))), in place on the fresh margins
        c = self._margins(X)
        c *= self.b
        np.minimum(c, self._LOGIT_CAP, out=c)
        np.exp(c, out=c)
        c += 1.0
        np.divide(self._coef, c, out=c)
        if self._block is not None:
            return (self._block_t @ c.ravel()).reshape(self.n, self.d)
        return np.matmul(c[:, None, :], self.A)[:, 0, :]

    def hessian_mean(self, x):
        """Hessian of `mean_value` at a common (d,) point, as a dense (d, d) array.

        Every client's rows share one d-dimensional space, so the Hessian is
        built from the features as one flat (n*m, d) matrix.
        """
        margins = self._margins(x).ravel()
        w = _expit(margins) * _expit(-margins) / (self.n * self.m)
        if self._block is not None:
            flat = self._flat     # scaled below shares its indices and row pointers
            scaled = sparse.csr_matrix((flat.data * np.repeat(w, np.diff(flat.indptr)),
                                        flat.indices, flat.indptr), shape=flat.shape)
            return (flat.T @ scaled).toarray()
        flat = self.A.reshape(-1, self.d)
        return (flat.T * w) @ flat

    def mean_value(self, X):
        """The mean loss at each row of an (R, d) stack of common points."""
        if self._block is not None:
            # one sparse product for all rows; its (rows, R) result is transposed to
            # C order, so each row's losses are summed as one contiguous run
            margins = np.ascontiguousarray((self._flat @ X.T).T)
        else:
            margins = np.matmul(self.A.reshape(-1, self.d), X[:, :, None])[:, :, 0]
        # the losses log(1 + exp(-b * margins)), in place on the fresh margins
        np.multiply(margins, -self.b.ravel(), out=margins)
        np.logaddexp(0.0, margins, out=margins)
        return margins.sum(axis=1) / margins.shape[1]


class _BatchedQuadratic:
    """The quadratics x^T A_i x / 2 - b_i^T x of n clients, as one batch.

    `lo` and `hi` are each client's curvature bounds, the extremes of the
    spectrum of its symmetric A_i.  `value_terms`, the d entries of A_bar x,
    sizes `mean_value`'s work per point.
    """

    def __init__(self, A, b):
        self.A = A      # (n, d, d)
        self.b = b      # (n, d)
        self.n, self.d = b.shape
        self.value_terms = self.d       # A_bar x, per point of `mean_value`
        eigs = np.linalg.eigvalsh(A)
        self.lo, self.hi = eigs[:, 0], eigs[:, -1]
        self.A_bar = A.mean(axis=0)     # mean_value's terms, computed once
        self.b_bar = b.mean(axis=0)

    def grads(self, X):
        if X.ndim == 1:
            return np.matmul(self.A, X) - self.b
        return np.matmul(self.A, X[:, :, None])[:, :, 0] - self.b

    def hessian_mean(self, x):
        """Hessian of `mean_value`, the same at every point."""
        return self.A_bar.copy()

    def mean_value(self, X):
        """The mean loss at each row of an (R, d) stack of common points."""
        AX = np.matmul(self.A_bar, X[:, :, None])[:, :, 0]    # one gemv per row, as A_bar @ x
        return row_dots(0.5 * X, AX) - row_dots(X, self.b_bar)


@dataclass
class Problem:
    """(1/n) sum_i f_i(x) + g(x) over one batch of client losses l_i.

    f_i = l_i + (reg/2)||.||^2 and g = (g_weight/2)||.||^2.  `lo` and `hi`
    bound the curvature of every loss (by default the extremes of the
    batch's per-client bounds), so L = hi + reg and mu = lo + reg are the
    common constants used by all stepsize schedules.  A zero g_weight marks
    a folded problem (baseline convention), whose f_i carry the whole
    regularizer.
    """

    batch: object           # _BatchedLogistic or _BatchedQuadratic
    reg: float
    g_weight: float
    lo: float = None
    hi: float = None
    n: int = field(init=False)
    d: int = field(init=False)
    L: float = field(init=False)
    mu: float = field(init=False)

    def __post_init__(self):
        self.n, self.d = self.batch.n, self.batch.d
        if self.lo is None:
            self.lo = float(self.batch.lo.min())
        if self.hi is None:
            self.hi = float(self.batch.hi.max())
        self.L = self.hi + self.reg
        self.mu = self.lo + self.reg
        if not (0 < self.mu <= self.L):
            raise InputError("problem constants must satisfy 0 < mu <= L")
        if not (0.0 <= self.g_weight <= self.L * (1 + 1e-12)):
            raise InputError("the shared weight must lie in [0, L]")
        if (np.any(self.batch.hi + self.reg > self.L * (1 + 1e-12))
                or np.any(self.batch.lo + self.reg < self.mu * (1 - 1e-12))):
            raise InputError("a local function violates the common (L, mu) constants")

    @property
    def kappa(self):
        return self.L / self.mu

    def grads_locals(self, X):
        """Per-client gradients.  X is (n, d) for distinct points or (d,) for a common one."""
        X = np.asarray(X, dtype=np.float64)
        return self.batch.grads(X) + self.reg * X

    def grad_g(self, y):
        return self.g_weight * y

    @_point_or_stack
    def value_mean(self, X):
        """(1/n) sum_i f_i(x) + g(x) at a (d,) point, or at each row of an (R, d) stack."""
        sq = row_dots(X, X)
        return self.batch.mean_value(X) + 0.5 * self.reg * sq + 0.5 * self.g_weight * sq

    def grad_mean(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self.grads_locals(x).sum(axis=0) / self.n + self.grad_g(x)

    def hessian_mean(self, x):
        """Hessian of `value_mean` at x."""
        H = self.batch.hessian_mean(np.asarray(x, dtype=np.float64))
        diagonal = np.diag_indices(self.d)
        H[diagonal] += self.reg
        H[diagonal] += self.g_weight
        return H


def logistic_problem(features, labels, rows, mu):
    """Problem with f_i = logistic_i + (mu/2)||.||^2 and g = (mu/2)||.||^2.

    Client i's rows are features[rows[i]] (m, d) with labels labels[rows[i]]
    (m,), for the (n, m) row indices that `data.partition` returns.  The
    common L is the largest per-client smoothness constant, so that every
    local function actually satisfies it.
    """
    return Problem(_BatchedLogistic(features, labels, rows), float(mu), float(mu))


def fold_shared(problem):
    """Absorb the shared squared norm into every local (baseline convention): the same batch."""
    return replace(problem, reg=problem.reg + problem.g_weight, g_weight=0.0)


# nothing here calls it: it stays only because perfbench's layer tracer wraps
# `objectives.folded_logistic_problem`
folded_logistic_problem = fold_shared


def reduce_g_zero(problem, mu):
    """Split a problem without shared function into locals plus a shared quadratic.

    Returns the same batch with locals f_i - (mu/4)||.||^2 and
    g = (mu/4)||.||^2, whose objective equals the problem's pointwise.
    """
    if mu <= 0:
        raise InputError("the reduction needs strictly positive strong convexity")
    if problem.g_weight != 0.0:
        raise InputError("the reduction needs a problem without shared function")
    return replace(problem, reg=problem.reg - mu / 2.0, g_weight=mu / 2.0)


def random_quadratic_problem(d, n, kappa, rng):
    """Random quadratic locals with spectra in [mu, L] = [1/kappa, 1], extremes attained.

    g = (1/(2 kappa))||.||^2.  The common mu is the smaller of 1/kappa and
    the smallest realized local mu: `eigvalsh` may return the placed
    eigenvalue 1/kappa about 1e-16 low, which at kappa = 1e4 is past
    Problem's 1e-12 relative slack.
    """
    if d < 1:
        raise InputError(f"quadratic d must be at least 1, got {d}")
    mu = 1.0 / kappa
    A, b = [], []
    for i in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = rng.uniform(mu, 1.0, size=d)
        if i == 0:
            eigs[0], eigs[-1] = mu, 1.0
        a = (q * eigs) @ q.T
        A.append(0.5 * (a + a.T))
        b.append(rng.standard_normal(d))
    batch = _BatchedQuadratic(np.stack(A), np.stack(b))
    return Problem(batch, 0.0, mu, lo=min(mu, float(batch.lo.min())), hi=1.0)
