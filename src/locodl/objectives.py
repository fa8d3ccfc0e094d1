"""Strongly convex objectives: regularized logistic regression and quadratics.

A local function holds its data, its regularization weight and its
smoothness / strong convexity constants; it has no evaluator of its own.  A
`Problem` bundles n local functions with the shared regularizer
g(x) = (c/2)||x||^2, stored as its weight c, and the common (L, mu)
constants used by all stepsize schedules.  Values, gradients and Hessians
are evaluated only through the problem, batched with numpy across clients:
a problem's locals must be all logistic with equal shard size or all
quadratic, each family with one regularization weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import expit

from .errors import InputError


def _as_2d(a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise InputError("feature matrix must be 2-dimensional")
    return a


@dataclass(frozen=True)
class Shard:
    """One client's slice of a binary classification dataset."""

    features: np.ndarray  # (m, d)
    labels: np.ndarray    # (m,), entries in {-1, +1}

    def __post_init__(self):
        object.__setattr__(self, "features", _as_2d(self.features))
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

    @cached_property
    def gram_max_eigenvalue(self):
        """Largest eigenvalue of A^T A, solved once per shard."""
        return max_eigenvalue_gram(self.features)


def max_eigenvalue_gram(features):
    """Largest eigenvalue of A^T A, computed exactly from the d x d Gram matrix."""
    a = _as_2d(features)
    return float(np.linalg.eigvalsh(a.T @ a)[-1])


def logistic_smoothness(shard, mu):
    """Smoothness constant lam_max(A^T A) / (4m) + mu of the regularized loss."""
    return shard.gram_max_eigenvalue / (4.0 * shard.m) + mu


def regularization_for_kappa(dataset, kappa_target):
    """Regularization weight mu giving condition number kappa_target on the whole dataset's shard."""
    if kappa_target <= 1:
        raise InputError("kappa_target must exceed 1")
    return dataset.gram_max_eigenvalue / (4.0 * dataset.m * (kappa_target - 1.0))


class LogisticFunction:
    def __init__(self, shard, mu):
        self.shard = shard
        self.reg = float(mu)
        self.L = logistic_smoothness(shard, mu)
        self.mu = float(mu)


class QuadraticFunction:
    """f(x) = x^T A x / 2 - b^T x + (mu/2)||x||^2 with A symmetric PSD.

    The local function of `random_quadratic_problem`: a problem of such
    locals has its minimizer in closed form, the solution of one linear system.
    """

    def __init__(self, A, b, mu=0.0):
        self.A = np.asarray(A, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.reg = float(mu)
        if self.A.shape[0] != self.A.shape[1] or self.b.shape != (self.A.shape[0],):
            raise InputError("quadratic needs a square A and matching b")
        eigs = np.linalg.eigvalsh(self.A)
        self.L = float(eigs[-1]) + self.reg
        self.mu = float(eigs[0]) + self.reg


class ShiftedFunction:
    """base(x) - (c/2)||x||^2, still convex as long as c <= base.mu."""

    def __init__(self, base, c):
        if c > base.mu:
            raise InputError("shift exceeds the strong convexity of the base function")
        self.base = base
        self.c = float(c)
        self.L = base.L - self.c
        self.mu = base.mu - self.c


class _BatchedLogistic:
    """Vectorized per-client gradients for logistic locals with equal shard sizes.

    The features are stored once.  Dense data are one (n, m, d) stack.
    Sparse data (typical for one-hot encodings) are one block-diagonal CSR
    matrix, so that one sparse matvec computes every client's margins
    against its own model; A^T c goes through the block's transpose, a CSC
    view of the same arrays.  A flat (n*m, d) CSR that shares the block's
    values and row pointers, with column indices taken modulo d, serves a
    common (d,) point and the Hessian.
    """

    _SPARSE_DENSITY = 0.25
    # exp(700) ~ 1e304 is finite, so capped margins never overflow and the
    # coefficient needs no errstate; past the cap the true value is below 1e-304
    _LOGIT_CAP = 700.0

    def __init__(self, A, b, reg):
        self.b = b          # (n, m)
        self.reg = reg
        self.n, self.m, self.d = A.shape
        self.A = A          # (n, m, d), or None once the sparse block replaces it
        self._block = None
        if A.size > 1 << 16 and np.count_nonzero(A) < self._SPARSE_DENSITY * A.size:
            from scipy import sparse
            self._block = sparse.block_diag([sparse.csr_matrix(a) for a in A], format="csr")
            # a CSC view of the block's arrays, built once: scipy's .T costs tens of us per call
            self._block_t = self._block.T
            self._flat = sparse.csr_matrix(
                (self._block.data, self._block.indices % self.d, self._block.indptr),
                shape=(self.n * self.m, self.d))
            self.A = None
        self._coef = -b / self.m

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
            g = (self._block_t @ c.ravel()).reshape(self.n, self.d)
        else:
            g = np.matmul(c[:, None, :], self.A)[:, 0, :]
        return g + self.reg * X

    def hessian_mean(self, x):
        """Hessian of `mean_value` at a common (d,) point, as a dense (d, d) array.

        Every client's rows share one d-dimensional space, so the Hessian is
        built from the features as one flat (n*m, d) matrix.
        """
        margins = self._margins(x).ravel()
        w = expit(margins) * expit(-margins) / (self.n * self.m)
        if self._block is not None:
            H = (self._flat.T @ self._flat.multiply(w[:, None])).toarray()
        else:
            flat = self.A.reshape(-1, self.d)
            H = (flat.T * w) @ flat
        H[np.diag_indices(self.d)] += self.reg
        return H

    def mean_value(self, x):
        losses = np.logaddexp(0.0, -self.b.ravel() * self._margins(x).ravel())
        return float(losses.sum() / losses.size) + 0.5 * self.reg * float(x @ x)


class _BatchedQuadratic:
    """Vectorized per-client gradients for homogeneous quadratic locals."""

    def __init__(self, A, b, reg):
        self.A = A      # (n, d, d)
        self.b = b      # (n, d)
        self.reg = reg
        self.A_bar = A.mean(axis=0)     # mean_value's terms, computed once
        self.b_bar = b.mean(axis=0)

    def grads(self, X):
        if X.ndim == 1:
            return np.matmul(self.A, X) - self.b + self.reg * X[None, :]
        return np.matmul(self.A, X[:, :, None])[:, :, 0] - self.b + self.reg * X

    def hessian_mean(self, x):
        """Hessian of `mean_value`, the same at every point."""
        H = self.A_bar.copy()
        H[np.diag_indices_from(H)] += self.reg
        return H

    def mean_value(self, x):
        return float(0.5 * x @ (self.A_bar @ x) - self.b_bar @ x + 0.5 * self.reg * (x @ x))


def _stack(locals_):
    """One vectorized batch for all locals.

    A ShiftedFunction stacks as its base with regularization weight reg - c.
    Raises InputError for locals that do not stack: mixed families, unequal
    shard sizes or unequal regularization weights.
    """
    bases = [f.base if isinstance(f, ShiftedFunction) else f for f in locals_]
    shifts = [f.c if isinstance(f, ShiftedFunction) else 0.0 for f in locals_]
    families = {type(f) for f in bases}
    if families not in ({LogisticFunction}, {QuadraticFunction}):
        names = sorted(t.__name__ for t in families)
        raise InputError(f"locals must be all logistic or all quadratic, got {names}")
    regs = {f.reg - c for f, c in zip(bases, shifts)}
    if len(regs) != 1:
        raise InputError("locals must share one regularization weight")
    if families == {QuadraticFunction}:
        return _BatchedQuadratic(np.stack([f.A for f in bases]),
                                 np.stack([f.b for f in bases]), regs.pop())
    if len({f.shard.m for f in bases}) != 1:
        raise InputError("logistic locals must have equal shard sizes")
    return _BatchedLogistic(np.stack([f.shard.features for f in bases]),
                            np.stack([f.shard.labels for f in bases]), regs.pop())


@dataclass
class Problem:
    """n local functions plus g(x) = (g_weight/2)||x||^2, with common constants (L, mu).

    A zero weight marks a folded problem (baseline convention), whose
    locals carry the whole regularizer.
    """

    locals: list
    g_weight: float
    d: int
    L: float
    mu: float
    _batch: object = field(init=False, repr=False)

    def __post_init__(self):
        if not (0 < self.mu <= self.L):
            raise InputError("problem constants must satisfy 0 < mu <= L")
        if not (0.0 <= self.g_weight <= self.L * (1 + 1e-12)):
            raise InputError("the shared weight must lie in [0, L]")
        for f in self.locals:
            if f.L > self.L * (1 + 1e-12) or f.mu < self.mu * (1 - 1e-12):
                raise InputError("a local function violates the common (L, mu) constants")
        self._batch = _stack(self.locals)

    @property
    def n(self):
        return len(self.locals)

    @property
    def kappa(self):
        return self.L / self.mu

    def grads_locals(self, X):
        """Per-client gradients.  X is (n, d) for distinct points or (d,) for a common one."""
        return self._batch.grads(np.asarray(X, dtype=np.float64))

    def grad_g(self, y):
        return self.g_weight * y

    def value_mean(self, x):
        """(1/n) sum_i f_i(x) + g(x)."""
        x = np.asarray(x, dtype=np.float64)
        return self._batch.mean_value(x) + 0.5 * self.g_weight * float(x @ x)

    def grad_mean(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self.grads_locals(x).sum(axis=0) / self.n + self.grad_g(x)

    def hessian_mean(self, x):
        """Hessian of `value_mean` at x."""
        H = self._batch.hessian_mean(np.asarray(x, dtype=np.float64))
        H[np.diag_indices(self.d)] += self.g_weight
        return H


def logistic_problem(shards, mu):
    """Problem with f_i = logistic_i + (mu/2)||.||^2 and g = (mu/2)||.||^2.

    The common L is the largest per-client smoothness constant, so that
    every local function actually satisfies it.
    """
    locals_ = [LogisticFunction(s, mu) for s in shards]
    return Problem(locals_, float(mu), shards[0].d, float(max(f.L for f in locals_)), float(mu))


def folded_logistic_problem(shards, mu):
    """Baseline convention: g folded into every f_i via a twice larger regularizer."""
    locals_ = [LogisticFunction(s, 2.0 * mu) for s in shards]
    return Problem(locals_, 0.0, shards[0].d, float(max(f.L for f in locals_)), 2.0 * float(mu))


def fold_shared(problem):
    """Absorb the shared squared norm into every local (baseline convention)."""
    c = problem.g_weight
    folded = []
    for f in problem.locals:
        if isinstance(f, LogisticFunction):
            folded.append(LogisticFunction(f.shard, f.reg + c))
        elif isinstance(f, QuadraticFunction):
            folded.append(QuadraticFunction(f.A, f.b, f.reg + c))
        else:
            raise InputError(f"cannot fold shared function into {type(f).__name__}")
    return Problem(folded, 0.0, problem.d, problem.L + c, problem.mu + c)


def reduce_g_zero(locals_only, mu):
    """Split plain averaging of the f_i into locals plus a shared quadratic.

    Returns the problem with locals f_i - (mu/4)||.||^2 and g = (mu/4)||.||^2,
    whose objective equals (1/n) sum f_i pointwise.
    """
    if mu <= 0:
        raise InputError("the reduction needs strictly positive strong convexity")
    shifted = [ShiftedFunction(f, mu / 2.0) for f in locals_only]
    L = max(f.L for f in locals_only)
    d = None
    for f in locals_only:
        if isinstance(f, LogisticFunction):
            d = f.shard.d
        elif isinstance(f, QuadraticFunction):
            d = f.b.shape[0]
    if d is None:
        raise InputError("cannot infer the dimension of the local functions")
    return Problem(shifted, mu / 2.0, d, L - mu / 2.0, mu / 2.0)


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
    locals_ = []
    for i in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = rng.uniform(mu, 1.0, size=d)
        if i == 0:
            eigs[0], eigs[-1] = mu, 1.0
        A = (q * eigs) @ q.T
        A = 0.5 * (A + A.T)
        b = rng.standard_normal(d)
        locals_.append(QuadraticFunction(A, b, 0.0))
    return Problem(locals_, mu, d, 1.0, min(mu, *(f.mu for f in locals_)))
