"""Strongly convex objectives: regularized logistic regression and quadratics.

Every local function exposes `value`, `grad`, and its smoothness / strong
convexity constants.  A `Problem` bundles n local functions with a shared
function g and the common (L, mu) constants used by all stepsize schedules.
Gradient evaluation across clients is always batched with numpy: a problem's
locals must be all logistic with equal shard size or all quadratic, each
family with one regularization weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def max_eigenvalue_gram(features):
    """Largest eigenvalue of A^T A, computed exactly from the d x d Gram matrix."""
    a = _as_2d(features)
    return float(np.linalg.eigvalsh(a.T @ a)[-1])


def logistic_loss(x, shard, mu):
    """Mean logistic loss over the shard plus (mu/2)||x||^2."""
    margins = shard.features @ x
    # log(1 + exp(-b * a^T x)) via the stable log-sum-exp
    losses = np.logaddexp(0.0, -shard.labels * margins)
    return float(np.mean(losses) + 0.5 * mu * float(x @ x))


def grad_logistic(x, shard, mu):
    """Gradient of the regularized mean logistic loss."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (shard.d,):
        raise InputError(f"x has dimension {x.shape}, shard rows have dimension {shard.d}")
    if mu < 0:
        raise InputError("mu must be nonnegative")
    margins = shard.features @ x
    # d/dt log(1+exp(-t)) = -sigmoid(-t)
    coeffs = -shard.labels * expit(-shard.labels * margins)
    return shard.features.T @ coeffs / shard.m + mu * x


def logistic_smoothness(shard, mu):
    """Smoothness constant lam_max(A^T A) / (4m) + mu of the regularized loss."""
    return max_eigenvalue_gram(shard.features) / (4.0 * shard.m) + mu


def regularization_for_kappa(shard_union, kappa_target):
    """Regularization weight mu giving condition number kappa_target on this data."""
    if kappa_target <= 1:
        raise InputError("kappa_target must exceed 1")
    lam = max_eigenvalue_gram(shard_union.features)
    return lam / (4.0 * shard_union.m * (kappa_target - 1.0))


class LocalFunction:
    """Interface for a smooth, strongly convex local objective."""

    L: float
    mu: float

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError


class LogisticFunction(LocalFunction):
    def __init__(self, shard, mu):
        self.shard = shard
        self.reg = float(mu)
        self.L = logistic_smoothness(shard, mu)
        self.mu = float(mu)

    def value(self, x):
        return logistic_loss(x, self.shard, self.reg)

    def grad(self, x):
        return grad_logistic(x, self.shard, self.reg)


class QuadraticFunction(LocalFunction):
    """f(x) = x^T A x / 2 - b^T x + (mu/2)||x||^2 with A symmetric PSD.

    Used as a test objective: the minimizer solves (A + mu I) x = b exactly.
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

    def value(self, x):
        return float(0.5 * x @ (self.A @ x) - self.b @ x + 0.5 * self.reg * (x @ x))

    def grad(self, x):
        return self.A @ x - self.b + self.reg * x

    def minimizer(self):
        d = self.A.shape[0]
        return np.linalg.solve(self.A + self.reg * np.eye(d), self.b)


class ScaledNormFunction(LocalFunction):
    """f(x) = (c/2)||x||^2; the usual shared regularizer."""

    def __init__(self, c):
        if c < 0:
            raise InputError("coefficient must be nonnegative")
        self.c = float(c)
        self.L = self.c
        self.mu = self.c

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * self.c * float(x @ x)

    def grad(self, x):
        return self.c * np.asarray(x, dtype=np.float64)


class ShiftedFunction(LocalFunction):
    """base(x) - (c/2)||x||^2, still convex as long as c <= base.mu."""

    def __init__(self, base, c):
        if c > base.mu:
            raise InputError("shift exceeds the strong convexity of the base function")
        self.base = base
        self.c = float(c)
        self.L = base.L - self.c
        self.mu = base.mu - self.c

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self.base.value(x) - 0.5 * self.c * float(x @ x)

    def grad(self, x):
        return self.base.grad(x) - self.c * np.asarray(x, dtype=np.float64)


class _BatchedLogistic:
    """Vectorized per-client gradients for logistic locals with equal shard sizes.

    The features are stored once: dense data as one (n, m, d) stack, sparse
    data (typical for one-hot encodings) as a block-diagonal CSR matrix and
    its transpose, so that one sparse matvec computes every client's margins
    against its own model.
    """

    _SPARSE_DENSITY = 0.25

    def __init__(self, A, b, reg):
        self.b = b          # (n, m)
        self.reg = reg
        self.n, self.m, self.d = A.shape
        self.A = A          # (n, m, d), or None once the sparse block replaces it
        self._block = None
        if A.size > 1 << 16 and np.count_nonzero(A) < self._SPARSE_DENSITY * A.size:
            from scipy import sparse
            self._block = sparse.block_diag([sparse.csr_matrix(a) for a in A], format="csr")
            self._block_t = self._block.T.tocsr()
            self.A = None

    def _margins(self, X):
        """(n, m) margins of each client's rows at its own point, or at a common (d,) point."""
        if self._block is not None:
            flat = X.ravel() if X.ndim == 2 else X[None].repeat(self.n, axis=0).ravel()
            return (self._block @ flat).reshape(self.b.shape)
        if X.ndim == 1:
            return (self.A.reshape(-1, self.d) @ X).reshape(self.b.shape)
        return np.matmul(self.A, X[..., None])[..., 0]

    def grads(self, X):
        c = -self.b * expit(-self.b * self._margins(X)) / self.m
        if self._block is not None:
            g = (self._block_t @ c.ravel()).reshape(self.n, self.d)
        else:
            g = np.matmul(c[:, None, :], self.A)[:, 0, :]
        return g + self.reg * X

    def hessian_mean(self, x):
        """Hessian of `mean_value` at a common (d,) point, as a dense (d, d) array.

        Every client's rows share one d-dimensional space, so the Hessian is
        built from the features as one flat (n*m, d) matrix; sparse data reuse
        the block's CSR arrays with column indices taken modulo d.
        """
        margins = self._margins(x).ravel()
        w = expit(margins) * expit(-margins) / (self.n * self.m)
        if self._block is not None:
            from scipy import sparse
            block = self._block
            flat = sparse.csr_matrix((block.data, block.indices % self.d, block.indptr),
                                     shape=(self.n * self.m, self.d))
            H = (flat.T @ flat.multiply(w[:, None])).toarray()
        else:
            flat = self.A.reshape(-1, self.d)
            H = (flat.T * w) @ flat
        H[np.diag_indices(self.d)] += self.reg
        return H

    def mean_value(self, x):
        margins = self._margins(x).ravel()
        loss = float(np.mean(np.logaddexp(0.0, -self.b.ravel() * margins)))
        return loss + 0.5 * self.reg * float(x @ x)


class _BatchedQuadratic:
    """Vectorized per-client gradients for homogeneous quadratic locals."""

    def __init__(self, A, b, reg):
        self.A = A      # (n, d, d)
        self.b = b      # (n, d)
        self.reg = reg

    def grads(self, X):
        if X.ndim == 1:
            return np.matmul(self.A, X) - self.b + self.reg * X[None, :]
        return np.matmul(self.A, X[:, :, None])[:, :, 0] - self.b + self.reg * X

    def hessian_mean(self, x):
        """Hessian of `mean_value`, the same at every point."""
        H = self.A.mean(axis=0)
        H[np.diag_indices_from(H)] += self.reg
        return H

    def mean_value(self, x):
        A_bar = self.A.mean(axis=0)
        b_bar = self.b.mean(axis=0)
        return float(0.5 * x @ (A_bar @ x) - b_bar @ x + 0.5 * self.reg * (x @ x))


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
    """n local functions plus a shared function g with common constants (L, mu)."""

    locals: list
    shared_g: LocalFunction
    d: int
    L: float
    mu: float
    _batch: object = field(init=False, repr=False)

    def __post_init__(self):
        if not (0 < self.mu <= self.L):
            raise InputError("problem constants must satisfy 0 < mu <= L")
        for f in self.locals:
            if f.L > self.L * (1 + 1e-12) or f.mu < self.mu * (1 - 1e-12):
                raise InputError("a local function violates the common (L, mu) constants")
        # a zero shared function marks a folded problem; skip its constants check
        if self.shared_g.L > 0.0 or self.shared_g.mu > 0.0:
            if self.shared_g.L > self.L * (1 + 1e-12) or self.shared_g.mu < self.mu * (1 - 1e-12):
                raise InputError("shared function violates the common (L, mu) constants")
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
        return self.shared_g.grad(y)

    def value_mean(self, x):
        """(1/n) sum_i f_i(x) + g(x)."""
        x = np.asarray(x, dtype=np.float64)
        return self._batch.mean_value(x) + self.shared_g.value(x)

    def grad_mean(self, x):
        return self.grads_locals(np.asarray(x, dtype=np.float64)).mean(axis=0) + self.grad_g(x)

    def hessian_mean(self, x):
        """Hessian of `value_mean` at x; the shared function must be a squared norm."""
        if not isinstance(self.shared_g, ScaledNormFunction):
            raise InputError("the Hessian needs a squared-norm shared function")
        H = self._batch.hessian_mean(np.asarray(x, dtype=np.float64))
        H[np.diag_indices(self.d)] += self.shared_g.c
        return H


def logistic_problem(shards, mu, L=None):
    """Problem with f_i = logistic_i + (mu/2)||.||^2 and g = (mu/2)||.||^2.

    The common L defaults to the largest per-client smoothness constant so
    that every local function actually satisfies it.
    """
    locals_ = [LogisticFunction(s, mu) for s in shards]
    if L is None:
        L = max(f.L for f in locals_)
    return Problem(locals_, ScaledNormFunction(mu), shards[0].d, float(L), float(mu))


def folded_logistic_problem(shards, mu, L=None):
    """Baseline convention: g folded into every f_i via a twice larger regularizer."""
    locals_ = [LogisticFunction(s, 2.0 * mu) for s in shards]
    if L is None:
        L = max(f.L for f in locals_)
    return Problem(locals_, ScaledNormFunction(0.0), shards[0].d, float(L), 2.0 * float(mu))


def fold_shared(problem):
    """Absorb a squared-norm shared function into every local (baseline convention)."""
    if not isinstance(problem.shared_g, ScaledNormFunction):
        raise InputError("can only fold a squared-norm shared function")
    c = problem.shared_g.c
    folded = []
    for f in problem.locals:
        if isinstance(f, LogisticFunction):
            folded.append(LogisticFunction(f.shard, f.reg + c))
        elif isinstance(f, QuadraticFunction):
            folded.append(QuadraticFunction(f.A, f.b, f.reg + c))
        else:
            raise InputError(f"cannot fold shared function into {type(f).__name__}")
    return Problem(folded, ScaledNormFunction(0.0), problem.d,
                   problem.L + c, problem.mu + c)


def reduce_g_zero(locals_only, mu):
    """Split plain averaging of the f_i into locals plus a shared quadratic.

    Returns the problem with locals f_i - (mu/4)||.||^2 and g = (mu/4)||.||^2,
    whose objective equals (1/n) sum f_i pointwise.
    """
    if mu <= 0:
        raise InputError("the reduction needs strictly positive strong convexity")
    shifted = [ShiftedFunction(f, mu / 2.0) for f in locals_only]
    g = ScaledNormFunction(mu / 2.0)
    L = max(f.L for f in locals_only)
    d = None
    for f in locals_only:
        if isinstance(f, LogisticFunction):
            d = f.shard.d
        elif isinstance(f, QuadraticFunction):
            d = f.b.shape[0]
    if d is None:
        raise InputError("cannot infer the dimension of the local functions")
    return Problem(shifted, g, d, L - mu / 2.0, mu / 2.0)


def random_quadratic_problem(d, n, kappa, rng, g_coeff=None):
    """Random quadratic locals with spectra in [mu, L] = [1/kappa, 1], extremes attained."""
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
    c = mu if g_coeff is None else g_coeff
    prob = Problem(locals_, ScaledNormFunction(c), d, 1.0, mu)
    return prob
