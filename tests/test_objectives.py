"""Objectives: gradients, constants, reductions."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from locodl import data, harness
from locodl import objectives as obj
from locodl.errors import InputError

import oracle


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def finite_difference_grad(f, x, h):
    g = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        g[j] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def alone_logistic(features, labels, reg):
    """A one-client logistic problem without g, whose batched evaluators compute f itself."""
    labels = np.asarray(labels, dtype=np.float64)
    batch = obj._BatchedLogistic(features, labels, np.arange(len(labels))[None])
    return obj.Problem(batch, reg, 0.0)


def alone_quadratic(A, b, reg=0.0):
    """A one-client quadratic problem without g."""
    return obj.Problem(obj._BatchedQuadratic(A[None], b[None]), reg, 0.0)


def quadratic_clients(problem):
    """Each client's (A_i, b_i) of a quadratic problem."""
    return list(zip(problem.batch.A, problem.batch.b))


class TestGradLogistic:
    """The batched logistic gradient of one client (its weight 0.1 adds nothing at x = 0)."""

    def test_cancelling_pair_gives_zero(self):
        a = np.array([0.3, -1.2, 2.0])
        problem = alone_logistic(np.stack([a, a]), [1.0, -1.0], 0.1)
        assert np.allclose(problem.grads_locals(np.zeros(3))[0], 0.0)

    def test_single_positive_sample_at_origin(self):
        g = alone_logistic(e(0, 4)[None, :], [1.0], 0.1).grads_locals(np.zeros(4))[0]
        assert np.allclose(g, -0.5 * e(0, 4))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((7, 5))
        labels = np.where(rng.random(7) < 0.5, -1.0, 1.0)
        x = rng.standard_normal(5)
        problem = alone_logistic(features, labels, 0.1)
        g = problem.grads_locals(x)[0]
        fd = finite_difference_grad(problem.value_mean, x, 1e-6)
        assert np.linalg.norm(g - fd) <= 1e-6 * (1.0 + np.linalg.norm(g))

    def test_large_margins_stay_finite(self):
        problem = alone_logistic(np.array([[1e4]]), [1.0], 0.1)
        assert np.all(np.isfinite(problem.grads_locals(np.array([100.0]))))
        assert np.isfinite(problem.value_mean(np.array([-100.0])))


class TestSmoothness:
    """A logistic client's curvature bounds 0 and lam_max(A^T A)/(4m), and L = hi + reg."""

    def test_single_unit_sample(self):
        A, b = e(0, 3)[None, None, :], np.ones((1, 1))
        assert obj._BatchedLogistic(*oracle.unstack(A, b)).hi[0] == pytest.approx(0.25, rel=1e-8)
        assert obj.logistic_problem(*oracle.unstack(A, b), 0.01).L == pytest.approx(0.26, rel=1e-8)

    def test_at_least_mu(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((1, 6, 4))
        b = np.where(rng.random((1, 6)) < 0.5, -1.0, 1.0)
        assert obj.logistic_problem(*oracle.unstack(A, b), 0.3).L >= 0.3

    def test_zero_features_returns_mu(self):
        problem = obj.logistic_problem(np.zeros((2, 3)), np.array([1.0, -1.0]),
                                       np.arange(2)[None], 0.7)
        assert problem.L == pytest.approx(0.7)

    def test_max_eigenvalue_is_exact(self):
        # close top eigenvalues: an iterative estimate would stop below lambda_max
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
        a = np.sqrt([3.0, 2.9, 1.0])[:, None] * q.T     # a^T a = q diag(3, 2.9, 1) q^T
        assert obj.max_eigenvalue_gram(a) == pytest.approx(3.0, rel=1e-14)

    def test_csr_gram_is_the_dense_gram_on_binary_data(self, a5a_path):
        # every Gram entry of 0/1 features is an integer, which both products sum exactly
        dataset = data.load_libsvm(a5a_path)
        dense = oracle.stack(dataset, np.arange(dataset.m))
        assert obj.max_eigenvalue_gram(dataset.features) == obj.max_eigenvalue_gram(dense)

    def test_csr_gram_of_real_values_agrees_to_rounding(self, sparse_libsvm_path):
        # the sparse product sums each Gram entry in another order than BLAS
        dataset = data.load_libsvm(sparse_libsvm_path)
        dense = oracle.stack(dataset, np.arange(dataset.m))
        assert obj.max_eigenvalue_gram(dataset.features) == pytest.approx(
            obj.max_eigenvalue_gram(dense), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("csr", [False, True], ids=["stack", "block"])
class TestGramBoundRule:
    """`hi` solves a client's Gram only if its Frobenius bound could reach the largest lam_max.

    Each case runs on both batch paths: dense features (the stack's views) and their
    CSR (the block batch, which densifies one client's rows at a time)."""

    @staticmethod
    def check(A, gram_solves, csr):
        """Exact maximum, an upper bound on every client; returns the number of solves."""
        A = np.asarray(A, dtype=np.float64)
        m = A.shape[1]
        exact = np.array([obj.max_eigenvalue_gram(a) for a in A])
        gram_solves.clear()
        batch = obj._BatchedLogistic(*oracle.unstack(A, np.ones(A.shape[:2]), csr=csr))
        assert (batch._block is not None) == csr
        hi = batch.hi
        assert hi.max() == exact.max() / (4.0 * m)
        assert np.all(hi >= exact / (4.0 * m))
        # no client is solved twice
        assert 1 <= len(gram_solves) == len(set(gram_solves)) <= len(A)
        return len(gram_solves)

    def test_dense(self, gram_solves, csr):
        self.check(np.random.default_rng(0).standard_normal((5, 6, 4)), gram_solves, csr)

    def test_rank_one_clients_need_one_solve(self, gram_solves, csr):
        # a one-row Gram's Frobenius norm is its lam_max, so no other bound can exceed the top
        A = np.random.default_rng(1).standard_normal((8, 1, 5))
        assert self.check(A, gram_solves, csr) == 1

    def test_all_zero_client(self, gram_solves, csr):
        A = np.random.default_rng(2).standard_normal((4, 6, 4))
        A[2] = 0.0
        self.check(A, gram_solves, csr)
        assert self.check(np.zeros((3, 2, 4)), gram_solves, csr) == 1

    def test_identical_clients(self, gram_solves, csr):
        a = np.random.default_rng(3).standard_normal((6, 4))
        self.check(np.stack([a, a, 0.5 * a]), gram_solves, csr)

    def test_one_client(self, gram_solves, csr):
        A = np.random.default_rng(4).standard_normal((1, 6, 4))
        assert self.check(A, gram_solves, csr) == 1

    def test_order_of_clients(self, gram_solves, csr):
        A = np.random.default_rng(5).standard_normal((6, 3, 4))
        A[1] *= 1.0 + 1e-12      # near-ties
        labels = np.ones(A.shape[:2])
        hi = obj._BatchedLogistic(*oracle.unstack(A, labels, csr=csr)).hi.max()
        for order in ([5, 4, 3, 2, 1, 0], [1, 0, 3, 2, 5, 4]):
            self.check(A[order], gram_solves, csr)
            reordered = obj._BatchedLogistic(*oracle.unstack(A[order], labels, csr=csr))
            assert reordered.hi.max() == hi

    @pytest.mark.parametrize("seed", [0, 42])
    def test_a5a_stand_in(self, a5a_path, gram_solves, csr, seed):
        # with csr, the stand-in's rows as the CSR that a5a_triple's batch is built from
        dataset = data.load_libsvm(a5a_path)
        A = oracle.stack(dataset, data.partition(dataset, 87, seed))
        assert self.check(A, gram_solves, csr) < 87


class TestRegularizationForKappa:
    def _unit_shard(self):
        # single sample (2, 0): lam_max(A^T A) / (4m) = 4/4 = 1
        return obj.Shard(np.array([[2.0, 0.0]]), [1.0])

    def test_hand_solved_values(self):
        shard = self._unit_shard()
        assert obj.regularization_for_kappa(shard, 1e4) == pytest.approx(1.0 / 9999, rel=1e-8)
        assert obj.regularization_for_kappa(shard, 2.0) == pytest.approx(1.0, rel=1e-8)

    def test_round_trip_gives_kappa(self):
        rng = np.random.default_rng(5)
        shard = obj.Shard(rng.standard_normal((20, 6)),
                          np.where(rng.random(20) < 0.5, -1.0, 1.0))
        mu = obj.regularization_for_kappa(shard, 500.0)
        problem = obj.logistic_problem(shard.features, shard.labels, np.arange(shard.m)[None], mu)
        assert problem.kappa == pytest.approx(500.0, rel=1e-10)

    def test_rejects_kappa_at_most_one(self):
        with pytest.raises(InputError):
            obj.regularization_for_kappa(self._unit_shard(), 1.0)


class TestShard:
    def test_rejects_bad_labels(self):
        with pytest.raises(InputError):
            obj.Shard(np.eye(2), [1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            obj.Shard(np.zeros((0, 3)), [])


class TestLocalFunctionProperties:
    """Each family's batched gradient, one client at a time, against its constants."""

    def _problems(self):
        """A quadratic, a logistic, and the quadratic shifted by half its mu."""
        rng = np.random.default_rng(11)
        features = rng.standard_normal((8, 5))
        labels = np.where(rng.random(8) < 0.5, -1.0, 1.0)
        a = rng.standard_normal((5, 5))
        quad = alone_quadratic(a @ a.T + np.eye(5), rng.standard_normal(5), 0.2)
        logistic = alone_logistic(features, labels, 0.05)
        shifted = replace(quad, reg=quad.reg - quad.mu / 2.0)
        return [quad, logistic, shifted]

    def test_lipschitz_and_monotone_gradients(self):
        rng = np.random.default_rng(12)
        for problem in self._problems():
            for _ in range(100):
                x, xp = rng.standard_normal(5), rng.standard_normal(5)
                dg = problem.grads_locals(x)[0] - problem.grads_locals(xp)[0]
                dx = x - xp
                assert np.linalg.norm(dg) <= problem.L * np.linalg.norm(dx) * (1 + 1e-9)
                assert dg @ dx >= problem.mu * (dx @ dx) * (1 - 1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        for problem in self._problems():
            for _ in range(20):
                x = rng.standard_normal(5)
                h = 1e-6 * (1.0 + np.linalg.norm(x))
                fd = finite_difference_grad(problem.value_mean, x, h)
                g = problem.grads_locals(x)[0]
                assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))


class TestReduceGZero:
    def _problem(self):
        """Four quadratic clients and no shared function."""
        rng = np.random.default_rng(21)
        A, b = [], []
        for _ in range(4):
            a = rng.standard_normal((3, 3))
            A.append(a @ a.T + 0.5 * np.eye(3))
            b.append(rng.standard_normal(3))
        return obj.Problem(obj._BatchedQuadratic(np.stack(A), np.stack(b)), 0.0, 0.0)

    def test_pointwise_objective_identity(self):
        problem = self._problem()
        reduced = obj.reduce_g_zero(problem, problem.mu)
        rng = np.random.default_rng(22)
        for _ in range(10):
            x = rng.standard_normal(3)
            original = np.mean([oracle.quadratic_value(A, b, 0.0, x)
                                for A, b in quadratic_clients(problem)])
            assert reduced.value_mean(x) == pytest.approx(original, rel=1e-12, abs=1e-12)

    def test_constants_and_kappa_growth(self):
        problem = self._problem()
        mu, L = problem.mu, problem.L
        reduced = obj.reduce_g_zero(problem, mu)
        assert reduced.L == pytest.approx(L - mu / 2.0)
        assert reduced.mu == pytest.approx(mu / 2.0)
        kappa = L / mu
        assert kappa <= reduced.kappa <= 2.0 * kappa + 1e-9

    def test_shared_gradient_shrinks_y(self):
        problem = self._problem()
        mu = problem.mu
        reduced = obj.reduce_g_zero(problem, mu)
        y = np.array([1.0, -2.0, 3.0])
        assert np.allclose(reduced.grad_g(y), 0.5 * mu * y)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(InputError):
            obj.reduce_g_zero(self._problem(), 0.0)

    def test_rejects_a_problem_with_shared_function(self, quad_problem):
        # the reduction would drop the problem's own g from the objective
        with pytest.raises(InputError, match="without shared function"):
            obj.reduce_g_zero(quad_problem, quad_problem.mu)

    def test_quadratic_reduction_is_batched(self):
        problem = self._problem()
        reduced = obj.reduce_g_zero(problem, problem.mu)
        assert reduced.batch is problem.batch
        rng = np.random.default_rng(23)
        X = rng.standard_normal((problem.n, 3))
        clients = quadratic_clients(problem)
        manual = np.stack([oracle.quadratic_grad(A, b, -problem.mu / 2.0, X[i])
                           for i, (A, b) in enumerate(clients)])
        assert np.allclose(reduced.grads_locals(X), manual, atol=1e-12)
        x = X[0]
        manual = np.stack([oracle.quadratic_grad(A, b, -problem.mu / 2.0, x) for A, b in clients])
        assert np.allclose(reduced.grads_locals(x), manual, atol=1e-12)

    def test_preserves_minimizer(self):
        problem = self._problem()
        reduced = obj.reduce_g_zero(problem, problem.mu)
        a_bar = problem.batch.A.mean(axis=0)
        b_bar = problem.batch.b.mean(axis=0)
        x_star = np.linalg.solve(a_bar, b_bar)
        assert np.allclose(reduced.grad_mean(x_star), 0.0, atol=1e-10)


class TestProblem:
    def test_rejects_inconsistent_constants(self):
        batch = obj._BatchedQuadratic(np.eye(2)[None], np.zeros((1, 2)))   # lo = hi = 1
        with pytest.raises(InputError):
            obj.Problem(batch, 0.0, 0.1, lo=0.1, hi=0.5)

    def test_kappa(self, quad_problem):
        assert quad_problem.kappa == pytest.approx(100.0)

    def test_batched_gradients_match_per_client(self, quad_problem):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((quad_problem.n, quad_problem.d))
        batched = quad_problem.grads_locals(X)
        clients = quadratic_clients(quad_problem)
        manual = np.stack([oracle.quadratic_grad(A, b, 0.0, X[i])
                           for i, (A, b) in enumerate(clients)])
        assert np.allclose(batched, manual, atol=1e-12)
        x = rng.standard_normal(quad_problem.d)
        common = quad_problem.grads_locals(x)
        manual = np.stack([oracle.quadratic_grad(A, b, 0.0, x) for A, b in clients])
        assert np.allclose(common, manual, atol=1e-12)

    def test_value_mean_matches_loop(self, quad_problem):
        x = np.random.default_rng(32).standard_normal(quad_problem.d)
        direct = np.mean([oracle.quadratic_value(A, b, 0.0, x)
                          for A, b in quadratic_clients(quad_problem)]) \
            + 0.5 * quad_problem.g_weight * (x @ x)
        assert quad_problem.value_mean(x) == pytest.approx(direct, rel=1e-12)


class TestBatchedLogistic:
    def _stack(self, sparse):
        rng = np.random.default_rng(41)
        n, m, d = 8, 70, 122
        A, b = np.zeros((n, m, d)), np.zeros((n, m))
        for i in range(n):
            if sparse:
                for r in range(m):
                    A[i, r, rng.choice(d, size=10, replace=False)] = 1.0
            else:
                A[i] = rng.standard_normal((m, d))
            b[i] = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        return A, b

    def _problem(self, sparse):
        return obj.logistic_problem(*oracle.unstack(*self._stack(sparse), csr=sparse), 0.01)

    @pytest.mark.parametrize("sparse", [True, False])
    def test_matches_per_client_gradients(self, sparse):
        A, b = self._stack(sparse)
        problem = self._problem(sparse)
        rng = np.random.default_rng(42)
        X = rng.standard_normal((problem.n, problem.d))
        manual = np.stack([oracle.logistic_grad(a, y, 0.01, X[i])
                           for i, (a, y) in enumerate(zip(A, b))])
        assert np.allclose(problem.grads_locals(X), manual, atol=1e-10)
        x = X[0]
        manual = np.stack([oracle.logistic_grad(a, y, 0.01, x) for a, y in zip(A, b)])
        assert np.allclose(problem.grads_locals(x), manual, atol=1e-10)
        direct = np.mean([oracle.logistic_value(a, y, 0.01, x) for a, y in zip(A, b)]) \
            + 0.5 * problem.g_weight * (x @ x)
        assert problem.value_mean(x) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("sparse", [True, False])
    def test_hessian_matches_finite_differences(self, sparse):
        problem = self._problem(sparse)
        x = np.random.default_rng(43).standard_normal(problem.d) / 10.0
        h = 1e-6
        columns = [(problem.grad_mean(x + h * e(j, problem.d))
                    - problem.grad_mean(x - h * e(j, problem.d))) / (2.0 * h)
                   for j in range(problem.d)]
        assert np.allclose(problem.hessian_mean(x), np.stack(columns, axis=1), atol=1e-7)

    def test_sparse_path_is_active_for_sparse_data(self):
        problem = self._problem(sparse=True)
        assert problem.batch._block is not None
        dense = self._problem(sparse=False)
        assert dense.batch._block is None

    @pytest.mark.parametrize("m", [1, 3])
    def test_dense_gradients_equal_the_matmul_bit_for_bit(self, m):
        # zero features meet negative coefficients (label +1): the plain one-row product
        # c_i a_i gives -0.0 there, where matmul's sum gives +0.0
        rng = np.random.default_rng(44)
        n, d = 12, 9
        A = rng.dirichlet(np.ones(d), size=(n, m))
        A[:, :, ::3] = 0.0
        b = np.where(rng.random((n, m)) < 0.5, -1.0, 1.0)
        b[0] = 1.0
        batch = obj._BatchedLogistic(*oracle.unstack(A, b))
        assert batch.A is not None
        problem = obj.Problem(batch, 0.01, 0.01)
        for X in (np.zeros((n, d)), rng.standard_normal((n, d)), rng.standard_normal(d)):
            want = oracle.logistic_grads(batch, X)
            assert np.array_equal(batch.grads(X).view(np.uint64), want.view(np.uint64))
            got = problem.grads_locals(X)
            assert np.array_equal(got.view(np.uint64),
                                  oracle.grads_locals(problem, X).view(np.uint64))
            # the signed zeros that the one-row path must not pass on
            assert np.signbit(oracle.logistic_coefficients(batch, X)[:, :, None] * A).any()


class TestStackedValue:
    """`value_mean` and `mean_value` of an (R, d) stack equal one call per row, and the
    one-point oracle, bit for bit."""

    @staticmethod
    def _problems(quad_problem):
        yield "quadratic", quad_problem
        yield "folded", obj.fold_shared(quad_problem)
        for sparse in (False, True):
            problem = TestBatchedLogistic()._problem(sparse)
            assert (problem.batch._block is not None) == sparse
            yield "sparse" if sparse else "dense", problem

    def test_stack_equals_each_row(self, quad_problem):
        rng = np.random.default_rng(44)
        for name, problem in self._problems(quad_problem):
            for rows in (1, 2, 17):
                X = rng.standard_normal((rows, problem.d)) * 10.0 ** rng.integers(-3, 2)
                values = problem.value_mean(X)
                losses = problem.batch.mean_value(X)
                assert values.shape == losses.shape == (rows,)
                for r in range(rows):
                    point = problem.value_mean(X[r])
                    assert type(point) is float
                    assert point == values[r] == oracle.value_mean(problem, X[r]), name
                    assert problem.batch.mean_value(X[r:r + 1])[0] == losses[r], name


class TestLogisticCoefficient:
    """The coefficient (-b/m) / (1 + exp(min(b t, 700))) of the gradient at margins t.

    A batch whose one client has the m x m identity as features has margins X
    and gradient exactly the coefficient vector; dense features take the
    stack and CSR features the block.
    """

    m = 300

    @staticmethod
    def _coefficients(t, b, csr):
        batch = obj._BatchedLogistic(*oracle.unstack(np.eye(t.size)[None], b[None], csr=csr))
        assert (batch._block is not None) == csr
        return batch.grads(t[None])[0]

    @pytest.mark.parametrize("csr", [False, True])
    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e2])
    def test_within_a_few_ulp_of_the_expit_form(self, scale, csr):
        m = self.m
        rng = np.random.default_rng(int(scale * 1e3))
        t = scale * rng.standard_normal(m)
        b = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        reference = -b * expit(-b * t) / m
        ulps = np.abs(self._coefficients(t, b, csr) - reference) / np.spacing(np.abs(reference))
        assert ulps.max() <= 4

    @pytest.mark.parametrize("csr", [False, True])
    def test_huge_margins_raise_no_warning(self, csr):
        m = self.m
        t = np.resize([1e3, -1e3, 1e300, -1e300], m)
        b = np.resize([1.0, 1.0, -1.0, -1.0], m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = self._coefficients(t, b, csr)
        saturated = b * t < 0
        assert np.array_equal(c[saturated], -b[saturated] / m)
        assert np.all(np.abs(c[~saturated]) < 1e-300)

    @pytest.mark.parametrize("csr", [False, True])
    def test_nan_margin_gives_nan_gradient(self, csr):
        t = np.zeros(self.m)
        t[3] = np.nan
        assert np.isnan(self._coefficients(t, np.ones(self.m), csr)[3])


class TestExpit:
    """`objectives._expit`, the Hessian's sigmoid, against `scipy.special.expit` bit for bit."""

    @staticmethod
    def _assert_bitwise_expit(x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = obj._expit(x)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), expit(x).view(np.uint64))

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
    def test_random_draws(self, scale):
        rng = np.random.default_rng(int(scale * 1e3))
        self._assert_bitwise_expit(scale * rng.standard_normal(100_000))

    def test_edges(self):
        log_max = obj._LOG_DBL_MAX
        assert math.isfinite(math.exp(log_max))
        with pytest.raises(OverflowError):
            math.exp(np.nextafter(log_max, np.inf))
        tiny = np.finfo(np.float64).tiny
        edges = np.array([0.0, np.inf, np.nan, 5e-324, tiny / 2, tiny, 745.0, 746.0, 710.0,
                          np.nextafter(log_max, 0.0), log_max, np.nextafter(log_max, np.inf)])
        self._assert_bitwise_expit(np.concatenate((edges, -edges)))


class TestSparseLogisticGradient:
    """The sparse batch against the formula of the stored-transpose design, bit for bit."""

    @staticmethod
    def _stack(seed):
        """(A, b) of a block-sparse (n, m, d) stack with empty rows and columns."""
        rng = np.random.default_rng(seed)
        n, m, d = 6, 90, 140
        A = np.zeros((n, m, d))
        for i in range(n):
            for r in range(m):
                count = rng.integers(0, 25)      # a zero count leaves the row empty
                A[i, r, rng.choice(d - 5, size=count, replace=False)] = rng.standard_normal(count)
        A[:, rng.integers(m), :] = 0.0
        A[:, :, 7] = 0.0                         # empty columns: 7, and the last 5 never drawn
        b = np.where(rng.random((n, m)) < 0.5, -1.0, 1.0)
        return A, b

    @classmethod
    def _problem(cls, seed):
        return cls._problem_of(*cls._stack(seed))

    @staticmethod
    def _problem_of(A, b):
        problem = obj.Problem(obj._BatchedLogistic(*oracle.unstack(A, b, csr=True)), 0.01, 0.0)
        assert problem.batch._block is not None
        return problem

    @staticmethod
    def _oracle(problem, X):
        batch = problem.batch
        block = batch._block
        flat = X.ravel() if X.ndim == 2 else np.tile(X, batch.n)
        margins = (block @ flat).reshape(batch.b.shape)
        c = (-batch.b / batch.m) / (1.0 + np.exp(np.minimum(batch.b * margins, 700.0)))
        return (block.T.tocsr() @ c.ravel()).reshape(batch.n, batch.d) + problem.reg * X

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grads_equal_the_explicit_formula(self, seed):
        problem = self._problem(seed)
        rng = np.random.default_rng(100 + seed)
        for scale in (1e-3, 1e-1, 1.0, 1e2):
            X = scale * rng.standard_normal((problem.n, problem.d))
            assert np.array_equal(problem.grads_locals(X), self._oracle(problem, X))
            x = scale * rng.standard_normal(problem.d)
            assert np.array_equal(problem.grads_locals(x), self._oracle(problem, x))

    @staticmethod
    def _assert_block_diag(batch, A):
        """The batch's block is `sparse.block_diag` of the clients' CSRs, array for array."""
        from scipy import sparse
        expected = sparse.block_diag([sparse.csr_matrix(a) for a in A], format="csr")
        block = batch._block
        assert block.shape == expected.shape
        for name in ("data", "indices", "indptr"):
            got, want = getattr(block, name), getattr(expected, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert block.has_sorted_indices == expected.has_sorted_indices
        assert block.has_canonical_format == expected.has_canonical_format

    @pytest.mark.parametrize("seed, zero_client", [(0, None), (1, None), (2, 3), (4, 0)])
    def test_block_equals_block_diag(self, seed, zero_client):
        A, b = self._stack(seed)
        if zero_client is not None:
            A[zero_client] = 0.0
        self._assert_block_diag(self._problem_of(A, b).batch, A)

    def test_a5a_block_equals_block_diag(self, a5a_path):
        config = harness.ExperimentConfig(problem={"source": "libsvm", "path": a5a_path},
                                          n=87, kappa=1000.0)
        problem, _ = harness.build_problem(config)
        dataset = data.load_libsvm(a5a_path)
        self._assert_block_diag(problem.batch,
                               oracle.stack(dataset, data.partition(dataset, 87, 0)))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_hessian_equals_the_multiply_form(self, seed):
        problem = self._problem(seed)
        batch = problem.batch
        rng = np.random.default_rng(200 + seed)
        # at scale 1e3 most margins pass 745, where expit(-t) and so w underflow to 0
        for scale in (0.0, 1e-3, 1.0, 30.0, 1e3):
            x = scale * rng.standard_normal(problem.d)
            margins = batch._margins(x).ravel()
            w = expit(margins) * expit(-margins) / (batch.n * batch.m)
            if scale == 1e3:
                assert 0 < np.count_nonzero(w) < w.size
            expected = (batch._flat.T @ batch._flat.multiply(w[:, None])).toarray()
            assert np.array_equal(batch.hessian_mean(x), expected)

    def test_one_stored_copy_of_the_features(self):
        batch = self._problem(3).batch
        block = batch._block
        for view in (batch._block_t, batch._flat):
            assert np.shares_memory(view.data, block.data)
            assert np.shares_memory(view.indptr, block.indptr)
        assert np.shares_memory(batch._block_t.indices, block.indices)


class TestStackFreeBuild:
    """A batch built from the dataset rows a partition selects equals `oracle.stack_batch`,
    which builds it from the (n, m, d) stack of those rows, array for array."""

    @staticmethod
    def _assert_equals_the_stack_built(batch, dataset, rows):
        expected = oracle.stack_batch(dataset, rows)
        assert (batch._block is None) == (expected._block is None)
        for name in ("hi", "lo", "b"):
            assert np.array_equal(getattr(batch, name), getattr(expected, name)), name
        if batch._block is None:
            assert np.array_equal(batch.A, oracle.stack(dataset, rows))
            return
        for matrix in ("_flat", "_block"):
            assert getattr(batch, matrix).shape == getattr(expected, matrix).shape
            for name in ("data", "indices", "indptr"):
                got, want = (getattr(getattr(b, matrix), name) for b in (batch, expected))
                assert got.dtype == want.dtype, (matrix, name)
                assert np.array_equal(got, want), (matrix, name)

    @pytest.mark.parametrize("seed", [0, 42])
    def test_a5a_stand_in_through_the_harness(self, a5a_path, seed):
        config = harness.ExperimentConfig(problem={"source": "libsvm", "path": a5a_path},
                                          n=87, kappa=1000.0, data_seed=seed)
        problem, _ = harness.build_problem(config)
        assert problem.batch._block is not None
        dataset = data.load_libsvm(a5a_path)
        self._assert_equals_the_stack_built(problem.batch, dataset,
                                            data.partition(dataset, 87, seed))

    @pytest.mark.parametrize("n, seed", [(1, 0), (4, 3), (7, 5)])
    def test_sparse_file(self, sparse_libsvm_path, n, seed):
        dataset = data.load_libsvm(sparse_libsvm_path)
        rows = data.partition(dataset, n, seed)
        batch = obj._BatchedLogistic(dataset.features, dataset.labels, rows)
        assert batch._block is not None
        self._assert_equals_the_stack_built(batch, dataset, rows)

    def test_small_csr_data_take_the_block_path(self, sparse_libsvm_path):
        # 500 rows of 60 features: CSR data take the block path however few their entries
        full = data.load_libsvm(sparse_libsvm_path)
        dataset = obj.Shard(full.features[:500], full.labels[:500])
        rows = data.partition(dataset, 5, 1)
        batch = obj._BatchedLogistic(dataset.features, dataset.labels, rows)
        assert batch._block is not None
        self._assert_equals_the_stack_built(batch, dataset, rows)

    def test_dense_data(self):
        dataset = data.dirichlet_synthetic(25, 50, 1.0, 7)
        rows = data.partition(dataset, 25, 7)
        batch = obj._BatchedLogistic(dataset.features, dataset.labels, rows)
        self._assert_equals_the_stack_built(batch, dataset, rows)

    def test_dense_data_with_90_percent_zeros_keep_the_stack(self):
        rng = np.random.default_rng(8)
        features = rng.standard_normal((1000, 70)) * (rng.random((1000, 70)) < 0.1)
        dataset = obj.Shard(features, np.where(rng.random(1000) < 0.5, -1.0, 1.0))
        rows = data.partition(dataset, 10, 8)
        batch = obj._BatchedLogistic(dataset.features, dataset.labels, rows)
        assert batch._block is None
        self._assert_equals_the_stack_built(batch, dataset, rows)


class TestFolding:
    def test_fold_shared_preserves_objective(self, quad_problem):
        folded = obj.fold_shared(quad_problem)
        rng = np.random.default_rng(51)
        for _ in range(5):
            x = rng.standard_normal(quad_problem.d)
            assert folded.value_mean(x) == pytest.approx(quad_problem.value_mean(x), rel=1e-12)
        assert folded.mu == pytest.approx(quad_problem.mu + quad_problem.g_weight)

    def test_folded_logistic_doubles_regularization(self):
        rng = np.random.default_rng(52)
        A = rng.standard_normal((2, 4, 3))
        b = np.where(rng.random((2, 4)) < 0.5, -1.0, 1.0)
        plain = obj.logistic_problem(*oracle.unstack(A, b), 0.1)
        folded = obj.fold_shared(plain)
        assert folded.mu == pytest.approx(2 * plain.mu)
        x = rng.standard_normal(3)
        assert folded.value_mean(x) == pytest.approx(plain.value_mean(x), rel=1e-12)


class TestQuadraticHelpers:
    def test_minimizer_closed_form(self):
        A, b = np.diag([1.0, 2.0]), np.array([1.0, 2.0])
        assert np.allclose(oracle.quadratic_minimizer(A, b), [1.0, 1.0])
        assert np.allclose(alone_quadratic(A, b).grad_mean(oracle.quadratic_minimizer(A, b)), 0.0)

    def test_quadratic_minimizer_of_problem(self, quad_problem):
        x_star = harness.solve_reference(quad_problem).x_star
        assert np.linalg.norm(quad_problem.grad_mean(x_star)) <= 1e-10
        A = quad_problem.batch.A.mean(axis=0)
        b = quad_problem.batch.b.mean(axis=0)
        closed_form = np.linalg.solve(A + quad_problem.g_weight * np.eye(quad_problem.d), b)
        assert np.allclose(x_star, closed_form, rtol=1e-12, atol=1e-12)

    def test_quadratic_hessian(self, quad_problem):
        A = quad_problem.batch.A.mean(axis=0)
        x = np.ones(quad_problem.d)
        expected = A + quad_problem.g_weight * np.eye(quad_problem.d)
        assert np.allclose(quad_problem.hessian_mean(x), expected, rtol=0, atol=1e-15)
        # the reduction moves mu/2 between the locals and g; the sum is unchanged
        reduced = obj.reduce_g_zero(replace(quad_problem, g_weight=0.0), quad_problem.mu)
        assert np.allclose(reduced.hessian_mean(x), A, rtol=0, atol=1e-15)

    def test_hessian_mean_leaves_the_cached_means(self, quad_problem):
        batch = quad_problem.batch
        x = np.linspace(-1.0, 1.0, quad_problem.d)
        value = batch.mean_value(x[None])
        first = batch.hessian_mean(x)
        second = batch.hessian_mean(x)
        assert np.array_equal(first, second)
        assert np.array_equal(batch.mean_value(x[None]), value)
        assert np.array_equal(batch.A_bar, np.mean(batch.A, axis=0))

    @pytest.mark.parametrize("d", [10, 50])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_problem_builds_at_large_kappa(self, d, seed):
        # eigvalsh returns the placed mu = 1e-4 up to ~1e-12 relative low on some seeds
        problem = obj.random_quadratic_problem(d, 10, 1e4, np.random.default_rng(seed))
        assert problem.mu <= 1e-4
        assert problem.mu == pytest.approx(1e-4, rel=1e-10)
        assert np.all(problem.batch.lo >= problem.mu)
        # L = 1 is returned up to an ulp or two high, far inside Problem's 1e-12 slack
        assert np.all(problem.batch.hi <= problem.L * (1 + 1e-12))

    def test_random_problem_constants(self, quad_problem):
        assert quad_problem.L == pytest.approx(1.0)
        assert quad_problem.mu == pytest.approx(0.01)
        assert np.all(quad_problem.batch.hi <= quad_problem.L * (1 + 1e-9))
        assert np.all(quad_problem.batch.lo >= quad_problem.mu * (1 - 1e-9))
