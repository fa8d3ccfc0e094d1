"""Objectives: gradients, constants, reductions."""

import numpy as np
import pytest
from scipy.special import expit

from locodl import harness
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


def alone(f, d):
    """A one-client problem, whose batched evaluators compute f itself."""
    return obj.Problem([f], 0.0, d, f.L, f.mu)


class TestGradLogistic:
    """The batched logistic gradient of one client (its weight 0.1 adds nothing at x = 0)."""

    def test_cancelling_pair_gives_zero(self):
        a = np.array([0.3, -1.2, 2.0])
        shard = obj.Shard(np.stack([a, a]), [1.0, -1.0])
        problem = alone(obj.LogisticFunction(shard, 0.1), 3)
        assert np.allclose(problem.grads_locals(np.zeros(3))[0], 0.0)

    def test_single_positive_sample_at_origin(self):
        shard = obj.Shard(e(0, 4)[None, :], [1.0])
        g = alone(obj.LogisticFunction(shard, 0.1), 4).grads_locals(np.zeros(4))[0]
        assert np.allclose(g, -0.5 * e(0, 4))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        shard = obj.Shard(rng.standard_normal((7, 5)),
                          np.where(rng.random(7) < 0.5, -1.0, 1.0))
        x = rng.standard_normal(5)
        problem = alone(obj.LogisticFunction(shard, 0.1), 5)
        g = problem.grads_locals(x)[0]
        fd = finite_difference_grad(problem.value_mean, x, 1e-6)
        assert np.linalg.norm(g - fd) <= 1e-6 * (1.0 + np.linalg.norm(g))

    def test_large_margins_stay_finite(self):
        problem = alone(obj.LogisticFunction(obj.Shard(np.array([[1e4]]), [1.0]), 0.1), 1)
        assert np.all(np.isfinite(problem.grads_locals(np.array([100.0]))))
        assert np.isfinite(problem.value_mean(np.array([-100.0])))


class TestSmoothness:
    def test_single_unit_sample(self):
        shard = obj.Shard(e(0, 3)[None, :], [1.0])
        assert obj.logistic_smoothness(shard, 0.0) == pytest.approx(0.25, rel=1e-8)
        assert obj.logistic_smoothness(shard, 0.01) == pytest.approx(0.26, rel=1e-8)

    def test_at_least_mu(self):
        rng = np.random.default_rng(0)
        shard = obj.Shard(rng.standard_normal((6, 4)),
                          np.where(rng.random(6) < 0.5, -1.0, 1.0))
        assert obj.logistic_smoothness(shard, 0.3) >= 0.3

    def test_zero_features_returns_mu(self):
        shard = obj.Shard(np.zeros((2, 3)), [1.0, -1.0])
        assert obj.logistic_smoothness(shard, 0.7) == pytest.approx(0.7)

    def test_max_eigenvalue_is_exact(self):
        # close top eigenvalues: an iterative estimate would stop below lambda_max
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
        a = np.sqrt([3.0, 2.9, 1.0])[:, None] * q.T     # a^T a = q diag(3, 2.9, 1) q^T
        assert obj.max_eigenvalue_gram(a) == pytest.approx(3.0, rel=1e-14)


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
        assert obj.logistic_smoothness(shard, mu) / mu == pytest.approx(500.0, rel=1e-10)

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

    def _functions(self):
        rng = np.random.default_rng(11)
        shard = obj.Shard(rng.standard_normal((8, 5)),
                          np.where(rng.random(8) < 0.5, -1.0, 1.0))
        a = rng.standard_normal((5, 5))
        quad = obj.QuadraticFunction(a @ a.T + np.eye(5), rng.standard_normal(5), 0.2)
        logistic = obj.LogisticFunction(shard, 0.05)
        shifted = obj.ShiftedFunction(quad, quad.mu / 2.0)
        return [quad, logistic, shifted]

    def test_lipschitz_and_monotone_gradients(self):
        rng = np.random.default_rng(12)
        for f in self._functions():
            problem = alone(f, 5)
            for _ in range(100):
                x, xp = rng.standard_normal(5), rng.standard_normal(5)
                dg = problem.grads_locals(x)[0] - problem.grads_locals(xp)[0]
                dx = x - xp
                assert np.linalg.norm(dg) <= f.L * np.linalg.norm(dx) * (1 + 1e-9)
                assert dg @ dx >= f.mu * (dx @ dx) * (1 - 1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        for f in self._functions():
            problem = alone(f, 5)
            for _ in range(20):
                x = rng.standard_normal(5)
                h = 1e-6 * (1.0 + np.linalg.norm(x))
                fd = finite_difference_grad(problem.value_mean, x, h)
                g = problem.grads_locals(x)[0]
                assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))


class TestReduceGZero:
    def _locals(self):
        rng = np.random.default_rng(21)
        out = []
        for _ in range(4):
            a = rng.standard_normal((3, 3))
            out.append(obj.QuadraticFunction(a @ a.T + 0.5 * np.eye(3),
                                             rng.standard_normal(3), 0.0))
        return out

    def test_pointwise_objective_identity(self):
        locals_ = self._locals()
        mu = min(f.mu for f in locals_)
        reduced = obj.reduce_g_zero(locals_, mu)
        rng = np.random.default_rng(22)
        for _ in range(10):
            x = rng.standard_normal(3)
            original = np.mean([oracle.value(f, x) for f in locals_])
            assert reduced.value_mean(x) == pytest.approx(original, rel=1e-12, abs=1e-12)

    def test_constants_and_kappa_growth(self):
        locals_ = self._locals()
        mu = min(f.mu for f in locals_)
        L = max(f.L for f in locals_)
        reduced = obj.reduce_g_zero(locals_, mu)
        assert reduced.L == pytest.approx(L - mu / 2.0)
        assert reduced.mu == pytest.approx(mu / 2.0)
        kappa = L / mu
        assert kappa <= reduced.kappa <= 2.0 * kappa + 1e-9

    def test_shared_gradient_shrinks_y(self):
        locals_ = self._locals()
        mu = min(f.mu for f in locals_)
        reduced = obj.reduce_g_zero(locals_, mu)
        y = np.array([1.0, -2.0, 3.0])
        assert np.allclose(reduced.grad_g(y), 0.5 * mu * y)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(InputError):
            obj.reduce_g_zero(self._locals(), 0.0)

    def test_quadratic_reduction_is_batched(self):
        locals_ = self._locals()
        mu = min(f.mu for f in locals_)
        reduced = obj.reduce_g_zero(locals_, mu)
        assert isinstance(reduced._batch, obj._BatchedQuadratic)
        rng = np.random.default_rng(23)
        X = rng.standard_normal((len(locals_), 3))
        manual = np.stack([oracle.grad(f, X[i]) for i, f in enumerate(reduced.locals)])
        assert np.allclose(reduced.grads_locals(X), manual, atol=1e-12)
        x = X[0]
        manual = np.stack([oracle.grad(f, x) for f in reduced.locals])
        assert np.allclose(reduced.grads_locals(x), manual, atol=1e-12)

    def test_preserves_minimizer(self):
        locals_ = self._locals()
        mu = min(f.mu for f in locals_)
        reduced = obj.reduce_g_zero(locals_, mu)
        a_bar = np.mean([f.A for f in locals_], axis=0)
        b_bar = np.mean([f.b for f in locals_], axis=0)
        x_star = np.linalg.solve(a_bar, b_bar)
        assert np.allclose(reduced.grad_mean(x_star), 0.0, atol=1e-10)


class TestProblem:
    def test_rejects_inconsistent_constants(self):
        f = obj.QuadraticFunction(np.eye(2), np.zeros(2), 0.0)   # L = mu = 1
        with pytest.raises(InputError):
            obj.Problem([f], 0.1, 2, 0.5, 0.1)

    def test_rejects_locals_that_do_not_stack(self):
        rng = np.random.default_rng(33)
        quad = obj.QuadraticFunction(np.eye(3), np.zeros(3), 0.1)
        logistic = obj.LogisticFunction(obj.Shard(rng.standard_normal((4, 3)),
                                                  [1.0, -1.0, 1.0, -1.0]), 0.1)
        short = obj.LogisticFunction(obj.Shard(rng.standard_normal((2, 3)), [1.0, -1.0]), 0.1)
        other_reg = obj.QuadraticFunction(np.eye(3), np.zeros(3), 0.2)
        g = 0.0
        with pytest.raises(InputError, match="all logistic or all quadratic"):
            obj.Problem([quad, logistic], g, 3, 10.0, 0.1)
        with pytest.raises(InputError, match="shard sizes"):
            obj.Problem([logistic, short], g, 3, 10.0, 0.1)
        with pytest.raises(InputError, match="regularization weight"):
            obj.Problem([quad, other_reg], g, 3, 10.0, 0.1)

    def test_kappa(self, quad_problem):
        assert quad_problem.kappa == pytest.approx(100.0)

    def test_batched_gradients_match_per_client(self, quad_problem):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((quad_problem.n, quad_problem.d))
        batched = quad_problem.grads_locals(X)
        manual = np.stack([oracle.grad(f, X[i]) for i, f in enumerate(quad_problem.locals)])
        assert np.allclose(batched, manual, atol=1e-12)
        x = rng.standard_normal(quad_problem.d)
        common = quad_problem.grads_locals(x)
        manual = np.stack([oracle.grad(f, x) for f in quad_problem.locals])
        assert np.allclose(common, manual, atol=1e-12)

    def test_value_mean_matches_loop(self, quad_problem):
        x = np.random.default_rng(32).standard_normal(quad_problem.d)
        direct = np.mean([oracle.value(f, x) for f in quad_problem.locals]) \
            + 0.5 * quad_problem.g_weight * (x @ x)
        assert quad_problem.value_mean(x) == pytest.approx(direct, rel=1e-12)


class TestBatchedLogistic:
    def _problem(self, sparse):
        rng = np.random.default_rng(41)
        n, m, d = 8, 70, 122   # n*m*d > 2^16 so the sparse path can trigger
        shards = []
        for _ in range(n):
            if sparse:
                feats = np.zeros((m, d))
                for r in range(m):
                    feats[r, rng.choice(d, size=10, replace=False)] = 1.0
            else:
                feats = rng.standard_normal((m, d))
            labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
            shards.append(obj.Shard(feats, labels))
        return obj.logistic_problem(shards, 0.01)

    @pytest.mark.parametrize("sparse", [True, False])
    def test_matches_per_client_gradients(self, sparse):
        problem = self._problem(sparse)
        rng = np.random.default_rng(42)
        X = rng.standard_normal((problem.n, problem.d))
        manual = np.stack([oracle.grad(f, X[i]) for i, f in enumerate(problem.locals)])
        assert np.allclose(problem.grads_locals(X), manual, atol=1e-10)
        x = X[0]
        manual = np.stack([oracle.grad(f, x) for f in problem.locals])
        assert np.allclose(problem.grads_locals(x), manual, atol=1e-10)
        direct = np.mean([oracle.value(f, x) for f in problem.locals]) \
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
        assert problem._batch._block is not None
        dense = self._problem(sparse=False)
        assert dense._batch._block is None


class TestSparseLogisticGradient:
    """The sparse batch against the formula of the stored-transpose design, bit for bit."""

    @staticmethod
    def _batch(seed):
        rng = np.random.default_rng(seed)
        n, m, d = 6, 90, 140     # n*m*d > 2^16 and density < 1/4: the sparse path
        A = np.zeros((n, m, d))
        for i in range(n):
            for r in range(m):
                count = rng.integers(0, 25)      # a zero count leaves the row empty
                A[i, r, rng.choice(d - 5, size=count, replace=False)] = rng.standard_normal(count)
        A[:, rng.integers(m), :] = 0.0
        A[:, :, 7] = 0.0                         # empty columns: 7, and the last 5 never drawn
        b = np.where(rng.random((n, m)) < 0.5, -1.0, 1.0)
        batch = obj._BatchedLogistic(A, b, 0.01)
        assert batch._block is not None
        return batch

    @staticmethod
    def _oracle(batch, X):
        block = batch._block
        flat = X.ravel() if X.ndim == 2 else np.tile(X, batch.n)
        margins = (block @ flat).reshape(batch.b.shape)
        c = -batch.b * expit(-batch.b * margins) / batch.m
        return (block.T.tocsr() @ c.ravel()).reshape(batch.n, batch.d) + batch.reg * X

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grads_equal_the_explicit_formula(self, seed):
        batch = self._batch(seed)
        rng = np.random.default_rng(100 + seed)
        for scale in (1e-3, 1e-1, 1.0, 1e2):
            X = scale * rng.standard_normal((batch.n, batch.d))
            assert np.array_equal(batch.grads(X), self._oracle(batch, X))
            x = scale * rng.standard_normal(batch.d)
            assert np.array_equal(batch.grads(x), self._oracle(batch, x))

    def test_one_stored_copy_of_the_features(self):
        batch = self._batch(3)
        block = batch._block
        for view in (batch._block_t, batch._flat):
            assert np.shares_memory(view.data, block.data)
            assert np.shares_memory(view.indptr, block.indptr)
        assert np.shares_memory(batch._block_t.indices, block.indices)


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
        shards = [obj.Shard(rng.standard_normal((4, 3)),
                            np.where(rng.random(4) < 0.5, -1.0, 1.0)) for _ in range(2)]
        plain = obj.logistic_problem(shards, 0.1)
        folded = obj.folded_logistic_problem(shards, 0.1)
        assert folded.mu == pytest.approx(2 * plain.mu)
        x = rng.standard_normal(3)
        assert folded.value_mean(x) == pytest.approx(plain.value_mean(x), rel=1e-12)


class TestQuadraticHelpers:
    def test_minimizer_closed_form(self):
        f = obj.QuadraticFunction(np.diag([1.0, 2.0]), np.array([1.0, 2.0]), 0.0)
        assert np.allclose(oracle.minimizer(f), [1.0, 1.0])
        assert np.allclose(alone(f, 2).grad_mean(oracle.minimizer(f)), 0.0)

    def test_quadratic_minimizer_of_problem(self, quad_problem):
        x_star = harness.solve_reference(quad_problem).x_star
        assert np.linalg.norm(quad_problem.grad_mean(x_star)) <= 1e-10
        A = np.mean([f.A for f in quad_problem.locals], axis=0)
        b = np.mean([f.b for f in quad_problem.locals], axis=0)
        closed_form = np.linalg.solve(A + quad_problem.g_weight * np.eye(quad_problem.d), b)
        assert np.allclose(x_star, closed_form, rtol=1e-12, atol=1e-12)

    def test_quadratic_hessian(self, quad_problem):
        A = np.mean([f.A for f in quad_problem.locals], axis=0)
        x = np.ones(quad_problem.d)
        expected = A + quad_problem.g_weight * np.eye(quad_problem.d)
        assert np.allclose(quad_problem.hessian_mean(x), expected, rtol=0, atol=1e-15)
        # the reduction moves mu/2 between the locals and g; the sum is unchanged
        reduced = obj.reduce_g_zero(quad_problem.locals, quad_problem.mu)
        assert np.allclose(reduced.hessian_mean(x), A, rtol=0, atol=1e-15)

    def test_hessian_mean_leaves_the_cached_means(self, quad_problem):
        batch = quad_problem._batch
        x = np.linspace(-1.0, 1.0, quad_problem.d)
        value = batch.mean_value(x)
        first = batch.hessian_mean(x)
        second = batch.hessian_mean(x)
        assert np.array_equal(first, second)
        assert batch.mean_value(x) == value
        assert np.array_equal(batch.A_bar, np.mean(batch.A, axis=0))

    @pytest.mark.parametrize("d", [10, 50])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_problem_builds_at_large_kappa(self, d, seed):
        # eigvalsh returns the placed mu = 1e-4 up to ~1e-12 relative low on some seeds
        problem = obj.random_quadratic_problem(d, 10, 1e4, np.random.default_rng(seed))
        assert problem.mu <= 1e-4
        assert problem.mu == pytest.approx(1e-4, rel=1e-10)
        for f in problem.locals:
            assert f.mu >= problem.mu
            # L = 1 is returned up to an ulp or two high, far inside Problem's 1e-12 slack
            assert f.L <= problem.L * (1 + 1e-12)

    def test_random_problem_constants(self, quad_problem):
        assert quad_problem.L == pytest.approx(1.0)
        assert quad_problem.mu == pytest.approx(0.01)
        for f in quad_problem.locals:
            assert f.L <= quad_problem.L * (1 + 1e-9)
            assert f.mu >= quad_problem.mu * (1 - 1e-9)
