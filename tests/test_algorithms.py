"""Algorithm steps: schedules, contraction diagnostics, invariants, baselines."""

from dataclasses import replace

import numpy as np
import pytest

from locodl import algorithms as alg
from locodl import harness
from locodl import objectives as obj
from locodl.compressors import K_KINDS, KINDS, NATURAL_KINDS, make_spec
from locodl.errors import ConfigurationError

import oracle


def identity_params(L, mu):
    return alg.default_params(L, mu, 0.0, 0.0)


@pytest.fixture(scope="module")
def quad_setup(quad_problem):
    """Problem, reference, rand-1 spec and default params for the 10x5 quadratic."""
    ref = harness.solve_reference(quad_problem)
    spec = make_spec("rand_k", quad_problem.d, k=1)
    params = alg.default_params(quad_problem.L, quad_problem.mu,
                                spec.omega, spec.omega / quad_problem.n)
    return quad_problem, ref, spec, params


class TestSchedules:
    def test_identity_schedule(self):
        p = alg.default_params(1.0, 1e-4, 0.0, 0.0)
        assert p.gamma == 1.0
        assert p.chi == p.rho == 1.0
        assert p.p == pytest.approx(0.01)

    def test_probability_clamps_at_one(self):
        p = alg.default_params(1.0, 0.9, 2.0, 0.5)
        assert p.p == 1.0

    def test_rand_k_closed_form_matches_generic(self):
        # the a5a schedule: independent rand-2 on d = 122 across n = 87 clients
        d, n, k, kappa = 122, 87, 2, 1e4
        omega = d / k - 1.0
        generic = alg.default_params(1.0, 1.0 / kappa, omega, omega / n)
        chi = n / (n - 1.0 + d / k)
        p = np.sqrt((d * k * (n - 1.0) + d * d) / (n * k * k * kappa))
        assert generic.chi == pytest.approx(chi, rel=1e-12)
        assert generic.rho == pytest.approx(chi, rel=1e-12)
        assert generic.p == pytest.approx(p, rel=1e-12)
        assert generic.chi == generic.rho == pytest.approx(87.0 / 147.0, rel=1e-9)
        assert generic.p == pytest.approx(0.101523, abs=1e-5)

    def test_dual_step_closed_form(self):
        p = alg.AlgoParams(0.5, 0.8, 0.9, 0.3, 2.0, 0.25)
        assert p.dual_step == pytest.approx(0.3 * 0.8 / (0.5 * 5.0))

    def test_validate_rejects_bad_gamma(self):
        p = alg.AlgoParams(2.5, 1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError, match="gamma"):
            p.validate(1.0)

    def test_validate_rejects_chi_condition(self):
        p = alg.AlgoParams(0.5, 5.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError, match="2\\*rho"):
            p.validate(1.0)

    def test_validate_rejects_bad_probability(self):
        p = alg.AlgoParams(0.5, 0.5, 1.0, 1.5, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            p.validate(1.0)


class TestRateBound:
    def test_perfectly_conditioned(self):
        p = alg.AlgoParams(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
        assert alg.rate_bound(p, 1.0, 1.0) == 0.0

    def test_hand_evaluation(self):
        # max((1 - 1e-4)^2, 0, 1 - 0.01^2) = 1 - 1e-4
        p = alg.AlgoParams(1.0, 1.0, 1.0, 0.01, 0.0, 0.0)
        assert alg.rate_bound(p, 1.0, 1e-4) == pytest.approx(1.0 - 1e-4)

    def test_valid_params_contract(self, quad_setup):
        problem, _, _, params = quad_setup
        assert alg.rate_bound(params, problem.L, problem.mu) < 1.0

    def test_invalid_stepsize_raises(self):
        p = alg.AlgoParams(2.0, 1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            alg.rate_bound(p, 1.0, 0.5)


class TestLoCoDLStep:
    def test_one_exact_step_on_symmetric_quadratic(self):
        problem = obj.Problem(obj._BatchedQuadratic(np.eye(3)[None], np.zeros((1, 3))), 0.0, 1.0)
        params = alg.AlgoParams(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
        state = alg.LoCoDLState.zeros(1, 3)
        state.x[0] = state.y = np.array([1.0, -2.0, 0.5])
        spec = make_spec("identity", 3)
        alg.locodl_step(state, problem, spec, params, alg.RngBundle.from_seed(0))
        assert np.allclose(state.x, 0.0)
        assert np.allclose(state.y, 0.0)

    def test_fixed_point_is_invariant(self, quad_setup):
        problem, ref, spec, params = quad_setup
        n = problem.n
        state = alg.LoCoDLState(np.tile(ref.x_star, (n, 1)), ref.x_star.copy(),
                                ref.u_star.copy(), ref.v_star.copy())
        rng = alg.RngBundle.from_seed(1)
        for _ in range(50):
            alg.locodl_step(state, problem, spec, params, rng)
        assert np.allclose(state.x, ref.x_star[None, :], atol=1e-10)
        assert np.allclose(state.y, ref.x_star, atol=1e-10)
        assert np.allclose(state.u, ref.u_star, atol=1e-10)

    def test_dual_feasibility_over_long_run(self, quad_setup):
        problem, _, spec, params = quad_setup
        state = alg.LoCoDLState.zeros(problem.n, problem.d)
        rng = alg.RngBundle.from_seed(2)
        for _ in range(1000):
            alg.locodl_step(state, problem, spec, params, rng)
        scale = 1.0 + float(np.max(np.abs(state.u)))
        assert state.max_dual_residual <= 1e-9 * scale

    def test_no_communication_keeps_duals_constant(self, quad_setup):
        problem, _, spec, params = quad_setup

        class NeverHeads:
            def random(self):
                return 1.0

        rng = alg.RngBundle.from_seed(3)
        rng.coin = NeverHeads()
        state = alg.LoCoDLState.zeros(problem.n, problem.d)
        state.x += 1.0
        u0, v0 = state.u.copy(), state.v.copy()
        for _ in range(20):
            assert alg.locodl_step(state, problem, spec, params, rng) is False
        assert np.array_equal(state.u, u0)
        assert np.array_equal(state.v, v0)

    def test_identity_round_reaches_consensus(self, quad_problem):
        n, d = quad_problem.n, quad_problem.d
        spec = make_spec("identity", d)
        params = alg.AlgoParams(1.0 / quad_problem.L, 1.0, 1.0, 1.0, 0.0, 0.0)
        state = alg.LoCoDLState.zeros(n, d)
        state.x += np.random.default_rng(4).standard_normal((n, d))
        assert alg.locodl_step(state, quad_problem, spec, params, alg.RngBundle.from_seed(4)) \
            is True
        for i in range(n):
            assert np.allclose(state.x[i], state.y, atol=1e-12)

    def test_rejects_invalid_params_before_running(self, quad_setup):
        problem, _, spec, _ = quad_setup
        bad = alg.AlgoParams(3.0 / problem.L, 1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            alg.rate_bound(bad, problem.L, problem.mu)


class StubCoin:
    """A coin that always draws `value`: 0.0 forces a round, 0.9999999 forbids one."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@pytest.fixture(scope="module")
def step_problems(quad_problem, a5a_path):
    """The quadratic fixture, a Dirichlet problem (one row per client, the dense stack)
    and the a5a stand-in (CSR, the block batch)."""
    def logistic(source, n):
        config = harness.ExperimentConfig(problem=source, n=n, kappa=1e3, data_seed=7)
        return harness.build_problem(config)[0]

    problems = {"quadratic": quad_problem,
                "dirichlet": logistic({"source": "dirichlet", "d": 20, "alpha": 1.0}, 10),
                "a5a": logistic({"source": "libsvm", "path": a5a_path}, 87)}
    assert problems["dirichlet"].batch.m == 1 and problems["dirichlet"].batch.A is not None
    assert problems["a5a"].batch._block is not None
    return problems


class TestLeanStep:
    """`locodl_step` against `oracle.locodl_step`, which makes every update a fresh array."""

    # the last scale overflows the natural exponent range once scaled by d/k
    SCALES = (1e-3, 1.0, 1e2, 1e39)

    @staticmethod
    def _random_state(draw, n, d, scale):
        return alg.LoCoDLState(scale * draw.standard_normal((n, d)), scale * draw.standard_normal(d),
                               scale * draw.standard_normal((n, d)), scale * draw.standard_normal(d),
                               int(draw.integers(0, 3)), float(draw.choice([0.0, draw.random()])))

    @pytest.mark.parametrize("heads", [True, False], ids=["round", "no_round"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", ["quadratic", "dirichlet", "a5a"])
    def test_equals_the_fresh_array_reference_bit_for_bit(self, step_problems, name, kind,
                                                           heads):
        problem = step_problems[name]
        n, d = problem.n, problem.d
        spec = make_spec(kind, d, k=2 if kind in K_KINDS else None)
        schedules = (alg.default_params(problem.L, problem.mu, spec.omega, spec.omega / n),
                     alg.AlgoParams(0.3 / problem.L, 0.4, 0.6, 0.5, spec.omega, spec.omega / n))
        draw = np.random.default_rng(KINDS.index(kind))
        saturated = False
        for trial, (params, scale) in enumerate((p, s) for p in schedules for s in self.SCALES):
            state = self._random_state(draw, n, d, scale)
            ref = alg.LoCoDLState(*(a.copy() for a in (state.x, state.y, state.u, state.v)),
                                  state.saturation_events, state.max_dual_residual)
            held = (state.x, state.y, state.u, state.v)
            before, events = [a.copy() for a in held], state.saturation_events
            rngs = [alg.RngBundle.from_seed(trial) for _ in range(2)]
            for rng in rngs:
                rng.coin = StubCoin(0.0 if heads else 0.9999999)
            assert alg.locodl_step(state, problem, spec, params, rngs[0]) is heads
            assert oracle.locodl_step(ref, problem, spec, params, rngs[1]) is heads
            for field in ("x", "y", "u", "v"):
                got, want = getattr(state, field), getattr(ref, field)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), field
            assert state.saturation_events == ref.saturation_events
            assert state.max_dual_residual == ref.max_dual_residual
            assert rngs[0].rounds.bit_generator.state == rngs[1].rounds.bit_generator.state
            saturated |= state.saturation_events > events
            # the step replaces the state's arrays and writes into none of them
            for array, copy in zip(held, before):
                assert np.array_equal(array.view(np.uint64), copy.view(np.uint64))
        if heads and kind in NATURAL_KINDS:
            assert saturated

    @pytest.mark.parametrize("kind", ["identity", "rand_k"])
    @pytest.mark.parametrize("name", ["quadratic", "dirichlet"])
    def test_a_trajectory_equals_the_reference_step_by_step(self, step_problems, name, kind):
        """Steps that reuse gamma*u and gamma*v match the reference: across rounds, a
        gamma that changes between rounds, and a u or a v replaced from outside."""
        problem = step_problems[name]
        n, d = problem.n, problem.d
        spec = make_spec(kind, d, k=2 if kind in K_KINDS else None)
        default = alg.default_params(problem.L, problem.mu, spec.omega, spec.omega / n)
        slower = replace(default, gamma=0.5 * default.gamma)
        state, ref = alg.LoCoDLState.zeros(n, d), alg.LoCoDLState.zeros(n, d)
        rngs = [alg.RngBundle.from_seed(11) for _ in range(2)]
        for t in range(120):
            # a round every 7th step; each change below follows a step without one
            heads = t % 7 == 0
            for rng in rngs:
                rng.coin = StubCoin(0.0 if heads else 0.9999999)
            params = default if (t // 30) % 2 == 0 else slower
            if t in (75, 95):   # new duals, as a caller that edits a state must give them
                field = "u" if t == 75 else "v"
                shift = np.random.default_rng(t).standard_normal(getattr(state, field).shape)
                setattr(state, field, getattr(state, field) + shift)
                setattr(ref, field, getattr(ref, field) + shift)
            assert alg.locodl_step(state, problem, spec, params, rngs[0]) is heads
            assert oracle.locodl_step(ref, problem, spec, params, rngs[1]) is heads
            for field in ("x", "y", "u", "v"):
                got, want = getattr(state, field), getattr(ref, field)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (t, field)
            assert state.max_dual_residual == ref.max_dual_residual

    def test_dual_residual_equals_the_reference(self):
        draw = np.random.default_rng(3)
        for n, d in ((1, 1), (5, 10), (87, 122)):
            for scale in (1e-9, 1.0, 1e30):
                state = self._random_state(draw, n, d, scale)
                assert state.dual_residual() == oracle.dual_residual(state)


class TestLyapunov:
    def test_zero_at_fixed_point(self, quad_setup):
        problem, ref, _, params = quad_setup
        state = alg.LoCoDLState(np.tile(ref.x_star, (problem.n, 1)), ref.x_star.copy(),
                                ref.u_star.copy(), ref.v_star.copy())
        assert oracle.lyapunov_of(state, ref, params) == pytest.approx(0.0, abs=1e-20)

    def test_hand_computed_value(self):
        ref = alg.ReferenceSolution(np.zeros(2), np.zeros((1, 2)), np.zeros(2), 0.0, 0.0)
        params = alg.AlgoParams(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
        state = alg.LoCoDLState(np.array([[1.0, 0.0]]), np.array([1.0, 0.0]),
                                np.zeros((1, 2)), np.zeros(2))
        assert oracle.lyapunov_of(state, ref, params) == pytest.approx(2.0)

    @pytest.mark.parametrize("n, d", [(5, 10), (87, 122)])    # n * d past numpy's 8192 block
    def test_a_stack_equals_each_row_and_the_one_state_oracle(self, n, d):
        rng = np.random.default_rng(n)
        ref = alg.ReferenceSolution(rng.standard_normal(d), rng.standard_normal((n, d)),
                                    rng.standard_normal(d), 0.0, 0.0)
        params = alg.AlgoParams(0.3, 0.7, 0.7, 0.2, 4.0, 0.8)
        states = [alg.LoCoDLState(*(rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 4)
                                    for shape in ((n, d), d, (n, d), d))) for _ in range(9)]
        xu, yv = (np.concatenate(stacks) for stacks in zip(*map(oracle.state_stacks, states)))
        values = alg.lyapunov(xu, yv, ref, params)
        assert values.shape == (9,)
        for r, state in enumerate(states):
            assert alg.lyapunov(xu[r:r + 1], yv[r:r + 1], ref, params)[0] == values[r]
            assert alg.lyapunov(xu[r], yv[r], ref, params) == values[r]     # one iterate
            assert oracle.lyapunov(state, ref, params) == values[r]

    def test_nonnegative(self, quad_setup):
        problem, ref, spec, params = quad_setup
        state = alg.LoCoDLState.zeros(problem.n, problem.d)
        rng = alg.RngBundle.from_seed(8)
        for _ in range(100):
            alg.locodl_step(state, problem, spec, params, rng)
            assert oracle.lyapunov_of(state, ref, params) >= 0.0


class TestGD:
    def test_one_step_on_unit_quadratic(self):
        problem = obj.Problem(obj._BatchedQuadratic(np.eye(2)[None], np.zeros((1, 2))), 0.0, 0.0)
        state = alg.BaselineState(np.array([3.0, -4.0]))
        assert alg.gd_step(state, problem, 1.0) is True
        assert np.allclose(state.x, 0.0)

    def test_zero_stepsize_is_identity(self, quad_problem):
        state = alg.BaselineState(np.ones(quad_problem.d))
        alg.gd_step(state, quad_problem, 0.0)
        assert np.array_equal(state.x, np.ones(quad_problem.d))

    def test_contraction_on_known_quadratic(self):
        A, b = np.diag([0.5, 2.0]), np.array([1.0, 1.0])
        problem = obj.Problem(obj._BatchedQuadratic(A[None], b[None]), 0.0, 0.0)
        x_star = oracle.quadratic_minimizer(A, b)
        gamma = 1.0 / problem.L
        rate = max(1.0 - gamma * problem.mu, gamma * problem.L - 1.0) ** 2
        state = alg.BaselineState(np.zeros(2))
        err = float(np.sum((state.x - x_star) ** 2))
        for _ in range(100):
            alg.gd_step(state, problem, gamma)
            new_err = float(np.sum((state.x - x_star) ** 2))
            if err < 1e-18:   # below this the per-step factor drowns in rounding
                break
            assert new_err <= rate * err * (1 + 1e-6) + 1e-30
            err = new_err


class TestDiana:
    def _two_client_quadratic(self):
        rng = np.random.default_rng(71)
        A, b = [], []
        for _ in range(2):
            a = rng.standard_normal((4, 4))
            A.append(a @ a.T + 0.3 * np.eye(4))
            b.append(rng.standard_normal(4))
        return obj.Problem(obj._BatchedQuadratic(np.stack(A), np.stack(b)), 0.0, 0.0)

    def test_identity_reduces_to_gd(self):
        problem = self._two_client_quadratic()
        spec = make_spec("identity", 4)
        gamma = 0.5 / problem.L
        diana = alg.BaselineState(np.zeros(4), np.zeros((2, 4)))
        gd = alg.BaselineState(np.zeros(4))
        rng = alg.RngBundle.from_seed(9)
        for _ in range(100):
            assert alg.diana_step(diana, problem, spec, gamma, rng) is True
            alg.gd_step(gd, problem, gamma)
            assert np.allclose(diana.x, gd.x, atol=1e-12)

    def test_fixed_point_invariant(self):
        problem = self._two_client_quadratic()
        ref = harness.solve_reference(problem)
        spec = make_spec("rand_k", 4, k=1)
        state = alg.BaselineState(ref.x_star.copy(), ref.u_star.copy())
        rng = alg.RngBundle.from_seed(10)
        for _ in range(50):
            alg.diana_step(state, problem, spec, alg.diana_gamma(problem.L, problem.mu, 3.0, 2), rng)
        assert np.allclose(state.x, ref.x_star, atol=1e-10)
        assert np.allclose(state.h, ref.u_star, atol=1e-10)

    def test_linear_convergence_with_rand_one(self):
        problem = self._two_client_quadratic()
        ref = harness.solve_reference(problem)
        spec = make_spec("rand_k", 4, k=1)
        gamma = alg.diana_gamma(problem.L, problem.mu, spec.omega, 2)
        state = alg.BaselineState(np.zeros(4), np.zeros((2, 4)))
        rng = alg.RngBundle.from_seed(11)
        log_err = []
        for t in range(10_000):
            alg.diana_step(state, problem, spec, gamma, rng)
            if t % 100 == 0:
                err = float(np.sum((state.x - ref.x_star) ** 2))
                if err < 1e-24:
                    break
                log_err.append((t, np.log(err)))
        ts = np.array([t for t, _ in log_err])
        ys = np.array([y for _, y in log_err])
        slope, intercept = np.polyfit(ts, ys, 1)
        fitted = slope * ts + intercept
        ss_res = float(np.sum((ys - fitted) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        assert slope < 0.0
        assert 1.0 - ss_res / ss_tot >= 0.99


class TestScaffnew:
    def test_single_client_p_one_is_gd(self):
        batch = obj._BatchedQuadratic(np.diag([1.0, 0.5])[None], np.array([[1.0, 1.0]]))
        problem = obj.Problem(batch, 0.0, 0.0)
        scaff = alg.BaselineState(np.zeros((1, 2)), np.zeros((1, 2)))
        gd = alg.BaselineState(np.zeros(2))
        rng = alg.RngBundle.from_seed(12)
        for _ in range(50):
            assert alg.scaffnew_step(scaff, problem, 1.0, 1.0, rng) is True
            alg.gd_step(gd, problem, 1.0)
            assert np.allclose(scaff.x[0], gd.x, atol=1e-12)
            assert np.allclose(scaff.h, 0.0)

    def test_fixed_point_invariant(self, quad_problem):
        folded = obj.fold_shared(quad_problem)
        ref = harness.solve_reference(folded)
        n = folded.n
        h_star = ref.u_star - ref.u_star.mean(axis=0)[None, :]
        state = alg.BaselineState(np.tile(ref.x_star, (n, 1)), h_star.copy())
        rng = alg.RngBundle.from_seed(13)
        gamma = 1.0 / folded.L
        for _ in range(100):
            alg.scaffnew_step(state, folded, gamma, 0.3, rng)
        assert np.allclose(state.x, ref.x_star[None, :], atol=1e-9)

    def test_beats_gd_on_bits(self):
        # ill-conditioned direction carries the whole error, so gradient
        # descent pays the full kappa iteration count
        d, n = 10, 2
        eigs = np.linspace(0.01, 1.0, d)
        b = np.zeros(d)
        b[0] = 0.01   # x* = e_1, reached only through the smallest eigenvalue
        batch = obj._BatchedQuadratic(np.tile(np.diag(eigs), (n, 1, 1)), np.tile(b, (n, 1)))
        folded = obj.Problem(batch, 0.0, 0.0, lo=0.01, hi=1.0)
        ref = harness.solve_reference(folded)
        gamma = 1.0 / folded.L
        p = 1.0 / np.sqrt(folded.kappa)
        target = 1e-9 * float(np.sum(ref.x_star ** 2))

        state = alg.BaselineState(np.zeros((n, d)), np.zeros((n, d)))
        rng = alg.RngBundle.from_seed(14)
        scaff_rounds = 0
        for _ in range(100_000):
            if float(np.mean(np.sum((state.x - ref.x_star) ** 2, axis=1))) <= target:
                break
            scaff_rounds += alg.scaffnew_step(state, folded, gamma, p, rng)

        gd = alg.BaselineState(np.zeros(d))
        gd_rounds = 0
        for _ in range(100_000):
            if float(np.sum((gd.x - ref.x_star) ** 2)) <= target:
                break
            gd_rounds += alg.gd_step(gd, folded, gamma)
        assert scaff_rounds < gd_rounds     # each round of either uploads the full 32d bits


class TestRngBundle:
    def test_deterministic_streams(self):
        a = alg.RngBundle.from_seed(99)
        b = alg.RngBundle.from_seed(99)
        assert a.coin.random() == b.coin.random()
        assert a.rounds.random() == b.rounds.random()

    def test_streams_are_distinct(self):
        bundle = alg.RngBundle.from_seed(100)
        assert bundle.coin.random() != bundle.rounds.random()

    def test_streams_are_seed_sequence_children_0_and_1(self):
        bundle = alg.RngBundle.from_seed(101)
        children = np.random.SeedSequence(101).spawn(5)
        assert bundle.coin.random() == np.random.default_rng(children[0]).random()
        assert bundle.rounds.random() == np.random.default_rng(children[1]).random()
