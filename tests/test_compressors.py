"""Compressors: variance constants, bit costs, payload structure, unbiasedness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from locodl import compressors as comp
from locodl import harness
from locodl.errors import InputError


def rng_(seed=0):
    return np.random.default_rng(seed)


class TestSpecs:
    def test_omega_closed_forms(self):
        assert comp.make_spec("identity", 10).omega == 0.0
        assert comp.make_spec("rand_k", 122, k=2).omega == pytest.approx(60.0)
        assert comp.make_spec("natural", 16).omega == pytest.approx(1.0 / 8.0)
        assert comp.make_spec("rand_k_natural", 122, k=2).omega == pytest.approx(
            9.0 * 122 / 16.0 - 1.0)
        assert comp.make_spec("l1_selection", 122).omega == pytest.approx(121.0)

    def test_omega_av_is_omega_over_n(self, quad_problem):
        ref = harness.solve_reference(quad_problem)

        def omega_av(compressor, k=None):
            config = harness.ExperimentConfig(problem={"source": "quadratic", "d": 10},
                                              n=quad_problem.n, kappa=100.0, algorithm="locodl",
                                              compressor=compressor, k=k, max_iters=0)
            trace = harness.run_single(config, quad_problem, quad_problem, ref, 0)
            return trace.metadata["omega_av"]
        spec = comp.make_spec("rand_k", 10, k=2)
        assert omega_av("rand_k", 2) == pytest.approx(spec.omega / quad_problem.n)
        assert omega_av("identity") == 0.0

    def test_bit_costs(self):
        assert comp.make_spec("rand_k", 122, k=2).bits_per_message == 78
        assert comp.make_spec("l1_selection", 122).bits_per_message == 39
        assert comp.make_spec("natural", 8).bits_per_message == 72
        assert comp.make_spec("identity", 122).bits_per_message == 32 * 122
        assert comp.make_spec("rand_k_natural", 122, k=2).bits_per_message == 9 * 2 + 2 * 7

    def test_invalid_specs_rejected(self):
        with pytest.raises(InputError):
            comp.make_spec("topk", 8)
        with pytest.raises(InputError):
            comp.make_spec("rand_k", 8, k=0)
        with pytest.raises(InputError):
            comp.make_spec("rand_k", 8, k=9)
        with pytest.raises(InputError):
            comp.make_spec("identity", 0)

    @pytest.mark.parametrize("kind, k, message", [
        ("rand_k", 3, "k = 3: rand_k needs 1 <= k <= d = 2"),
        ("rand_k_natural", 0, "k = 0: rand_k_natural needs 1 <= k <= d = 2"),
        ("rand_k", None, "compressor 'rand_k' needs a k"),
        ("identity", 3, "compressor 'identity' takes no k, got k = 3"),
        ("l1_selection", 1, "compressor 'l1_selection' takes no k, got k = 1"),
    ])
    def test_each_refusal_names_kind_and_k(self, kind, k, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            comp.make_spec(kind, 2, k)


class TestCompress:
    def test_identity_exact(self):
        spec = comp.make_spec("identity", 5)
        x = np.array([1.0, -2.0, 0.0, 3.5, 1e-9])
        msg = comp.compress(spec, x, rng_())
        assert np.array_equal(msg.payload, x)
        assert msg.bits == 32 * 5

    def test_rand_k_scaling_and_support(self):
        spec = comp.make_spec("rand_k", 4, k=2)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        for seed in range(20):
            payload = comp.compress(spec, x, rng_(seed)).payload
            nz = np.flatnonzero(payload)
            assert len(nz) == 2
            assert np.allclose(payload[nz], 2.0 * x[nz])

    def test_rand_k_mean_over_subsets(self):
        spec = comp.make_spec("rand_k", 4, k=2)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        r = rng_(7)
        mean = np.mean([comp.compress(spec, x, r).payload for _ in range(40_000)], axis=0)
        assert np.allclose(mean, x, atol=0.05)

    def test_natural_two_point_rounding(self):
        spec = comp.make_spec("natural", 1)
        r = rng_(3)
        outcomes = np.array([comp.compress(spec, np.array([5.0]), r).payload[0]
                             for _ in range(20_000)])
        assert set(np.unique(outcomes)) == {4.0, 8.0}
        assert np.mean(outcomes == 4.0) == pytest.approx(0.75, abs=0.02)
        assert np.mean(outcomes) == pytest.approx(5.0, abs=0.05)

    def test_natural_fixed_points(self):
        spec = comp.make_spec("natural", 3)
        x = np.array([4.0, -0.5, 0.0])
        for seed in range(10):
            assert np.array_equal(comp.compress(spec, x, rng_(seed)).payload, x)

    def test_natural_payload_is_signed_power_of_two(self):
        spec = comp.make_spec("natural", 8)
        r = rng_(4)
        for _ in range(50):
            x = r.standard_normal(8) * 10.0 ** r.integers(-3, 4)
            payload = comp.compress(spec, x, r).payload
            for v in payload[payload != 0.0]:
                exponent = np.log2(abs(v))
                assert exponent == np.round(exponent)
                assert -126 <= exponent <= 127

    def test_natural_saturation_flag(self):
        spec = comp.make_spec("natural", 2)
        big = np.array([2.0 ** 200, 1.0])
        msg = comp.compress(spec, big, rng_(0))
        assert msg.saturated
        assert msg.payload[0] == 2.0 ** 127
        tiny = np.array([2.0 ** -200, 1.0])
        msg = comp.compress(spec, tiny, rng_(0))
        assert msg.saturated
        assert msg.payload[0] == 2.0 ** -126

    def test_rand_k_natural_payload_structure(self):
        spec = comp.make_spec("rand_k_natural", 10, k=3)
        r = rng_(5)
        x = r.standard_normal(10)
        payload = comp.compress(spec, x, r).payload
        nz = payload[payload != 0.0]
        assert len(nz) <= 3
        for v in nz:
            assert np.log2(abs(v)) == np.round(np.log2(abs(v)))

    def test_l1_selection_two_outcomes(self):
        spec = comp.make_spec("l1_selection", 2)
        r = rng_(6)
        x = np.array([3.0, -1.0])
        payloads = np.array([comp.compress(spec, x, r).payload for _ in range(20_000)])
        first = payloads[:, 0] == 4.0
        assert np.all(payloads[first, 1] == 0.0)
        assert np.all(payloads[~first, 1] == -4.0)
        assert np.mean(first) == pytest.approx(0.75, abs=0.02)
        assert np.allclose(payloads.mean(axis=0), x, atol=0.05)

    def test_l1_selection_edge_cases(self):
        spec = comp.make_spec("l1_selection", 3)
        x = np.array([0.0, 2.0, 0.0])
        assert np.array_equal(comp.compress(spec, x, rng_()).payload, x)
        assert np.array_equal(comp.compress(spec, np.zeros(3), rng_()).payload, np.zeros(3))

    def test_rejects_non_finite(self):
        spec = comp.make_spec("identity", 2)
        with pytest.raises(InputError):
            comp.compress(spec, np.array([1.0, np.nan]), rng_())

    def test_rejects_wrong_dimension(self):
        spec = comp.make_spec("identity", 2)
        with pytest.raises(InputError):
            comp.compress(spec, np.zeros(3), rng_())

    def test_deterministic_given_seed(self):
        for kind, k in [("rand_k", 3), ("natural", None),
                        ("rand_k_natural", 3), ("l1_selection", None)]:
            spec = comp.make_spec(kind, 8, k=k)
            x = rng_(9).standard_normal(8)
            a = comp.compress(spec, x, rng_(123)).payload
            b = comp.compress(spec, x, rng_(123)).payload
            assert np.array_equal(a, b)


class TestVarianceRatio:
    """The variance figure of `certification`: the mean of ||C(x) - x||^2 / ||x||^2."""

    def test_identity_zero(self):
        spec = comp.make_spec("identity", 6)
        assert comp.certification(spec, np.ones(6), 100, rng_()) == (True, 0.0, 0.0)

    def test_rand_one_all_ones(self):
        spec = comp.make_spec("rand_k", 10, k=1)
        _, _, ratio = comp.certification(spec, np.ones(10), 20_000, rng_(8))
        assert ratio == pytest.approx(9.0, abs=0.25)

    def test_l1_single_support_exact(self):
        spec = comp.make_spec("l1_selection", 4)
        x = np.zeros(4)
        x[0] = 2.0
        assert comp.certification(spec, x, 50, rng_())[2] == 0.0

    def test_rejects_zero_vector_and_bad_trials(self):
        spec = comp.make_spec("identity", 3)
        with pytest.raises(InputError):
            comp.certification(spec, np.zeros(3), 10, rng_())
        with pytest.raises(InputError):
            comp.certification(spec, np.ones(3), 0, rng_())


KINDS_AND_K = [("identity", None), ("rand_k", 2), ("natural", None),
               ("rand_k_natural", 2), ("l1_selection", None)]


class TestCompressRound:
    @pytest.mark.parametrize("kind,k", KINDS_AND_K)
    def test_compress_is_row_zero_of_a_one_client_round(self, kind, k):
        spec = comp.make_spec(kind, 10, k=k)
        x = rng_(16).standard_normal(10)
        msg = comp.compress(spec, x, rng_(17))
        payload, sat = comp.compress_round(spec, x[None], rng_(17))
        assert np.array_equal(msg.payload, payload[0])
        assert msg.bits == spec.bits_per_message
        assert msg.saturated == bool(sat)

    @pytest.mark.parametrize("kind,k", KINDS_AND_K)
    def test_unbiased_and_structured(self, kind, k):
        n, d = 6, 10
        spec = comp.make_spec(kind, d, k=k)
        r = rng_(12)
        X = r.standard_normal((n, d))
        X[np.abs(X) < 1e-3] = 1e-3
        total = np.zeros((n, d))
        trials = 20_000
        for _ in range(trials):
            payload, _ = comp.compress_round(spec, X, r)
            total += payload
            if spec.k is not None:
                assert np.all((payload != 0).sum(axis=1) <= spec.k)
        mean = total / trials
        scale = np.sqrt(spec.omega + 1.0) * np.abs(X).max()
        assert np.max(np.abs(mean - X)) <= 4.0 * scale / np.sqrt(trials) + 0.05

    def test_variance_ratio_matches_scalar_api(self):
        n, d = 8, 10
        spec = comp.make_spec("rand_k", d, k=1)
        X = np.ones((n, d))
        r = rng_(13)
        err = 0.0
        trials = 10_000
        for _ in range(trials):
            payload, _ = comp.compress_round(spec, X, r)
            err += float(np.sum((payload[0] - X[0]) ** 2))
        assert err / (trials * d) == pytest.approx(9.0, abs=0.4)

    def test_deterministic(self):
        spec = comp.make_spec("rand_k_natural", 8, k=2)
        X = rng_(14).standard_normal((3, 8))
        a, _ = comp.compress_round(spec, X, rng_(99))
        b, _ = comp.compress_round(spec, X, rng_(99))
        assert np.array_equal(a, b)

    def test_saturation_count(self):
        spec = comp.make_spec("natural", 2)
        X = np.array([[2.0 ** 200, 1.0], [1.0, 1.0]])
        _, sat = comp.compress_round(spec, X, rng_(0))
        assert sat > 0

    @pytest.mark.parametrize("kind,k", [("natural", None), ("rand_k_natural", 2)])
    def test_saturation_counts_clients(self, kind, k):
        # k = d keeps every coordinate, so only client 0's message saturates
        spec = comp.make_spec(kind, 2, k=k)
        X = np.array([[2.0 ** 200, 2.0 ** 200], [1.0, 3.0], [-2.0, 0.5]])
        for seed in range(5):
            _, sat = comp.compress_round(spec, X, rng_(seed))
            assert sat == 1

    def test_rejects_non_finite(self):
        spec = comp.make_spec("identity", 2)
        with pytest.raises(InputError):
            comp.compress_round(spec, np.array([[1.0, np.inf], [0.0, 0.0]]), rng_())


@pytest.mark.parametrize("kind", comp.KINDS)
def test_pipeline_matches_the_per_kind_oracle(kind):
    # the same payload bytes, saturation count and generator state as one branch per kind,
    # over random shapes and k, zero entries and rows, and magnitudes past the exponent range
    draw = rng_(31)
    saturated = 0
    for seed in range(60):
        n, d = int(draw.integers(1, 9)), int(draw.choice([1, 5, 50, 122]))
        spec = comp.make_spec(kind, d, k=int(draw.integers(1, d + 1)) if kind in comp.K_KINDS
                              else None)
        X = draw.standard_normal((n, d)) * 10.0 ** draw.choice([0, 0, 30, 300, -300], (n, d))
        X[draw.random((n, d)) < 0.2] = 0.0
        X[draw.random(n) < 0.25] = 0.0
        ours, theirs = rng_(seed), rng_(seed)
        payload, sat = comp.compress_round(spec, X, ours)
        expected, expected_sat = oracle.compress_round(spec, X, theirs)
        assert payload.tobytes() == expected.tobytes()
        assert sat == expected_sat
        assert ours.bit_generator.state == theirs.bit_generator.state
        saturated += sat
    assert (saturated > 0) == (kind in comp.NATURAL_KINDS)


class TestRandSubsets:
    @pytest.mark.parametrize("d,k", [(6, 1), (6, 6), (6, 3), (122, 2)])
    def test_rows_are_distinct_indices_in_range(self, d, k):
        idx = comp._rand_subsets(rng_(20), 5_000, d, k)
        assert idx.shape == (5_000, k)
        assert idx.min() >= 0 and idx.max() < d
        assert np.all(np.diff(np.sort(idx, axis=1), axis=1) > 0)

    def test_every_subset_equally_likely(self):
        draws = 300_000
        idx = comp._rand_subsets(rng_(21), draws, 6, 3)
        counts = np.bincount((1 << idx).sum(axis=1), minlength=64)
        observed = counts[[m for m in range(64) if bin(m).count("1") == 3]]
        assert observed.sum() == draws                      # C(6, 3) = 20 subsets
        expected = draws / 20
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2 < 54.0     # P(chi2 with 19 dof > 54) < 1e-4

    def test_rand_k_natural_rounds_only_the_selected_coordinates(self):
        n, d, k = 7, 12, 3
        spec = comp.make_spec("rand_k_natural", d, k=k)
        X = rng_(22).standard_normal((n, d))
        r = rng_(23)
        payload, _ = comp.compress_round(spec, X, r)
        replay = rng_(23)
        idx = comp._rand_subsets(replay, n, d, k)
        replay.random((n, k))                               # one rounding draw per selected entry
        assert r.random() == replay.random()
        rows = np.arange(n)[:, None]
        support = np.zeros((n, d), dtype=bool)
        support[rows, idx] = True
        assert np.all(payload[~support] == 0.0)
        scaled = X[rows, idx] * (d / k)
        chosen = payload[rows, idx]
        assert np.all(np.sign(chosen) == np.sign(scaled))
        ratio = np.abs(chosen) / np.abs(scaled)
        assert np.all((ratio > 0.5) & (ratio <= 2.0))
        assert np.all(np.log2(np.abs(chosen)) == np.round(np.log2(np.abs(chosen))))


class TestJointVariance:
    def test_averaged_error_bounded_by_omega_av(self):
        n, d = 8, 12
        spec = comp.make_spec("rand_k", d, k=2)
        r = rng_(15)
        X = r.standard_normal((n, d))
        trials = 20_000
        err = 0.0
        for _ in range(trials):
            payload, _ = comp.compress_round(spec, X, r)
            delta = (payload - X).mean(axis=0)
            err += float(delta @ delta)
        lhs = err / trials
        rhs = (spec.omega / n) * float(np.mean(np.sum(X * X, axis=1)))
        assert lhs <= rhs * 1.05 + 5.0 / np.sqrt(trials)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2 ** 31))
def test_rand_k_payload_support_never_exceeds_k(d, seed):
    r = np.random.default_rng(seed)
    k = int(r.integers(1, d + 1))
    spec = comp.make_spec("rand_k", d, k=k)
    x = r.standard_normal(d)
    payload = comp.compress(spec, x, r).payload
    assert np.count_nonzero(payload) <= k


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e30, max_value=1e30, allow_nan=False),
                min_size=1, max_size=10),
       st.integers(min_value=0, max_value=2 ** 31))
def test_natural_is_within_factor_two(values, seed):
    x = np.array(values)
    x[np.abs(x) < 1e-30] = 0.0   # below the 8-bit exponent range the output saturates
    spec = comp.make_spec("natural", x.size)
    payload = comp.compress(spec, x, np.random.default_rng(seed)).payload
    nz = x != 0.0
    assert np.all(payload[~nz] == 0.0)
    with np.errstate(over="ignore"):
        assert np.all(np.abs(payload[nz]) <= 2.0 * np.abs(x[nz]) + 1e-300)
        assert np.all(np.abs(payload[nz]) >= np.abs(x[nz]) / 2.0 - 1e-300)
        assert np.all(np.sign(payload[nz]) == np.sign(x[nz]))
