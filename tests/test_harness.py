"""Harness: reference solves, trace recording, stop rules, serialization."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from locodl import algorithms as alg
from locodl import harness
from locodl import objectives as obj
from locodl.compressors import K_KINDS, KINDS, make_spec
from locodl.data import dirichlet_synthetic, load_libsvm, partition
from locodl.errors import ConfigurationError, ConvergenceError, InputError

import oracle


def quad_config(**overrides):
    fields = dict(problem={"source": "quadratic", "d": 10}, n=5, kappa=100.0,
                  algorithm="locodl", compressor="rand_k", k=1, seeds=(0,),
                  stop_metric="psi", stop_ratio=1e-8, max_iters=200_000,
                  cadence=100, data_seed=42, label="test")
    fields.update(overrides)
    return harness.ExperimentConfig(**fields)


def refused_in_prepare(error, message, **overrides):
    """The config builds as given; `prepare` refuses it, naming its block."""
    config = quad_config(**overrides)
    with pytest.raises(error, match=r"^\[algo:test\] " + message):
        harness.prepare(config, {})


def logistic_problem(sparse):
    rng = np.random.default_rng(61)
    n, m, d = 6, 120, 100
    A, b = np.zeros((n, m, d)), np.zeros((n, m))
    for i in range(n):
        A[i] = (rng.random((m, d)) < 0.05) * 1.0 if sparse else rng.standard_normal((m, d))
        b[i] = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    problem = obj.logistic_problem(*oracle.unstack(A, b, csr=sparse), 0.05)
    assert (problem.batch._block is not None) == sparse
    return problem


@pytest.fixture(scope="module")
def quad_run():
    config = quad_config()
    problem, baseline = harness.build_problem(config)
    ref = harness.solve_reference(problem)
    trace = harness.run_single(config, problem, baseline, ref, 0)
    return config, problem, baseline, ref, trace


class TestSolveReference:
    def test_shifted_identity_quadratic(self):
        c = np.array([2.0, -1.0, 0.5])
        problem = obj.Problem(obj._BatchedQuadratic(np.eye(3)[None], c[None]), 0.0, 0.0)
        ref = harness.solve_reference(problem)
        assert np.allclose(ref.x_star, c, atol=1e-10)

    def test_diagonal_quadratic(self):
        batch = obj._BatchedQuadratic(np.diag([1.0, 2.0])[None], np.array([[1.0, 2.0]]))
        problem = obj.Problem(batch, 0.0, 0.0)
        ref = harness.solve_reference(problem)
        assert np.allclose(ref.x_star, [1.0, 1.0], atol=1e-10)

    def test_stationarity(self, quad_run):
        _, problem, _, ref, _ = quad_run
        residual = ref.u_star.mean(axis=0) + ref.v_star
        assert np.linalg.norm(residual) <= 1e-9

    def test_tolerance_independence(self, quad_run, monkeypatch):
        config, problem, baseline, ref, trace = quad_run
        monkeypatch.setattr(harness, "REFERENCE_TOL", 0.5e-12)
        ref2 = harness.solve_reference(problem)
        trace2 = harness.run_single(config, problem, baseline, ref2, 0)
        a = trace.array("sqdist_mean")
        b = trace2.array("sqdist_mean")
        mask = a > 1e-20
        assert np.all(np.abs(a[mask] - b[mask]) <= 0.01 * a[mask] + 1e-20)

    @pytest.mark.parametrize("sparse", [True, False])
    def test_newton_matches_long_gradient_descent(self, sparse):
        problem = logistic_problem(sparse)
        x = np.zeros(problem.d)
        for _ in range(2000):
            x = x - problem.grad_mean(x) / problem.L
        assert np.linalg.norm(problem.grad_mean(x)) <= 1e-15
        ref = harness.solve_reference(problem)
        assert np.allclose(ref.x_star, x, rtol=0, atol=1e-14)
        assert ref.f_star == problem.value_mean(ref.x_star)

    @pytest.mark.parametrize("sparse", [True, False])
    def test_grad_norm_is_within_tolerance(self, sparse, monkeypatch):
        problem = logistic_problem(sparse)
        for tol in (1e-12, 1e-6):
            monkeypatch.setattr(harness, "REFERENCE_TOL", tol)
            ref = harness.solve_reference(problem)
            assert ref.grad_norm == np.linalg.norm(problem.grad_mean(ref.x_star))
            assert ref.grad_norm <= tol * problem.mu * (1.0 + np.linalg.norm(ref.x_star))

    def test_grad_norm_is_written_to_metadata(self, quad_run):
        _, problem, _, ref, trace = quad_run
        assert trace.metadata["reference_grad_norm"] == ref.grad_norm
        assert ref.grad_norm <= 1e-12 * problem.mu * (1.0 + np.linalg.norm(ref.x_star))

    def test_ill_conditioned_quadratic_stops_on_the_newton_step(self):
        # float64 rounding in the gradient (~2.5e-16) exceeds tol * mu * (1 + ||x||) here
        problem, _ = harness.build_problem(
            quad_config(problem={"source": "quadratic", "d": 50}, n=10, kappa=3e4, data_seed=0))
        ref = harness.solve_reference(problem)
        assert ref.grad_norm > 1e-12 * problem.mu * (1.0 + np.linalg.norm(ref.x_star))
        A = problem.batch.A.mean(axis=0) + problem.g_weight * np.eye(50)
        b = problem.batch.b.mean(axis=0)
        assert np.allclose(ref.x_star, np.linalg.solve(A, b), rtol=1e-14, atol=0)

    def test_newton_step_cap_raises(self, monkeypatch):
        # tol = 0 is below the float64 floor, so the solve runs into the cap
        monkeypatch.setattr(harness, "REFERENCE_TOL", 0.0)
        with pytest.raises(ConvergenceError, match=f"{harness.NEWTON_ITER_CAP} Newton steps"):
            harness.solve_reference(logistic_problem(sparse=False))

    def test_rejects_non_strongly_convex(self):
        # Problem refuses mu <= 0 when built and on every replace (fold_shared, reduce_g_zero),
        # so no such problem reaches the solve
        batch = obj._BatchedQuadratic(np.eye(2)[None], np.zeros((1, 2)))
        with pytest.raises(InputError, match="0 < mu <= L"):
            obj.Problem(batch, -1.0, 0.0)
        with pytest.raises(InputError, match="0 < mu <= L"):
            replace(obj.Problem(batch, 0.0, 0.0), reg=-1.0)


class TestExperimentConfig:
    def test_rejects_empty_seeds(self):
        with pytest.raises(InputError):
            quad_config(seeds=())

    def test_rejects_bad_stop(self):
        with pytest.raises(InputError):
            quad_config(stop_ratio=0.0)
        with pytest.raises(InputError):
            quad_config(stop_metric="loss")

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(InputError):
            quad_config(algorithm="adam")

    def test_rejects_unknown_compressor(self):
        refused_in_prepare(InputError, "unknown compressor 'topk'", compressor="topk", k=None)

    @pytest.mark.parametrize("kind", ["identity", "natural", "l1_selection"])
    def test_rejects_k_for_a_kind_without_k(self, kind):
        refused_in_prepare(InputError, f"compressor '{kind}' takes no k, got k = 2",
                           compressor=kind, k=2)

    @pytest.mark.parametrize("kind", ["rand_k", "rand_k_natural"])
    def test_rejects_a_missing_k(self, kind):
        refused_in_prepare(InputError, f"compressor '{kind}' needs a k", compressor=kind, k=None)

    @pytest.mark.parametrize("algorithm, kind, k", [("gd", "rand_k", 2), ("gd", "natural", None),
                                                    ("scaffnew", "natural", None),
                                                    ("scaffnew", "rand_k_natural", 1)])
    def test_rejects_a_compressor_for_an_uncompressed_baseline(self, algorithm, kind, k):
        with pytest.raises(InputError, match=rf"^\[algo:test\] compressor = {kind}: "
                                             f"{algorithm} sends full vectors, so it takes only "
                                             "identity"):
            quad_config(algorithm=algorithm, stop_metric="sqdist", compressor=kind, k=k)

    @pytest.mark.parametrize("metric, column", [("psi", "lyapunov"), ("sqdist", "sqdist_mean")])
    def test_stop_column(self, metric, column):
        assert quad_config(stop_metric=metric).stop_column == column

    def test_psi_stop_rejected_for_baselines(self):
        with pytest.raises(InputError, match=r"\[algo:test\] stop_metric psi is defined only"):
            quad_config(algorithm="gd", compressor="identity", k=None)

    def test_overrides_are_held_as_floats(self):
        config = quad_config(algorithm="gd", stop_metric="sqdist", compressor="identity", k=None,
                             overrides={"gamma": 1})
        assert repr(config.overrides) == "{'gamma': 1.0}"

    @pytest.mark.parametrize("algorithm, key, value, message", [
        ("gd", "gamma", 0.0, "gamma = 0.0: gd needs a finite positive gamma"),
        ("gd", "gamma", float("nan"), "gamma = nan: gd needs a finite positive gamma"),
        ("diana", "gamma", -1.0, "gamma = -1.0: diana needs a finite positive gamma"),
        ("scaffnew", "gamma", float("inf"), "gamma = inf: scaffnew needs a finite positive gamma"),
        ("scaffnew", "p", 0.0, "p = 0.0: scaffnew needs 0 < p <= 1"),
        ("scaffnew", "p", 1.5, "p = 1.5: scaffnew needs 0 < p <= 1"),
    ])
    def test_rejects_a_baseline_override_out_of_range(self, algorithm, key, value, message):
        refused_in_prepare(ConfigurationError, message, algorithm=algorithm, stop_metric="sqdist",
                           compressor="identity", k=None, overrides={key: value})

    def test_accepts_baseline_overrides_at_the_range_ends(self):
        config = quad_config(algorithm="scaffnew", stop_metric="sqdist", compressor="identity",
                             k=None, overrides={"gamma": 1e-300, "p": 1})
        assert config.overrides == {"gamma": 1e-300, "p": 1.0}

    def test_libsvm_k_is_checked_against_d_in_make_spec(self, tmp_path):
        path = tmp_path / "tiny.libsvm"
        path.write_text("".join(f"{1 if i % 2 else -1} 1:1 2:{i % 3}\n" for i in range(40)))
        config = quad_config(problem={"source": "libsvm", "path": str(path)}, k=3)
        with pytest.raises(InputError,
                           match=r"^\[algo:test\] k = 3: rand_k needs 1 <= k <= d = 2$"):
            harness.prepare(config, {})

    def test_content_hash_changes_with_fields(self):
        assert quad_config().content_hash() != quad_config(kappa=200.0).content_hash()
        assert quad_config().content_hash() == quad_config().content_hash()


class TestRunSingle:
    def test_stop_rule_reached(self, quad_run):
        _, _, _, _, trace = quad_run
        psi = trace.array("lyapunov")
        assert psi[-1] <= 1e-8 * psi[0]

    def test_monotone_accounting(self, quad_run):
        _, _, _, _, trace = quad_run
        assert np.all(np.diff(trace.array("bits_per_client")) >= 0)
        assert np.all(np.diff(trace.array("rounds")) >= 0)
        assert np.all(trace.array("lyapunov") >= 0)

    def test_bits_equal_rounds_times_cost(self, quad_run):
        config, _, _, _, trace = quad_run
        from locodl.compressors import make_spec
        cost = make_spec(config.compressor, 10, config.k).bits_per_message
        assert np.array_equal(trace.array("bits_per_client"),
                              trace.array("rounds") * cost)

    def test_zero_iterations_gives_initial_point_only(self):
        config = quad_config(max_iters=0)
        problem, baseline = harness.build_problem(config)
        ref = harness.solve_reference(problem)
        trace = harness.run_single(config, problem, baseline, ref, 0)
        assert trace.columns["t"] == [0]
        assert trace.columns["bits_per_client"] == [0]

    @pytest.mark.parametrize("max_iters, cadence, t", [(10, 100, [0, 10]),
                                                      (100, 50, [0, 50, 100])])
    def test_max_iters_stop_records_the_final_state_once(self, max_iters, cadence, t):
        config = quad_config(max_iters=max_iters, cadence=cadence, round_cadence=1000)
        problem, baseline = harness.build_problem(config)
        ref = harness.solve_reference(problem)
        assert harness.run_single(config, problem, baseline, ref, 0).columns["t"] == t

    def test_same_seed_byte_identical_csv(self, quad_run):
        config, problem, baseline, ref, trace = quad_run
        again = harness.run_single(config, problem, baseline, ref, 0)
        assert harness.trace_to_csv(again) == harness.trace_to_csv(trace)

    def test_different_seeds_differ(self, quad_run):
        config, problem, baseline, ref, trace = quad_run
        other = harness.run_single(config, problem, baseline, ref, 1)
        assert harness.trace_to_csv(other) != harness.trace_to_csv(trace)

    def test_invalid_schedule_refused_before_running(self):
        config = quad_config(overrides={"gamma": 5.0})
        problem, baseline = harness.build_problem(config)
        ref = harness.solve_reference(problem)
        with pytest.raises(ConfigurationError):
            harness.run_single(config, problem, baseline, ref, 0)

    def test_baseline_runs_and_converges(self):
        config = quad_config(algorithm="gd", compressor="identity", k=None,
                             stop_metric="sqdist", stop_ratio=1e-6)
        problem, baseline = harness.build_problem(config)
        ref = harness.solve_reference(problem)
        trace = harness.run_single(config, problem, baseline, ref, 0)
        sq = trace.array("sqdist_mean")
        assert sq[-1] <= 1e-6 * sq[0]

    def test_metadata_fields(self, quad_run):
        _, _, _, _, trace = quad_run
        for key in ("gamma", "chi", "rho", "p", "omega", "omega_av", "tau",
                    "config_hash", "max_dual_residual"):
            assert key in trace.metadata

    @pytest.mark.parametrize("algorithm, compressor, k", [
        ("locodl", "rand_k", 1), ("diana", "rand_k", 2), ("scaffnew", "identity", None),
        ("gd", "identity", None)])
    def test_step_returns_a_bool_the_loop_counts(self, monkeypatch, algorithm, compressor, k):
        # a numpy.bool_ would make rounds an np.int64, whose repr differs from an int's
        returns = []
        step = getattr(alg, f"{algorithm}_step")

        def counted(*args):
            returns.append(step(*args))
            return returns[-1]

        monkeypatch.setattr(alg, f"{algorithm}_step", counted)
        config = quad_config(algorithm=algorithm, compressor=compressor, k=k,
                             stop_metric="sqdist", stop_ratio=1e-6, max_iters=700,
                             cadence=64, round_cadence=3)
        problem, baseline = harness.build_problem(config)
        trace = harness.run_single(config, problem, baseline, harness.solve_reference(problem), 0)
        assert all(type(value) is bool for value in returns)
        assert trace.columns["t"][-1] == len(returns)
        assert trace.columns["rounds"][-1] == returns.count(True)
        for name in ("t", "rounds", "bits_per_client"):
            assert all(type(cell) is int for cell in trace.columns[name])


RECORDER_BLOCKS = [("gd", "identity", None), ("diana", "rand_k", 2),
                   ("scaffnew", "identity", None)] \
    + [("locodl", kind, 2 if kind in K_KINDS else None) for kind in KINDS]
# every block under the sqdist stop, and locodl's also under psi
RECORDER_RUNS = [(*block, "sqdist") for block in RECORDER_BLOCKS] \
    + [(*block, "psi") for block in RECORDER_BLOCKS if block[0] == "locodl"]


@pytest.fixture(scope="module")
def recorder_problems(sparse_libsvm_path):
    """Source name -> (problem section, n, prepared setup): a quadratic, dense Dirichlet data
    and a sparse LibSVM file."""
    sources = {"quadratic": ({"source": "quadratic", "d": 6}, 3),
               "dirichlet": ({"source": "dirichlet", "d": 8, "alpha": 1.0}, 4),
               "libsvm": ({"source": "libsvm", "path": sparse_libsvm_path}, 4)}
    prepared = {}
    for name, (problem, n) in sources.items():
        config = quad_config(problem=problem, n=n, kappa=10.0, data_seed=3)
        prepared[name] = (problem, n, harness.prepare(config, {}))
    assert prepared["libsvm"][2][0].batch._block is not None
    assert prepared["dirichlet"][2][0].batch._block is None
    return prepared


class TestChunkedRecorder:
    """`_Recorder` writes the CSV and `.meta` of `oracle.Recorder`, which computes every column
    at every record point, byte for byte, whatever the chunk size R."""

    @staticmethod
    def _texts(config, setup, seed):
        trace = harness.run_single(config, *setup, seed)
        return harness.trace_to_csv(trace), harness.metadata_text(trace)

    @pytest.mark.parametrize("source", ["quadratic", "dirichlet", "libsvm"])
    @pytest.mark.parametrize("algorithm, kind, k, stop", RECORDER_RUNS)
    def test_chunked_columns_equal_the_per_record_oracle(self, recorder_problems, monkeypatch,
                                                          algorithm, kind, k, stop, source):
        problem, n, setup = recorder_problems[source]
        d = setup[0].d
        # bytes one record point takes: the state it saves, (x; u) and (y; v) or a baseline's
        # model(s), and the objective's terms at its mean model
        rows = 2 * n + 2 if algorithm == "locodl" else (n if algorithm == "scaffnew" else 1)
        per_record = 8 * (d * rows + setup[0].batch.value_terms)
        made = []

        class Poisoned(harness._Recorder):
            """Fills every buffered row it has not been given with values whose square
            overflows, which raises under the suite's `filterwarnings = error`."""

            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)
                self._poison()

            def _poison(self):
                for buffer in (self.xu, self.yv):
                    if buffer is not None:
                        buffer[self.filled:] = 1e300

            def flush(self):
                super().flush()
                self._poison()

        default_budget = harness.RECORD_BUDGET
        # (max_iters, stop_ratio): with cadence 1, 13 iterations give 14 record points, a
        # multiple of R = 1, 2 and 7, and 15 give 16, not a multiple of 7; both end on
        # max_iters, the third run on its target
        for chunk in (1, 2, 7, None):
            budget = default_budget if chunk is None else chunk * per_record
            monkeypatch.setattr(harness, "RECORD_BUDGET", budget)
            for max_iters, stop_ratio in ((13, 1e-30), (15, 1e-30), (1000, 0.5)):
                config = quad_config(problem=problem, n=n, kappa=10.0, data_seed=3,
                                     algorithm=algorithm, compressor=kind, k=k, cadence=1,
                                     stop_metric=stop, stop_ratio=stop_ratio, max_iters=max_iters)
                for seed in (0, 1):
                    made.clear()
                    monkeypatch.setattr(harness, "_Recorder", Poisoned)
                    chunked = self._texts(config, setup, seed)
                    monkeypatch.setattr(harness, "_Recorder", oracle.Recorder)
                    assert chunked == self._texts(config, setup, seed), (chunk, max_iters, seed)
                    assert len(made[0].xu) == (chunk or default_budget // per_record)
                    records = chunked[0].count("\n") - 1
                    if stop_ratio == 1e-30:
                        assert records == max_iters + 1
                    else:
                        assert records <= max_iters

    @pytest.mark.parametrize("algorithm, kind", [("gd", "identity"), ("diana", "rand_k")])
    def test_flushing_a_full_chunk_stays_within_a_few_budgets(self, a5a_path, algorithm, kind):
        # obj_gap evaluates every buffered mean model against the 87 * 73 margins of the
        # stand-in; a chunk that counted only the saved (d,) model held 268 of them, whose
        # margins and losses took about 40 MB
        config = quad_config(problem={"source": "libsvm", "path": a5a_path}, n=87, kappa=1e3,
                             algorithm=algorithm, compressor=kind,
                             k=2 if kind == "rand_k" else None, stop_metric="sqdist")
        problem, baseline, ref = harness.prepare(config, {})
        _, state, step, params, _ = harness._stepper(
            config, problem, baseline, make_spec(kind, problem.d, config.k),
            alg.RngBundle.from_seed(0))
        recorder = harness._Recorder({}, ref, baseline, state, params, config.stop_column)
        for t in range(len(recorder.xu)):
            step()
            recorder.record(t, 0, 0)
        assert recorder.filled == len(recorder.xu) > 1
        tracemalloc.start()
        try:
            recorder.flush()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(recorder.flushed["obj_gap"]) == len(recorder.xu)
        assert peak < 3 * harness.RECORD_BUDGET

    def test_varying_columns_hold_exact_ints_and_floats(self, recorder_problems):
        problem, n, setup = recorder_problems["dirichlet"]
        for algorithm, kind, k in RECORDER_BLOCKS:
            config = quad_config(problem=problem, n=n, kappa=10.0, data_seed=3,
                                 algorithm=algorithm, compressor=kind, k=k, cadence=1,
                                 stop_metric="sqdist", stop_ratio=1e-2, max_iters=400)
            columns = harness.run_single(config, *setup, 0).columns
            for name in harness.VARYING_COLUMNS:
                assert type(columns[name]) is list
                kind_of = int if name in ("t", "rounds", "bits_per_client") else float
                assert {type(value) for value in columns[name]} == {kind_of}, (algorithm, name)


class TestRunExperiments:
    def test_a_bad_later_config_raises_before_any_run(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a seed ran before every config was checked")

        monkeypatch.setattr(harness, "run_single", refuse)
        configs = [quad_config(), quad_config(overrides={"chi": 5.0}, label="bad")]
        with pytest.raises(ConfigurationError, match=r"^\[algo:bad\] "):
            harness.run_experiments(configs)

    def test_one_traces_list_per_config_equal_to_run_single(self, monkeypatch):
        configs = [quad_config(seeds=(3, 0, 1), stop_ratio=1e-4),
                   quad_config(algorithm="diana", stop_metric="sqdist", stop_ratio=1e-4,
                               seeds=(2,), label="dn")]
        run_single = harness.run_single
        ran = []

        def counting(config, *args):
            ran.append(config.label)
            return run_single(config, *args)

        monkeypatch.setattr(harness, "run_single", counting)
        runs = harness.run_experiments(configs)
        assert ran == []
        first = next(runs)
        assert ran == ["test"] * 3     # lazy per config: the second has not run yet
        results = [first, *runs]
        assert [config for config, _ in results] == configs
        for config, traces in results:
            setup = harness.prepare(config, {})
            assert len(traces) == len(config.seeds)
            for trace, seed in zip(traces, config.seeds):
                single = run_single(config, *setup, seed)
                assert trace.metadata["seed"] == seed
                assert harness.trace_to_csv(trace) == harness.trace_to_csv(single)
                assert harness.metadata_text(trace) == harness.metadata_text(single)


class TestBitsToTarget:
    def test_first_crossing(self):
        trace = harness.ExperimentTrace(
            {"sqdist_mean": [1.0, 0.5, 1e-7, 1e-9], "bits_per_client": [0, 10, 20, 30]},
            {})
        assert harness.bits_to_target(trace, 1e-6) == 20

    def test_never_reached_raises(self):
        trace = harness.ExperimentTrace(
            {"sqdist_mean": [1.0, 0.5], "bits_per_client": [0, 10]}, {})
        with pytest.raises(ConvergenceError):
            harness.bits_to_target(trace, 1e-6)


class TestExponentFit:
    def test_exact_sqrt_law(self):
        results = {k: 7.0 * np.sqrt(k) for k in (1e2, 1e3, 1e4)}
        assert harness.fit_communication_exponent(results) == pytest.approx(0.5, abs=1e-9)

    def test_linear_law(self):
        results = {k: 3.0 * k for k in (1e2, 1e3, 1e4)}
        assert harness.fit_communication_exponent(results) == pytest.approx(1.0, abs=1e-9)

    def test_needs_three_points(self):
        with pytest.raises(InputError):
            harness.fit_communication_exponent({1e2: 1.0, 1e3: 2.0})


class TestSerialization:
    def test_csv_header_and_shape(self, quad_run):
        _, _, _, _, trace = quad_run
        text = harness.trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(harness.CSV_COLUMNS)
        assert len(lines) == 1 + len(trace.columns["t"])

    def test_float_formatting_round_trips(self):
        trace = harness.ExperimentTrace(
            {name: [0] for name in harness.CSV_COLUMNS}, {})
        trace.columns["lyapunov"] = [0.1 + 0.2]
        text = harness.trace_to_csv(trace)
        value = text.strip().split("\n")[1].split(",")[-1]
        assert float(value) == 0.1 + 0.2
        assert value == repr(0.1 + 0.2)

    def test_csv_matches_row_by_row_reference(self):
        rows = 4
        columns = {name: [i] * rows for i, name in enumerate(harness.CSV_COLUMNS)}
        columns.update(algorithm=["locodl"] * rows, dataset=["a", "b", "a", "a"],
                       kappa=[100.0] * rows, compressor=["rand_k2"] * rows,
                       t=[0, 1, 2, 3], rounds=[0, True, 1, 1.0],
                       sqdist_mean=[1.5, float("nan"), float("inf"), -0.0],
                       sqdist_ybar=[0.0, -0.0, 0.0, -0.0],
                       obj_gap=[0.1 + 0.2, -1e-300, 1e22, float("-inf")],
                       lyapunov=[float("nan")] * rows)
        trace = harness.ExperimentTrace(columns, {})

        def cell(value):
            return repr(value) if isinstance(value, float) else str(value)
        expected = [",".join(harness.CSV_COLUMNS)]
        for i in range(rows):
            expected.append(",".join(cell(columns[name][i]) for name in harness.CSV_COLUMNS))
        assert harness.trace_to_csv(trace) == "\n".join(expected) + "\n"

    def test_trace_columns_have_equal_length(self, quad_run):
        _, _, _, _, trace = quad_run
        assert list(trace.columns) == harness.CSV_COLUMNS
        rows = len(trace.columns["t"])
        assert rows > 1
        assert all(len(column) == rows for column in trace.columns.values())
        assert trace.columns["seed"] == [0] * rows

    def test_write_trace_creates_sidecar(self, quad_run, tmp_path):
        _, _, _, _, trace = quad_run
        path = tmp_path / "out" / "run.csv"
        harness.write_trace(trace, str(path))
        assert path.exists()
        meta = (tmp_path / "out" / "run.meta").read_text()
        assert "config_hash=" in meta

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "f.txt"
        harness.atomic_write(str(path), "one")
        harness.atomic_write(str(path), "two")
        assert path.read_text() == "two"
        assert list(tmp_path.iterdir()) == [path]


class TestBuildProblem:
    def test_quadratic(self):
        problem, baseline = harness.build_problem(quad_config())
        assert problem.d == 10 and problem.n == 5
        assert baseline.mu == pytest.approx(problem.mu + problem.g_weight)

    def test_dirichlet(self):
        config = quad_config(problem={"source": "dirichlet", "d": 12, "alpha": 1.0},
                             n=6, kappa=50.0)
        problem, baseline = harness.build_problem(config)
        assert problem.d == 12
        assert problem.kappa >= 50.0   # common L is the max per-client constant

    def test_libsvm_solves_each_gram_once(self, a5a_path, gram_solves):
        config = quad_config(problem={"source": "libsvm", "path": a5a_path}, n=87, kappa=1e3)
        harness.build_problem(config)
        # the dataset, then the 23 of 87 stand-in clients whose Frobenius bound could reach the
        # largest lam_max; problem and baseline share them
        assert len(gram_solves) == 23 + 1
        assert len(set(gram_solves)) == len(gram_solves)    # no client is solved twice

    def test_libsvm_build_holds_less_than_one_copy_of_the_features(self, a5a_path, monkeypatch):
        # the parse is not traced; the sparse build selects its clients' rows from a CSR of
        # the dataset, so the (n, m, d) stack alone (0.99x the features) would not fit
        dataset = load_libsvm(a5a_path)
        monkeypatch.setattr(harness, "load_libsvm", lambda path: dataset)
        config = quad_config(problem={"source": "libsvm", "path": a5a_path}, n=87, kappa=1e3)
        limit = dataset.m * dataset.d * 8     # the dense features' bytes
        tracemalloc.start()
        try:
            harness.build_problem(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    @pytest.mark.parametrize("source, loader", [("libsvm", "load_libsvm"),
                                                ("dirichlet", "dirichlet_synthetic")])
    def test_the_dataset_is_freed_when_the_build_returns(self, a5a_path, monkeypatch, source,
                                                         loader):
        features = []
        load = getattr(harness, loader)

        def watched(*args):
            dataset = load(*args)
            features.append(weakref.ref(dataset.features))
            return dataset

        monkeypatch.setattr(harness, loader, watched)
        problem, _ = harness.build_problem(self._logistic_config(source, 1e3, a5a_path))
        assert (problem.batch._block is not None) == (source == "libsvm")
        assert len(features) == 1 and features[0]() is None

    def test_dense_batch_holds_the_stack_of_its_rows(self, monkeypatch):
        partitions = []

        def keeping(dataset, *args):
            partitions.append((dataset, partition(dataset, *args)))
            return partitions[-1][1]

        monkeypatch.setattr(harness, "partition", keeping)
        problem, baseline = harness.build_problem(self._logistic_config("dirichlet", 1e2, None))
        [(dataset, rows)] = partitions
        assert problem.batch.A.shape == (25, 1, 50)
        assert np.array_equal(problem.batch.A, oracle.stack(dataset, rows))
        assert np.array_equal(problem.batch.b, dataset.labels[rows])
        assert baseline.batch is problem.batch

    @staticmethod
    def _logistic_config(source, kappa, a5a_path):
        if source == "libsvm":
            return quad_config(problem={"source": "libsvm", "path": a5a_path}, n=87, kappa=kappa)
        return quad_config(problem={"source": "dirichlet", "d": 50, "alpha": 1.0}, n=25,
                           kappa=kappa, data_seed=7)

    @pytest.mark.parametrize("source", ["libsvm", "dirichlet"])
    def test_baseline_shares_the_feature_arrays(self, a5a_path, source):
        problem, baseline = harness.build_problem(self._logistic_config(source, 1e3, a5a_path))
        sparse = problem.batch._block is not None
        assert sparse == (source == "libsvm")
        features = (lambda p: p.batch._block.data) if sparse else (lambda p: p.batch.A)
        assert np.shares_memory(features(baseline), features(problem))
        assert baseline.g_weight == 0.0

    @pytest.mark.parametrize("source, kappa", [("libsvm", 1e3), ("dirichlet", 1e2),
                                               ("dirichlet", 3e2), ("dirichlet", 1e3)])
    def test_logistic_baseline_constants_are_the_per_client_maximum(self, a5a_path, source,
                                                                     kappa):
        # the folded locals carry 2 mu, and the common L is the largest of their constants
        config = self._logistic_config(source, kappa, a5a_path)
        problem, baseline = harness.build_problem(config)
        dataset = (load_libsvm(a5a_path) if source == "libsvm"
                   else dirichlet_synthetic(25, 50, 1.0, 7))
        mu = obj.regularization_for_kappa(dataset, kappa)
        A = oracle.stack(dataset, partition(dataset, config.n, config.data_seed))
        L = max(obj.max_eigenvalue_gram(a) / (4.0 * a.shape[0]) + 2.0 * mu for a in A)
        assert (baseline.L, baseline.mu) == (L, 2.0 * mu)

    @pytest.mark.parametrize("kappa", [1e2, 1e4])
    def test_quadratic_baseline_constants_add_the_shared_weight(self, kappa):
        problem, baseline = harness.build_problem(quad_config(kappa=kappa))
        c = problem.g_weight
        assert (baseline.L, baseline.mu) == (problem.L + c, problem.mu + c)
        assert baseline.batch is problem.batch

    def test_libsvm(self, a5a_path):
        config = quad_config(problem={"source": "libsvm", "path": a5a_path},
                             n=87, kappa=1e4)
        problem, baseline = harness.build_problem(config)
        assert problem.d == 122
        assert problem.n == 87


class TestSharedBuild:
    """`prepare`'s cache builds a logistic dataset once for every kappa of a sweep."""

    KAPPAS = (1e2, 3e2, 1e3)

    @staticmethod
    def _config(source, kappa, a5a_path):
        config = TestBuildProblem._logistic_config(source, kappa, a5a_path)
        return replace(config, stop_metric="sqdist", stop_ratio=1e-3, max_iters=300)

    # the dataset's lam_max, plus the clients whose bound could reach the largest: one of the
    # Dirichlet clients (one row each, so every bound is exact) and 23 of the 87 stand-in clients
    @pytest.mark.parametrize("source, eigensolves", [("dirichlet", 1 + 1), ("libsvm", 23 + 1)])
    def test_one_cache_solves_each_gram_once_across_kappas(self, a5a_path, gram_solves, source,
                                                           eigensolves):
        # without sharing, 3x as many
        cache = {}
        for kappa in self.KAPPAS:
            harness.prepare(self._config(source, kappa, a5a_path), cache)
        assert len(gram_solves) == eigensolves
        assert len(set(gram_solves)) == len(gram_solves)    # no client is solved twice
        problems = [harness.prepare(self._config(source, kappa, a5a_path), cache)[0]
                    for kappa in self.KAPPAS]
        assert len(gram_solves) == eigensolves
        assert len({id(problem.batch) for problem in problems}) == 1
        assert len({problem.mu for problem in problems}) == len(self.KAPPAS)

    @pytest.mark.parametrize("source", ["dirichlet", "libsvm"])
    def test_shared_build_equals_a_fresh_one(self, a5a_path, source):
        cache = {}
        for kappa in self.KAPPAS:
            harness.prepare(self._config(source, kappa, a5a_path), cache)
        for kappa in self.KAPPAS:
            config = self._config(source, kappa, a5a_path)
            problem, baseline, ref = harness.prepare(config, cache)
            fresh, fresh_baseline = harness.build_problem(config)
            fresh_ref = harness.solve_reference(fresh)
            assert (problem.L, problem.mu) == (fresh.L, fresh.mu)
            assert (baseline.L, baseline.mu) == (fresh_baseline.L, fresh_baseline.mu)
            assert np.array_equal(ref.x_star, fresh_ref.x_star)
            assert ref.f_star == fresh_ref.f_star
            for algorithm in ("locodl", "diana"):
                run = replace(config, algorithm=algorithm)
                shared = harness.run_single(run, problem, baseline, ref, 0)
                alone = harness.run_single(run, fresh, fresh_baseline, fresh_ref, 0)
                assert harness.trace_to_csv(shared) == harness.trace_to_csv(alone)

    def test_quadratics_at_two_kappas_get_distinct_batches(self):
        cache = {}
        problems = [harness.prepare(quad_config(kappa=kappa), cache)[0] for kappa in (1e2, 1e3)]
        assert problems[0].batch is not problems[1].batch
        assert problems[0].kappa != problems[1].kappa
        assert len(cache) == 2
