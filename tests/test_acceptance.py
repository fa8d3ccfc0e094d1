"""Acceptance suite: one pass/fail line per criterion.

The dual-feasibility criterion aggregates residuals over every run executed
here, so its test is defined last in the file.  The runs that criteria 5 and 6
keep are replayed in one worker process (conftest.py's session-wide `replays`)
while the suite goes on, and the replay criterion, which conftest.py moves to
the end of the session, compares what it returns.
"""

import math
import statistics
import time

import numpy as np
import pytest

import oracle
from locodl import algorithms as alg
from locodl import compressors as comp
from locodl import harness
from locodl import objectives as obj

# (label, max_dual_residual, dual_scale) for every locodl run in this module
DUAL_RESIDUALS = []
# (config, csv_texts, replay): one text per seed, and the future of `replay_csvs(config)`
CSV_RUNS = []
# the longest the replay criterion waits for any one replay
REPLAY_TIMEOUT_S = 1800


def report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)     # conftest.py repeats it in the terminal summary
    assert ok, line


def register_locodl_state(label, state):
    scale = 1.0 + (float(np.max(np.abs(state.u))) if state.u.size else 0.0)
    DUAL_RESIDUALS.append((label, state.max_dual_residual, scale))


def replay_csvs(config):
    """The CSV text of every seed of a fresh `harness.run_experiments([config])`.

    Called in the replay worker, so the problem, its reference and every run are
    rebuilt from the config alone, in a new interpreter.
    """
    [(_, traces)] = harness.run_experiments([config])
    return [harness.trace_to_csv(trace) for trace in traces]


def run_and_keep(configs, replays):
    """`harness.run_experiments` over the configs, the CLI's own path; yields (config, traces).

    Keeps each locodl trace's dual residual and each config's CSV texts, and
    submits the config's replay to the `replays` worker as soon as its runs end.
    """
    for config, traces in harness.run_experiments(configs):
        for seed, trace in zip(config.seeds, traces):
            if config.algorithm == "locodl":
                DUAL_RESIDUALS.append((f"{config.label}/seed{seed}",
                                       trace.metadata["max_dual_residual"],
                                       1.0 + trace.metadata["max_dual_scale"]))
        CSV_RUNS.append((config, [harness.trace_to_csv(trace) for trace in traces],
                         replays.submit(replay_csvs, config)))
        yield config, traces


@pytest.fixture(scope="module")
def quad_setup(quad_problem):
    ref = harness.solve_reference(quad_problem)
    spec = comp.make_spec("rand_k", quad_problem.d, k=1)
    params = alg.default_params(quad_problem.L, quad_problem.mu,
                                spec.omega, spec.omega / quad_problem.n)
    tau = alg.rate_bound(params, quad_problem.L, quad_problem.mu)
    return quad_problem, ref, spec, params, tau


def test_criterion_1_compressor_certification():
    start = time.perf_counter()
    d, trials = 16, 100_000
    rng = np.random.default_rng(0)
    probe = rng.standard_normal(d)
    probe[np.abs(probe) < 1e-3] = 1e-3

    cases = [("rand_k", 1), ("rand_k", 2), ("rand_k", 8), ("natural", None),
             ("rand_k_natural", 1), ("rand_k_natural", 2), ("rand_k_natural", 8),
             ("l1_selection", None), ("identity", None)]
    worst = ""
    ok = True
    for kind, k in cases:
        spec = comp.make_spec(kind, d, k=k)
        bias_ok, _, ratio = comp.certification(spec, probe, trials, rng)
        ratio_bound = spec.omega * 1.05 + 5.0 / np.sqrt(trials)
        if not (bias_ok and ratio <= ratio_bound):
            ok = False
            worst = f"{kind} k={k} ratio={ratio:.4f} bound={ratio_bound:.4f} bias_ok={bias_ok}"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(1, "compressor certification", ok,
           worst or f"{len(cases)} compressors, {trials} trials each, {elapsed:.1f}s")


def _copy_state(state):
    return alg.LoCoDLState(state.x.copy(), state.y.copy(), state.u.copy(), state.v.copy(),
                           state.saturation_events, state.max_dual_residual)


def one_step_contraction(problem, ref, spec, params, tau, label):
    """(ok, detail) of criterion 2's check for one compressor on the quadratic fixture.

    Warms a state up for 50 steps, then takes one step from it in 2,000
    trials: E[psi^1]/psi^0 must stay below 1.1*tau, and the contraction gap
    1 - E[psi^1]/psi^0 must reach the guaranteed 1 - tau up to 4 standard errors.
    """
    start = time.perf_counter()
    # reach a generic feasible non-optimal state first
    base = alg.LoCoDLState.zeros(problem.n, problem.d)
    rng = alg.RngBundle.from_seed(1234)
    for _ in range(50):
        alg.locodl_step(base, problem, spec, params, rng)
    register_locodl_state(label, base)
    psi0 = oracle.lyapunov_of(base, ref, params)
    assert psi0 > 0.0

    trials = 2000
    ratios = np.empty(trials)
    for i in range(trials):
        state = _copy_state(base)
        alg.locodl_step(state, problem, spec, params,
                        alg.RngBundle.from_seed(100_000 + i))
        ratios[i] = oracle.lyapunov_of(state, ref, params) / psi0
    mean_ratio = float(ratios.mean())
    elapsed = time.perf_counter() - start
    # 1.1*tau exceeds 1, so the first check fails only if a step grows psi; the second needs
    # the measured contraction gap to reach the guaranteed 1 - tau, up to 4 standard errors
    gap, se = 1.0 - mean_ratio, float(ratios.std(ddof=1)) / math.sqrt(trials)
    ok = mean_ratio <= 1.1 * tau and gap >= (1.0 - tau) - 4.0 * se and elapsed < 60.0
    return ok, (f"E[psi^1]/psi^0={mean_ratio:.6f} vs 1.1*tau={1.1 * tau:.6f}; "
                f"gap {gap:.6f} vs 1-tau={1.0 - tau:.6f}, SE {se:.1e}; {elapsed:.1f}s")


def test_criterion_2_one_step_contraction(quad_setup):
    report(2, "one-step Lyapunov contraction",
           *one_step_contraction(*quad_setup, "criterion2/warmup"))


# every compressor kind but criterion 2's own rand-1, with the rand_k_natural k of the configs
@pytest.mark.parametrize("kind, k", [("identity", None), ("natural", None),
                                     ("rand_k_natural", 2), ("l1_selection", None)])
def test_criterion_2_every_compressor_kind(quad_setup, kind, k):
    problem, ref = quad_setup[:2]
    spec = comp.make_spec(kind, problem.d, k=k)
    params = alg.default_params(problem.L, problem.mu, spec.omega, spec.omega / problem.n)
    tau = alg.rate_bound(params, problem.L, problem.mu)
    name = kind if k is None else f"{kind}, k {k}"
    report(2, f"one-step Lyapunov contraction, {name}",
           *one_step_contraction(problem, ref, spec, params, tau, f"criterion2/{kind}/warmup"))


def test_criterion_3_trajectory_bound(quad_setup):
    start = time.perf_counter()
    problem, ref, spec, params, tau = quad_setup
    n_seeds = 20
    # 3x the horizon at which the bound 2 psi^0 tau^t reaches the loop's 1e-8 psi^0
    cap = 3 * math.ceil(math.log(5e-9) / math.log(tau))
    histories = []
    for seed in range(n_seeds):
        state = alg.LoCoDLState.zeros(problem.n, problem.d)
        rng = alg.RngBundle.from_seed(seed)
        psi = [oracle.lyapunov_of(state, ref, params)]
        while psi[-1] > 1e-8 * psi[0]:
            if len(psi) > cap:     # cap steps taken
                report(3, "trajectory Lyapunov bound", False,
                       f"seed {seed}: psi above 1e-8*psi^0 after the cap of {cap} iterations")
            alg.locodl_step(state, problem, spec, params, rng)
            psi.append(oracle.lyapunov_of(state, ref, params))
        register_locodl_state(f"criterion3/seed{seed}", state)
        histories.append(np.array(psi))
    psi0 = histories[0][0]
    horizon = min(len(h) for h in histories)
    mean_psi = np.mean([h[:horizon] for h in histories], axis=0)
    bound = 2.0 * psi0 * tau ** np.arange(horizon)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(mean_psi <= bound)) and elapsed < 300.0
    margin = float(np.max(mean_psi / bound))
    report(3, "trajectory Lyapunov bound", ok,
           f"{n_seeds} seeds, horizon {horizon}, max(mean/bound)={margin:.4f}, {elapsed:.1f}s")


def test_criterion_5_sqrt_kappa_scaling(replays):
    start = time.perf_counter()
    configs = [harness.ExperimentConfig(
        problem={"source": "dirichlet", "d": 50, "alpha": 1.0}, n=25,
        kappa=kappa, algorithm="locodl", compressor="rand_k", k=2,
        seeds=tuple(range(10)), stop_metric="sqdist", stop_ratio=1e-6,
        cadence=100, max_iters=5_000_000, data_seed=7,
        label=f"scaling_k{kappa:g}") for kappa in (1e2, 1e3, 1e4)]
    bits_by_kappa = {}
    for config, traces in run_and_keep(configs, replays):
        bits = [harness.bits_to_target(tr, 1e-6, "sqdist_mean") for tr in traces]
        bits_by_kappa[config.kappa] = statistics.median(bits)
    slope = harness.fit_communication_exponent(bits_by_kappa)
    elapsed = time.perf_counter() - start
    ok = 0.35 <= slope <= 0.65 and elapsed < 900.0
    report(5, "sqrt-kappa communication scaling", ok,
           f"slope={slope:.4f} in [0.35, 0.65], {elapsed:.1f}s")


def test_criterion_6_bits_ordering_a5a(a5a_path, replays):
    start = time.perf_counter()
    configs = [harness.ExperimentConfig(
        problem={"source": "libsvm", "path": a5a_path}, n=87, kappa=1e4,
        algorithm=algo, compressor=compressor, k=k, seeds=(0, 1, 2),
        stop_metric="sqdist", stop_ratio=1e-5, max_iters=2_000_000,
        cadence=200, round_cadence=50, label=f"a5a_{algo}")
        for algo, compressor, k in (("locodl", "rand_k_natural", 2),
                                    ("diana", "rand_k", 2),
                                    ("gd", "identity", None))]
    medians = {}
    for config, traces in run_and_keep(configs, replays):
        bits = [harness.bits_to_target(tr, 1e-5, "sqdist_mean") for tr in traces]
        medians[config.algorithm] = statistics.median(bits)
    elapsed = time.perf_counter() - start
    ok = medians["locodl"] < medians["diana"] and medians["locodl"] < medians["gd"] \
        and elapsed < 1800.0
    report(6, "a5a-scale uplink-bits ordering", ok,
           f"locodl={medians['locodl']:.0f} < diana={medians['diana']:.0f}, "
           f"gd={medians['gd']:.0f}, {elapsed:.1f}s")


def test_criterion_7_g_zero_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    d, n = 6, 4
    A, b = [], []
    for _ in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = rng.uniform(0.02, 1.0, size=d)
        a = (q * eigs) @ q.T
        A.append(0.5 * (a + a.T))
        b.append(rng.standard_normal(d))
    original = obj.Problem(obj._BatchedQuadratic(np.stack(A), np.stack(b)), 0.0, 0.0)
    ref = harness.solve_reference(original)
    reduced = obj.reduce_g_zero(original, original.mu)

    spec = comp.make_spec("rand_k", d, k=2)
    params = alg.default_params(reduced.L, reduced.mu, spec.omega, spec.omega / n)
    state = alg.LoCoDLState.zeros(n, d)
    bundle = alg.RngBundle.from_seed(7)
    for t in range(1, 500_001):
        alg.locodl_step(state, reduced, spec, params, bundle)
        if float(np.max(np.sum((state.x - ref.x_star) ** 2, axis=1))) <= 1e-16:
            break
    register_locodl_state("criterion7", state)
    err = float(np.linalg.norm(state.x.mean(axis=0) - ref.x_star))
    elapsed = time.perf_counter() - start
    report(7, "g=0 reduction equivalence", err <= 1e-6,
           f"|x_final - x*|={err:.2e} after {t} iterations, {elapsed:.1f}s")


def test_criterion_8_byte_identical_replays():
    start = time.perf_counter()
    assert CSV_RUNS, "determinism criterion needs earlier acceptance runs"
    runs = mismatches = 0
    for config, csv_texts, replay in CSV_RUNS:
        runs += len(csv_texts)
        mismatches += sum(again != text for again, text in
                          zip(replay.result(timeout=REPLAY_TIMEOUT_S), csv_texts, strict=True))
    elapsed = time.perf_counter() - start
    report(8, "byte-identical deterministic replay", mismatches == 0,
           f"{runs} runs replayed, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_dual_feasibility():
    assert DUAL_RESIDUALS, "dual-feasibility criterion needs earlier acceptance runs"
    worst = max(res / (1e-9 * scale) for _, res, scale in DUAL_RESIDUALS)
    ok = all(res <= 1e-9 * scale for _, res, scale in DUAL_RESIDUALS)
    report(4, "dual feasibility across all runs", ok,
           f"{len(DUAL_RESIDUALS)} runs, worst residual at {worst:.2e} of tolerance")
