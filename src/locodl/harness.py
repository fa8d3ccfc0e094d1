"""Experiment driver: reference solutions, metric traces, and scaling fits.

A run builds the problem, validates the schedule against the convergence
conditions, iterates the chosen algorithm, and records a metric trace at a
configurable cadence (every communication round plus every `cadence`-th
iteration by default).  Traces serialize to CSV with a fixed column order and
a key=value metadata sidecar; identical seeds give byte-identical files on
one numpy/scipy/BLAS build and BLAS thread count.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from array import array
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import algorithms as alg
from . import objectives as obj
from .compressors import make_spec
from .data import dirichlet_synthetic, load_libsvm, partition
from .errors import ConfigurationError, ConvergenceError, InputError, NonFiniteError

CSV_COLUMNS = ["algorithm", "dataset", "n", "d", "kappa", "compressor", "seed",
               "t", "rounds", "bits_per_client", "sqdist_mean", "sqdist_ybar",
               "obj_gap", "lyapunov"]
CONSTANT_COLUMNS = CSV_COLUMNS[:7]    # one value per trace
VARYING_COLUMNS = CSV_COLUMNS[7:]     # one value per record point

# bytes of saved state and objective work per chunk of `_Recorder`; a chunk holds at least
# one record point
RECORD_BUDGET = 256 * 1024

NEWTON_ITER_CAP = 50
REFERENCE_TOL = 1e-12
ARMIJO_C = 1e-4
ARMIJO_MIN_STEP = 1e-12


def solve_reference(problem):
    """Damped Newton on the full objective, from x = 0.

    Each iteration takes the full Newton step, halved until the Armijo
    condition holds, so a quadratic reaches its closed form in one step.
    With tol = REFERENCE_TOL, the solve stops once ||grad f(x)|| <=
    tol * mu * (1 + ||x||) or a full Newton step is no longer than
    tol * (1 + ||x||).  Both rules bound ||x - x*|| by tol * (1 + ||x||); the
    step rule is the one float64 can still meet when rounding in the gradient
    exceeds the gradient rule (ill-conditioned quadratics).  Raises ConvergenceError when
    NEWTON_ITER_CAP steps meet neither rule or a line search finds no
    decrease.
    """
    x = np.zeros(problem.d)
    f = problem.value_mean(x)
    for steps in range(NEWTON_ITER_CAP + 1):
        g = problem.grad_mean(x)
        gnorm = float(np.linalg.norm(g))
        scale = REFERENCE_TOL * (1.0 + float(np.linalg.norm(x)))
        if gnorm <= problem.mu * scale:
            break
        if steps == NEWTON_ITER_CAP:
            raise ConvergenceError(f"reference solver hit {NEWTON_ITER_CAP} Newton steps; "
                                   f"gradient norm {gnorm:.3e}")
        step = np.linalg.solve(problem.hessian_mean(x), -g)
        slope = ARMIJO_C * float(g @ step)      # < 0: the required decrease per unit step
        # f is known to a few ulps only; near x* the test must not fail on rounding
        slack = 8.0 * np.finfo(np.float64).eps * abs(f)
        t = 1.0
        while not (f_new := problem.value_mean(x + t * step)) <= f + t * slope + slack:
            t *= 0.5
            if t < ARMIJO_MIN_STEP:
                raise ConvergenceError(f"reference line search found no decrease; "
                                       f"gradient norm {gnorm:.3e}")
        x, f = x + t * step, f_new
        if t == 1.0 and float(np.linalg.norm(step)) <= scale:
            break
    u_star = problem.grads_locals(x)
    v_star = problem.grad_g(x)
    grad_norm = float(np.linalg.norm(u_star.mean(axis=0) + v_star))
    return alg.ReferenceSolution(x, u_star, v_star, f, grad_norm)


@dataclass
class ExperimentConfig:
    problem: dict                 # {'source': 'libsvm'|'quadratic'|'dirichlet', ...}
    n: int
    kappa: float = 100.0
    algorithm: str = "locodl"     # a key of algorithms.SCHEDULE_KEYS
    compressor: str = "identity"
    k: int | None = None
    seeds: tuple = (0,)
    stop_metric: str = "psi"      # psi | sqdist
    stop_ratio: float = 1e-8
    max_iters: int = 10_000_000
    cadence: int = 100
    round_cadence: int = 1
    overrides: dict = field(default_factory=dict)   # schedule field -> value, held as float
    data_seed: int = 0
    label: str = ""

    def __post_init__(self):
        if not self.seeds:
            raise InputError("seeds must be nonempty")
        for key in ("n", "cadence", "round_cadence"):
            if getattr(self, key) < 1:
                raise InputError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not (math.isfinite(self.kappa) and self.kappa >= 1):
            raise InputError(f"kappa must be finite and at least 1, got {self.kappa}")
        if self.problem.get("source") in ("libsvm", "dirichlet") and self.kappa <= 1:
            # the regularization weight that sets kappa is mu = L_loss / (kappa - 1)
            raise InputError(f"kappa must exceed 1 for a logistic problem, got {self.kappa}")
        if self.data_seed < 0:
            raise InputError(f"data_seed must be non-negative, got {self.data_seed}")
        if not (math.isfinite(self.stop_ratio) and self.stop_ratio > 0):
            raise InputError(f"stop_ratio must be finite and positive, got {self.stop_ratio}")
        if self.max_iters < 0:
            raise InputError(f"max_iters must be non-negative, got {self.max_iters}")
        if self.stop_metric not in ("psi", "sqdist"):
            raise InputError(f"unknown stop metric {self.stop_metric!r}")
        if self.algorithm not in alg.SCHEDULE_KEYS:
            raise InputError(f"unknown algorithm {self.algorithm!r} "
                             f"(choose from {', '.join(alg.SCHEDULE_KEYS)})")
        takes = alg.SCHEDULE_KEYS[self.algorithm]
        for key in self.overrides:
            if key not in takes:
                raise InputError(f"[algo:{self.label}] {key}: {self.algorithm} takes only "
                                 f"{', '.join(takes)}")
        self.overrides = {key: float(value) for key, value in self.overrides.items()}
        if self.stop_metric == "psi" and self.algorithm != "locodl":
            raise InputError(f"[algo:{self.label}] stop_metric psi is defined only for locodl")
        if self.algorithm in ("gd", "scaffnew") and self.compressor != "identity":
            raise InputError(f"[algo:{self.label}] compressor = {self.compressor}: "
                             f"{self.algorithm} sends full vectors, so it takes only identity")

    @property
    def stop_column(self):
        """The trace column that the stop metric reads."""
        return "lyapunov" if self.stop_metric == "psi" else "sqdist_mean"

    def content_hash(self):
        text = repr(sorted(self.__dict__.items(), key=lambda kv: kv[0]))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class ExperimentTrace:
    # column name -> values, keys follow CSV_COLUMNS: a recorded trace holds each varying
    # column as an `array.array` ('q' for the counters, 'd' for the metrics) and each
    # constant column as a list of one repeated value
    columns: dict
    metadata: dict

    def array(self, name):
        """The column as a read-only numpy array: a view of an `array.array` column."""
        values = np.asarray(self.columns[name])
        values.flags.writeable = False
        return values


def build_problem(config, cache=None):
    """Returns (problem, baseline_problem); the baseline is the same batch, folded.

    kappa sets only a logistic problem's mu = lam_max(A^T A) / (4m(kappa - 1)),
    so its dataset, partition, client batch and lam_max are built once per
    (source, n, data_seed) in `cache` (`prepare`'s) and shared by every kappa;
    each kappa builds its own mu, L and Problem.  A quadratic, whose spectra
    depend on kappa, is always built whole.
    """
    src = config.problem
    if src["source"] == "quadratic":
        rng = np.random.default_rng(config.data_seed)
        problem = obj.random_quadratic_problem(int(src["d"]), config.n, config.kappa, rng)
        return problem, obj.fold_shared(problem)
    cache = {} if cache is None else cache
    key = ("logistic batch", repr(sorted(src.items())), config.n, config.data_seed)
    if key not in cache:
        if src["source"] == "libsvm":
            dataset = load_libsvm(src["path"])
        elif src["source"] == "dirichlet":
            dataset = dirichlet_synthetic(config.n, int(src["d"]), float(src["alpha"]),
                                          config.data_seed)
        else:
            raise InputError(f"unknown problem source {src['source']!r}")
        rows = partition(dataset, config.n, config.data_seed)
        lam_max = obj.max_eigenvalue_gram(dataset.features)
        mu = obj.mu_for_kappa(lam_max, dataset.m, config.kappa)
        # the batch keeps only its clients' rows, so the dataset is freed on return
        cache[key] = (obj.logistic_problem(dataset.features, dataset.labels, rows, mu).batch,
                      lam_max, dataset.m)
    batch, lam_max, m = cache[key]
    mu = obj.mu_for_kappa(lam_max, m, config.kappa)
    problem = obj.Problem(batch, mu, mu)
    return problem, obj.fold_shared(problem)


class _Recorder:
    """Collects the varying columns of one trace, one row per record point.

    `record` copies the state into the next row of the chunk buffers, keeps
    the counters, and computes only the stop column, which the run loop reads
    at once.  `flush` computes the other derived columns for every buffered
    row, one stacked call per column, when the chunk is full and in `trace()`.
    A chunk holds at least one row, and as many as fit RECORD_BUDGET bytes of
    saved state plus `obj_gap`'s objective terms (a logistic batch's n*m
    margins per row); no other column's temporaries outgrow the saved state.
    The flush appends the chunk's rows to `flushed`, one typed array per
    varying column (8 bytes a record each), so no per-record Python object
    outlives its chunk.  The constant columns (algorithm .. seed) are filled
    once, in `trace()`.
    """

    def __init__(self, meta_common, ref, problem, state, params, stop_column):
        self.meta = meta_common
        self.ref = ref
        self.problem = problem
        self.state = state
        self.params = params          # None for a baseline, which has no Lyapunov value
        d = problem.d
        # locodl saves (x; u) and (y; v); a baseline its model(s) alone, a (d,) one as one row
        self.clients = state.x.size // d
        rows = self.clients if params is None else 2 * self.clients
        # float64 entries: the saved state, and the objective's terms at the record's mean model
        per_record = 8 * (d * (rows + (0 if params is None else 2)) + problem.batch.value_terms)
        size = max(1, RECORD_BUDGET // per_record)
        self.xu = np.empty((size, rows, d))
        self.yv = None if params is None else np.empty((size, 2, d))
        self.filled = 0
        self.stop_column = stop_column
        self.online = []              # (t, rounds, bits, stop value) per record point of the chunk
        self.deferred = [name for name in VARYING_COLUMNS[3:] if name != stop_column]
        self.flushed = {name: array("q" if name in VARYING_COLUMNS[:3] else "d")
                        for name in VARYING_COLUMNS}

    def record(self, t, rounds, bits):
        """Saves the state as the next record point; returns its stop column's value."""
        i = self.filled
        if i == len(self.xu):
            self.flush()
            i = 0
        state = self.state
        xu = self.xu[i]
        if self.yv is None:
            xu[:] = state.x
            yv = None
        else:
            np.concatenate((state.x, state.u), out=xu)
            yv = self.yv[i]
            yv[0] = state.y
            yv[1] = state.v
        self.filled = i + 1
        # the stop column of the one saved row, through the column's own arithmetic
        value = float(self._COLUMNS[self.stop_column](self, xu, yv))
        self.online.append((t, rounds, bits, value))
        return value

    def flush(self):
        """Appends the buffered rows to the columns, the deferred ones computed now, and
        empties the buffers."""
        xu = self.xu[:self.filled]
        yv = None if self.yv is None else self.yv[:self.filled]
        for name in self.deferred:
            self.flushed[name].frombytes(self._COLUMNS[name](self, xu, yv).tobytes())
        for name, values in zip((*VARYING_COLUMNS[:3], self.stop_column), zip(*self.online)):
            self.flushed[name].extend(values)
        self.online.clear()
        self.filled = 0

    # each derived column of (R, rows, d) and (R, 2, d) stacks of the saved (x; u) and (y; v),
    # yv None for a baseline; the stop columns, sqdist_mean and lyapunov, also take one record
    # point's (rows, d) and (2, d) arrays

    def _sqdist_mean(self, xu, yv):
        dx = xu[..., :self.clients, :] - self.ref.x_star
        dx *= dx
        return np.add.reduce(np.add.reduce(dx, -1), -1) / self.clients

    def _mean_model(self, xu):
        return np.add.reduce(xu[..., :self.clients, :], -2) / self.clients

    def _sqdist_ybar(self, xu, yv):
        # a baseline's anchor is its mean model
        dy = (self._mean_model(xu) if yv is None else yv[..., 0, :]) - self.ref.x_star
        return obj.row_dots(dy, dy)

    def _obj_gap(self, xu, yv):
        return self.problem.value_mean(self._mean_model(xu)) - self.ref.f_star

    def _lyapunov(self, xu, yv):
        if yv is None:
            return np.full(xu.shape[:-2], math.nan)
        return alg.lyapunov(xu, yv, self.ref, self.params)

    # plain functions, so that a recorder holds no bound method of itself and is freed by refcount
    _COLUMNS = {"sqdist_mean": _sqdist_mean, "sqdist_ybar": _sqdist_ybar, "obj_gap": _obj_gap,
                "lyapunov": _lyapunov}

    def trace(self, extra_meta):
        self.flush()
        rows = len(self.flushed["t"])
        columns = {name: [self.meta[name]] * rows for name in CONSTANT_COLUMNS}
        columns.update(self.flushed)
        meta = dict(self.meta)
        meta.update(extra_meta)
        return ExperimentTrace(columns, meta)


def _stepper(config, problem, baseline, spec, rng):
    """(objective, state, step, params, schedule) of the configured algorithm.

    The only code that resolves a schedule (the theory's, with the config's
    overrides in place of its fields) and checks it: locodl's against the
    convergence conditions, a baseline's overrides against their ranges.
    `step()` advances the state one iteration and returns whether it was a
    communication round; it binds `alg.<name>_step` at each call of
    `_stepper`, so a wrapper installed on it sees every step.
    `params` is locodl's `AlgoParams`, None for a baseline.  `schedule` goes
    into the trace's metadata.
    """
    n, d, algo, params = config.n, problem.d, config.algorithm, None
    if algo == "locodl":
        objective = problem
        params = replace(alg.default_params(problem.L, problem.mu, spec.omega, spec.omega / n),
                         **config.overrides)
        schedule = dict(asdict(params), tau=alg.rate_bound(params, problem.L, problem.mu))
        state = alg.LoCoDLState.zeros(n, d)
        step = partial(alg.locodl_step, state, problem, spec, params, rng)
    else:
        objective = baseline      # baselines run on the folded problem
        for key, value in config.overrides.items():
            if not (0.0 < value <= 1.0 if key == "p" else 0.0 < value < math.inf):
                raise ConfigurationError(f"{key} = {value}: {algo} needs " + (
                    "0 < p <= 1" if key == "p" else f"a finite positive {key}"))
        if algo == "scaffnew":
            schedule = {"gamma": 1.0 / baseline.L,
                        "p": float(min(1.0, 1.0 / np.sqrt(baseline.kappa))), **config.overrides}
            state = alg.BaselineState(np.zeros((n, d)), np.zeros((n, d)))
            step = partial(alg.scaffnew_step, state, baseline, schedule["gamma"], schedule["p"],
                           rng)
        elif algo == "gd":
            schedule = {"gamma": 1.0 / baseline.L, **config.overrides}
            state = alg.BaselineState(np.zeros(d))
            step = partial(alg.gd_step, state, baseline, schedule["gamma"])
        else:  # diana
            schedule = {"gamma": alg.diana_gamma(baseline.L, baseline.mu, spec.omega, n),
                        **config.overrides, "omega": spec.omega}
            state = alg.BaselineState(np.zeros(d), np.zeros((n, d)))
            step = partial(alg.diana_step, state, baseline, spec, schedule["gamma"], rng)
    return objective, state, step, params, schedule


def run_single(config, problem, baseline, ref, seed):
    """One seeded trajectory of the configured algorithm; returns an ExperimentTrace."""
    spec = make_spec(config.compressor, problem.d, config.k)
    meta = {"algorithm": config.algorithm, "dataset": config.problem.get("path", config.problem["source"]),
            "n": config.n, "d": problem.d, "kappa": problem.kappa,
            "compressor": _compressor_name(config), "seed": seed}
    objective, state, step, params, schedule = _stepper(config, problem, baseline, spec,
                                                        alg.RngBundle.from_seed(seed))
    extra = {"config_hash": config.content_hash(), "stop_metric": config.stop_metric,
             "stop_ratio": config.stop_ratio, "dirichlet_labels": "seeded fair coin",
             "reference_grad_norm": ref.grad_norm, **schedule}
    rec = _Recorder(meta, ref, objective, state, params, config.stop_column)
    threshold = config.stop_ratio * rec.record(0, 0, 0)
    max_iters, cadence, round_cadence = config.max_iters, config.cadence, config.round_cadence
    t = rounds = 0
    while t < max_iters:
        try:
            new_round = step()
        except NonFiniteError:
            # the data are finite, so a non-finite message to compress is an overflowed iterate
            raise ConvergenceError(f"{config.algorithm} run diverged: a message to compress is "
                                   f"not finite at iteration {t + 1}") from None
        t += 1
        rounds += new_round
        # the state a run stops at is always recorded, also when it stops on max_iters
        if (new_round and rounds % round_cadence == 0) or t % cadence == 0 or t == max_iters:
            # each round uploads one message per client; gd and scaffnew take only identity
            value = rec.record(t, rounds, rounds * spec.bits_per_message)
            if value <= threshold:
                break
            if not math.isfinite(value):
                raise ConvergenceError(f"{config.algorithm} run diverged: stop metric "
                                       f"{config.stop_metric} is {value} at iteration {t}")
    if config.algorithm == "locodl":
        extra.update(max_dual_residual=state.max_dual_residual,
                     max_dual_scale=float(np.max(np.abs(state.u))) if state.u.size else 0.0,
                     natural_saturation_events=state.saturation_events)
    return rec.trace(extra)


def _compressor_name(config):
    if config.k is not None:
        return f"{config.compressor}{config.k}"
    return config.compressor


def prepare(config, cache):
    """The config's (problem, baseline, reference), once its compressor and schedule pass.

    Runs `make_spec` and `_stepper` against the built problem; their errors
    are raised again with the block's `[algo:<label>] ` in front.  `cache`
    maps a problem's identity to its (problem, baseline, reference), so
    configs that share a problem build and solve it only once; configs that
    differ only in kappa share a logistic dataset, partition, client batch
    and lam_max (see `build_problem`), but not mu, L or the reference.
    """
    key = (repr(sorted(config.problem.items())), config.n, config.kappa, config.data_seed)
    if key not in cache:
        problem, baseline = build_problem(config, cache)
        cache[key] = (problem, baseline, solve_reference(problem))
    problem, baseline, ref = cache[key]
    try:
        _stepper(config, problem, baseline, make_spec(config.compressor, problem.d, config.k), None)
    except (InputError, ConfigurationError) as exc:
        raise type(exc)(f"[algo:{config.label}] {exc}") from None
    return cache[key]


def run_experiments(configs):
    """Every seed of every config: a lazy iterator of (config, traces), one trace per seed.

    Each config is `prepare`d on one shared cache before this returns, so a
    bad block raises before any run, and configs that share a problem build
    and solve it once.  A config's seeds run through `run_single` only when
    the iterator reaches it.
    """
    cache = {}
    prepared = [(config, prepare(config, cache)) for config in configs]
    return ((config, [run_single(config, *setup, seed) for seed in config.seeds])
            for config, setup in prepared)


def bits_to_target(trace, target_ratio, metric="sqdist_mean"):
    """Per-client uplink bits at the first record where metric/initial <= target_ratio."""
    vals = trace.array(metric)
    bits = trace.array("bits_per_client")
    ok = vals <= target_ratio * vals[0]
    idx = np.argmax(ok)
    if not ok[idx]:
        raise ConvergenceError(f"trace never reached {metric} ratio {target_ratio}")
    return int(bits[idx])


def fit_communication_exponent(results):
    """Least-squares slope of log(bits-to-target) against log(kappa)."""
    if len(results) < 3:
        raise InputError("need at least 3 kappa values for a scaling fit")
    kappas = np.array(sorted(results))
    bits = np.array([results[k] for k in kappas], dtype=np.float64)
    slope, _ = np.polyfit(np.log(kappas), np.log(bits), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


_CSV_SPECIALS = frozenset(',"\r\n')


def _quote(text):
    """A CSV cell as `csv.QUOTE_MINIMAL` writes it."""
    if _CSV_SPECIALS.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _cell(value):
    return _quote(value) if isinstance(value, str) else _fmt(value)


# the cell formatter of one exact type, mapped over a whole column without a Python call per cell
_TYPE_FORMATS = {float: repr, int: str, str: _quote}


def _format_column(column):
    """The CSV cells of one column, each as `_cell` gives it.

    A column of one exact type is formatted by that type's formatter; an int
    or str column that holds one value is formatted once.
    """
    types = set(map(type, column))
    fmt = _TYPE_FORMATS.get(types.pop()) if len(types) == 1 else None
    if fmt is None:
        return map(_cell, column)
    if fmt is not repr and column.count(column[0]) == len(column):
        return [fmt(column[0])] * len(column)
    return map(fmt, column)


def trace_to_csv(trace):
    cells = [_format_column(trace.columns[name]) for name in CSV_COLUMNS]
    return "\n".join([",".join(CSV_COLUMNS), *map(",".join, zip(*cells, strict=True))]) + "\n"


def metadata_text(trace):
    lines = [f"{key}={_fmt(trace.metadata[key])}" for key in sorted(trace.metadata)]
    return "\n".join(lines) + "\n"


def atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace(trace, csv_path):
    atomic_write(csv_path, trace_to_csv(trace))
    atomic_write(csv_path[:-4] + ".meta" if csv_path.endswith(".csv") else csv_path + ".meta",
                 metadata_text(trace))
