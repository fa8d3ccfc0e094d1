"""Per-client formulas of the local functions, written from their definitions.

The library evaluates local functions only in batches, through a `Problem`
(`grads_locals`, `value_mean`).  These one-client-at-a-time formulas take
the client's own arrays and regularization weight, and are the reference
that the tests hold the batched paths to.  `stack` gives a dataset's rows as
a dense array, from dense or CSR features.  `serialize_libsvm` writes a
dataset back as LibSVM text, the inverse the parser's round trips check.
`parse_lines` parses LibSVM text one line at a time, the reference that
the tests hold `data.parse_libsvm`'s arrays and errors to.  `compress_round`
spells out each compressor kind as its own branch, the reference that the
tests hold `compressors.compress_round`'s pipeline to, bit for bit.
`Recorder` computes every trace column at each record point from the
state, with `observe`, the one-state `lyapunov` and the one-point
`value_mean`: the reference that the tests hold `harness._Recorder`'s
chunked columns to, byte for byte.  `state_stacks` and `lyapunov_of` give
the library's stacked `lyapunov` one state.  `render` draws an SVG from one
(x, y) tuple per point, the reference that the tests hold `svgplot.render`
to, byte for byte.  `stack_batch` builds a logistic batch's sparse arrays
and curvature bounds from the (n, m, d) stack of its clients' rows, the
reference that the tests hold the stack-free build to; `unstack` gives a stack as the (features, labels, rows) the library takes.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy import sparse
from scipy.special import expit

from locodl.algorithms import lyapunov as alg_lyapunov
from locodl.compressors import _natural_round, _rand_subsets
from locodl.errors import InputError, ParseError
from locodl.harness import CONSTANT_COLUMNS, VARYING_COLUMNS, ExperimentTrace
from locodl.objectives import _BOUND_MARGIN, _BatchedQuadratic, max_eigenvalue_gram
from locodl.svgplot import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE,
                            WIDTH, _TEXT_ESCAPES, _decades)


def logistic_value(features, labels, reg, x):
    """Mean of log(1 + exp(-b a^T x)) over the client's rows, plus (reg/2)||x||^2."""
    losses = np.logaddexp(0.0, -labels * (features @ x))    # the stable log-sum-exp
    return float(np.mean(losses) + 0.5 * reg * float(x @ x))


def logistic_grad(features, labels, reg, x):
    """The gradient of `logistic_value` at x."""
    # d/dt log(1 + exp(-t)) = -sigmoid(-t)
    coeffs = -labels * expit(-labels * (features @ x))
    return features.T @ coeffs / labels.size + reg * x


def quadratic_value(A, b, reg, x):
    """x^T A x / 2 - b^T x + (reg/2)||x||^2."""
    return float(0.5 * x @ (A @ x) - b @ x + 0.5 * reg * (x @ x))


def quadratic_grad(A, b, reg, x):
    """The gradient of `quadratic_value` at x."""
    return A @ x - b + reg * x


def quadratic_minimizer(A, b, reg=0.0):
    """The minimizer of `quadratic_value`: the solution of (A + reg I) x = b."""
    return np.linalg.solve(A + reg * np.eye(b.size), b)


def stack(dataset, rows):
    """dataset.features[rows] as a dense array, from dense or CSR features: for the (n, m)
    row indices of a partition, the (n, m, d) stack of the clients' rows."""
    features = dataset.features
    if sparse.issparse(features):
        return features[np.ravel(rows)].toarray().reshape(*np.shape(rows), dataset.d)
    return features[rows]


def serialize_libsvm(shard):
    """Inverse of `data.parse_libsvm`: the nonzero features of every row, labels as -1/+1."""
    lines = []
    for row, label in zip(stack(shard, np.arange(shard.m)).tolist(), shard.labels.tolist()):
        pairs = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row) if v != 0.0)
        head = "+1" if label > 0 else "-1"
        lines.append(f"{head} {pairs}".rstrip())
    return "\n".join(lines) + "\n"


def parse_lines(lines):
    """(labels, features), one line at a time; a ParseError names the first bad line."""
    labels, rows, cols, vals = [], [], [], []
    d = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise ParseError(lineno, f"non-numeric label {parts[0]!r}") from None
        prev = 0
        for pair in parts[1:]:
            if ":" not in pair:
                raise ParseError(lineno, f"malformed feature pair {pair!r}")
            idx_s, val_s = pair.split(":", 1)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(lineno, f"malformed feature pair {pair!r}") from None
            if not math.isfinite(val):
                raise ParseError(lineno, f"non-finite feature value {pair!r}")
            if idx <= prev:
                raise ParseError(lineno, f"feature indices must be strictly increasing (saw {idx} after {prev})")
            prev = idx
            rows.append(len(labels))
            cols.append(idx - 1)
            vals.append(val)
        if prev > d:
            d, d_line = prev, lineno
        labels.append(label)
    try:
        features = np.zeros((len(labels), d))
    except (ValueError, MemoryError):
        raise ParseError(d_line, f"feature index {d} is too large: numpy cannot allocate "
                                 f"{len(labels)} x {d} features") from None
    features[rows, cols] = vals
    return labels, features


def compress_round(spec, X, rng):
    """(payloads, saturated) of one round, one branch per kind, drawing from rng
    in the library's order: the rand-k subsets first, then the rounding uniforms."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape

    if spec.kind == "identity":
        return X.copy(), 0

    if spec.kind == "rand_k":
        idx = _rand_subsets(rng, n, d, spec.k)
        payload = np.zeros(X.shape)
        rows = np.arange(n)[:, None]
        payload[rows, idx] = X[rows, idx] * (spec.d / spec.k)
        return payload, 0

    if spec.kind == "natural":
        payload, sat = _natural_round(X, rng)
        return payload, int(sat.sum())

    if spec.kind == "rand_k_natural":
        idx = _rand_subsets(rng, n, d, spec.k)
        rows = np.arange(n)[:, None]
        scaled = X[rows, idx] * (spec.d / spec.k)
        rounded, sat = _natural_round(scaled, rng)
        payload = np.zeros(X.shape)
        payload[rows, idx] = rounded
        return payload, int(sat.sum())

    if spec.kind == "l1_selection":
        cum = np.cumsum(np.abs(X), axis=1)
        norms = cum[:, -1]
        payload = np.zeros(X.shape)
        alive = norms > 0.0
        if alive.any():
            # u <= norms = cum[:, -1], so the selected index j is at most d - 1
            u = rng.random(n) * norms
            j = (cum < u[:, None]).sum(axis=1)
            rows = np.arange(n)
            payload[rows, j] = np.copysign(norms, X[rows, j])
            payload[~alive] = 0.0   # a zero row sends a zero message
        return payload, 0

    raise ValueError(f"unknown compressor kind {spec.kind!r}")


def state_stacks(state):
    """One state's (x; u) and (y; v) as the one-row stacks `algorithms.lyapunov` takes."""
    return np.concatenate((state.x, state.u))[None], np.stack((state.y, state.v))[None]


def lyapunov_of(state, ref, params):
    """The library's `algorithms.lyapunov` of one state, through its one-row stacks."""
    return float(alg_lyapunov(*state_stacks(state), ref, params)[0])


def lyapunov(state, ref, params):
    """Weighted squared distance of one state's (x, y, u, v) to the saddle point."""
    n = len(state.x)
    xu_star = np.concatenate((np.tile(ref.x_star, (n, 1)), ref.u_star))
    yv_star = np.concatenate((ref.x_star, ref.v_star))
    xu = np.concatenate((state.x, state.u)) - xu_star
    xu *= xu
    yv = np.concatenate((state.y, state.v)) - yv_star
    yv *= yv
    sq_x, sq_u = np.add.reduce(xu.reshape(2, -1), 1).tolist()
    sq_y, sq_v = np.add.reduce(yv.reshape(2, -1), 1).tolist()
    primal = sq_x + n * sq_y
    dual = sq_u + n * sq_v
    return primal / params.gamma \
        + params.gamma * (1.0 + 2.0 * params.omega) / (params.p ** 2 * params.chi) * dual


def value_mean(problem, x):
    """`Problem.value_mean` at one (d,) point, with one matrix-vector product per term."""
    batch = problem.batch
    if isinstance(batch, _BatchedQuadratic):
        loss = float(0.5 * x @ (batch.A_bar @ x) - batch.b_bar @ x)
    else:
        losses = np.logaddexp(0.0, -batch.b.ravel() * batch._margins(x).ravel())
        loss = float(losses.sum() / losses.size)
    sq = float(x @ x)
    return loss + 0.5 * problem.reg * sq + 0.5 * problem.g_weight * sq


def observe(state, ref, params):
    """(x_mean, x_clients, y, psi) of a state; a baseline (params None) has no psi."""
    x = state.x.reshape(-1, state.x.shape[-1])    # gd and diana keep one (d,) model
    x_mean = x.sum(axis=0) / x.shape[0]
    if params is None:
        return x_mean, x, x_mean, float("nan")
    return x_mean, x, state.y, lyapunov(state, ref, params)


class Recorder:
    """`harness._Recorder`'s interface, with one row of every column computed per record."""

    def __init__(self, meta_common, ref, problem, state, params, stop_column):
        self.rows = []             # tuples in VARYING_COLUMNS order
        self.meta = meta_common
        self.ref = ref
        self.problem = problem
        self.state = state
        self.params = params
        self.stop = VARYING_COLUMNS.index(stop_column)

    def record(self, t, rounds, bits):
        x_mean, x_clients, y, psi = observe(self.state, self.ref, self.params)
        dx = x_clients - self.ref.x_star
        sq = (dx * dx).sum(axis=1)
        dy = y - self.ref.x_star
        self.rows.append((t, rounds, bits, float(sq.sum() / sq.shape[0]), float(dy @ dy),
                          value_mean(self.problem, x_mean) - self.ref.f_star, psi))
        return self.rows[-1][self.stop]

    def trace(self, extra_meta):
        columns = {name: [self.meta[name]] * len(self.rows) for name in CONSTANT_COLUMNS}
        columns.update(zip(VARYING_COLUMNS, map(list, zip(*self.rows))))
        meta = dict(self.meta)
        meta.update(extra_meta)
        return ExperimentTrace(columns, meta)


def render(series, x_label="x", y_label="y"):
    """`svgplot.render` with one (x, y) tuple per point and every plotted x and y listed:
    series is a list of (label, runs), each run an (xs, ys) pair drawn as its own line in
    the label's colour; plots the points with a finite x and a finite y > 0."""
    cleaned = []
    for label, runs in series:
        lines = [pts for pts in ([(float(x), float(y)) for x, y in zip(xs, ys)
                                  if math.isfinite(x) and y > 0 and math.isfinite(y)]
                                 for xs, ys in runs) if pts]
        if lines:
            cleaned.append((label, lines))
    if not cleaned:
        raise InputError(f"nothing to plot: no point has a finite {x_label} "
                         f"and a positive finite {y_label}")

    all_x = [x for _, lines in cleaned for pts in lines for x, _ in pts]
    all_y = [y for _, lines in cleaned for pts in lines for _, y in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    ticks = _decades(min(all_y), max(all_y))
    y_lo, y_hi = math.log10(ticks[0]), math.log10(ticks[-1])
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return MARGIN_T + plot_h * (1.0 - (math.log10(y) - y_lo) / (y_hi - y_lo))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
           f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
           'fill="none" stroke="black"/>']

    for tick in ticks:
        y = py(tick)
        exp = int(round(math.log10(tick)))
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" y2="{y:.2f}" '
                   'stroke="black"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-size="12">1e{exp}</text>')

    for i in range(5):
        x = x_lo + (x_hi - x_lo) * i / 4
        xp = px(x)
        out.append(f'<line x1="{xp:.2f}" y1="{MARGIN_T + plot_h}" x2="{xp:.2f}" '
                   f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{xp:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
                   f'font-size="12">{x:.3g}</text>')

    out.append(f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 10}" text-anchor="middle" '
               f'font-size="13">{x_label.translate(_TEXT_ESCAPES)}</text>')
    out.append(f'<text x="18" y="{MARGIN_T + plot_h / 2}" text-anchor="middle" font-size="13" '
               f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2})">'
               f'{y_label.translate(_TEXT_ESCAPES)}</text>')

    for idx, (label, lines) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        for pts in lines:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       'stroke-width="1.5"/>')
        ly = MARGIN_T + 15 + 18 * idx
        lx = WIDTH - MARGIN_R + 10
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 20}" y2="{ly}" stroke="{color}" '
                   'stroke-width="1.5" class="legend"/>')
        out.append(f'<text x="{lx + 25}" y="{ly + 4}" font-size="12" class="legend">'
                   f'{label.translate(_TEXT_ESCAPES)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def unstack(A, b):
    """(features, labels, rows) whose client i is the stack's A[i], b[i], row for row."""
    n, m, d = A.shape
    return A.reshape(n * m, d), b.reshape(n * m), np.arange(n * m).reshape(n, m)


def stack_batch(A, b):
    """`hi`, `lo`, `b` and, for sparse data, `_flat` and `_block` of a logistic batch,
    built from the (n, m, d) stack of its clients' rows."""
    n, m, d = A.shape
    # each client's Gram bound, solved in falling order while it could be the largest
    bounds = np.array([np.linalg.norm(a.T @ a) for a in A]) * _BOUND_MARGIN
    top = -np.inf
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] <= top:
            break
        bounds[i] = max_eigenvalue_gram(A[i])
        top = max(top, bounds[i])
    batch = SimpleNamespace(b=b, lo=np.zeros(n), hi=bounds / (4.0 * m), _flat=None, _block=None)
    if A.size > 1 << 16 and np.count_nonzero(A) < 0.25 * A.size:
        nonzero = A != 0
        entries = np.flatnonzero(nonzero)   # row-major: by row, then by column
        indptr = np.concatenate(([0], np.cumsum(nonzero.sum(axis=2).ravel())))
        batch._flat = sparse.csr_matrix((A.ravel()[entries], entries % d, indptr),
                                        shape=(n * m, d))
        # client i's entries lie at flat indices i*m*d .. (i+1)*m*d - 1; its columns move i*d
        block_cols = entries // (m * d) * d + batch._flat.indices
        batch._block = sparse.csr_matrix((batch._flat.data, block_cols, batch._flat.indptr),
                                         shape=(n * m, n * d))
    return batch
