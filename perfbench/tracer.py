"""Layer probes installed from outside the program.

`SetupProbe` is always on: it times the few top-level harness calls that
define `setup_s` and `iters_per_s`, and keeps every trajectory for the
correctness checks.  `LayerTracer` is installed only in a traced run: it
wraps the public functions of every layer, aggregates hot-path calls in
memory (count, total, p50, p99), records exact counters, and keeps phase
spans with parent ids.  Both patch module attributes, and `uninstall`
restores them, so nothing under `src/` is edited.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

from locodl import algorithms, cli, compressors, harness, objectives, svgplot

STEP_FNS = {"locodl": "locodl_step", "diana": "diana_step",
            "scaffnew": "scaffnew_step", "gd": "gd_step"}


class _Patches:
    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


class SetupProbe(_Patches):
    """Times build_problem + solve_reference (setup) and run_single (iterations)."""

    def __init__(self):
        super().__init__()
        self.setup_s = 0.0
        self.run_s = 0.0
        self.trajectories = []   # (config, seed, trace)

    def install(self):
        def timed_setup(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.setup_s += time.perf_counter() - t0
            return wrapper

        def timed_run(fn):
            def wrapper(config, problem, baseline, ref, seed):
                t0 = time.perf_counter()
                trace = fn(config, problem, baseline, ref, seed)
                self.run_s += time.perf_counter() - t0
                self.trajectories.append((config, seed, trace))
                return trace
            return wrapper

        self.wrap(harness, "build_problem", timed_setup)
        self.wrap(harness, "solve_reference", timed_setup)
        self.wrap(harness, "run_single", timed_run)
        return self


class LayerTracer(_Patches):
    """Per-layer timings, exact counters and phase spans for one traced pass."""

    def __init__(self):
        super().__init__()
        self.samples = defaultdict(list)   # key -> durations in seconds
        self.counts = defaultdict(int)
        self.spans = []                    # dicts: id, parent, name, start, end
        self._span_stack = []
        self._child_time = []              # one accumulator per open step
        self._ref_problems = set()
        self._in_reference = False

    # -- helpers -------------------------------------------------------------

    def _hot(self, key_of):
        """Wrapper factory for a hot call: duration sample, charged to the open step."""
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                self.samples[key_of(args, result)].append(dt)
                if self._child_time:
                    self._child_time[-1] += dt
                return result
            return wrapper
        return make

    def _span(self, name, on_exit=None):
        """Wrapper factory for a phase: one span with a parent id, plus a total."""
        def make(fn):
            def wrapper(*args, **kwargs):
                span = {"id": len(self.spans), "name": name,
                        "parent": self._span_stack[-1]["id"] if self._span_stack else None,
                        "start": time.perf_counter()}
                self.spans.append(span)
                self._span_stack.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._span_stack.pop()
                    span["end"] = time.perf_counter()
                    self.samples[f"phase.{name}"].append(span["end"] - span["start"])
                if on_exit is not None:
                    on_exit(args, result)
                return result
            return wrapper
        return make

    def _step(self, algo):
        def make(fn):
            def wrapper(*args, **kwargs):
                self._child_time.append(0.0)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    child = self._child_time.pop()
                    self.samples[f"step.{algo}"].append(dt)
                    self.samples[f"step_self.{algo}"].append(dt - child)
            return wrapper
        return make

    # -- installation --------------------------------------------------------

    def install(self):
        def grads_key(args, result):
            kind = "common" if np.ndim(args[1]) == 1 else "points"
            if self._in_reference:
                self.counts["reference_grad_evals"] += 1
            return f"grads.{kind}"

        def round_key(args, result):
            self.counts["saturations"] += int(result[1])
            return f"round.{args[0].kind}"

        self.wrap(objectives.Problem, "grads_locals", self._hot(grads_key))
        self.wrap(objectives.Problem, "value_mean", self._hot(lambda a, r: "value_mean"))
        self.wrap(algorithms, "compress_round", self._hot(round_key))
        self.wrap(algorithms.LoCoDLState, "dual_residual",
                  self._hot(lambda a, r: "dual_residual"))
        self.wrap(algorithms, "lyapunov", self._hot(lambda a, r: "lyapunov"))
        self.wrap(harness._Recorder, "record", self._hot(lambda a, r: "record"))
        self.wrap(cli, "compress", self._hot(lambda a, r: "compress"))
        for algo, fn_name in STEP_FNS.items():
            self.wrap(algorithms, fn_name, self._step(algo))

        self.wrap(harness, "load_libsvm", self._span("parse"))
        self.wrap(harness, "partition", self._span("partition"))
        for fn_name in ("regularization_for_kappa", "logistic_problem",
                        "folded_logistic_problem", "random_quadratic_problem", "fold_shared"):
            self.wrap(objectives, fn_name, self._span("objectives"))
        self.wrap(harness, "build_problem", self._span("build"))
        self.wrap(harness, "solve_reference", self._reference)
        self.wrap(harness, "run_single", self._span("run_single", self._count_trajectory))
        self.wrap(harness, "write_trace", self._span("write", self._count_bytes))
        self.wrap(cli, "cmd_run", self._span("cli.run"))
        self.wrap(cli, "cmd_sweep", self._span("cli.sweep"))
        self.wrap(cli, "cmd_plot", self._span("plot"))
        self.wrap(cli, "cmd_certify", self._span("certify"))
        self.wrap(svgplot, "render", self._span("render"))
        return self

    def _reference(self, fn):
        spanned = self._span("reference")(fn)

        def wrapper(problem, *args, **kwargs):
            self.counts["reference_calls"] += 1
            self._ref_problems.add((problem.n, problem.d, problem.L, problem.mu))
            self._in_reference = True
            try:
                return spanned(problem, *args, **kwargs)
            finally:
                self._in_reference = False
        return wrapper

    def _count_trajectory(self, args, trace):
        cols = trace.columns
        self.counts["iterations"] += int(cols["t"][-1])
        self.counts["rounds"] += int(cols["rounds"][-1])
        self.counts["bits_per_client"] += int(cols["bits_per_client"][-1])

    def _count_bytes(self, args, result):
        csv_path = args[1]
        meta_path = csv_path[:-4] + ".meta" if csv_path.endswith(".csv") else csv_path + ".meta"
        self.counts["trace_bytes"] += os.path.getsize(csv_path) + os.path.getsize(meta_path)

    # -- report --------------------------------------------------------------

    def _stat(self, key, q=None, scale=1e6):
        values = self.samples.get(key)
        if not values:
            return 0.0
        if q is None:
            return float(np.sum(values))
        return float(np.percentile(values, q)) * scale

    def metrics(self):
        """Every per-layer metric, keyed by name, as (value, unit)."""
        s, c = self._stat, self.counts
        m = {
            "data.parse_s": (s("phase.parse"), "s"),
            "data.partition_s": (s("phase.partition"), "s"),
            "objectives.build_s": (s("phase.objectives"), "s"),
            "objectives.value_mean_us.p50": (s("value_mean", 50), "us"),
            "compressors.compress_calls": (len(self.samples["compress"]), "count"),
            "compressors.compress_us.p50": (s("compress", 50), "us"),
            "compressors.saturations": (c["saturations"], "count"),
            "algorithms.dual_residual_us.p50": (s("dual_residual", 50), "us"),
            "algorithms.lyapunov_us.p50": (s("lyapunov", 50), "us"),
            "algorithms.iterations": (c["iterations"], "count"),
            "algorithms.rounds": (c["rounds"], "count"),
            "algorithms.comm_ratio": (c["rounds"] / c["iterations"] if c["iterations"] else 0.0,
                                      "ratio"),
            "algorithms.bits_per_client": (c["bits_per_client"], "bits"),
            "harness.reference_s": (s("phase.reference"), "s"),
            "harness.reference_calls": (c["reference_calls"], "count"),
            "harness.reference_distinct": (len(self._ref_problems), "count"),
            "harness.reference_grad_evals": (c["reference_grad_evals"], "count"),
            "harness.records": (len(self.samples["record"]), "count"),
            "harness.record_us.p50": (s("record", 50), "us"),
            "harness.record_us.p99": (s("record", 99), "us"),
            "harness.write_s": (s("phase.write"), "s"),
            "harness.trace_bytes": (c["trace_bytes"], "bytes"),
            "cli.plot_s": (s("phase.plot"), "s"),
            "cli.certify_s": (s("phase.certify"), "s"),
            "svgplot.render_s": (s("phase.render"), "s"),
        }
        for path in ("points", "common"):
            key = f"grads.{path}"
            m[f"objectives.grads_calls.{path}"] = (len(self.samples[key]), "count")
            m[f"objectives.grads_us.{path}.p50"] = (s(key, 50), "us")
            m[f"objectives.grads_us.{path}.p99"] = (s(key, 99), "us")
        for kind in compressors.KINDS:
            key = f"round.{kind}"
            m[f"compressors.round_calls.{kind}"] = (len(self.samples[key]), "count")
            m[f"compressors.round_us.{kind}.p50"] = (s(key, 50), "us")
            m[f"compressors.round_us.{kind}.p99"] = (s(key, 99), "us")
        for algo in STEP_FNS:
            m[f"algorithms.step_us.{algo}.p50"] = (s(f"step.{algo}", 50), "us")
            m[f"algorithms.step_us.{algo}.p99"] = (s(f"step.{algo}", 99), "us")
            m[f"algorithms.step_self_us.{algo}.p50"] = (s(f"step_self.{algo}", 50), "us")
        return m
