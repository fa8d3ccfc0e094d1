"""One pass of one workload, in a fresh process.

Runs the workload's CLI calls through `locodl.cli.main`, one after the other,
then checks every output and fingerprints it.  Writes one JSON result:
timings, peak RSS, attempted/failed operations, fingerprints, and with
`--trace` the per-layer metrics and phase spans.

Usage: python3 perfbench/workload.py SPEC_JSON RESULT_JSON [--trace]
(run from the checkout root; `perfbench/run.py` is the entry point).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import locodl  # noqa: E402
from locodl import cli  # noqa: E402

import inputs  # noqa: E402
from tracer import LayerTracer, SetupProbe  # noqa: E402

DUAL_TOL = 1e-9
SLOPE_RANGE = (0.35, 0.65)
ORDER = ("locodl", "diana", "gd")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _calls(spec, out_dir):
    """The workload's CLI calls: (name, argv, operations it attempts)."""
    trajectories = len(spec["labels"]) * len(spec["seeds"])
    config = spec["config_path"]
    if spec["workload"] == "kappa_sweep":
        vary = "kappa=" + ",".join(spec["kappas"])
        return [("sweep", ["sweep", config, "--vary", vary, "--out", out_dir],
                 len(spec["kappas"]) * trajectories)]
    calls = [("run", ["run", config, "--out", out_dir], trajectories)]
    if spec["workload"] == "quad_trace":
        calls.append(("plot", ["plot", "@csvs", "--out", os.path.join(out_dir, "trace.svg")], 1))
        for kind in inputs.COMPRESSOR_KINDS:
            argv = ["certify", kind, "--d", str(inputs.CERTIFY_D), "--trials",
                    str(spec["certify_trials"]), "--seed", str(inputs.CERTIFY_SEED)]
            if kind in ("rand_k", "rand_k_natural"):
                argv += ["--k", str(inputs.CERTIFY_K)]
            calls.append((f"certify.{kind}", argv, 1))
    return calls


def _run_calls(calls, out_dir):
    """Runs the CLI calls back to back; returns (wall seconds, per-call results)."""
    results = []
    t0 = time.perf_counter()
    for name, argv, ops in calls:
        if "@csvs" in argv:
            csvs = sorted(os.path.join(out_dir, f) for f in os.listdir(out_dir)
                          if f.endswith(".csv"))
            i = argv.index("@csvs")
            argv = argv[:i] + csvs + argv[i + 1:]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception:  # a crash fails this call's operations, not the benchmark
                traceback.print_exc()
                code = "exception"
        results.append({"name": name, "code": code, "ops": ops,
                        "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    return time.perf_counter() - t0, results


def _bits_to_target(trace, metric, ratio):
    vals = trace.columns[metric]
    for v, bits in zip(vals, trace.columns["bits_per_client"]):
        if v <= ratio * vals[0]:
            return int(bits)
    return None


def _digest(trace):
    h = hashlib.sha256()
    for name in sorted(trace.columns):
        h.update(repr(trace.columns[name]).encode())
    return h.hexdigest()


def check(spec, out_dir, wall_results, trajectories):
    """Checks every output; returns (attempted, failed, fingerprints, problems)."""
    attempted = sum(r["ops"] for r in wall_results)
    failed = 0
    problems = []
    fingerprints = {}

    def fail(count, why):
        nonlocal failed
        failed += count
        problems.append(why)

    for r in wall_results:
        if r["code"] != 0:
            fail(r["ops"], f"{r['name']}: exit code {r['code']}: {r['stderr'].strip()[-200:]}")
    expected = sum(r["ops"] for r in wall_results if r["name"] in ("run", "sweep"))
    if len(trajectories) != expected:
        fail(abs(expected - len(trajectories)),
             f"{len(trajectories)} trajectories, expected {expected}")

    bits_by_algo = {}
    for config, seed, trace in trajectories:
        key = f"{config.label}/kappa={config.kappa:g}/seed={seed}"
        metric = "lyapunov" if config.stop_metric == "psi" else "sqdist_mean"
        bits = _bits_to_target(trace, metric, config.stop_ratio)
        fingerprints[f"bits:{key}"] = bits
        fingerprints[f"trace:{key}"] = _digest(trace)
        if bits is None:
            fail(1, f"{key}: never reached {metric} ratio {config.stop_ratio}")
            continue
        if config.algorithm == "locodl":
            meta = trace.metadata
            if not meta["max_dual_residual"] <= DUAL_TOL * (1.0 + meta["max_dual_scale"]):
                fail(1, f"{key}: dual residual {meta['max_dual_residual']:.3e}")
                continue
        bits_by_algo.setdefault(config.algorithm, []).append(bits)

    for name in sorted(os.listdir(out_dir)):
        if name.endswith((".csv", ".meta")):
            fingerprints[f"file:{name}"] = _sha256(os.path.join(out_dir, name))

    workload = spec["workload"]
    if workload == "a5a_triple":
        medians = [float(np.median(bits_by_algo[a])) if a in bits_by_algo else math.inf
                   for a in ORDER]
        if not medians[0] < medians[1] < medians[2]:
            fail(len(ORDER), f"bits ordering locodl < diana < gd broken: {medians}")
    elif workload == "kappa_sweep":
        summary = os.path.join(out_dir, "sweep_summary.csv")
        slopes = {}
        if os.path.exists(summary):
            with open(summary, encoding="utf-8") as fh:
                for line in fh.read().splitlines()[1:]:
                    label, kind, _, value = line.split(",")
                    if kind == "slope":
                        slopes[label] = float(value)
        per_label = len(spec["kappas"]) * len(spec["seeds"])
        for label in spec["labels"]:
            slope = slopes.get(label)
            fingerprints[f"slope:{label}"] = slope
            if slope is None or not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
                fail(per_label, f"{label}: fitted slope {slope} outside {SLOPE_RANGE}")
    elif workload == "quad_trace":
        svg = os.path.join(out_dir, "trace.svg")
        for r in wall_results:
            if r["code"] != 0:
                continue
            if r["name"] == "plot" and not (os.path.exists(svg) and os.path.getsize(svg) > 0):
                fail(1, "plot wrote no SVG")
            if r["name"].startswith("certify."):
                fingerprints[f"certify:{r['name']}"] = r["stdout"]
                if "result: pass" not in r["stdout"]:
                    fail(1, f"{r['name']}: certification did not pass")
    return attempted, min(failed, attempted), fingerprints, problems


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "omp_threads": os.environ.get("OMP_NUM_THREADS"), "nproc": os.cpu_count()}


def realized_sizes(trajectories):
    """Nominal kappa -> realized kappa of the problem each trajectory ran on."""
    kappas = {}
    for config, _, trace in trajectories:
        kappas[f"{config.kappa:g}"] = trace.metadata["kappa"]
    return {"realized_kappa": kappas}


def main(argv):
    spec_path, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(locodl.__file__).startswith(src + os.sep):
        raise SystemExit(f"locodl imported from {locodl.__file__}, not from {src}")

    out_dir = os.path.join(spec["work_dir"], "out", spec["workload"])
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    probe = SetupProbe().install()
    tracer = LayerTracer().install() if traced else None
    wall_s, wall_results = _run_calls(_calls(spec, out_dir), out_dir)
    if tracer is not None:
        tracer.uninstall()
    probe.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted, failed, fingerprints, problems = check(spec, out_dir, wall_results,
                                                      probe.trajectories)
    iterations = sum(int(trace.columns["t"][-1]) for _, _, trace in probe.trajectories)
    result = {
        "wall_s": wall_s,
        "setup_s": probe.setup_s,
        "run_s": probe.run_s,
        "iterations": iterations,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "fingerprints": fingerprints,
        "env": environment(),
        "sizes": realized_sizes(probe.trajectories),
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
