"""Benchmark of the locodl lab: three closed-loop workloads through `locodl.cli.main`.

Usage (from the checkout root):

    python3 perfbench/run.py --workload {a5a_triple,kappa_sweep,quad_trace}
                             --seed N --seconds S --trace {0,1}

Each pass runs the whole workload once in a fresh Python process (one CLI
call after the other, no concurrency), with BLAS and OpenMP pinned to one
thread.  An untraced run (`--trace 0`) repeats passes until `--seconds` have
elapsed and reports the medians of the end-to-end metrics; a traced run
(`--trace 1`) makes one untraced and one traced pass and reports the
per-layer metrics plus the tracing overhead.  Every pass checks its outputs
and fingerprints them; a failed check or a fingerprint that differs between
repeats of the same program counts as a failed operation.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Full per-pass records,
fingerprints, the environment and the phase spans go to
`.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workload.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_DEADLINE_S = 170          # a run must end within 180 s, passes included

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("iters_per_s", "1/s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _tree_hash(*dirs):
    """sha256 over the Python sources of the program and of the benchmark."""
    h = hashlib.sha256()
    for top in dirs:
        for base, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, top).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def _git_sha():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _one_pass(spec_path, index, traced, env, deadline):
    result_path = os.path.join(inputs.WORK_DIR, f"pass_{index}.json")
    if os.path.exists(result_path):
        os.unlink(result_path)
    argv = [sys.executable, WORKER, spec_path, result_path] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not end within the run's {RUN_DEADLINE_S}s") from None
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"pass {index} exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _compare(reference, fingerprints):
    """Number of fingerprint entries that differ from the reference."""
    keys = set(reference) | set(fingerprints)
    return sum(1 for k in keys if reference.get(k) != fingerprints.get(k))


def _median_metrics(passes):
    values = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "iters_per_s": [p["iterations"] / p["run_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    return {name: statistics.median(values[name]) for name, _ in END_TO_END}, values


def run(args):
    if not os.path.isfile(os.path.join("src", "locodl", "cli.py")):
        raise BenchError("run from the root of a locodl checkout (src/locodl not found)")
    spec = inputs.write_inputs(args.workload, args.seed, tiny=args.tiny)
    spec_path = os.path.join(inputs.WORK_DIR, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = _child_env()
    program = _tree_hash("src", HERE)

    passes = []
    traced = None
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    if args.trace:
        passes.append(_one_pass(spec_path, 0, False, env, deadline))
        traced = _one_pass(spec_path, 1, True, env, deadline)
    else:
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(_one_pass(spec_path, len(passes), False, env, deadline))

    # every repeat of one program on one seed must produce the same results
    store_dir = os.path.join(inputs.WORK_DIR, "fingerprints")
    os.makedirs(store_dir, exist_ok=True)
    store = os.path.join(store_dir, f"{args.workload}-seed{args.seed}-"
                                    f"{'tiny-' if args.tiny else ''}{program}.json")
    if os.path.exists(store):
        with open(store, encoding="utf-8") as fh:
            reference = json.load(fh)
    else:
        reference = passes[0]["fingerprints"]
        with open(store, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
    everything = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    mismatches = sum(_compare(reference, p["fingerprints"]) for p in everything)
    failed = min(attempted, failed + mismatches)
    problems = sorted({why for p in everything for why in p["problems"]})
    if mismatches:
        problems.append(f"{mismatches} fingerprint entries differ from {store}")

    medians, samples = _median_metrics(passes)
    env_record = dict(passes[0]["env"], git_sha=_git_sha(), program_hash=program,
                      seed=args.seed, workload=args.workload,
                      sizes=dict(passes[0]["sizes"], **spec["sizes"]))
    if traced:
        per_layer = {k: tuple(v) for k, v in traced["per_layer"].items()}
        per_layer["bench.traced_wall_s"] = (traced["wall_s"], "s")
        per_layer["bench.trace_overhead_s"] = (traced["wall_s"] - passes[0]["wall_s"], "s")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(per_layer.items())}
    else:
        metrics = {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END}

    record = {"args": vars(args), "env": env_record, "attempted": attempted, "failed": failed,
              "problems": problems, "samples": samples, "medians": medians,
              "fingerprints": reference, "metrics": metrics,
              "spans": traced["spans"] if traced else None}
    results_dir = os.path.join(inputs.WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    out = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload={args.workload} seed={args.seed} passes={len(passes)}"
          f"{' traced=1' if traced else ''} record={out}")
    print("env " + json.dumps(env_record, sort_keys=True))
    for name, unit in END_TO_END:
        vals = samples[name]
        print(f"{name:<16} {medians[name]:>14.6g} {unit:<6} (median of {len(vals)}: "
              + ", ".join(f"{v:.6g}" for v in vals) + ")")
    print(f"{'ops_failed_frac':<16} {failed / attempted:>14.6g} {'ratio':<6} "
          f"({failed} of {attempted} operations)")
    for why in problems:
        print(f"problem: {why}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs, for the smoke test only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
