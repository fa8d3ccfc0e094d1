"""Command-line front end: run, sweep, certify, plot.

Configs are flat INI files (see README for the grammar): a [problem] section,
a [run] section, and one or more [algo:<label>] sections, each describing one
algorithm/compressor combination.

Exit codes: 0 success, 2 input error, 3 configuration (convergence-condition)
error, 4 convergence failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import statistics
import sys

import numpy as np

from . import compressors, harness
from .compressors import KINDS, make_spec
from .errors import ConfigurationError, ConvergenceError, InputError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_CONVERGENCE = 4

OUT_ENV_VAR = "LOCODL_OUT"

# nothing here calls it: it stays only because perfbench's layer tracer wraps `cli.compress`
compress = compressors.compress


def _parse_seeds(text, where):
    """At least one comma-separated non-negative seed; an InputError names `where` otherwise."""
    try:
        seeds = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise InputError(f"{where} = {text!r} is not a valid seed list") from None
    if not seeds:
        raise InputError(f"{where} = {text!r} names no seed")
    if any(seed < 0 for seed in seeds):
        raise InputError(f"{where} = {text!r}: seeds must be non-negative")
    return seeds


def _value(section, key, convert, default=None):
    """section[key] through `convert`, or `default` if absent (None: the key is required).

    Raises InputError naming the section and key when the key is missing or
    its value does not convert.
    """
    if key not in section:
        if default is None:
            raise InputError(f"[{section.name}] is missing key {key!r}")
        return default
    return _convert(f"[{section.name}] {key}", section[key], convert)


def _convert(where, text, convert):
    """convert(text); raises InputError naming `where` when the text does not convert."""
    try:
        return convert(text)
    except (ValueError, OverflowError):
        raise InputError(f"{where} = {text!r} is not a valid value") from None


def load_config(path, seeds_override=None):
    """Parse an experiment config file into a list of ExperimentConfig."""
    if not os.path.exists(path):
        raise InputError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path)
    if "problem" not in parser:
        raise InputError("config needs a [problem] section")
    if "run" not in parser:
        parser.add_section("run")

    prob = parser["problem"]
    source = prob.get("source")
    if source not in ("quadratic", "libsvm", "dirichlet"):
        raise InputError(f"unknown problem source {source!r}")
    problem = {"source": source}
    if source == "libsvm":
        problem["path"] = _value(prob, "path", str)
        if not os.path.exists(problem["path"]):
            raise InputError(f"dataset file not found: {problem['path']}")
    else:
        problem["d"] = _value(prob, "d", int)
    if source == "dirichlet":
        problem["alpha"] = _value(prob, "alpha", float, 1.0)

    run = parser["run"]
    common = dict(
        problem=problem,
        n=_value(prob, "n", int),
        kappa=_value(prob, "kappa", float, 100.0),
        seeds=(seeds_override if seeds_override is not None
               else _parse_seeds(run.get("seeds", "0"), "[run] seeds")),
        stop_metric=run.get("stop_metric", "psi"),
        stop_ratio=_value(run, "stop_ratio", float, 1e-8),
        max_iters=_value(run, "max_iters", lambda text: int(float(text)), 10_000_000),
        cadence=_value(run, "cadence", int, 100),
        round_cadence=_value(run, "round_cadence", int, 1),
        data_seed=_value(prob, "data_seed", int, 0),
    )

    configs = []
    for section in parser.sections():
        if not section.startswith("algo:"):
            continue
        a = parser[section]
        configs.append(harness.ExperimentConfig(
            algorithm=a.get("algorithm", "locodl"),
            compressor=a.get("compressor", "identity"),
            k=_value(a, "k", int) if "k" in a else None,
            overrides={key: _value(a, key, float) for key in ("gamma", "chi", "rho", "p")
                       if key in a},
            label=section.split(":", 1)[1],
            **common,
        ))
    if not configs:
        raise InputError("config needs at least one [algo:<label>] section")
    return configs, run.get("out")


def _out_dir(cli_out, config_out):
    return cli_out or config_out or os.environ.get(OUT_ENV_VAR) or "results"


def _run_configs(configs, out_dir):
    """Execute configs, write traces, return (manifest rows, traces by label)."""
    rows = []
    cache = {}
    for config in configs:
        traces = harness.run_experiment(config, cache)
        for trace, seed in zip(traces, config.seeds):
            name = f"{config.label}_{harness._compressor_name(config)}_{seed}.csv"
            harness.write_trace(trace, os.path.join(out_dir, name))
        meta = traces[0].metadata
        rows.append({
            "label": config.label, "algorithm": config.algorithm,
            "compressor": harness._compressor_name(config),
            "gamma": meta.get("gamma"), "chi": meta.get("chi"), "rho": meta.get("rho"),
            "p": meta.get("p"), "omega": meta.get("omega"),
            "omega_av": meta.get("omega_av"), "tau": meta.get("tau"),
            "config_hash": meta["config_hash"], "traces": traces,
        })
    return rows


def _print_table(rows, stream):
    header = ["label", "algorithm", "compressor", "gamma", "chi", "rho", "p",
              "omega", "omega_av", "tau"]
    print("\t".join(header), file=stream)
    for row in rows:
        print("\t".join("-" if row[h] is None else f"{row[h]}" for h in header), file=stream)


def cmd_run(args):
    seeds = _parse_seeds(args.seeds, "--seeds") if args.seeds is not None else None
    configs, config_out = load_config(args.config, seeds)
    out_dir = _out_dir(args.out, config_out)
    rows = _run_configs(configs, out_dir)
    _print_table(rows, sys.stdout)
    manifest = ["config\t" + os.path.abspath(args.config)]
    for row in rows:
        manifest.append(f"{row['label']}\t{row['compressor']}\t{row['config_hash']}")
    harness.atomic_write(os.path.join(out_dir, "manifest.txt"), "\n".join(manifest) + "\n")
    return EXIT_OK


def cmd_sweep(args):
    key, _, texts = args.vary.partition("=")
    texts = [v for v in texts.split(",") if v.strip()]
    if not texts or key not in ("kappa", "n"):
        raise InputError("--vary must look like kappa=1e2,1e3,1e4 or n=6,37,73")
    convert = float if key == "kappa" else int
    values = [(text, _convert(f"--vary {key}", text, convert)) for text in texts]
    base_configs, config_out = load_config(args.config)
    out_dir = _out_dir(args.out, config_out)

    # every config is built, and so validated, before anything runs
    configs = [(text, value, harness.ExperimentConfig(**dict(base.__dict__, **{key: value})))
               for text, value in values for base in base_configs]
    summary = []
    bits_by_label = {}
    cache = {}
    for text, value, config in configs:
        traces = harness.run_experiment(config, cache)
        bits = [harness.bits_to_target(
            tr, config.stop_ratio,
            "lyapunov" if config.stop_metric == "psi" else "sqdist_mean")
            for tr in traces]
        med = statistics.median(bits)
        summary.append((config.label, text, float(value), med))
        bits_by_label.setdefault(config.label, {})[float(value)] = med

    lines = ["label,vary,value,median_bits_to_target"]
    for label, _, value, med in summary:
        lines.append(f"{harness._quote(label)},{key},{value!r},{med!r}")
    slopes = {}
    if key == "kappa" and len(values) >= 3:
        for label, points in bits_by_label.items():
            slopes[label] = harness.fit_communication_exponent(points)
            lines.append(f"{harness._quote(label)},slope,-,{slopes[label]!r}")
    harness.atomic_write(os.path.join(out_dir, "sweep_summary.csv"), "\n".join(lines) + "\n")
    for label, text, _, med in summary:
        print(f"{label}\t{key}={text}\tbits={med}")
    for label, slope in slopes.items():
        print(f"{label}\tfitted log-log slope = {slope:.4f}")
    return EXIT_OK


def cmd_certify(args):
    if args.compressor not in KINDS:
        raise InputError(f"unknown compressor {args.compressor!r} (choose from {KINDS})")
    if args.trials < 10_000:
        raise InputError("certification needs at least 10000 trials")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    spec = make_spec(args.compressor, args.d, k=args.k)
    declared = args.declared_omega if args.declared_omega is not None else spec.omega
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(args.d)
    x[np.abs(x) < 1e-3] = 1e-3  # keep every coordinate active
    bias_ok, bias_score, ratio = compressors.certification(spec, x, args.trials, rng)
    ratio_bound = declared * 1.05 + 5.0 / math.sqrt(args.trials)
    ratio_ok = ratio <= ratio_bound

    print(f"compressor={args.compressor} d={args.d} k={args.k} trials={args.trials}")
    print(f"declared omega           = {declared}")
    print(f"max |mean - x| / (4 se)  = {bias_score:.4f}"
          f"  [{'pass' if bias_ok else 'FAIL'}]")
    print(f"empirical variance ratio = {ratio:.6f} (bound {ratio_bound:.6f})"
          f"  [{'pass' if ratio_ok else 'FAIL'}]")
    print("result: " + ("pass" if bias_ok and ratio_ok else "FAIL"))
    return EXIT_OK if (bias_ok and ratio_ok) else 1


def _column_index(name, flag):
    if name not in harness.CSV_COLUMNS:
        raise InputError(f"{flag} {name!r} is not a trace column "
                         f"(choose from {', '.join(harness.CSV_COLUMNS)})")
    return harness.CSV_COLUMNS.index(name)


def cmd_plot(args):
    ix, iy = _column_index(args.x, "--x"), _column_index(args.y, "--y")
    ia, ic = harness.CSV_COLUMNS.index("algorithm"), harness.CSV_COLUMNS.index("compressor")
    series = {}
    for path in args.csvs:
        if not os.path.exists(path):
            raise InputError(f"csv not found: {path}")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != harness.CSV_COLUMNS:
                raise InputError(f"{path}: columns do not match the trace schema")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(harness.CSV_COLUMNS):
                    raise InputError(f"{path}:{reader.line_num}: expected "
                                     f"{len(harness.CSV_COLUMNS)} fields, got {len(row)}")
                try:
                    x, y = float(row[ix]), float(row[iy])
                except ValueError as exc:
                    raise InputError(f"{path}:{reader.line_num}: {exc}") from None
                xs, ys = series.setdefault((row[ia], row[ic]), ([], []))
                xs.append(x)
                ys.append(y)
    plot_series = [(f"{algo} {comp}", xs, ys) for (algo, comp), (xs, ys) in sorted(series.items())]
    from . import svgplot
    text = svgplot.render(plot_series, x_label=args.x, y_label=args.y)
    harness.atomic_write(args.out, text)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="locodl",
                                     description="communication-efficiency experiment lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every algorithm block of a config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seeds", default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one knob and fit the bits scaling")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--vary", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cert = sub.add_parser("certify", help="statistically certify a compressor")
    p_cert.add_argument("compressor")
    p_cert.add_argument("--d", type=int, default=16)
    p_cert.add_argument("--k", type=int, default=None)
    p_cert.add_argument("--trials", type=int, default=100_000)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--declared-omega", type=float, default=None,
                        help="override the declared variance factor (negative-control hook)")
    p_cert.set_defaults(func=cmd_certify)

    p_plot = sub.add_parser("plot", help="emit an SVG line chart from trace CSVs")
    p_plot.add_argument("csvs", nargs="+")
    p_plot.add_argument("--x", default="bits_per_client")
    p_plot.add_argument("--y", default="sqdist_mean")
    p_plot.add_argument("--out", default="plot.svg")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
