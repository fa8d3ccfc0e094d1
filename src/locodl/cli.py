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

from . import compressors, harness, svgplot
from .algorithms import SCHEDULE_KEYS
from .compressors import make_spec
from .errors import ConfigurationError, ConvergenceError, InputError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_CONVERGENCE = 4

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
    if len(set(seeds)) != len(seeds):
        raise InputError(f"{where} = {text!r} repeats a seed")
    return seeds


def _convert(where, text, convert):
    """convert(text); raises InputError naming `where` when the text does not convert."""
    try:
        return convert(text)
    except InputError:
        raise
    except (ValueError, OverflowError):
        raise InputError(f"{where} = {text!r} is not a valid value") from None


# the keys each section takes, key -> converter; an absent key keeps its default.
# [problem] holds ExperimentConfig fields plus the keys of its source's problem dict.
PROBLEM_FIELDS = {"n": int, "kappa": float, "data_seed": int}
SOURCE_KEYS = {"quadratic": {"source": str, "d": int}, "libsvm": {"source": str, "path": str},
               "dirichlet": {"source": str, "d": int, "alpha": float}}
RUN_KEYS = {"seeds": lambda text: _parse_seeds(text, "[run] seeds"), "stop_metric": str,
            "stop_ratio": float, "max_iters": lambda text: int(float(text)), "cadence": int,
            "round_cadence": int, "out": str}
ALGO_KEYS = {"algorithm": str, "compressor": str, "k": int,
             **dict.fromkeys(SCHEDULE_KEYS["locodl"], float)}   # locodl takes every override


def _read(section, table, required=()):
    """`section`'s keys in `table` order, converted; InputError names a bad or missing key."""
    for key in section:
        if key not in table:
            raise InputError(f"[{section.name}] {key} is not a known key "
                             f"(choose from {', '.join(table)})")
    for key in required:
        if key not in section:
            raise InputError(f"[{section.name}] is missing key {key!r}")
    return {key: _convert(f"[{section.name}] {key}", section[key], convert)
            for key, convert in table.items() if key in section}


def load_config(path, seeds_override=None):
    """Parse an experiment config file into a list of ExperimentConfig."""
    # no section header spells the empty name, so [DEFAULT] is read as an unknown
    # section instead of having its keys copied into every other section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except configparser.Error as exc:
        raise InputError(f"{path}: {exc}") from None
    if "problem" not in parser:
        raise InputError("config needs a [problem] section")
    if "run" not in parser:
        parser.add_section("run")

    source = parser["problem"].get("source")
    if source not in SOURCE_KEYS:
        raise InputError(f"unknown problem source {source!r}")
    common = _read(parser["problem"], {**SOURCE_KEYS[source], **PROBLEM_FIELDS},
                   ("n", "path" if source == "libsvm" else "d"))
    # in table order: the config hash reads the dict's repr
    problem = {key: common.pop(key) for key in SOURCE_KEYS[source] if key in common}
    if source == "dirichlet":
        problem.setdefault("alpha", 1.0)
    common.update(_read(parser["run"], RUN_KEYS))
    out = common.pop("out", None)
    if seeds_override is not None:
        common["seeds"] = seeds_override

    configs = []
    for section in parser.sections():
        if section in ("problem", "run"):
            continue
        if not section.startswith("algo:"):
            raise InputError(f"unknown section [{section}]")
        fields = _read(parser[section], ALGO_KEYS)
        overrides = {key: fields.pop(key) for key in SCHEDULE_KEYS["locodl"] if key in fields}
        configs.append(harness.ExperimentConfig(problem=problem, label=section.split(":", 1)[1],
                                                overrides=overrides, **fields, **common))
    if not configs:
        raise InputError("config needs at least one [algo:<label>] section")
    return configs, out


def _out_dir(cli_out, config_out):
    return cli_out or config_out or "results"


def _median_bits(config, traces):
    """Median over the seeds' traces of bits-to-target; ConvergenceError if a seed missed it."""
    return statistics.median(harness.bits_to_target(trace, config.stop_ratio, config.stop_column)
                             for trace in traces)


def _print_table(rows, stream):
    header = ["label", "algorithm", "compressor", "gamma", "chi", "rho", "p",
              "omega", "omega_av", "tau", "bits_to_target"]
    print("\t".join(header), file=stream)
    for row in rows:
        print("\t".join(str(row.get(h, "-")) for h in header), file=stream)


def cmd_run(args):
    seeds = _parse_seeds(args.seeds, "--seeds") if args.seeds is not None else None
    configs, config_out = load_config(args.config, seeds)
    out_dir = _out_dir(args.out, config_out)
    runs = harness.run_experiments(configs)
    os.makedirs(out_dir, exist_ok=True)     # an --out that is a file fails before any run
    rows = []
    for config, traces in runs:
        for trace, seed in zip(traces, config.seeds):
            name = f"{config.label}_{harness._compressor_name(config)}_{seed}.csv"
            harness.write_trace(trace, os.path.join(out_dir, name))
        try:
            bits = _median_bits(config, traces)
        except ConvergenceError:
            bits = "-"
        rows.append(dict(traces[0].metadata, label=config.label, bits_to_target=bits))
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
    values = [(text, _convert(f"--vary {key}", text, PROBLEM_FIELDS[key])) for text in texts]
    if len({value for _, value in values}) != len(values):
        raise InputError(f"--vary {args.vary!r} repeats a {key} value")
    base_configs, config_out = load_config(args.config)
    out_dir = _out_dir(args.out, config_out)

    # every config and its problem are built, and so validated, before anything runs
    configs = [(text, value, harness.ExperimentConfig(**dict(base.__dict__, **{key: value})))
               for text, value in values for base in base_configs]
    runs = harness.run_experiments([config for _, _, config in configs])
    os.makedirs(out_dir, exist_ok=True)     # an --out that is a file fails before any run
    summary = [(config.label, text, float(value), _median_bits(config, traces))
               for (text, value, _), (config, traces) in zip(configs, runs)]

    lines = ["label,vary,value,median_bits_to_target"]
    for label, _, value, med in summary:
        lines.append(f"{harness._quote(label)},{key},{value!r},{med!r}")
    slopes = {}
    if key == "kappa" and len(values) >= 3:
        for label in [base.label for base in base_configs]:
            points = {value: med for row_label, _, value, med in summary if row_label == label}
            slopes[label] = harness.fit_communication_exponent(points)
            lines.append(f"{harness._quote(label)},slope,-,{slopes[label]!r}")
    harness.atomic_write(os.path.join(out_dir, "sweep_summary.csv"), "\n".join(lines) + "\n")
    for label, text, _, med in summary:
        print(f"{label}\t{key}={text}\tbits={med}")
    for label, slope in slopes.items():
        print(f"{label}\tfitted log-log slope = {slope:.4f}")
    return EXIT_OK


def cmd_certify(args):
    if args.trials < 10_000:
        raise InputError("certification needs at least 10000 trials")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    if args.d < 1:
        raise InputError(f"--d must be positive, got {args.d}")
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
    series = {}     # (algorithm, compressor) -> one (xs, ys) run per CSV file
    for path in args.csvs:
        in_file = {}
        try:
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
                    xs, ys = in_file.setdefault((row[ia], row[ic]), ([], []))
                    xs.append(x)
                    ys.append(y)
        except UnicodeDecodeError:
            raise InputError(f"{path}: not UTF-8 text") from None
        for key, run in in_file.items():
            series.setdefault(key, []).append(run)
    plot_series = [(f"{algo} {comp}", runs) for (algo, comp), runs in sorted(series.items())]
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
    except (InputError, OSError) as exc:     # an OSError's text names its path
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
