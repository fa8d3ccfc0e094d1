#!/usr/bin/env python3
"""Minimal end-to-end demo on a synthetic quadratic.

Runs compressed local training (rand-1) and plain gradient descent on the
same d = 10, n = 5, kappa = 100 problem, writes the traces, and renders a
bits-vs-error SVG.

Usage: python scripts/quadratic_demo.py [out_dir]
"""

import os
import sys

from locodl import harness, svgplot


def main(out_dir="results/quadratic_demo"):
    common = dict(problem={"source": "quadratic", "d": 10}, n=5, kappa=100.0,
                  seeds=(0,), max_iters=1_000_000, cadence=100, data_seed=42)
    configs = [
        harness.ExperimentConfig(algorithm="locodl", compressor="rand_k", k=1,
                                 stop_metric="psi", stop_ratio=1e-8,
                                 label="loco_rand1", **common),
        harness.ExperimentConfig(algorithm="gd", compressor="identity",
                                 stop_metric="sqdist", stop_ratio=1e-8,
                                 label="gd", **common),
    ]
    problem, baseline = harness.build_problem(configs[0])
    ref = harness.solve_reference(problem)

    series = []
    for config in configs:
        trace = harness.run_single(config, problem, baseline, ref, config.seeds[0])
        path = os.path.join(out_dir, f"{config.label}.csv")
        harness.write_trace(trace, path)
        series.append((config.label, trace.columns["bits_per_client"],
                       trace.columns["sqdist_mean"]))
        print(f"{config.label}: {trace.last('t')} iterations, "
              f"{trace.last('rounds')} rounds, {trace.last('bits_per_client')} bits/client")

    svg = svgplot.render(series, x_label="uplink bits per client",
                         y_label="mean squared distance to x*")
    harness.atomic_write(os.path.join(out_dir, "bits_vs_error.svg"), svg)
    print(f"traces and figure written to {out_dir}/")


if __name__ == "__main__":
    main(*sys.argv[1:2])
