#!/usr/bin/env python3
"""Bits-to-accuracy comparison on a LibSVM dataset.

Runs local training with rand-k + natural compression against DIANA (rand-k)
and gradient descent on a binary-classification LibSVM file, then reports the
uplink bits each method needs to reach a squared-distance target and renders
the comparison figure.

Usage: python scripts/libsvm_comparison.py DATASET.libsvm [out_dir]
"""

import math
import os
import sys

from locodl import harness, svgplot


def main(path, out_dir="results/libsvm_comparison", n=87, kappa=1e4):
    common = dict(problem={"source": "libsvm", "path": path}, n=n, kappa=kappa,
                  seeds=(0,), stop_metric="sqdist", stop_ratio=1e-5,
                  max_iters=2_000_000, cadence=200, round_cadence=50)
    base = harness.ExperimentConfig(algorithm="locodl", compressor="rand_k_natural",
                                    k=2, label="probe", **common)
    problem, baseline = harness.build_problem(base)
    k = math.ceil(problem.d / n)
    print(f"dataset: d={problem.d}, kappa={problem.kappa:.0f}, k={k}")
    ref = harness.solve_reference(problem)

    series = []
    for algo, compressor, kk in (("locodl", "rand_k_natural", k),
                                 ("diana", "rand_k", k),
                                 ("gd", "identity", None)):
        config = harness.ExperimentConfig(algorithm=algo, compressor=compressor,
                                          k=kk, label=algo, **common)
        trace = harness.run_single(config, problem, baseline, ref, 0)
        harness.write_trace(trace, os.path.join(out_dir, f"{algo}.csv"))
        bits = harness.bits_to_target(trace, config.stop_ratio, "sqdist_mean")
        print(f"{algo}: {bits} uplink bits per client to reach "
              f"{config.stop_ratio:g} of the initial squared distance")
        series.append((f"{algo} {compressor}", trace.columns["bits_per_client"],
                       trace.columns["sqdist_mean"]))

    svg = svgplot.render(series, x_label="uplink bits per client",
                         y_label="mean squared distance to x*")
    harness.atomic_write(os.path.join(out_dir, "comparison.svg"), svg)
    print(f"traces and figure written to {out_dir}/")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(*sys.argv[1:3])
