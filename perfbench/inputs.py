"""Seeded inputs of the three benchmark workloads.

Every input is a pure function of the workload seed.  It is written under a
path relative to the checkout root that is the same for every run and every
commit: the LibSVM path ends up in every a5a trace's `dataset` column and in
the `config_hash` of its `.meta`, so a moving path would change every result
fingerprint.
"""

from __future__ import annotations

import os

import numpy as np

WORK_DIR = ".perfbench_work"

A5A_ROWS = 6414
A5A_DIM = 122
A5A_SEED = 20240501          # the acceptance suite's stand-in is this seed's file

COMPRESSOR_KINDS = ("identity", "rand_k", "natural", "rand_k_natural", "l1_selection")
CERTIFY_D = 16
CERTIFY_K = 2
CERTIFY_TRIALS = 20_000
# certify is a statistical test with a small false-alarm rate, so its draw seed
# stays fixed; the workload seed varies everything else
CERTIFY_SEED = 0


def synthesize_binary_dataset(path, rows=A5A_ROWS, d=A5A_DIM, seed=A5A_SEED):
    """Write a LibSVM file of sparse binary rows with popularity-skewed features.

    Same generator as the acceptance suite's a5a stand-in, so the default seed
    reproduces its file byte for byte.
    """
    rng = np.random.default_rng(seed)
    popularity = rng.dirichlet(np.full(d, 0.3))
    w = rng.standard_normal(d) / np.sqrt(14)
    lines = []
    for _ in range(rows):
        idx = rng.choice(d, size=14, replace=False, p=popularity)
        idx.sort()
        score = w[idx].sum() + 0.5 * rng.standard_normal()
        label = 1 if score > 0 else -1
        lines.append(f"{label} " + " ".join(f"{j + 1}:1" for j in idx))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _workload(problem, seeds, run, blocks, **extra):
    """A workload spec: its config text, block labels, trajectory seeds, and `extra`."""
    run = dict(seeds=",".join(map(str, seeds)), **run)
    lines = ["[problem]"] + [f"{k} = {v}" for k, v in problem.items()]
    lines += ["", "[run]"] + [f"{k} = {v}" for k, v in run.items()]
    for label, fields in blocks:
        lines += ["", f"[algo:{label}]"] + [f"{k} = {v}" for k, v in fields.items()]
    return dict(config="\n".join(lines) + "\n", labels=[label for label, _ in blocks],
                seeds=list(seeds), **extra)


def a5a_triple(seed, root, tiny=False):
    """`locodl run` of locodl, DIANA and GD on the a5a stand-in."""
    data = os.path.join(root, "a5a_like.libsvm")
    rows = 640 if tiny else A5A_ROWS
    synthesize_binary_dataset(data, rows=rows, seed=A5A_SEED + seed)
    with open(data, encoding="utf-8") as fh:
        nonzeros = sum(len(line.split()) - 1 for line in fh)
    n = 10 if tiny else 87
    return _workload(
        {"source": "libsvm", "path": data, "n": n, "kappa": 1000, "data_seed": seed},
        [seed],
        {"stop_metric": "sqdist", "stop_ratio": 1e-3 if tiny else 1e-5,
         "max_iters": 2_000_000, "cadence": 200, "round_cadence": 50},
        [("locodl", {"algorithm": "locodl", "compressor": "rand_k_natural", "k": 2}),
         ("diana", {"algorithm": "diana", "compressor": "rand_k", "k": 2}),
         ("gd", {"algorithm": "gd", "compressor": "identity"})],
        sizes={"rows": rows, "nonzeros": nonzeros, "d": A5A_DIM, "n": n, "kappa": 1e3})


def kappa_sweep(seed, root, tiny=False):
    """`locodl sweep --vary kappa=...` on Dirichlet(1) data, one row per client.

    The seed picks the trajectories' seeds, not the Dirichlet sample: the
    sample's realized kappa moves by about 15% between data seeds, which would
    move the sweep's cost between workload seeds by more than its bounds.
    """
    n, d = (10, 20) if tiny else (25, 50)
    count = 2 if tiny else 5
    kappas = ("1e2", "3e2", "1e3")
    return _workload(
        {"source": "dirichlet", "d": d, "alpha": 1.0, "n": n, "kappa": 1000, "data_seed": 7},
        range(count * seed, count * seed + count),
        {"stop_metric": "sqdist", "stop_ratio": 1e-6, "max_iters": 5_000_000, "cadence": 100},
        [("loco_rand2", {"algorithm": "locodl", "compressor": "rand_k", "k": 2}),
         ("loco_identity", {"algorithm": "locodl", "compressor": "identity"})],
        kappas=list(kappas),
        sizes={"rows": n, "nonzeros": n * d, "d": d, "n": n, "kappa": [float(k) for k in kappas]})


def quad_trace(seed, root, tiny=False):
    """`locodl run` of every compressor kind and baseline on a quadratic, every iteration traced.

    As in `kappa_sweep`, the seed picks the trajectories' seeds and the problem
    stays fixed: between data seeds the total iteration count moves by about 20%.
    """
    blocks = []
    for kind in COMPRESSOR_KINDS:
        fields = {"algorithm": "locodl", "compressor": kind}
        if kind in ("rand_k", "rand_k_natural"):
            fields["k"] = 2
        blocks.append((f"loco_{kind}", fields))
    blocks += [("diana", {"algorithm": "diana", "compressor": "rand_k", "k": 2}),
               ("scaffnew", {"algorithm": "scaffnew", "compressor": "identity"}),
               ("gd", {"algorithm": "gd", "compressor": "identity"})]
    return _workload(
        {"source": "quadratic", "d": 10, "n": 5, "kappa": 100, "data_seed": 42},
        [seed] if tiny else range(3 * seed, 3 * seed + 3),
        {"stop_metric": "sqdist", "stop_ratio": 1e-3 if tiny else 1e-8,
         "max_iters": 1_000_000, "cadence": 1},
        blocks,
        certify_trials=10_000 if tiny else CERTIFY_TRIALS,
        sizes={"d": 10, "n": 5, "kappa": 100.0})


WORKLOADS = {"a5a_triple": a5a_triple, "kappa_sweep": kappa_sweep, "quad_trace": quad_trace}


def write_inputs(workload, seed, tiny=False):
    """Generate a workload's inputs under WORK_DIR; returns its spec with the config path."""
    root = os.path.join(WORK_DIR, "inputs", workload)
    os.makedirs(root, exist_ok=True)
    spec = WORKLOADS[workload](seed, root, tiny)
    spec["config_path"] = os.path.join(root, "config.ini")
    with open(spec["config_path"], "w", encoding="utf-8") as fh:
        fh.write(spec["config"])
    spec.update(workload=workload, seed=seed, tiny=tiny, work_dir=WORK_DIR)
    return spec
