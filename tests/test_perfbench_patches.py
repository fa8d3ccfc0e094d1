"""The benchmark's layer probes still find every attribute they patch.

`perfbench/tracer.py` wraps module functions and methods of the program from
outside it.  A rename or deletion of one of them would break every traced
benchmark run; this installs and uninstalls both probes in-process.  A call
that reached a layer around its wrapped attribute would leave that layer's
per-layer metric short; a traced run's counts are checked against its traces.
"""

import csv
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer
    return tracer


@pytest.mark.parametrize("probe", ["SetupProbe", "LayerTracer"])
def test_install_patches_and_uninstall_restores(tracer, probe):
    patches = getattr(tracer, probe)()
    patches.install()
    try:
        saved = list(patches._saved)
        assert saved
        for owner, name, original in saved:
            assert getattr(owner, name) is not original, f"{owner.__name__}.{name} not wrapped"
    finally:
        patches.uninstall()
    for owner, name, original in saved:
        assert getattr(owner, name) is original, f"{owner.__name__}.{name} not restored"


FOUR_BLOCKS = """\
[problem]
source = quadratic
d = 8
n = 4
kappa = 100

[run]
stop_metric = sqdist
stop_ratio = 1e-3
max_iters = 200

[algo:loco]
algorithm = locodl

[algo:dn]
algorithm = diana
compressor = rand_k
k = 2

[algo:sn]
algorithm = scaffnew

[algo:g]
algorithm = gd
"""


def test_layer_tracer_times_every_step_of_a_run(tracer, tmp_path):
    # a step bound before the tracer installs (say, a module-level table) would escape it
    from locodl import cli
    config = tmp_path / "four.ini"
    config.write_text(FOUR_BLOCKS)
    layers = tracer.LayerTracer().install()
    try:
        assert cli.main(["run", str(config), "--out", str(tmp_path / "traced")]) == 0
    finally:
        layers.uninstall()
    for algo in tracer.STEP_FNS:
        assert layers.samples[f"step.{algo}"], f"no {algo} step was timed"
    # the tracer's step wrapper carries each step's round signal, so traced files are the same
    assert cli.main(["run", str(config), "--out", str(tmp_path / "plain")]) == 0

    def written(out):
        return {path.name: path.read_bytes() for path in (tmp_path / out).iterdir()
                if path.suffix in (".csv", ".meta")}

    traced = written("traced")
    assert len(traced) == 8 and traced == written("plain")


def test_layer_tracer_charges_each_layer_call_to_its_algorithm(tracer, tmp_path):
    # a step that reaches a layer around its wrapped attribute (say, the batch's own
    # gradients, or a residual inlined into the step) would leave that layer's metric short
    from locodl import cli
    config = tmp_path / "four.ini"
    config.write_text(FOUR_BLOCKS)
    out = tmp_path / "traced"
    layers = tracer.LayerTracer().install()
    try:
        assert cli.main(["run", str(config), "--out", str(out)]) == 0
    finally:
        layers.uninstall()
    last = {}
    for path in out.glob("*.csv"):
        with open(path, newline="") as fh:
            row = list(csv.DictReader(fh))[-1]
        last[row["algorithm"]] = (int(row["t"]), int(row["rounds"]))
    assert sorted(last) == sorted(tracer.STEP_FNS)
    metrics = layers.metrics()
    assert metrics["algorithms.rounds"][0] == sum(rounds for _, rounds in last.values())
    assert metrics["objectives.grads_calls.points"][0] == last["locodl"][0] + last["scaffnew"][0]
    assert len(layers.samples["dual_residual"]) == last["locodl"][1] > 0
    assert metrics["harness.reference_grad_evals"][0] > 0
    assert metrics["objectives.grads_calls.common"][0] == \
        last["diana"][0] + last["gd"][0] + metrics["harness.reference_grad_evals"][0]


def test_setup_probe_sees_every_trajectory_of_a_run(tracer, tmp_path):
    # a run that bypasses run_single would be missing from the trajectories
    from locodl import cli
    config = tmp_path / "four.ini"
    config.write_text(FOUR_BLOCKS)
    probe = tracer.SetupProbe().install()
    try:
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out"),
                         "--seeds", "0,1"]) == 0
    finally:
        probe.uninstall()
    assert sorted((config.label, seed) for config, seed, _ in probe.trajectories) == \
        sorted((label, seed) for label in ("loco", "dn", "sn", "g") for seed in (0, 1))
    assert probe.setup_s > 0


TINY_SWEEP = """\
[problem]
source = dirichlet
d = 10
alpha = 1.0
n = 5
kappa = 100
data_seed = 7

[run]
seeds = 0,1
stop_metric = sqdist
stop_ratio = 1e-3

[algo:rand2]
algorithm = locodl
compressor = rand_k
k = 2

[algo:ident]
algorithm = locodl
"""


def test_setup_probe_times_every_build_and_run_of_a_sweep(tracer, tmp_path, monkeypatch):
    # setup_s is the time inside build_problem and solve_reference: build work done
    # anywhere else, or a run that bypasses run_single, would escape the probe
    from locodl import cli, harness
    from locodl import objectives as obj
    timed = [0]

    def timed_call(fn):
        def wrapper(*args, **kwargs):
            timed[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                timed[0] -= 1
        return wrapper

    def inside_timed_call(fn):
        def wrapper(*args, **kwargs):
            assert timed[0], f"{fn.__name__} ran outside build_problem and solve_reference"
            return fn(*args, **kwargs)
        return wrapper

    for name in ("build_problem", "solve_reference"):
        monkeypatch.setattr(harness, name, timed_call(getattr(harness, name)))
    for name in ("dirichlet_synthetic", "partition"):
        monkeypatch.setattr(harness, name, inside_timed_call(getattr(harness, name)))
    for name in ("max_eigenvalue_gram", "logistic_problem", "mu_for_kappa"):
        monkeypatch.setattr(obj, name, inside_timed_call(getattr(obj, name)))
    config = tmp_path / "sweep.ini"
    config.write_text(TINY_SWEEP)
    probe = tracer.SetupProbe().install()
    try:
        assert cli.main(["sweep", str(config), "--vary", "kappa=1e2,3e2,1e3",
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        probe.uninstall()
    blocks, seeds, kappas = 2, 2, 3
    assert len(probe.trajectories) == blocks * seeds * kappas
    assert sorted({config.kappa for config, _, _ in probe.trajectories}) == [1e2, 3e2, 1e3]
    assert probe.setup_s > 0


def test_layer_tracer_times_the_libsvm_parse(tracer, tmp_path):
    # the parse is timed where the tracer wraps it, `harness.load_libsvm`: a parse
    # reached some other way would leave data.parse_s at 0
    from locodl import cli
    data_path = tmp_path / "tiny.libsvm"
    data_path.write_text("".join(f"{1 if i % 2 else -1} 1:1 2:{i % 3}\n" for i in range(40)))
    config = tmp_path / "tiny.ini"
    config.write_text(f"[problem]\nsource = libsvm\npath = {data_path}\nn = 4\nkappa = 10\n\n"
                      "[run]\nstop_metric = sqdist\nstop_ratio = 1e-3\n\n"
                      "[algo:a]\nalgorithm = locodl\n")
    layers = tracer.LayerTracer().install()
    try:
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        layers.uninstall()
    assert [span["name"] for span in layers.spans].count("parse") == 1
    assert layers.metrics()["data.parse_s"][0] > 0


def test_layer_tracer_counts_rounds_of_every_compressor_kind(tracer, tmp_path):
    # the tracer wraps `algorithms.compress_round`: a round reached some other way,
    # or a kind that bypasses it, would leave its round_calls at 0
    from locodl import cli, compressors
    blocks = "".join(f"\n[algo:{kind}]\nalgorithm = locodl\ncompressor = {kind}\n"
                     + ("k = 2\n" if kind in compressors.K_KINDS else "")
                     for kind in compressors.KINDS)
    config = tmp_path / "kinds.ini"
    config.write_text("[problem]\nsource = quadratic\nd = 8\nn = 4\nkappa = 10\n\n"
                      "[run]\nstop_metric = sqdist\nstop_ratio = 1e-2\nmax_iters = 2000\n"
                      + blocks)
    layers = tracer.LayerTracer().install()
    try:
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        layers.uninstall()
    metrics = layers.metrics()
    for kind in compressors.KINDS:
        assert metrics[f"compressors.round_calls.{kind}"][0] > 0, f"no {kind} round was counted"


def test_layer_tracer_sees_every_record_and_the_chunked_columns(tracer):
    # the recorder computes lyapunov and value_mean once per chunk, through the attributes the
    # tracer wraps; `record` must still be called once per record point, so that
    # harness.records counts the trace's rows
    from locodl import harness
    config = harness.ExperimentConfig(problem={"source": "quadratic", "d": 8}, n=4, kappa=10.0,
                                      compressor="rand_k", k=2, stop_metric="sqdist",
                                      stop_ratio=1e-6, cadence=1, label="loco")
    setup = harness.prepare(config, {})    # the reference solve's value_mean calls stay outside
    layers = tracer.LayerTracer().install()
    try:
        trace = harness.run_single(config, *setup, 0)
    finally:
        layers.uninstall()
    assert layers.metrics()["harness.records"][0] == len(trace.columns["t"]) > 1
    assert layers.samples["lyapunov"]
    assert layers.samples["value_mean"]
