"""The benchmark's layer probes still find every attribute they patch.

`perfbench/tracer.py` wraps module functions and methods of the program from
outside it.  A rename or deletion of one of them would break every traced
benchmark run; this installs and uninstalls both probes in-process.
"""

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
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        layers.uninstall()
    for algo in tracer.STEP_FNS:
        assert layers.samples[f"step.{algo}"], f"no {algo} step was timed"
