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
