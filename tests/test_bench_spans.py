"""The benchmark's traced mode wraps paritylp functions by name; each name
must still resolve, or `bench/run.py --trace 1` breaks at install time."""

import importlib.util
from pathlib import Path

import pytest

import paritylp

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


TARGETS = [target for targets in load_layers().values() for target in targets]


def test_targets_listed():
    assert "povm.symmetrize" in TARGETS
    assert "lp.DualSolution.evaluate" in TARGETS


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves(target):
    owner = paritylp
    for attr in target.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
