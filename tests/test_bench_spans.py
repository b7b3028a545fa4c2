"""The benchmark's traced mode wraps paritylp functions by name; each name
must still resolve, or `bench/run.py --trace 1` breaks at install time.  Its
solve observer reads the model's shape, which must still be there."""

import importlib.util
import random
from pathlib import Path

import pytest

import paritylp
from conftest import ball_profile
from paritylp import lp
from paritylp.profiles import CostFunction

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [target for targets in load_spans().LAYERS.values() for target in targets]


def test_targets_listed():
    assert "povm.symmetrize" in TARGETS
    assert "lp.DualSolution.evaluate" in TARGETS


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves(target):
    owner = paritylp
    for attr in target.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_solve_observer_counts_model_shape(mode):
    p = ball_profile(3, 1, random.Random(8))
    model = lp.build_primal(p)
    report = lp.solve(model, CostFunction.average(3), mode)
    recorder = load_spans().SpanRecorder()
    recorder._observe_solve((model,), report)
    counts = recorder.counts
    assert (counts["solves"], counts["rows"], counts["cols"]) == (1, len(p.support), model.n_vars)
    assert counts["pivots"] == report.pivots > 0
