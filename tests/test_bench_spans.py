"""The benchmark's traced mode wraps paritylp functions by name; each name
must still resolve, or `bench/run.py --trace 1` breaks at install time.  Its
observers read the model's shape, a set's elements, the shots argument of
`sample` and a slackness verdict, which must still be there."""

import importlib.util
import random
from pathlib import Path

import pytest

import paritylp
from conftest import ball_profile, rand_rational_profile, stacks, without_float_stage
from paritylp import bounds, lp, povm, simulate
from paritylp.errors import SolveError
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


def test_solve_that_raises_leaves_the_round_balanced(monkeypatch):
    # a solve that stops short of optimal raises through its wrapper: every
    # span it opened is closed, and no solve is counted
    p = rand_rational_profile(2, random.Random("short-of-optimal"))
    without_float_stage(monkeypatch)
    recorder = load_spans().SpanRecorder()
    recorder.install()
    try:
        model = lp.build_primal(p)
        with pytest.raises(SolveError, match="ended with status iteration-limit"):
            lp.solve(model, CostFunction.average(2), "float")
    finally:
        recorder.uninstall()
    assert recorder._stack == [] and recorder.counts["solves"] == 0
    assert "lp.solve" in [span[1] for span in recorder.spans]


def test_other_observers_read_their_counts():
    p = rand_rational_profile(3, random.Random(9)).with_real_amplitudes()
    cost = CostFunction.average(3)
    primal, dual, _ = lp.solve_pair(p, cost)
    recorder = load_spans().SpanRecorder()
    povm_set = povm.build_from_primal(primal, p)
    recorder._observe_build((primal, p), povm_set)
    # positional, as the CLI calls it: the observer reads the shots at args[3]
    args = (primal, p, 5, 1000, 7)
    records = simulate.sample(*args)
    recorder._observe_sample(args, records)
    recorder._observe_candidate(("hamming", p), bounds.primal_candidate("hamming", p))
    report = lp.complementary_slackness(primal, dual, p, cost)
    recorder._observe_slackness((primal, dual, p, cost), report)
    counts = recorder.counts
    elements = sum(len(stack) for stack in stacks(povm_set).values())
    assert (counts["elements"], counts["shots"], counts["candidates"], counts["certified"]) == \
        (elements, 1000, 1, 1) and elements > 0
    assert sum(record.count for record in records) == 1000
