"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
from pathlib import Path

import pytest

import reference
import run
import speed
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def bench(capsys, monkeypatch, workload: str, trace: int, seed: int = 3) -> dict:
    monkeypatch.chdir(run.ROOT)
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                     "--trace", str(trace), "--size", "tiny"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_names_match(capsys, monkeypatch, workload):
    result = bench(capsys, monkeypatch, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_names_match_and_counts_repeat(capsys, monkeypatch, workload):
    first = bench(capsys, monkeypatch, workload, trace=1)
    second = bench(capsys, monkeypatch, workload, trace=1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        assert first["metrics"][spec["name"]]["unit"] == spec["unit"]
    for name in ("simplex.pivots", "lp.model_cols", "f2lin.dual_cosets_calls",
                 "cli.report_bytes"):
        assert first["metrics"][name]["value"] > 0
    if workload == "measure-n5":
        assert first["metrics"]["povm.elements"]["value"] > 0
        assert first["metrics"]["simulate.sample_s"]["value"] > 0
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "bits", "bytes"):
            assert metric["value"] == second["metrics"][name]["value"], name


def test_corrupted_reference_fails_jobs(capsys, monkeypatch):
    honest = reference.lp_optimum
    monkeypatch.setattr(reference, "lp_optimum", lambda *a: honest(*a) + 1e-3)
    result = bench(capsys, monkeypatch, "exact-lp", trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["correct_ratio"]["value"] == 0.0


def test_tail_keeps_ten_jobs_beyond():
    times = [float(i) for i in range(40)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == 75.0
    short = [float(i) for i in range(20)]
    assert run.tail(short) == (19.0, 100.0)


def test_scale_uses_the_right_probes():
    ref = speed.PROBE_REF_S
    assert speed.scale([1.0, 2.0], [ref, ref, ref]) == [1.0, 2.0]
    # Job 1's speed is the median of the probes around jobs 0, 1 and 2.
    scaled = speed.scale([1.0, 1.0, 1.0], [ref, 2 * ref, 2 * ref, 9 * ref])
    assert scaled[1] == 0.5
    with pytest.raises(ValueError):
        speed.scale([1.0], [ref])
    # scale_run divides by the mean of all probes.
    assert speed.scale_run([1.0, 3.0], [ref, 3 * ref, 2 * ref]) == [0.5, 1.5]
