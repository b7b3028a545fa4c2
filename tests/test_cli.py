"""End-to-end command exercises through the argparse entry point."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_report
from conftest import (
    ball_profile,
    orbit_breaks,
    rand_rational_profile,
    report_outcomes,
    stacks,
    without_float_stage,
)
from paritylp import bounds, cli, lp, povm, simulate
from paritylp.cli import _render, build_parser, dump_json, main
from paritylp.f2lin import enumerate_all_codes, vec_from_str, vec_str
from paritylp.profiles import AmplitudeProfile, CostFunction, bernoulli_profile


@pytest.fixture
def profile_file(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(
        {"n": 2, "weights": ["1/20", "3/20", "3/10", "1/2"]}
    ))
    return str(path)


@pytest.fixture
def point_mass_file(tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"n": 2, "weights": ["1", "0", "0", "0"]}))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParserReuse:
    """One parser serves every in-process call, as a fresh one per call would."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_back_to_back_calls_match_fresh_parsers(self, capsys, profile_file,
                                                    point_mass_file):
        calls = [
            ["solve", "--profile", profile_file, "--mode", "float",
             "--cost", "threshold", "--tau", "1"],
            ["solve", "--profile", profile_file, "--mode", "bogus"],
            # the defaults come back: exact mode, average cost, no tau
            ["solve", "--profile", profile_file],
            ["verify", "--family", "hamming"],
            ["verify", "--profile", point_mass_file, "--family", "threshold-set",
             "--tau", "1", "--set", "10,01,11", "--format", "table"],
            ["enumerate", "--n", "2", "--k", "1"],
            ["enumerate", "--n", "2"],
        ]

        def run(fresh):
            results = []
            for argv in calls:
                if fresh:
                    build_parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = ("exit", exc.code)
                out, err = capsys.readouterr()
                out = re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": null', out)
                results.append((code, out, err))
            return results

        reused = run(fresh=False)
        assert [code for code, _, _ in reused] == [0, ("exit", 2), 0, ("exit", 2), 0, 0, 0]
        assert json.loads(reused[2][1])["config"]["mode"] == "exact"
        assert "tau" not in json.loads(reused[2][1])["config"]
        assert reused == run(fresh=True)
        assert reused == run(fresh=False)


# Each subcommand's option dests, in the order its report's config lists them:
# only the options its command reads.
OPTIONS = {
    "solve": ("profile", "mode", "format", "out", "cost", "tau", "cost_values", "dump_model"),
    "verify": ("profile", "mode", "format", "out", "family", "d", "gamma", "tau", "set"),
    "primal-candidate": ("profile", "format", "out", "family"),
    "povm": ("profile", "mode", "format", "out",
             "cost", "tau", "cost_values", "assume_real_amplitudes"),
    "simulate": ("profile", "mode", "format", "out",
                 "cost", "tau", "cost_values", "x", "shots", "seed"),
    "slpn": ("format", "out", "n", "t", "d", "gamma"),
    "threshold": ("profile", "mode", "format", "out", "tau"),
    "enumerate": ("format", "out", "n", "k"),
}


class TestOptionSurface:
    def test_each_subcommand_declares_what_it_reads(self):
        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        declared = {name: tuple(a.dest for a in sub._actions if a.dest != "help")
                    for name, sub in action.choices.items()}
        assert declared == OPTIONS
        assert sum(map(len, declared.values())) == 54

    # No option sets an audit's tolerance: the audits fix their own, so
    # each former --tol-* option is an unknown argument where it was read.
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "2", "--mode", "float"],
        ["primal-candidate", "--profile", "p.json", "--family", "hamming", "--tol-feas", "1"],
        ["simulate", "--profile", "p.json", "--x", "01", "--seed", "1", "--tol-feas", "1"],
        ["solve", "--profile", "p.json", "--tol-complete", "1"],
        ["slpn", "--n", "2", "--t", "0.1", "--tol-unambig", "1"],
        ["slpn", "--n", "2", "--t", "0.1", "--mode", "float"],
        ["solve", "--profile", "p.json", "--tol-feas", "1e-9"],
        ["verify", "--profile", "p.json", "--family", "hamming", "--tol-feas", "1e-9"],
        ["povm", "--profile", "p.json", "--tol-feas", "1e-9"],
        ["povm", "--profile", "p.json", "--tol-complete", "1e-8"],
        ["povm", "--profile", "p.json", "--tol-unambig", "1e9"],
        ["slpn", "--n", "2", "--t", "0.1", "--tol-feas", "1e-9"],
        ["threshold", "--profile", "p.json", "--tau", "1", "--tol-feas", "1e-9"],
    ], ids=["enumerate-mode", "candidate-tol-feas", "simulate-tol-feas",
            "solve-tol-complete", "slpn-tol-unambig", "slpn-mode", "solve-tol-feas",
            "verify-tol-feas", "povm-tol-feas", "povm-tol-complete", "povm-tol-unambig",
            "slpn-tol-feas", "threshold-tol-feas"])
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        ("solve --profile {p} --tau 2", "--tau is read only with --cost threshold"),
        ("simulate --profile {p} --x 01 --seed 1 --cost custom --cost-values 0,1,2 --tau 1",
         "--tau is read only with --cost threshold"),
        ("solve --profile {p} --cost threshold --tau 2 --cost-values 0,1,2",
         "--cost-values is read only with --cost custom"),
        ("verify --profile {p} --family spike --tau 2 --d 1",
         "family spike does not read --d, --tau"),
        ("verify --profile {p} --family threshold-set --tau 1 --set 10 --gamma 3",
         "family threshold-set does not read --gamma"),
        ("slpn --n 2 --t 0.1 --d 1", "slpn reads --d and --gamma together"),
        ("slpn --n 2 --t 0.1 --gamma 3", "slpn reads --d and --gamma together"),
        ("verify --profile {p} --family threshold-ball --d 0 --gamma 3 --set 10",
         "family threshold-ball does not read --set"),
    ], ids=["tau-average-cost", "tau-custom-cost", "cost-values-threshold-cost",
            "d-tau-spike", "gamma-threshold-set", "slpn-d-alone", "slpn-gamma-alone",
            "set-threshold-ball"])
    def test_option_the_cost_or_family_does_not_read_is_refused(
            self, capsys, profile_file, argv, message):
        assert main(argv.format(p=profile_file).split()) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["solve", "povm --assume-real-amplitudes",
                                         "simulate --x 01 --seed 1"])
    @pytest.mark.parametrize("cost, message", [
        ("threshold", "--cost threshold needs --tau"),
        ("custom", "--cost custom needs --cost-values"),
    ])
    def test_cost_option_missing_is_named(self, capsys, profile_file, command, cost, message):
        # the options are named, not the keys of the cost's JSON form
        argv = f"{command} --profile {profile_file} --cost {cost}".split()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSolve:
    def test_exact_solve(self, capsys, profile_file):
        code, report = run_json(capsys, [
            "solve", "--profile", profile_file, "--cost", "average",
            "--mode", "exact",
        ])
        assert code == 0
        assert report["rho"] == "11/10"
        assert report["sigma"] == "11/10"
        assert report["gap"] == 0
        assert report["audits"]["strong_duality_gap"]

    def test_float_profile_under_exact_mode(self, tmp_path, capsys):
        # binary64 weights run a float solve, so the duality audit allows
        # lp.FLOAT_FEAS_TOL (this solve's gap is one ulp) instead of gap == 0
        path = tmp_path / "bern.json"
        path.write_text(json.dumps(bernoulli_profile(3, 0.1).to_json_dict()))
        code, report = run_json(capsys, ["solve", "--profile", str(path), "--mode", "exact"])
        assert code == 0
        assert (report["primal"]["mode"], report["primal"]["strategy"]) == ("float", "float")
        assert isinstance(report["rho"], float) and 0 < report["gap"] <= lp.FLOAT_FEAS_TOL
        assert report["audits"]["strong_duality_gap"]

    def test_solve_short_of_optimal_is_an_error(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(
            rand_rational_profile(2, random.Random("short-of-optimal")).to_json_dict()))
        without_float_stage(monkeypatch)
        assert main(["solve", "--profile", str(path), "--mode", "float"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: primal solve ended with status iteration-limit\n")

    @pytest.mark.parametrize("values, rho", [("0,0.1,0.3", "9/50"), ("0,1/2,1", "7/10")])
    def test_custom_cost_values_are_exact(self, tmp_path, capsys, values, rho):
        # each value is read as a decimal or fraction, so 0.1 is 1/10, not
        # the binary64 nearest to it
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"n": 2, "weights": ["1/10", "2/10", "3/10", "4/10"]}))
        code, report = run_json(capsys, ["solve", "--profile", str(path), "--cost", "custom",
                                         "--cost-values", values])
        assert code == 0
        assert (report["rho"], report["sigma"], report["gap"]) == (rho, rho, 0)

    @pytest.mark.parametrize("values", ["0,nan,1", "0,inf,1", "0,-1,1", "0,abc,1", "0,1",
                                        "1/0,1,2", "1e400,1,2"])
    def test_bad_custom_cost_values(self, capsys, profile_file, values):
        code = main(["solve", "--profile", profile_file, "--cost", "custom",
                     "--cost-values", values])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("mode, rho", [("exact", str(10 ** 308)), ("float", 1e308)],
                             ids=["exact", "float"])
    def test_costs_near_the_top_of_binary64(self, capsys, profile_file, mode, rho):
        # pricing sums costs over the rows: at 1e308 the float stage prices
        # the costs scaled by a power of two, not with infinities
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--profile", profile_file, "--mode", mode,
                         "--cost", "custom", "--cost-values", "1e+308,1,2"])
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (code, err) == (0, "")
        assert (report["rho"], report["sigma"], report["gap"]) == (rho, rho, 0)
        assert report["primal"]["pivots"] == 0
        assert report["dual_solution"]["b"] == dict.fromkeys(["00", "10", "01", "11"], rho)

    @pytest.mark.parametrize("scale", ["e6", "e8"])
    def test_float_gap_is_relative_at_large_costs(self, tmp_path, capsys, scale):
        # rho near 10^7 and 10^9: binary64 rho and sigma differ by 1.4e-9
        # and 6e-8, past the absolute lp.FLOAT_FEAS_TOL but within one part in
        # 10^12 of rho; the exact solve still closes the gap to 0
        p = rand_rational_profile(5, random.Random("cost-gap/2"))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(p.to_json_dict()))
        argv = ["solve", "--profile", str(path), "--cost", "custom",
                "--cost-values", ",".join(["0"] + [f"{k}{scale}" for k in range(1, 6)])]
        code, report = run_json(capsys, [*argv, "--mode", "float"])
        assert code == 0 and 1e-9 < report["gap"] <= 1e-12 * report["rho"]
        code, report = run_json(capsys, argv)
        assert (code, report["gap"], report["audits"]["strong_duality_gap"]) == (0, 0, True)

    def test_exact_loop_scores_costs_past_binary64(self, tmp_path, capsys, monkeypatch):
        # both stages price the costs on one scale, max |c| in [128, 256):
        # the float stage's basis is certified, and the integer loop, forced
        # here from the unit columns, prices costs past binary64 exactly
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"n": 2, "weights": ["3/16", "1/8", "3/16", "1/2"]}))
        argv = ["solve", "--profile", str(path), "--cost", "custom", "--cost-values", "1.7e308,1,0"]
        rho = str(17 * 10 ** 307)
        code, report = run_json(capsys, [*argv, "--mode", "float"])
        assert code == 0 and report["rho"] == 1.7e308
        code, report = run_json(capsys, argv)
        assert code == 0 and report["primal"]["strategy"] == "certified"
        without_float_stage(monkeypatch)
        code, report = run_json(capsys, argv)
        assert code == 0
        assert (report["rho"], report["sigma"], report["gap"]) == (rho, rho, 0)
        assert report["primal"]["strategy"] == "exact-pivots"

    def test_threshold_point_mass(self, capsys, point_mass_file):
        code, report = run_json(capsys, [
            "solve", "--profile", point_mass_file,
            "--cost", "threshold", "--tau", "1",
        ])
        assert code == 0
        assert report["rho"] == "0"

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["solve", "--profile", str(bad)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"n": 1, "weights": [None, 1]},
        {"n": 1, "weights": 5},
        {"n": 1, "weights": [True, False]},
        {"n": 1, "amplitudes": [{"im": 1}, {"re": 0}]},
        {"n": 1, "amplitudes": 3},
        {"n": 1.9, "weights": ["1/2", "1/2"]},
        {"n": True, "weights": ["1/2", "1/2"]},
    ])
    def test_malformed_profile(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--profile", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("data", [
        {"n": 1, "weights": ["1/0", "1"]},
        {"n": 1, "amplitudes": [{"re": 1e308, "im": 1e308}, {"re": 0, "im": 0}]},
        {"n": 1, "weights": [math.nan, 1.0]},
        # math.fsum of these raises OverflowError
        {"n": 1, "weights": [1e308, 1e308]},
        # each of these overflowed float() in a traceback
        {"n": 1, "weights": [0.5, 10 ** 400]},
        {"n": 1, "weights": [0.5, "1e400"]},
        {"n": 1, "amplitudes": [{"re": 10 ** 400}, {"re": 0}]},
    ], ids=["zero-denominator", "amplitude-overflow", "nan-weight", "weight-sum-overflow",
            "huge-int-weight", "huge-string-weight", "huge-int-amplitude"])
    @pytest.mark.parametrize("argv", [["solve"], ["solve", "--mode", "float"],
                                      ["primal-candidate", "--family", "hamming"],
                                      ["povm", "--assume-real-amplitudes"]],
                             ids=["solve", "solve-float", "candidate", "povm"])
    def test_malformed_number_refused(self, tmp_path, capsys, data, argv):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main([argv[0], "--profile", str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_dump_model(self, tmp_path, capsys, profile_file):
        dump = tmp_path / "model.txt"
        code, _ = run_json(capsys, [
            "solve", "--profile", profile_file, "--dump-model", str(dump),
        ])
        assert code == 0
        assert "mu[" in dump.read_text()

    @pytest.mark.parametrize("weights, cost, size, digest", [
        (["1/36", "2/36", "3/36", "4/36", "5/36", "6/36", "7/36", "8/36"], [], 5487,
         "78164b6e6246982131d9eb1bf6f21142fba0d84f06439b229d38c1ba520b22d9"),
        (["1/4", "1/4", "1/4", "0", "1/4", "0", "0", "0"], ["--cost", "threshold", "--tau", "2"],
         1950, "4bc116e62ea5fa8628eb890903dacefc5d012d33076d33b29493e7569761c01b"),
        ([0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.2, 0.1], [], 5868,
         "7e5f6fa9ac014f85154cca8403b8d1981d0a80ea367c4c0bfa9c8a850a64955e"),
    ], ids=["rational", "ball-threshold", "binary64"])
    def test_dump_model_text_unchanged(self, tmp_path, capsys, weights, cost, size, digest):
        # the n=3 dumps written when build_primal still filled one
        # coefficient dict per row, pinned by size and SHA-256
        path = tmp_path / "p3.json"
        path.write_text(json.dumps({"n": 3, "weights": weights}))
        dump = tmp_path / "model.txt"
        code, _ = run_json(capsys, ["solve", "--profile", str(path), "--dump-model",
                                    str(dump), *cost])
        assert code == 0
        text = dump.read_bytes()
        assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest)

    def test_out_file(self, tmp_path, capsys, profile_file):
        out = tmp_path / "report.json"
        code = main(["solve", "--profile", profile_file, "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["rho"] == "11/10"

    def test_unwritable_out(self, tmp_path, capsys, profile_file):
        out = tmp_path / "missing" / "report.json"
        assert main(["solve", "--profile", profile_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("n, message", [
        (-1, "profile needs n >= 0"),
        (4611686018427387904, "expected 2^4611686018427387904 weights, got 1"),
    ], ids=["negative", "huge"])
    def test_profile_n_checked_before_two_to_the_n(self, tmp_path, capsys, n, message):
        path = tmp_path / "bad_n.json"
        path.write_text(json.dumps({"n": n, "weights": ["1"]}))
        assert main(["solve", "--profile", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("cost", [["--cost", "average"],
                                      ["--cost", "threshold", "--tau", "2"]])
    def test_float_dual_nonnegative(self, tmp_path, capsys, cost):
        # the float row multipliers of this profile come out a few ulps
        # below zero; the read-off certificate reports them as 0
        path = tmp_path / "bern.json"
        path.write_text(json.dumps(bernoulli_profile(4, 0.1).to_json_dict()))
        code, report = run_json(capsys, [
            "solve", "--profile", str(path), "--mode", "float", *cost,
        ])
        assert code == 0
        assert all(report["audits"].values())
        assert all(b >= 0 for b in report["dual_solution"]["b"].values())

    @pytest.mark.parametrize("n, t", [(5, 0.483), (4, 0.497)])
    def test_float_solve_audits_primal_rows(self, tmp_path, capsys, n, t):
        # the float optimum leaves a tiny-weight row uncovered while the
        # duality gap stays within lp.FLOAT_FEAS_TOL (weights only: amplitudes
        # would give |a|^2, a slightly different profile); at each n, t is
        # the first of t = k / 1000, k = 400..499, whose solve does so
        path = tmp_path / "bern.json"
        path.write_text(json.dumps({"n": n, "weights": list(bernoulli_profile(n, t).weights)}))
        code, report = run_json(capsys, [
            "solve", "--profile", str(path), "--mode", "float", "--cost", "average",
        ])
        assert code == 1
        assert report["audits"] == {"strong_duality_gap": True, "primal_feasible": False}

    def test_well_conditioned_float_solve_passes_primal_audit(self, tmp_path, capsys):
        path = tmp_path / "bern.json"
        path.write_text(json.dumps(bernoulli_profile(3, 0.2).to_json_dict()))
        code, report = run_json(capsys, ["solve", "--profile", str(path), "--mode", "float"])
        assert code == 0
        assert report["audits"] == {"strong_duality_gap": True, "primal_feasible": True}

    def test_exact_solve_has_no_primal_audit(self, capsys, profile_file):
        code, report = run_json(capsys, ["solve", "--profile", profile_file])
        assert code == 0 and list(report["audits"]) == ["strong_duality_gap"]


class TestVerify:
    def test_hamming_on_bernoulli(self, tmp_path, capsys):
        path = tmp_path / "bern.json"
        path.write_text(json.dumps(bernoulli_profile(2, 0.1).to_json_dict()))
        code, report = run_json(capsys, [
            "verify", "--profile", str(path), "--family", "hamming",
            "--mode", "float",
        ])
        assert code == 0
        assert abs(report["objective"] - 0.8) < 1e-9
        assert abs(report["gap"]) < 1e-9

    def test_spike_gap(self, capsys, profile_file):
        code, report = run_json(capsys, [
            "verify", "--profile", profile_file, "--family", "spike",
        ])
        assert code == 0
        assert report["objective"] == "6/5"
        assert abs(report["gap"] - 0.1) < 1e-12

    def test_ball_tau_exceeds_n(self, capsys, profile_file):
        code = main([
            "verify", "--profile", profile_file, "--family", "threshold-ball",
            "--d", "1", "--gamma", "3.0",
        ])
        assert code == 2

    @pytest.mark.parametrize("gamma", ["inf", "-inf", "nan"])
    def test_ball_rejects_non_finite_gamma(self, capsys, profile_file, gamma):
        code = main(["verify", "--profile", profile_file, "--family", "threshold-ball",
                     "--d", "1", f"--gamma={gamma}"])
        assert code == 2
        assert capsys.readouterr().err == "error: need finite gamma > 2\n"

    def test_ball_refuses_huge_finite_gamma(self, capsys, profile_file):
        # gamma d = 2e308 overflows to inf: it is refused before its ceiling
        code = main(["verify", "--profile", profile_file, "--family", "threshold-ball",
                     "--d", "2", "--gamma", "1e308"])
        assert code == 2
        assert capsys.readouterr().err == "error: threshold tau = ceil(1e+308 * 2) outside [1, 2]\n"

    def test_threshold_set(self, capsys, point_mass_file):
        code, report = run_json(capsys, [
            "verify", "--profile", point_mass_file, "--family",
            "threshold-set", "--tau", "1", "--set", "10,01,11",
        ])
        assert code == 0
        assert report["objective"] == "0"


    @pytest.mark.parametrize("family, audits", [
        (["hamming"], 1), (["threshold-ball", "--d", "1", "--gamma", "2.5"], 1),
        (["threshold-ball", "--d", "0", "--gamma", "3", "--tau", "2"], 1)])
    def test_certificate_audited_once(self, tmp_path, capsys, monkeypatch, family, audits):
        # threshold-ball audits itself when built; verify reports that audit
        calls = []
        real = lp.check_dual_feasible

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lp, "check_dual_feasible", counted)
        monkeypatch.setattr(bounds, "check_dual_feasible", counted)
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(rand_rational_profile(3, random.Random(9)).to_json_dict()))
        code, report = run_json(capsys, ["verify", "--profile", str(path), "--family", *family])
        assert code == 0 and report["audits"]["dual_feasible"]
        assert len(calls) == audits
        assert report["feasibility"] == real(*calls[0]).to_json_dict()

    @pytest.mark.parametrize("family", [
        ["hamming"], ["threshold-ball", "--d", "1", "--gamma", "2.5"]])
    def test_lp_cap_checked_before_family(self, tmp_path, capsys, monkeypatch, family):
        # the family's audit walks every code of n, so above the cap it must not run
        def audit(*args, **kwargs):
            raise AssertionError("family audited above the LP cap")

        monkeypatch.setattr(lp, "check_dual_feasible", audit)
        monkeypatch.setattr(bounds, "check_dual_feasible", audit)
        path = tmp_path / "uniform6.json"
        path.write_text(json.dumps({"n": 6, "weights": ["1/64"] * 64}))
        assert main(["verify", "--profile", str(path), "--family", *family]) == 2
        assert "capped at n <= 5" in capsys.readouterr().err


class TestPrimalCandidate:
    def test_cohamming(self, capsys, profile_file):
        code, report = run_json(capsys, [
            "primal-candidate", "--profile", profile_file,
            "--family", "cohamming",
        ])
        assert code == 0
        assert report["candidate"]["nonnegative"]
        assert report["candidate"]["objective"] == "11/10"
        assert report["slackness"]["certified_optimal"]

    def test_spike_negative_reported(self, capsys, profile_file):
        code, report = run_json(capsys, [
            "primal-candidate", "--profile", profile_file, "--family", "spike",
        ])
        assert code == 0
        assert not report["candidate"]["nonnegative"]
        assert report["slackness"] is None

    def test_above_cap_exits_2(self, tmp_path, capsys):
        path = tmp_path / "uniform6.json"
        path.write_text(json.dumps({"n": 6, "weights": ["1/64"] * 64}))
        assert main(["primal-candidate", "--profile", str(path), "--family", "hamming"]) == 2
        assert capsys.readouterr().err == "error: candidates capped at n <= 5\n"


class TestPovm:
    def test_weights_only_needs_flag(self, capsys, profile_file):
        code = main(["povm", "--profile", profile_file])
        assert code == 2
        assert "amplitudes" in capsys.readouterr().err

    def test_build_and_verify(self, capsys, profile_file):
        code, report = run_json(capsys, [
            "povm", "--profile", profile_file, "--assume-real-amplitudes",
        ])
        assert code == 0
        assert report["verification"]["ok"]
        assert abs(report["rho_povm"] - 1.1) < 1e-8
        assert len(report["povm"]["codes"]) > 0

    def test_rho_matches_lp_relative_at_large_costs(self, tmp_path, capsys):
        # at rho = 9.6e7 the two float sums differ by 3e-8, about one part in
        # 10^15: within the relative tolerance, past the absolute one
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 1, "weights": ["12/25", "13/25"]}))
        code, report = run_json(capsys, [
            "povm", "--profile", str(path), "--assume-real-amplitudes", "--mode", "float",
            "--cost", "custom", "--cost-values", "0,1e8"])
        assert code == 0 and report["audits"]["rho_matches_lp"]
        assert 1e-8 < abs(report["rho_povm"] - report["rho_lp"]) <= 1e-12 * report["rho_lp"]


def nested(obj):
    """The report form before the streamed writer: each ndarray as its rows
    of {"re", "im"} dicts."""
    if isinstance(obj, np.ndarray):
        return [[{"re": float(v.real), "im": float(v.imag)} for v in row]
                for row in np.asarray(obj, dtype=complex)]
    if isinstance(obj, dict):
        return {k: nested(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [nested(v) for v in obj]
    return obj


def written(obj) -> str:
    fh = io.StringIO()
    dump_json(obj, fh)
    return fh.getvalue()


def complex_of(re, im):
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


SPECIAL = np.array([[-0.0, 5e-324, 1e300], [np.nan, np.inf, -np.inf]])
MATRIX = complex_of(SPECIAL, SPECIAL[::-1, ::-1])
# quiet, payload-carrying, negative and signalling NaNs: four bit patterns,
# one token
NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x8000000000000,
                 0x7FF0000000000001], dtype=np.int64).view(float).reshape(2, 2)
PAYLOADS = complex_of(NANS, NANS[::-1])
SIGNED = complex_of([[0.0, -0.0], [np.inf, -np.inf]], [[-0.0, 0.0], [-np.inf, np.inf]])
# 800 distinct floats
SPREAD = complex_of(*np.random.default_rng(0).normal(size=(2, 20, 20)))


def phased_profile(n: int, rng: random.Random) -> dict:
    """Full-support amplitudes with random complex phases, as JSON."""
    raw = [rng.uniform(0.05, 1.0) for _ in range(1 << n)]
    total = math.fsum(raw)
    amps = []
    for w in raw:
        r, phase = math.sqrt(w / total), rng.uniform(0.0, 2.0 * math.pi)
        amps.append({"re": r * math.cos(phase), "im": r * math.sin(phase)})
    return {"n": n, "amplitudes": amps}


class TestWriter:
    @pytest.mark.parametrize("obj", [
        {"neg_zero": -0.0, "tiny": 5e-324, "huge": 1e300, "nan": float("nan"),
         "inf": float("inf"), "ninf": -float("inf"), "frac": Fraction(-3, 7),
         "empty_dict": {}, "empty_list": [], "none": None, "flag": True,
         "text": 'a\nb"\u00e9'},
        MATRIX,
        [MATRIX, SPECIAL],
        {"config": {"a": 1, "empty": {}}, "rho": Fraction(11, 10),
         "povm": {"n": 2, "codes": [{"H": "10", "k": 1, "shifts": ["00", "10"],
                                    "held": [MATRIX]},
                                    {"k": [], "held": [SPECIAL, MATRIX]}],
                  "perp": MATRIX.T},
         "deep": [[[{"x": [MATRIX], "y": {}}]], [], ()],
         "after": [Fraction(1, 3), {}, []]},
        {"rows_only": np.zeros((0, 3)), "cols_only": [np.zeros((2, 0), dtype=complex)],
         "one": np.ones((1, 1))},
        {1: MATRIX, 2.5: [MATRIX], None: "x", False: 0},
        [],
        {},
        # matrices at different nesting levels that share bit patterns, so
        # later ones read their tokens from the table the earlier ones filled
        [MATRIX, {"again": MATRIX, "deeper": [[MATRIX]]}],
        {"m": MATRIX, "neg": [-MATRIX], "t": {"x": [MATRIX.T, -MATRIX.T]}},
        [SIGNED, {"neg": -SIGNED, "real": SIGNED.real}, [[SIGNED.imag, -SIGNED]]],
        {"a": PAYLOADS, "b": [PAYLOADS.T, NANS, {"c": -PAYLOADS, "d": MATRIX}]},
        # a 1 x 1 matrix first sizes the token table to 32 slots, so most
        # patterns of the 20 x 20 ones spill past their taken slots
        [np.ones((1, 1)), SPREAD, {"again": [SPREAD.T, -SPREAD]}, SPECIAL, SPREAD],
    ], ids=["scalars", "matrix", "matrices", "nested", "empty-arrays", "keys",
            "list", "dict", "same-twice", "negated-transposed", "signed-zeros-infs",
            "nan-payloads", "spilled"])
    def test_matches_json_dumps(self, obj):
        assert written(obj) == json.dumps(nested(obj), indent=2, default=_render)

    @pytest.mark.parametrize("text", [
        "\x00", "\x000", "\x00123", "\\u00000", "\x00" + "f" * 32 + "0", "\x00" + "0" * 40,
    ], ids=["nul", "nul-digit", "nul-digits", "escaped-nul-digit", "marker-shaped",
            "nul-zeros"])
    def test_strings_like_a_marker(self, text):
        # the writer marks each matrix with a NUL, a nonce of 32 hex digits
        # and an index; a report string of that shape is text all the same
        obj = [text, {"m": MATRIX, text: text, "s": [text, SPECIAL]}, text + text, MATRIX]
        assert written(obj) == json.dumps(nested(obj), indent=2, default=_render)
        assert written(text) == json.dumps(text)

    @pytest.mark.parametrize("obj", [
        ["{m}0", MATRIX], [MATRIX, "{m}0"], ["{m}1", MATRIX, MATRIX], [MATRIX, {"{m}": 1}],
        ["{m}", MATRIX], ["{m}0"],
    ], ids=["repeated-before", "repeated-after", "out-of-order", "key", "bare-nonce",
            "no-matrix"])
    def test_string_holding_the_nonce_refused(self, monkeypatch, obj):
        # a report string holding this call's nonce makes a marker repeated
        # or out of order, or adds one: the report is refused, unwritten
        monkeypatch.setattr(cli.os, "urandom", lambda size: b"\xab" * size)
        marker = "\x00" + "ab" * 16
        forged = [{k.format(m=marker): v for k, v in item.items()} if isinstance(item, dict)
                  else item.format(m=marker) if isinstance(item, str) else item
                  for item in obj]
        fh = io.StringIO()
        with pytest.raises(ValueError, match="marker"):
            dump_json(forged, fh)
        assert fh.getvalue() == ""

    @pytest.mark.parametrize("array", [np.zeros((2, 2, 2)), np.zeros(3), np.array(1.0)],
                             ids=["3-d", "1-d", "0-d"])
    def test_non_matrix_refused_unwritten(self, array):
        fh = io.StringIO()
        with pytest.raises(TypeError, match=f"{array.ndim}-D array"):
            dump_json({"m": MATRIX, "bad": [array]}, fh)
        assert fh.getvalue() == ""

    def test_each_pattern_encoded_once(self, monkeypatch):
        prof = AmplitudeProfile.from_json_dict(phased_profile(3, random.Random(3)))
        sol, _ = lp.solve_primal(prof, CostFunction.average(3), "float")
        report = povm.build_from_primal(sol, prof).to_json_dict()
        report["extra"] = [MATRIX, {"t": -MATRIX.T}, SIGNED, PAYLOADS]
        arrays = [m for entry in report["codes"] for m in entry["held"]] + \
            [MATRIX, -MATRIX.T, SIGNED, PAYLOADS]
        distinct = np.unique(np.concatenate(
            [np.ascontiguousarray(a).view(np.int64).ravel() for a in arrays]))

        encoded, calls = [], []
        dumps = json.dumps

        def counting(obj, *args, **kwargs):
            encoded.extend(obj)
            calls.append(len(obj))
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        text = written(report)
        # an array-free report takes no encoder call beyond the standard one
        assert written({"rho": Fraction(1, 3), "m": [[1.5, -0.0]]}) == \
            dumps({"rho": "1/3", "m": [[1.5, -0.0]]}, indent=2)
        monkeypatch.undo()
        assert text == json.dumps(nested(report), indent=2, default=_render)
        # every distinct pattern of the report goes to the encoder, once, in
        # one call
        assert len(calls) == 1
        assert len(encoded) == len(distinct) < sum(a.size for a in arrays)
        assert np.array_equal(np.sort(np.array(encoded).view(np.int64)), distinct)

    @pytest.mark.parametrize("case", ["matrices", "refused", "povm-set"])
    def test_matrices_freed_on_return(self, monkeypatch, case):
        # the standard encoder's closures hold the writer's `default` in a
        # reference cycle: with the collector off, each matrix must still die
        # as soon as its last reference goes
        monkeypatch.setattr(cli.os, "urandom", lambda size: b"\xab" * size)
        if case == "povm-set":
            prof = AmplitudeProfile.from_json_dict(phased_profile(3, random.Random(3)))
            sol, _ = lp.solve_primal(prof, CostFunction.average(3), "float")
            povm_set = povm.build_from_primal(sol, prof)
            # the outcome 0 that the first code's one row views
            target = next(iter(povm_set.held.values())).base
            assert target.ndim == 2
            obj = povm_set.to_json_dict()
            del povm_set
        else:
            target = MATRIX.copy()
            obj = [target, {"again": target}]
            if case == "refused":
                obj.append("\x00" + "ab" * 16 + "0")
        ref = weakref.ref(target)
        del target
        enabled = gc.isenabled()
        gc.disable()
        try:
            if case == "refused":
                with pytest.raises(ValueError, match="marker"):
                    written(obj)
            else:
                written(obj)
            del obj
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("case", ["minus-zero", "nan", "kernel-shift"])
    def test_orbit_breaks_written_as_held(self, case):
        # each code is written as it is held: a set of dense stacks, one
        # code of which is off its orbit on one count alone, as every
        # outcome, and the built set it was edited from as each code's
        # outcome 0 and its shifts
        base, breaks = orbit_breaks()
        povm_set, code = breaks[case]
        order = sorted(stacks(base), key=lambda c: c.sort_key)
        dense, built = povm_set.to_json_dict()["codes"], base.to_json_dict()["codes"]
        assert [e["H"] for e in dense] == [e["H"] for e in built] == [c.label() for c in order]
        for c, d, b in zip(order, dense, built):
            assert [m.tobytes() for m in d["held"]] == [m.tobytes() for m in stacks(povm_set)[c]]
            assert [m.tobytes() for m in b["held"]] == [m.tobytes() for m in base.held[c]]
            assert d["shifts"] == b["shifts"] == [vec_str(a, 3) for a in c.least_shifts.tolist()]
            assert np.stack(report_outcomes(d)).tobytes() == stacks(povm_set)[c].tobytes()
            assert np.stack(report_outcomes(b)).tobytes() == stacks(base)[c].tobytes()
        text = written(povm_set.to_json_dict())
        assert text == json.dumps(nested(povm_set.to_json_dict()), indent=2, default=_render)
        edited = {"minus-zero": '"im": -0.0', "nan": '"re": NaN',
                  "kernel-shift": f'"re": {float(stacks(povm_set)[code][0, 0, 0].real)!r}'}
        assert edited[case] in text

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.fractions(max_denominator=50),
                  st.builds(lambda v, c: np.array(v, dtype=complex).reshape(-1, c)
                            if c else np.zeros((0, 0)),
                            st.lists(st.complex_numbers(allow_nan=True), max_size=6)
                            .map(lambda v: v[:len(v) - len(v) % 2]),
                            st.sampled_from([0, 1, 2]))),
        lambda kids: st.one_of(st.lists(kids, max_size=3),
                               st.dictionaries(st.text(max_size=3), kids, max_size=3)),
        max_leaves=12))
    def test_random_trees(self, obj):
        assert written(obj) == json.dumps(nested(obj), indent=2, default=_render)

    @pytest.mark.parametrize("profile, extra", [
        ({"n": 3, "weights": ["1/36", "2/36", "3/36", "4/36", "5/36", "6/36", "7/36", "8/36"]},
         ["--assume-real-amplitudes"]),
        ({"n": 2, "amplitudes": [{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": -0.5},
                                 {"re": -0.5, "im": 0.0}, {"re": 0.3, "im": 0.4}]}, []),
        # about a hundred 16 x 16 matrices whose values repeat across codes;
        # a binary64 profile solves in float under either mode
        (phased_profile(4, random.Random(1)), []),
    ], ids=["rational-n3", "complex-n2", "phased-n4"])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_povm_report(self, tmp_path, capsys, profile, extra, mode):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(profile))
        argv = ["povm", "--profile", str(path), "--mode", mode, *extra]
        assert main(argv) == 0
        text = capsys.readouterr().out
        out = tmp_path / "povm.json"
        assert main([*argv, "--out", str(out)]) == 0
        out_line = f'    "out": {json.dumps(str(out))},\n'
        file_text = out.read_text()
        assert file_text.count(out_line) == 1
        assert file_text.replace(out_line, "") == text

        prof = AmplitudeProfile.from_json_dict(profile)
        if extra:
            prof = prof.with_real_amplitudes()
        sol, _ = lp.solve_primal(prof, CostFunction.average(prof.n), mode)
        povm_set = povm.build_from_primal(sol, prof)
        expected = povm_set.to_json_dict()
        report = json.loads(text)["povm"]

        def parsed(rows):
            return np.array([[complex(e["re"], e["im"]) for e in row] for row in rows])

        def same_bits(a, b):
            return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))

        built = {code.label(): stack for code, stack in stacks(povm_set).items()}
        assert len(report["codes"]) == len(expected["codes"]) == len(built) > 0
        for got, want in zip(report["codes"], expected["codes"]):
            assert (got["H"], got["k"], got["shifts"]) == (want["H"], want["k"], want["shifts"])
            assert len(got["held"]) == len(want["held"])
            for mat, ref in zip(got["held"], want["held"]):
                assert same_bits(parsed(mat), ref)
            # every element rebuilt from the written report is the set's own
            assert np.stack(report_outcomes(got)).tobytes() == built[got["H"]].tobytes()
        assert list(report) == list(expected) == ["n", "codes"]


class TestSimulate:
    def test_histogram_and_audits(self, capsys, profile_file):
        code, report = run_json(capsys, [
            "simulate", "--profile", profile_file, "--x", "01",
            "--shots", "20000", "--seed", "42",
        ])
        assert code == 0
        assert report["audits"] == {"histogram_in_support": True,
                                    "statevector_consistent": True}
        assert set(report["statevector"]) == {"norm_deviation", "max_distribution_deviation",
                                              "n_amplitudes", "ok"}
        total = sum(r["count"] for r in report["histogram"])
        assert total == 20000

    @pytest.mark.parametrize("zero_weight", [False, True], ids=["full", "ball5"])
    def test_histogram_outside_support_fails(self, tmp_path, capsys, monkeypatch,
                                             profile_file, zero_weight):
        # a sampler that leaks one shot onto an outcome of exact probability
        # 0 is caught, also on a zero-weight profile, which has no state-vector
        # block to catch it
        if zero_weight:
            path = tmp_path / "ball5.json"
            path.write_text(json.dumps(
                ball_profile(5, 2, random.Random("ci/ball5")).to_json_dict()))
            profile_file, x = str(path), "01101"
        else:
            x = "01"
        argv = ["simulate", "--profile", profile_file, "--x", x, "--shots", "1000",
                "--seed", "5"]
        code, report = run_json(capsys, argv)
        assert code == 0 and report["audits"]["histogram_in_support"]
        assert (report["statevector"] is None) == zero_weight
        _leaky_sampler(monkeypatch)
        code, report = run_json(capsys, argv)
        assert code == 1
        assert report["audits"]["histogram_in_support"] is False

    def test_float_mode_degenerate_profile(self, tmp_path, capsys):
        # weights of rand_rational_profile(4, random.Random(11)); its float
        # solve has degenerate levels that rounding puts below zero
        rng = random.Random(11)
        nums = [rng.randint(1, 30) for _ in range(16)]
        path = tmp_path / "seed11.json"
        path.write_text(json.dumps(
            {"n": 4, "weights": [f"{v}/{sum(nums)}" for v in nums]}))
        code, report = run_json(capsys, [
            "simulate", "--profile", str(path), "--x", "1111", "--shots", "1000",
            "--seed", "3", "--mode", "float",
        ])
        assert code == 0
        assert report["audits"]["statevector_consistent"]

    @pytest.mark.parametrize("shots", ["0", "-1", str(1 << 63)])
    def test_shots_out_of_range(self, capsys, profile_file, shots):
        # a usage error that names the option, not the sampler's ValueError
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--profile", profile_file, "--x", "01",
                  "--shots", shots, "--seed", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --shots: need 1 <= shots < 2**63, not '{shots}'\n")

    def test_negative_seed(self, capsys, profile_file):
        # a usage error that names the option, not numpy's from the sampler
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--profile", profile_file, "--x", "01", "--seed", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --seed: need an integer >= 0, not '-1'\n")

    def test_cost_independent_of_shots(self, capsys, profile_file):
        start = time.perf_counter()
        code, report = run_json(capsys, [
            "simulate", "--profile", profile_file, "--x", "01",
            "--shots", str(10**12), "--seed", "1",
        ])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert sum(r["count"] for r in report["histogram"]) == 10**12

    def test_seed_required(self, capsys, profile_file):
        with pytest.raises(SystemExit):
            main(["simulate", "--profile", profile_file, "--x", "01"])

    def test_x_length_checked(self, capsys, profile_file):
        code = main(["simulate", "--profile", profile_file, "--x", "011",
                     "--seed", "1"])
        assert code == 2
        assert "coordinates" in capsys.readouterr().err


class TestSlpn:
    def test_reports_lp_mode(self, capsys):
        # the Bernoulli profile is binary64, so the solve runs float, and
        # slpn takes no --mode
        code, report = run_json(capsys, ["slpn", "--n", "4", "--t", "0.1"])
        assert code == 0
        assert "mode" not in report["config"]
        assert report["lp_mode"] == "float"

    def test_summary(self, capsys):
        code, report = run_json(capsys, ["slpn", "--n", "2", "--t", "0.1"])
        assert code == 0
        assert abs(report["rho_average"] - 0.8) < 1e-9
        assert abs(report["hamming_bound"] - 0.8) < 1e-9
        assert "Prange" in report["interpretation"]

    def test_with_threshold(self, capsys):
        code, report = run_json(capsys, [
            "slpn", "--n", "4", "--t", "0.1", "--d", "1", "--gamma", "3.0",
        ])
        assert code == 0
        assert report["threshold"]["tau"] == 3
        assert report["threshold"]["rho_threshold"] <= report["threshold"]["ball_bound"] + 1e-9

    @pytest.mark.xfail(strict=True, reason=(
        "the float solve of a profile whose least weight is about 6e-16 lands "
        "2.9e-8 above 2 n t_perp, the proven optimum (ROADMAP items 10 and 16)"))
    def test_hamming_bound_holds_near_half(self, capsys):
        code, report = run_json(capsys, ["slpn", "--n", "5", "--t", "0.47"])
        assert (code, report["audits"]["hamming_bound_holds"]) == (0, True)

    @pytest.mark.parametrize("gamma", ["inf", "-inf", "nan"])
    def test_ball_rejects_non_finite_gamma(self, capsys, gamma):
        code = main(["slpn", "--n", "3", "--t", "0.1", "--d", "1", f"--gamma={gamma}"])
        assert code == 2
        assert capsys.readouterr().err == "error: need finite gamma > 2\n"

    def test_ball_refuses_huge_finite_gamma(self, capsys):
        code = main(["slpn", "--n", "3", "--t", "0.1", "--d", "2", "--gamma", "1e308"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threshold tau = ceil(1e+308 * 2) outside [1, 3]\n"

    def test_negative_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["slpn", "--n", "-1", "--t", "0.1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --n: need an integer >= 0, not '-1'\n")

    def test_lp_cap_checked_before_profile(self, capsys, monkeypatch):
        # the profile holds 2^n weights, so above the cap it must not be built
        def build(*args):
            raise AssertionError("profile built above the LP cap")

        monkeypatch.setattr(cli, "bernoulli_profile", build)
        assert main(["slpn", "--n", "40", "--t", "0.1"]) == 2
        assert capsys.readouterr().err == "error: linear programs capped at n <= 5\n"


class TestThreshold:
    def test_point_mass_zero(self, capsys, point_mass_file):
        code, report = run_json(capsys, [
            "threshold", "--profile", point_mass_file, "--tau", "1",
        ])
        assert code == 0
        assert report["certificate"]["rho_is_zero"]
        assert report["lp_value"] == "0"
        assert report["audits"]["certificate_matches_lp"]

    def test_full_support_positive(self, capsys, profile_file):
        code, report = run_json(capsys, [
            "threshold", "--profile", profile_file, "--tau", "2",
        ])
        assert code == 0
        assert not report["certificate"]["rho_is_zero"]


def order_key(label: str, last: int) -> tuple:
    """(k, H rows, s/y/i) of a report entry whose code label is "bottom" or "H[row;...]"."""
    rows = () if label == "bottom" else tuple(vec_from_str(r) for r in label[2:-1].split(";"))
    return len(rows), rows, last


def in_order(keys: list) -> bool:
    return all(a < b for a, b in zip(keys, keys[1:]))


class TestSolveReportShape:
    def test_mu_once_and_sparse(self, tmp_path, capsys):
        """An exact n=5 report lists mu once, only mu != 0, and each value
        once: rho, sigma and gap at the top, b and mu below them."""
        path = tmp_path / "n5.json"
        path.write_text(json.dumps(rand_rational_profile(5, random.Random(1)).to_json_dict()))
        assert main(["solve", "--profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert len(out.encode()) < 10_000
        report = json.loads(out)
        assert list(report) == ["config", "rho", "sigma", "gap", "primal", "dual_solution",
                                "primal_solution", "audits"]
        assert list(report["primal"]) == ["status", "mode", "pivots", "wall_time_s", "strategy"]
        assert list(report["dual_solution"]) == ["b"] and list(report["primal_solution"]) == ["mu"]
        mu = report["primal_solution"]["mu"]
        assert 0 < len(mu) <= 32 and all(Fraction(v) for v in mu.values())


class TestReportOrder:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "n4.json"
        path.write_text(json.dumps(
            rand_rational_profile(4, random.Random("order")).to_json_dict()))
        return str(path)

    def test_solve_mu(self, capsys, path):
        _, report = run_json(capsys, ["solve", "--profile", path])
        mu = report["primal_solution"]["mu"]
        entries = [key.rsplit(",s=", 1) for key in mu]
        # sparse: only mu != 0, over more than two codes
        assert all(Fraction(v) for v in mu.values())
        assert len({label for label, _ in entries}) > 2
        keys = [order_key(label, int(s)) for label, s in entries]
        assert in_order(keys)

    def test_povm_elements(self, capsys, path):
        _, report = run_json(capsys, ["povm", "--profile", path, "--assume-real-amplitudes"])
        codes = report["povm"]["codes"]
        assert len(codes) > 2
        assert in_order([order_key(entry["H"], 0) for entry in codes])

    def test_simulate_entries(self, capsys, path):
        _, report = run_json(capsys, ["simulate", "--profile", path, "--x", "1011",
                                      "--shots", "5000", "--seed", "5"])
        dist = [key.rsplit(",y=", 1) for key in report["exact_distribution"]]
        assert in_order([order_key(label, vec_from_str(y)) for label, y in dist])
        hist = report["histogram"]
        assert len(hist) > 2
        assert in_order([order_key(r["H"], vec_from_str(r["y"])) for r in hist])

    @pytest.mark.parametrize("family", ["hamming", "spike"])
    def test_candidate_lambda(self, capsys, path, family):
        _, report = run_json(capsys, ["primal-candidate", "--profile", path,
                                      "--family", family])
        # the candidate's point is listed as a solve's is: mu by (code, s)
        entries = [key.rsplit(",s=", 1) for key in report["candidate"]["mu"]]
        assert len({label for label, _ in entries}) > 2
        assert in_order([order_key(label, int(s)) for label, s in entries])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_code_order(self, n):
        table = enumerate_all_codes(n)
        assert [(c.k, c.H.rows) for c in sorted(table)] == sorted((c.k, c.H.rows) for c in table)


class TestEnumerate:
    def test_counts_audited(self, capsys):
        code, report = run_json(capsys, ["enumerate", "--n", "3"])
        assert code == 0
        assert all(report["audits"].values())
        assert len(report["codes"]) == 1 + 7 + 7 + 1

    def test_single_rank(self, capsys):
        code, report = run_json(capsys, ["enumerate", "--n", "2", "--k", "1"])
        assert code == 0
        assert len(report["codes"]) == 3

    def test_table_format(self, capsys):
        code = main(["enumerate", "--n", "2", "--format", "table"])
        assert code == 0
        assert "H" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [[], ["--k", "0"]], ids=["all-ranks", "one-rank"])
    def test_negative_n(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "-1", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --n: need an integer >= 0, not '-1'\n")

    def test_n_past_a_c_integer_refused_by_the_cap(self, capsys):
        # no list of n + 1 ranks is built before the cap refuses n
        assert main(["enumerate", "--n", "9" * 20]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: code enumeration capped at n <= 8\n"

    def test_closed_stdout_exits_141_quietly(self):
        # the report (about 300 kB) outgrows the pipe, so the writer is still
        # writing when the reader closes it
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-m", "paritylp.cli", "enumerate", "--n", "5"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestRuntimeDependencies:
    def test_numpy_is_the_only_one(self):
        # scipy and hypothesis are test dependencies and pytest the runner:
        # neither the library nor the CLI may load them
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, paritylp, paritylp.cli; print(sorted("
                "{m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout == "[]\n"


def _corpus_profiles() -> dict:
    """Seeded profiles of n = 0..5: rational full support, rational on a
    Hamming ball, binary64 and complex-phased."""
    profiles = {"r0": {"n": 0, "weights": ["1"]}}
    for n in range(1, 6):
        rng = random.Random(f"corpus/{n}")
        profiles[f"r{n}"] = rand_rational_profile(n, rng).to_json_dict()
        if 2 <= n <= 4:
            profiles[f"b{n}"] = ball_profile(n, n // 2, rng).to_json_dict()
    profiles["f3"] = bernoulli_profile(3, 0.1).to_json_dict()
    profiles["ph3"] = phased_profile(3, random.Random("corpus/ph3"))
    profiles["ph4"] = phased_profile(4, random.Random("corpus/ph4"))
    profiles["ph5"] = phased_profile(5, random.Random("corpus/ph5"))
    return profiles


REAL = "--assume-real-amplitudes"
CORPUS = {
    "solve-r0": "solve --profile {r0}",
    "solve-r1": "solve --profile {r1}",
    "solve-r2-float-custom":
        "solve --profile {r2} --mode float --cost custom --cost-values 0,0.5,3",
    "solve-r3-tau1": "solve --profile {r3} --cost threshold --tau 1",
    "solve-r3-dump": "solve --profile {r3} --dump-model {dump}",
    "solve-r3-table": "solve --profile {r3} --format table",
    "solve-b3-tau2": "solve --profile {b3} --cost threshold --tau 2",
    "solve-r4": "solve --profile {r4}",
    "solve-r4-float": "solve --profile {r4} --mode float",
    "solve-b4-tau2": "solve --profile {b4} --cost threshold --tau 2",
    "solve-f3": "solve --profile {f3}",
    "solve-r5": "solve --profile {r5}",
    "verify-r0-hamming": "verify --profile {r0} --family hamming",
    "verify-r3-hamming": "verify --profile {r3} --family hamming",
    "verify-b3-cohamming-float": "verify --profile {b3} --family cohamming --mode float",
    "verify-r4-spike": "verify --profile {r4} --family spike",
    "verify-r4-ball": "verify --profile {r4} --family threshold-ball --d 1 --gamma 2.5",
    "verify-b4-ball-d0": "verify --profile {b4} --family threshold-ball --d 0 --gamma 3 --tau 1",
    "verify-b2-set": "verify --profile {b2} --family threshold-set --tau 1 --set 00,01,10",
    "verify-r3-table": "verify --profile {r3} --family spike --format table",
    "threshold-b3-tau1": "threshold --profile {b3} --tau 1",
    "threshold-r4-tau2": "threshold --profile {r4} --tau 2",
    "threshold-b4-tau2-float": "threshold --profile {b4} --tau 2 --mode float",
    "threshold-r2-table": "threshold --profile {r2} --tau 1 --format table",
    "candidate-r3-hamming": "primal-candidate --profile {r3} --family hamming",
    "candidate-r4-cohamming": "primal-candidate --profile {r4} --family cohamming",
    "candidate-r4-spike": "primal-candidate --profile {r4} --family spike",
    "candidate-r2-table": "primal-candidate --profile {r2} --family spike --format table",
    "candidate-f3-hamming": "primal-candidate --profile {f3} --family hamming",
    "povm-r1": "povm --profile {r1} " + REAL,
    "povm-r3-tau1": "povm --profile {r3} --cost threshold --tau 1 " + REAL,
    "povm-ph3-float": "povm --profile {ph3} --mode float",
    "povm-ph4-float": "povm --profile {ph4} --mode float",
    "povm-r2-table": "povm --profile {r2} --format table " + REAL,
    "simulate-r0": "simulate --profile {r0} --x= --seed 1 --shots 10",
    "simulate-r3": "simulate --profile {r3} --x 101 --seed 2 --shots 1000",
    "simulate-b4-float": "simulate --profile {b4} --x 0110 --seed 3 --shots 500 --mode float",
    "simulate-r5": "simulate --profile {r5} --x 10011 --seed 4 --shots 100",
    "simulate-ph5-float":
        "simulate --profile {ph5} --x 01101 --seed 6 --shots 1000000 --mode float",
    "simulate-r2-table": "simulate --profile {r2} --x 01 --seed 5 --shots 100 --format table",
    "slpn-n0": "slpn --n 0 --t 0.1",
    "slpn-n3": "slpn --n 3 --t 0.1",
    "slpn-n4-ball": "slpn --n 4 --t 0.05 --d 1 --gamma 3.0",
    "slpn-n5": "slpn --n 5 --t 0.1",
    "enumerate-n0": "enumerate --n 0",
    "enumerate-n3": "enumerate --n 3",
    "enumerate-n4-k2": "enumerate --n 4 --k 2",
    "enumerate-n2-table": "enumerate --n 2 --format table",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """The corpus profiles written to files, by name, and a model dump path."""
    root = tmp_path_factory.mktemp("corpus")
    paths = {"dump": str(root / "model.txt")}
    for name, data in _corpus_profiles().items():
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(data))
    return paths


def _recorded_run(argv: list) -> tuple:
    """One run of `main(argv)`: its exit code, what it wrote to stdout, the
    reports it passed to `dump_json` and the (mode, strategy) of each solve."""
    reports, solves = [], []
    real_dump, real_solve = cli.dump_json, lp.solve

    def dump(obj, fh):
        reports.append(obj)
        real_dump(obj, fh)

    def solve(*args, **kwargs):
        result = real_solve(*args, **kwargs)
        solves.append((result.mode, result.strategy))
        return result

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "dump_json", dump)
        mp.setattr(lp, "solve", solve)
        code = main(argv)
    return code, out.getvalue(), reports, solves


@pytest.fixture(scope="module")
def corpus(paths):
    """name -> `_recorded_run` of CORPUS[name], run once, on first request,
    for every test of the module that reads it."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = _recorded_run(CORPUS[name].format(**paths).split())
        return runs[name]
    return run


class TestReportCorpus:
    """Every subcommand's report is what json.dumps(indent=2) writes for it,
    and every exact solve is certified."""

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_report(self, corpus, name):
        command = CORPUS[name]
        code, text, reports, solves = corpus(name)
        assert code == 0
        if "--format table" in command:
            assert not reports and text.split()[0] in ("quantity", "H", "k")
        else:
            assert len(reports) == 1
            assert text == json.dumps(nested(reports[0]), indent=2, default=_render) + "\n"
        assert all(strategy == "certified" for mode, strategy in solves if mode == "exact")
        if command.startswith("solve") and reports:
            primal = reports[0]["primal"]
            assert primal["mode"] == "float" or primal["strategy"] == "certified"

    @pytest.mark.parametrize("name", [name for name, command in CORPUS.items()
                                      if name.startswith("solve") and "table" not in command])
    def test_solve_checks_itself(self, corpus, name):
        """The stdlib checker proves every exact solve report optimal from
        the report and its profile alone, and refuses to read a float one."""
        code, text, _, _ = corpus(name)
        assert code == 0
        report = json.loads(text)
        with open(report["config"]["profile"]) as fh:
            profile = json.load(fh)
        exact = report["primal"]["mode"] == "exact"
        assert check_report.check(report, profile) == ([] if exact else ["not an exact report"])
        assert exact != (name in ("solve-r2-float-custom", "solve-r4-float", "solve-f3"))

    @pytest.mark.parametrize("name", [name for name, command in CORPUS.items()
                                      if name.startswith("candidate") and "table" not in command])
    def test_candidate_checks_itself(self, corpus, name):
        """The stdlib checker accepts every exact candidate report, of either
        verdict, and refuses to read a binary64 one."""
        code, text, _, _ = corpus(name)
        assert code == 0
        report = json.loads(text)
        with open(report["config"]["profile"]) as fh:
            profile = json.load(fh)
        exact = name != "candidate-f3-hamming"
        assert check_report.check(report, profile) == ([] if exact else ["not an exact report"])


# -- every audit key bites ---------------------------------------------------

def _solve_reports(change):
    """A break: `lp.solve`, which every command's solve runs through, returns
    `change(report)` for its report."""
    def apply(monkeypatch):
        real = lp.solve
        monkeypatch.setattr(lp, "solve", lambda *args, **kwargs: change(real(*args, **kwargs)))
    return apply


def _moved_optimum(move):
    return _solve_reports(lambda report: replace(report, objective=move(report.objective)))


def _scaled_mu(scale):
    """mu[(code, s)] times scale(code), the optimum left as it is."""
    return _solve_reports(lambda report: replace(report, values={
        label: v * scale(label[0]) for label, v in report.values.items()}))


def _dented_dual(monkeypatch):
    """The family's dual with b_0 = -1, below the cover of the coset {0}, and
    every other b_i raised by 10, which keeps its objective above the optimum."""
    real = bounds.paired_dual

    def dented(family, n):
        b = [v + 10 for v in real(family, n).b]
        b[0] = -1
        return lp.DualSolution(n, tuple(b))

    monkeypatch.setattr(bounds, "paired_dual", dented)


def _leaky_sampler(monkeypatch):
    """One shot more, on an outcome of exact probability 0."""
    real = simulate.sample

    def leaky(sol, profile, xv, shots, seed):
        dist = simulate.exact_distribution(sol, profile, xv)
        leak = next(c for c in enumerate_all_codes(profile.n)
                    if not dist.get((c, c.parity(xv)), 0))
        return real(sol, profile, xv, shots, seed) + [
            simulate.OutcomeRecord(leak, leak.parity(xv), 1, 1 / shots)]

    monkeypatch.setattr(simulate, "sample", leaky)


def _skewed_law(monkeypatch):
    """Every probability of the exact law times 11/10: the same support."""
    real = simulate.exact_distribution
    monkeypatch.setattr(simulate, "exact_distribution", lambda *args: {
        key: p * Fraction(11, 10) for key, p in real(*args).items()})


def _short_table(monkeypatch):
    """The code enumeration one code short."""
    real = cli.enumerate_codes
    monkeypatch.setattr(cli, "enumerate_codes", lambda n, k: real(n, k)[:-1])


# the phased n=3 optimum under the tau = n threshold cost, whose rank-0 code
# carries mass: its leftover is held and written like every code
POVM_TAU_N = "povm --profile {ph3} --mode float --cost threshold --tau 3"
SIMULATE_R3 = "simulate --profile {r3} --x 101 --seed 2 --shots 1000"
# (subcommand, audit key) -> (command on which every audit holds, the break
# that makes that key alone false); enumerate's keys name a rank k
AUDIT_ROWS = {
    ("solve", "strong_duality_gap"): ("solve --profile {r3}", _moved_optimum(lambda v: v + 10)),
    ("solve", "primal_feasible"): ("solve --profile {r3} --mode float", _scaled_mu(lambda c: 0.5)),
    ("verify", "dual_feasible"): ("verify --profile {r3} --family hamming", _dented_dual),
    ("verify", "weak_duality"):
        ("verify --profile {r3} --family hamming", _moved_optimum(lambda v: v + 10)),
    ("primal-candidate", "certified_when_nonnegative"):
        ("primal-candidate --profile {r2} --family spike", _dented_dual),
    ("povm", "povm_valid"): (POVM_TAU_N, _scaled_mu(lambda code: 0.5 if code.k == 0 else 1)),
    ("povm", "rho_matches_lp"): (POVM_TAU_N, _moved_optimum(lambda v: v + 10)),
    ("simulate", "histogram_in_support"): (SIMULATE_R3, _leaky_sampler),
    ("simulate", "statevector_consistent"): (SIMULATE_R3, _skewed_law),
    ("slpn", "hamming_bound_holds"): ("slpn --n 3 --t 0.1", _moved_optimum(lambda v: v + 10)),
    ("threshold", "certificate_matches_lp"):
        ("threshold --profile {r3} --tau 2", _moved_optimum(lambda v: v * 0)),
    ("enumerate", "count_k{k}_matches_gaussian_binomial"): ("enumerate --n 3 --k 1", _short_table),
}


def audit_row_keys(argv: list, report: dict) -> dict:
    """(subcommand, audit key) -> verdict for each audit of a report, with
    enumerate's rank written {k}."""
    return {(argv[0], re.sub(r"_k[0-9]+_", "_k{k}_", key)): ok
            for key, ok in report["audits"].items()}


class TestEveryAuditBites:
    """Each audit of each subcommand holds on a seeded input and fails alone,
    with exit code 1, when a monkeypatch breaks the one computation it
    checks; a report audit key with no row fails the table."""

    @pytest.mark.parametrize("row", list(AUDIT_ROWS), ids=["/".join(row) for row in AUDIT_ROWS])
    def test_break_bites(self, capsys, monkeypatch, paths, row):
        command, brk = AUDIT_ROWS[row]
        argv = command.format(**paths).split()
        code, report = run_json(capsys, argv)
        audits = audit_row_keys(argv, report)
        assert code == 0 and row in audits and all(audits.values())
        assert set(audits) <= set(AUDIT_ROWS)
        if row[0] == "povm":
            (entry,) = [e for e in report["povm"]["codes"] if e["k"] == 0]
            assert entry["shifts"] == ["000"]
            assert any(e["re"] or e["im"] for line in entry["held"][0] for e in line)
        brk(monkeypatch)
        code, report = run_json(capsys, argv)
        audits = audit_row_keys(argv, report)
        assert code == 1 and [key for key, ok in audits.items() if not ok] == [row]

    def test_every_audit_key_has_a_row(self, corpus):
        # each audit key of every report of the corpus, from its one run; a
        # row's own command is held to the table in `test_break_bites`
        seen = set()
        for name, command in CORPUS.items():
            if "--format table" not in command:
                code, text, _, _ = corpus(name)
                assert code == 0
                seen |= audit_row_keys(command.split(), json.loads(text)).keys()
        assert seen == set(AUDIT_ROWS)
        assert {command for command, _ in AUDIT_ROWS} == set(OPTIONS)


# (subcommand, audit key) -> a command on which that audit compares the LP
# optimum with an exact value it equals: the optimum against the dual
# objective, the spike family's bound and the zero certificate's verdict
EXACT_ZERO_ROWS = {
    ("solve", "strong_duality_gap"): "solve --profile {r3}",
    ("verify", "weak_duality"): "verify --profile {r2} --family spike",
    ("threshold", "certificate_matches_lp"): "threshold --profile {b3} --tau 2",
}


class TestExactMeansZero:
    """An audit of an exact optimum allows a gap of exactly 0: the optimum
    moved by 10^-15 fails it alone, with exit code 1.  A binary64 optimum
    moved by 10^-10 stays within lp.FLOAT_FEAS_TOL and passes."""

    @pytest.mark.parametrize("mode, move, expected", [
        ("exact", Fraction(1, 10 ** 15), 1), ("float", 1e-10, 0)], ids=["exact", "float"])
    @pytest.mark.parametrize("row", list(EXACT_ZERO_ROWS),
                             ids=["/".join(row) for row in EXACT_ZERO_ROWS])
    def test_moved_optimum(self, capsys, monkeypatch, paths, row, mode, move, expected):
        argv = [*EXACT_ZERO_ROWS[row].format(**paths).split(), "--mode", mode]
        code, report = run_json(capsys, argv)
        assert code == 0 and row in audit_row_keys(argv, report)
        _moved_optimum(lambda v: v + move)(monkeypatch)
        code, report = run_json(capsys, argv)
        audits = audit_row_keys(argv, report)
        assert code == expected
        assert [key for key, ok in audits.items() if not ok] == [row] * expected
