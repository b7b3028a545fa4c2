"""End-to-end command exercises through the argparse entry point."""

import argparse
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
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_report
from conftest import ball_profile, rand_rational_profile
from paritylp import bounds, cli, lp, povm
from paritylp.cli import _render, build_parser, dump_json, main
from paritylp.f2lin import enumerate_all_codes, vec_from_str
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
    "solve": ("profile", "mode", "format", "out", "tol_feas",
              "cost", "tau", "cost_values", "dump_model"),
    "verify": ("profile", "mode", "format", "out", "tol_feas",
               "family", "d", "gamma", "tau", "set"),
    "primal-candidate": ("profile", "format", "out", "family"),
    "povm": ("profile", "mode", "format", "out", "tol_feas", "tol_complete", "tol_unambig",
             "cost", "tau", "cost_values", "assume_real_amplitudes"),
    "simulate": ("profile", "mode", "format", "out",
                 "cost", "tau", "cost_values", "x", "shots", "seed"),
    "slpn": ("format", "out", "tol_feas", "n", "t", "d", "gamma"),
    "threshold": ("profile", "mode", "format", "out", "tol_feas", "tau"),
    "enumerate": ("format", "out", "n", "k"),
}


class TestOptionSurface:
    def test_each_subcommand_declares_what_it_reads(self):
        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        declared = {name: tuple(a.dest for a in sub._actions if a.dest != "help")
                    for name, sub in action.choices.items()}
        assert declared == OPTIONS
        assert sum(map(len, declared.values())) == 61

    def test_tolerance_defaults_are_the_library_constants(self):
        args = build_parser().parse_args(["povm", "--profile", "p.json"])
        assert (args.tol_feas, args.tol_complete, args.tol_unambig) == (
            lp.FLOAT_FEAS_TOL, povm.TOL_COMPLETE, povm.TOL_UNAMBIG)

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "2", "--mode", "float"],
        ["primal-candidate", "--profile", "p.json", "--family", "hamming", "--tol-feas", "1"],
        ["simulate", "--profile", "p.json", "--x", "01", "--seed", "1", "--tol-feas", "1"],
        ["solve", "--profile", "p.json", "--tol-complete", "1"],
        ["slpn", "--n", "2", "--t", "0.1", "--tol-unambig", "1"],
        ["slpn", "--n", "2", "--t", "0.1", "--mode", "float"],
    ], ids=["enumerate-mode", "candidate-tol-feas", "simulate-tol-feas",
            "solve-tol-complete", "slpn-tol-unambig", "slpn-mode"])
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", [
        ("solve", "--tol-feas"), ("povm", "--tol-feas"), ("povm", "--tol-complete"),
        ("povm", "--tol-unambig"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300", "abc"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, command, option, value):
        # a NaN or infinite tolerance would pass every audit it bounds
        with pytest.raises(SystemExit) as exc:
            main([command, "--profile", "p.json", f"{option}={value}"])
        assert exc.value.code == 2
        assert f"argument {option}: need a finite tolerance >= 0, not {value!r}" in \
            capsys.readouterr().err

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

    def test_zero_tolerance_accepted(self):
        args = build_parser().parse_args(["povm", "--profile", "p.json", "--tol-feas", "0",
                                          "--tol-complete", "1e-3", "--tol-unambig", "2"])
        assert (args.tol_feas, args.tol_complete, args.tol_unambig) == (0.0, 1e-3, 2.0)


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

    @pytest.mark.parametrize("tol, expected", [("1e-9", 0), ("0", 1)])
    def test_float_profile_under_exact_mode(self, tmp_path, capsys, tol, expected):
        # binary64 weights run a float solve, so the duality audit compares
        # against --tol-feas (0 is below this solve's gap of one ulp, and
        # fails it) instead of gap == 0
        path = tmp_path / "bern.json"
        path.write_text(json.dumps(bernoulli_profile(3, 0.1).to_json_dict()))
        code, report = run_json(capsys, [
            "solve", "--profile", str(path), "--mode", "exact", "--tol-feas", tol,
        ])
        assert code == expected
        assert (report["primal"]["mode"], report["primal"]["strategy"]) == ("float", "float")
        assert isinstance(report["rho"], float)
        assert report["audits"]["strong_duality_gap"] is (expected == 0)

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

    def test_exact_loop_scores_costs_past_binary64(self, tmp_path, capsys):
        # the float stage stops at its pivot limit, and the exact loop's
        # reduced costs pass binary64: it scores them scaled by a power of two
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"n": 2, "weights": ["3/16", "1/8", "3/16", "1/2"]}))
        code, report = run_json(capsys, ["solve", "--profile", str(path), "--cost", "custom",
                                         "--cost-values", "1.7e308,1,0"])
        rho = str(17 * 10 ** 307)
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
        # duality gap stays within --tol-feas (weights only: amplitudes
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
        assert len(report["povm"]["elements"]) > 0


def nested(obj):
    """The report form before the streamed writer: each ndarray as its
    rows of {"re", "im"} dicts."""
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
         "povm": {"n": 2, "elements": [{"H": "10", "k": 1, "matrix": MATRIX},
                                       {"k": [], "matrix": SPECIAL}],
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

    def test_each_pattern_encoded_once(self, monkeypatch):
        prof = AmplitudeProfile.from_json_dict(phased_profile(3, random.Random(3)))
        sol, _ = lp.solve_primal(prof, CostFunction.average(3), "float")
        report = povm.build_from_primal(sol, prof).to_json_dict()
        report["extra"] = [MATRIX, {"t": -MATRIX.T}, SIGNED, PAYLOADS]
        arrays = [e["matrix"] for e in report["elements"]] + \
            [report["perp"], MATRIX, -MATRIX.T, SIGNED, PAYLOADS]
        distinct = np.unique(np.concatenate(
            [np.ascontiguousarray(a).view(np.int64).ravel() for a in arrays]))

        encoded = []
        dumps = json.dumps

        def counting(obj, *args, **kwargs):
            encoded.extend(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        text = written(report)
        monkeypatch.undo()
        assert text == json.dumps(nested(report), indent=2, default=_render)
        # every distinct pattern of the report goes to the encoder, once
        assert len(encoded) == len(distinct) < sum(a.size for a in arrays)
        assert np.array_equal(np.sort(np.array(encoded).view(np.int64)), distinct)

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

        assert len(report["elements"]) == len(expected["elements"]) > 0
        for got, want in zip(report["elements"], expected["elements"]):
            assert (got["H"], got["k"], got["y"]) == (want["H"], want["k"], want["y"])
            assert same_bits(parsed(got["matrix"]), want["matrix"])
        assert same_bits(parsed(report["perp"]), expected["perp"])


class TestSimulate:
    def test_histogram_and_audits(self, capsys, profile_file):
        code, report = run_json(capsys, [
            "simulate", "--profile", profile_file, "--x", "01",
            "--shots", "20000", "--seed", "42",
        ])
        assert code == 0
        assert report["audits"]["sampled_y_always_Hx"]
        assert report["audits"]["statevector_consistent"]
        total = sum(r["count"] for r in report["histogram"])
        assert total == 20000

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
        code = main(["simulate", "--profile", profile_file, "--x", "01",
                     "--shots", shots, "--seed", "1"])
        assert code == 2
        assert "need 1 <= shots < 2**63" in capsys.readouterr().err

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

    @pytest.mark.parametrize("gamma", ["inf", "-inf", "nan"])
    def test_ball_rejects_non_finite_gamma(self, capsys, gamma):
        code = main(["slpn", "--n", "3", "--t", "0.1", "--d", "1", f"--gamma={gamma}"])
        assert code == 2
        assert capsys.readouterr().err == "error: need finite gamma > 2\n"

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
        elements = report["povm"]["elements"]
        assert len({e["H"] for e in elements}) > 2
        assert in_order([order_key(e["H"], vec_from_str(e["y"])) for e in elements])

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


class TestReportCorpus:
    """Every subcommand's report is what json.dumps(indent=2) writes for it,
    and every exact solve is certified."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("corpus")
        paths = {"dump": str(root / "model.txt")}
        for name, data in _corpus_profiles().items():
            paths[name] = str(root / f"{name}.json")
            (root / f"{name}.json").write_text(json.dumps(data))
        return paths

    @pytest.mark.parametrize("command", list(CORPUS.values()), ids=list(CORPUS))
    def test_report(self, capsys, monkeypatch, paths, command):
        reports, solves = [], []
        real_dump, real_solve = cli.dump_json, lp.solve

        def dump(obj, fh):
            reports.append(obj)
            real_dump(obj, fh)

        def solve(*args, **kwargs):
            result = real_solve(*args, **kwargs)
            solves.append((result.mode, result.strategy))
            return result

        monkeypatch.setattr(cli, "dump_json", dump)
        monkeypatch.setattr(lp, "solve", solve)
        assert main(command.format(**paths).split()) == 0
        text = capsys.readouterr().out
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
    def test_solve_checks_itself(self, capsys, paths, name):
        """The stdlib checker proves every exact solve report optimal from
        the report and its profile alone, and refuses to read a float one."""
        assert main(CORPUS[name].format(**paths).split()) == 0
        report = json.loads(capsys.readouterr().out)
        with open(report["config"]["profile"]) as fh:
            profile = json.load(fh)
        exact = report["primal"]["mode"] == "exact"
        assert check_report.check(report, profile) == ([] if exact else ["not an exact report"])
        assert exact != (name in ("solve-r2-float-custom", "solve-r4-float", "solve-f3"))

    @pytest.mark.parametrize("name", [name for name, command in CORPUS.items()
                                      if name.startswith("candidate") and "table" not in command])
    def test_candidate_checks_itself(self, capsys, paths, name):
        """The stdlib checker accepts every exact candidate report, of either
        verdict, and refuses to read a binary64 one."""
        assert main(CORPUS[name].format(**paths).split()) == 0
        report = json.loads(capsys.readouterr().out)
        with open(report["config"]["profile"]) as fh:
            profile = json.load(fh)
        exact = name != "candidate-f3-hamming"
        assert check_report.check(report, profile) == ([] if exact else ["not an exact report"])
