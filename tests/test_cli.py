"""End-to-end command exercises through the argparse entry point."""

import json
import random

import pytest

from paritylp.cli import main


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

    @pytest.mark.parametrize("tol, expected", [("1e-9", 0), ("-1", 1)])
    def test_float_profile_under_exact_mode(self, tmp_path, capsys, tol, expected):
        # binary64 weights run a float solve, so the duality audit compares
        # against --tol-feas (a negative tolerance fails it) instead of gap == 0
        from paritylp.profiles import bernoulli_profile

        path = tmp_path / "bern.json"
        path.write_text(json.dumps(bernoulli_profile(3, 0.1).to_json_dict()))
        code, report = run_json(capsys, [
            "solve", "--profile", str(path), "--mode", "exact", "--tol-feas", tol,
        ])
        assert code == expected
        assert (report["primal"]["mode"], report["primal"]["strategy"]) == ("float", "float")
        assert isinstance(report["rho"], float)
        assert report["audits"]["strong_duality_gap"] is (expected == 0)

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

    def test_dump_model(self, tmp_path, capsys, profile_file):
        dump = tmp_path / "model.txt"
        code, _ = run_json(capsys, [
            "solve", "--profile", profile_file, "--dump-model", str(dump),
        ])
        assert code == 0
        assert "mu[" in dump.read_text()

    def test_out_file(self, tmp_path, capsys, profile_file):
        out = tmp_path / "report.json"
        code = main(["solve", "--profile", profile_file, "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["rho"] == "11/10"


class TestVerify:
    def test_hamming_on_bernoulli(self, tmp_path, capsys):
        from paritylp.profiles import bernoulli_profile

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

    def test_threshold_set(self, capsys, point_mass_file):
        code, report = run_json(capsys, [
            "verify", "--profile", point_mass_file, "--family",
            "threshold-set", "--tau", "1", "--set", "10,01,11",
        ])
        assert code == 0
        assert report["objective"] == "0"


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

    def test_seed_required(self, capsys, profile_file):
        with pytest.raises(SystemExit):
            main(["simulate", "--profile", profile_file, "--x", "01"])

    def test_x_length_checked(self, capsys, profile_file):
        code = main(["simulate", "--profile", profile_file, "--x", "011",
                     "--seed", "1"])
        assert code == 2
        assert "coordinates" in capsys.readouterr().err


class TestSlpn:
    def test_summary(self, capsys):
        code, report = run_json(capsys, [
            "slpn", "--n", "2", "--t", "0.1", "--mode", "float",
        ])
        assert code == 0
        assert abs(report["rho_average"] - 0.8) < 1e-9
        assert abs(report["hamming_bound"] - 0.8) < 1e-9
        assert "Prange" in report["interpretation"]

    def test_with_threshold(self, capsys):
        code, report = run_json(capsys, [
            "slpn", "--n", "4", "--t", "0.1", "--d", "1", "--gamma", "3.0",
            "--mode", "float",
        ])
        assert code == 0
        assert report["threshold"]["tau"] == 3
        assert report["threshold"]["rho_threshold"] <= report["threshold"]["ball_bound"] + 1e-9


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
