"""The stdlib report checker (`check_report.py`) against the library and
against exact `solve` and `primal-candidate` reports: it accepts what a
solve or a candidate writes, rejects reports changed by one value, and
rebuilds the cosets the README describes, which are the coset table's."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

import check_report
from conftest import ball_profile, powered_profile, rand_rational_profile
from paritylp.cli import main
from paritylp.f2lin import coset_table
from paritylp.profiles import AmplitudeProfile


@pytest.mark.parametrize("n", range(6))
def test_readme_cosets_are_the_coset_table(n):
    """Every (label, s) of the code table names, by the README's rule, the
    members of row s of the code's coset array, and the checker's brute-force
    subspaces are the table's codes."""
    table = coset_table(n)
    spaces = set()
    for codes, members in zip(table.codes, table.members):
        for code, cosets in zip(codes, members.tolist()):
            for s, coset in enumerate(cosets):
                assert check_report.coset_of(code.label(), s, n) == frozenset(coset)
            spaces.add(frozenset(cosets[0]))
    assert spaces == set(check_report.subspaces(n))
    assert len(check_report.subspaces(n)) == sum(map(len, table.codes))


def solve_report(tmp_path, capsys, p, cost_args=()):
    """An exact `solve` report of p and the profile JSON it was read from."""
    path = tmp_path / f"p{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps(p.to_json_dict()))
    assert main(["solve", "--profile", str(path), *cost_args]) == 0
    return json.loads(capsys.readouterr().out), json.loads(path.read_text())


def _seeded():
    for n, seed in product((4, 5), range(2)):
        rng = random.Random(f"check/{n}/{seed}")
        yield f"full{n}-{seed}", rand_rational_profile(n, rng)
        yield f"ball{n}-{seed}", ball_profile(n, 2, rng)


SEEDED = dict(_seeded())


def cost_args(cost, n):
    if cost == "tau2":
        return ("--cost", "threshold", "--tau", "2")
    if cost == "custom":
        return ("--cost", "custom", "--cost-values",
                ",".join(str(Fraction(k * k, 3)) for k in range(n + 1)))
    return ()


@pytest.mark.parametrize("cost", ["average", "tau2", "custom"])
@pytest.mark.parametrize("name", list(SEEDED))
def test_accepts_seeded_solves(tmp_path, capsys, name, cost):
    p = SEEDED[name]
    report, profile = solve_report(tmp_path, capsys, p, cost_args(cost, p.n))
    assert report["primal"]["mode"] == "exact"
    assert check_report.check(report, profile) == []


def test_accepts_a_repaired_solve(tmp_path, capsys):
    """A weight below 1e-10 fails the float basis's exact check, and the
    integer loop repairs it: the report is still a proof, which the
    checker's command accepts."""
    report, profile = solve_report(tmp_path, capsys, powered_profile(1))
    assert (report["primal"]["strategy"], report["gap"]) == ("exact-pivots", 0)
    paths = [tmp_path / "report.json", tmp_path / "profile.json"]
    for path, data in zip(paths, (report, profile)):
        path.write_text(json.dumps(data))
    assert check_report.main([str(path) for path in paths]) == 0
    assert capsys.readouterr().out == ""


def test_any_feasible_b_bounds_every_profile(tmp_path, capsys):
    """The covering set of b does not depend on the profile, so a report's
    b bounds the optimum of every profile of its n and cost, with equality
    on its own."""
    for n in (4, 5):
        reports = [solve_report(tmp_path, capsys, p) for p in SEEDED.values() if p.n == n]
        for (report, _), (other, profile) in product(reports, repeat=2):
            b = report["dual_solution"]["b"]
            bound = sum(Fraction(b[check_report.coordinates(i, n)]) * Fraction(w)
                        for i, w in enumerate(profile["weights"]))
            assert Fraction(other["rho"]) <= bound
            if report is other:
                assert Fraction(other["rho"]) == bound


def move_onto_zero_set(report, profile):
    """The report with the mu of one coset moved to a coset of the same code
    that meets the zero set: the sums at the supported indices may hold,
    but the point puts mass where the state has none."""
    n = profile["n"]
    zero = {i for i, w in enumerate(profile["weights"]) if Fraction(w) == 0}
    mu = report["primal_solution"]["mu"]
    for key, value in mu.items():
        label, s = key.rsplit(",s=", 1)
        if label == "bottom":
            continue
        for t in range(1 << (n - label.count(";") - 1)):
            if zero & check_report.coset_of(label, t, n) and f"{label},s={t}" not in mu:
                moved = {k: v for k, v in mu.items() if k != key}
                moved[f"{label},s={t}"] = value
                return {**report, "primal_solution": {"mu": moved}}
    raise AssertionError("no rank >= 1 coset carries mass")


def lower_one_b(report, profile):
    """The report with b_i lowered by one unit of its denominator, at the
    first supported index."""
    b = dict(report["dual_solution"]["b"])
    i = next(i for i, w in enumerate(profile["weights"]) if Fraction(w))
    key = check_report.coordinates(i, profile["n"])
    v = Fraction(b[key])
    b[key] = str(v - Fraction(1, v.denominator))
    return {**report, "dual_solution": {"b": b}}


def change_rho(report, profile):
    """The report with the last digit of rho changed."""
    rho = report["rho"]
    last = "8" if rho[-1] == "9" else str(int(rho[-1]) + 1)
    return {**report, "rho": rho[:-1] + last}


@pytest.mark.parametrize("mutate, found", [
    (move_onto_zero_set, "on a coset that meets the zero set"),
    (lower_one_b, "are not all equal"),
    (change_rho, "are not all equal"),
])
@pytest.mark.parametrize("name", ["ball4-0", "ball4-1", "ball5-0", "ball5-1"])
def test_rejects_mutated_reports(tmp_path, capsys, name, mutate, found):
    report, profile = solve_report(tmp_path, capsys, SEEDED[name])
    assert check_report.check(report, profile) == []
    failed = check_report.check(mutate(report, profile), profile)
    assert any(found in line for line in failed), failed


def test_lowered_b_leaves_a_tight_coset_short(tmp_path, capsys):
    """Every supported index lies in a coset with mass, which an optimal b
    covers with equality, so lowering its b_i uncovers that coset."""
    report, profile = solve_report(tmp_path, capsys, SEEDED["full4-0"])
    failed = check_report.check(lower_one_b(report, profile), profile)
    assert any(line.startswith("b sums to") for line in failed)


def test_command_line(tmp_path, capsys):
    report, profile = solve_report(tmp_path, capsys, SEEDED["ball4-0"])
    paths = [tmp_path / name for name in ("report.json", "bad.json", "profile.json")]
    for path, data in zip(paths, (report, change_rho(report, profile), profile)):
        path.write_text(json.dumps(data))
    assert check_report.main([str(paths[0]), str(paths[2])]) == 0
    assert capsys.readouterr().out == ""
    assert check_report.main([str(paths[1]), str(paths[2])]) == 1
    assert "are not all equal" in capsys.readouterr().out


def candidate_report(tmp_path, capsys, p, family):
    """A `primal-candidate` report of p and the profile JSON it was read from."""
    path = tmp_path / f"p{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps(p.to_json_dict()))
    assert main(["primal-candidate", "--profile", str(path), "--family", family]) == 0
    return json.loads(capsys.readouterr().out), json.loads(path.read_text())


def _candidate_profiles():
    for n in (1, 3, 5):
        rng = random.Random(f"check/candidate/{n}")
        yield f"full{n}", rand_rational_profile(n, rng)
        yield f"uniform{n}", AmplitudeProfile.from_weights(n, [Fraction(1, 1 << n)] * (1 << n))


CANDIDATE_PROFILES = dict(_candidate_profiles())


def move_mu_by_one_unit(candidate):
    """The candidate with its first nonzero mu raised by one unit of its
    denominator."""
    mu = dict(candidate["mu"])
    key, v = next((key, Fraction(v)) for key, v in mu.items() if Fraction(v))
    mu[key] = str(v + Fraction(1, v.denominator))
    return {**candidate, "mu": mu}


@pytest.mark.parametrize("family", ["hamming", "cohamming", "spike"])
@pytest.mark.parametrize("name", list(CANDIDATE_PROFILES))
def test_candidate_reports(tmp_path, capsys, name, family):
    """Every exact candidate report passes, whatever its verdict; moving
    one mu by one unit, flipping the verdict or changing the objective
    fails it."""
    report, profile = candidate_report(tmp_path, capsys, CANDIDATE_PROFILES[name], family)
    candidate = report["candidate"]
    assert check_report.check(report, profile) == []
    moved = check_report.check({**report, "candidate": move_mu_by_one_unit(candidate)}, profile)
    assert any("sum to" in line for line in moved), moved
    flipped = {**candidate, "nonnegative": not candidate["nonnegative"]}
    assert check_report.check({**report, "candidate": flipped}, profile)
    changed = {**candidate, "objective": str(Fraction(candidate["objective"]) + 1)}
    assert any("not the objective" in line
               for line in check_report.check({**report, "candidate": changed}, profile))


def test_candidate_cases_hold_both_verdicts(tmp_path, capsys):
    verdicts = {candidate_report(tmp_path, capsys, p, family)[0]["candidate"]["nonnegative"]
                for p in CANDIDATE_PROFILES.values() for family in ("hamming", "spike")}
    assert verdicts == {True, False}

