"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import random
import time
from fractions import Fraction

from conftest import ball_profile, point_mass_profile, rand_rational_profile
from paritylp.bounds import (
    count_N,
    dual_cohamming,
    dual_hamming,
    dual_spike,
    dual_threshold_ball,
    n2_optimal,
    paired_dual,
    primal_candidate,
    threshold_zero_certificate,
)
from paritylp.f2lin import (
    all_vectors,
    char_sum,
    dot,
    enumerate_all_codes,
    enumerate_codes,
    enumerate_identity_rows,
    gaussian_binomial,
    hamming_weight,
)
from paritylp.lp import (
    check_dual_feasible,
    check_primal_feasible,
    complementary_slackness,
    coset_slacks,
    solve_dual,
    solve_primal,
)
from paritylp.povm import build_from_primal, fourier_diag_check, rho_eval, verify_povm
from paritylp.profiles import (
    AmplitudeProfile,
    BernoulliParams,
    CostFunction,
    bernoulli_profile,
)
from paritylp.simulate import exact_distribution, sample, statevector_check


def _finish(num: int, description: str, start: float, limit: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num} PASS ({elapsed:.1f}s <= {limit:.0f}s): {description}")
    assert elapsed <= limit, f"criterion {num} exceeded its runtime budget"


def _phase_profile(n: int, rng: random.Random) -> AmplitudeProfile:
    base = rand_rational_profile(n, rng)
    amps = [
        math.sqrt(float(w)) * complex(math.cos(a), math.sin(a))
        for w, a in ((w, 2 * math.pi * rng.random()) for w in base.weights)
    ]
    return AmplitudeProfile.from_amplitudes(n, amps)


def test_criterion_1_strong_duality():
    start = time.perf_counter()
    rng = random.Random(1001)
    for n in (1, 2, 3):
        cost = CostFunction.average(n)
        for _ in range(100):
            p = rand_rational_profile(n, rng)
            _, rp = solve_primal(p, cost, mode="exact")
            _, rd = solve_dual(p, cost, mode="exact")
            assert rp.objective == rd.objective
            _, fp = solve_primal(p, cost, mode="float")
            _, fd = solve_dual(p, cost, mode="float")
            assert abs(fp.objective - fd.objective) <= 1e-9
    _finish(1, "strong duality, 100 exact + float instances per n in {1,2,3}",
            start, 60)


def test_criterion_2_n2_classification():
    start = time.perf_counter()
    cost = CostFunction.average(2)

    worked = [
        (["1/20", "3/20", "3/10", "1/2"], "cohamming", Fraction(11, 10)),
        (["1/20", "3/10", "3/10", "7/20"], "spike", Fraction(6, 5)),
    ]
    for weights, expected_regime, expected_value in worked:
        p = AmplitudeProfile.from_weights(2, weights)
        regime, value = n2_optimal(p)
        assert regime == expected_regime and value == expected_value
        _, rep = solve_primal(p, cost, mode="exact")
        assert rep.objective == expected_value

    rng = random.Random(1002)
    for _ in range(1000):
        p = rand_rational_profile(2, rng)
        _, value = n2_optimal(p)
        _, rep = solve_primal(p, cost, mode="exact")
        assert value == rep.objective
    _finish(2, "closed-form n=2 law equals the exact LP on 1000 profiles",
            start, 30)


def test_criterion_3_dual_families():
    from paritylp.bounds import dual_affine_image
    from paritylp.f2lin import F2Matrix, identity, rank

    start = time.perf_counter()
    rng = random.Random(1003)
    for n in (1, 2, 3, 4):
        cost = CostFunction.average(n)
        for family in (dual_hamming, dual_cohamming, dual_spike):
            report = check_dual_feasible(family(n), cost)
            assert report.feasible, (family.__name__, n)
        # every affine relabeling stays feasible; cohamming is the all-ones
        # image of hamming
        image = dual_affine_image(dual_hamming(n), identity(n), (1 << n) - 1)
        assert image.b == dual_cohamming(n).b
        while True:
            p_mat = F2Matrix(n, tuple(rng.randrange(1, 1 << n)
                                      for _ in range(n)))
            if rank(p_mat) == n:
                break
        moved = dual_affine_image(dual_hamming(n), p_mat, rng.randrange(1 << n))
        assert check_dual_feasible(moved, cost).feasible

    for n, t in ((1, 0.1), (2, 0.1), (3, 0.25)):
        p = bernoulli_profile(n, t)
        _, rep = solve_primal(p, CostFunction.average(n), mode="float")
        expected = 2 * n * BernoulliParams(t).t_perp
        assert abs(float(rep.objective) - expected) <= 1e-9
        assert abs(float(dual_hamming(n).evaluate(p)) - expected) <= 1e-9
    _finish(3, "family feasibility exhaustive for n<=4; hamming tight on "
               "Bernoulli at (1,0.1),(2,0.1),(3,0.25)", start, 120)


def test_criterion_4_threshold_theory():
    start = time.perf_counter()
    rng = random.Random(1004)
    for n in (1, 2, 3, 4):
        suite = [point_mass_profile(n, 0), point_mass_profile(n, (1 << n) - 1)]
        if n >= 2:
            suite.append(point_mass_profile(n, 1))
        suite.extend(ball_profile(n, d, rng) for d in range(n))
        suite.extend(rand_rational_profile(n, rng) for _ in range(2))
        for p in suite:
            for tau in range(1, n + 1):
                cert = threshold_zero_certificate(p, tau)
                _, rep = solve_dual(p, CostFunction.threshold(n, tau),
                                    mode="exact")
                assert cert.rho_is_zero == (rep.objective == 0), (n, tau)

    ball_sol = dual_threshold_ball(4, 1, 3.0)
    report = check_dual_feasible(ball_sol, CostFunction.threshold(4, 3))
    assert report.feasible
    rank3 = [s for (code, _), s in coset_slacks(ball_sol, CostFunction.threshold(4, 3)).items()
             if code.k == 3]
    assert min(rank3) == 0, "rank-3 constraints must reach tightness"
    _finish(4, "zero-quality certificates match the exact LP on the designed "
               "suite (n<=4); ball dual (n=4,d=1,gamma=3) feasible and tight "
               "at rank 3", start, 120)


def test_criterion_5_primal_candidates():
    start = time.perf_counter()

    def tensor_profile(n, single):
        weights = []
        for i in all_vectors(n):
            w = Fraction(1)
            for j in range(n):
                w *= single[(i >> j) & 1]
            weights.append(w)
        return AmplitudeProfile.from_weights(n, weights)

    rng = random.Random(1005)
    certified = {family: 0 for family in ("hamming", "cohamming", "spike")}
    for n in (1, 2, 3):
        cost = CostFunction.average(n)
        suite = [
            tensor_profile(n, (Fraction(3, 4), Fraction(1, 4))),
            tensor_profile(n, (Fraction(1, 4), Fraction(3, 4))),
            AmplitudeProfile.from_weights(
                n, [Fraction(1, 3 * (1 << n) - 2)]
                + [Fraction(3, 3 * (1 << n) - 2)] * ((1 << n) - 1)
            ),
        ]
        suite.extend(rand_rational_profile(n, rng) for _ in range(10))
        for p in suite:
            for family in certified:
                cand = primal_candidate(family, p)
                if not cand.nonnegative:
                    continue
                sol = cand.to_solution(p)
                assert check_primal_feasible(sol, p).feasible
                dual = paired_dual(family, n)
                report = complementary_slackness(sol, dual, p, cost)
                assert report.certified, (family, n)
                assert report.primal_objective == report.dual_objective
                assert cand.objective == dual.evaluate(p)
                certified[family] += 1
    assert all(v > 0 for v in certified.values()), certified

    from paritylp.f2lin import ParityCode

    for n in (1, 2, 3, 4, 5):
        for k in range(n + 1):
            mats = [ParityCode.from_matrix(m)
                    for m in enumerate_identity_rows(n, k)]
            all_ones = (1 << (n - k)) - 1
            for i in all_vectors(n):
                for x in all_vectors(n):
                    brute = 0
                    for code in mats:
                        cos = code.cosets
                        if i not in cos[all_ones].tolist():
                            continue
                        if any(int(code.leaders[0, s]) == x
                               for s in range(len(cos))):
                            brute += 1
                    assert count_N(k, i, x, n) == brute
    _finish(5, "every nonnegative candidate certified exactly (rational "
               "suite, n<=3); leader-count closed form matches brute force "
               "(n<=5)", start, 120)


def test_criterion_6_povm_synthesis():
    start = time.perf_counter()
    rng = random.Random(1006)
    for n in (1, 2, 3):
        cost = CostFunction.average(n)
        profiles = [
            rand_rational_profile(n, rng).with_real_amplitudes(),
            _phase_profile(n, rng),
        ]
        for p in profiles:
            sol, rep = solve_primal(p, cost, mode="float")
            povm = build_from_primal(sol, p)
            ver = verify_povm(povm)
            assert ver.max_hermitian_dev <= 1e-12
            assert ver.min_eigenvalue >= -1e-9
            assert ver.completeness_frobenius <= 1e-8
            assert ver.max_unambiguity_trace <= 1e-10
            assert ver.max_symmetry_dev <= 1e-9
            fourier = fourier_diag_check(povm)
            assert fourier.max_coset_spread <= 1e-10
            assert abs(rho_eval(povm, cost) - float(rep.objective)) <= 1e-8
    _finish(6, "synthesized measurements pass positivity, completeness, "
               "unambiguity, shift symmetry, Fourier structure, and score "
               "matching (n<=3)", start, 60)


def test_criterion_7_simulation():
    start = time.perf_counter()
    rng = random.Random(1007)
    shots = 100000
    instances = []
    for n in (1, 2, 3):
        instances.append((rand_rational_profile(n, rng), "exact"))
    instances.append((bernoulli_profile(2, 0.1), "float"))
    for p, mode in instances:
        n = p.n
        cost = CostFunction.average(n)
        sol, _ = solve_primal(p, cost, mode=mode)
        for x in (0, (1 << n) - 1):
            dist = exact_distribution(sol, p, x)
            assert all(y == code.parity(x) for code, y in dist)
            assert abs(sum(float(v) for v in dist.values()) - 1.0) <= 1e-9
            records = sample(sol, p, x, shots, seed=1007 + x)
            for rec in records:
                assert rec.y == rec.code.parity(x)
                prob = float(dist[(rec.code, rec.y)])
                sigma = math.sqrt(prob * (1 - prob) / shots)
                assert abs(rec.frequency - prob) <= 3 * sigma + 1e-12
            sv = statevector_check(sol, p, x, dist)
            assert sv.norm_deviation <= 1e-12
            assert sv.max_distribution_deviation <= 1e-10
            assert sv.wrong_outcome_mass == 0.0
    _finish(7, "exact law, 1e5-shot sampling (3-sigma), and state-vector "
               "oracle agree; no sampled outcome contradicts H.x", start, 60)


def test_criterion_8_combinatorial_substrate():
    start = time.perf_counter()
    for n in range(1, 7):
        for k in range(n + 1):
            assert len(enumerate_codes(n, k)) == gaussian_binomial(n, k)

    for n in (1, 2, 3, 4, 5):
        for code in enumerate_all_codes(n):
            cos = code.cosets
            k = code.k
            for s in range(len(cos)):
                members = cos[s].tolist()
                total = sum(2 * hamming_weight(i) for i in members)
                assert total >= k * (1 << k)
                for d in range(n + 1):
                    inside = sum(1 for v in members if hamming_weight(v) <= d)
                    assert inside <= sum(math.comb(k, a) for a in range(d + 1))

    for n in (1, 2, 3, 4):
        for code in enumerate_all_codes(n):
            gen = code.H
            size = 1 << code.k
            for v in all_vectors(n):
                expected = size if all(dot(v, r) == 0 for r in gen.rows) else 0
                assert char_sum(gen, v) == expected
    _finish(8, "code counts match Gaussian binomials (n<=6); ball and "
               "average-weight coset bounds exhaustive (n<=5); character "
               "sums exact (n<=4)", start, 120)
