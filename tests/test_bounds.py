"""Dual certificate families, primal candidates, threshold machinery, n=2 law."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_profile, point_mass_profile, rand_rational_profile
from paritylp.bounds import (
    AVERAGE_FAMILIES,
    CANDIDATE_MAX_N,
    THRESHOLD_CERT_MAX_N,
    count_N,
    dual_affine_image,
    dual_cohamming,
    dual_hamming,
    dual_spike,
    dual_threshold_ball,
    dual_threshold_indicator,
    n2_optimal,
    paired_dual,
    primal_candidate,
    threshold_zero_certificate,
)
from paritylp.errors import BudgetError, FamilyError, ProfileError, RankDeficientError
from paritylp.f2lin import (
    F2Matrix,
    ParityCode,
    all_vectors,
    codes_of_rank,
    enumerate_all_codes,
    enumerate_codes,
    enumerate_identity_rows,
    hamming_weight,
    identity,
)
from paritylp.lp import (
    check_dual_feasible,
    check_primal_feasible,
    complementary_slackness,
    coset_slacks,
    solve_dual,
    solve_primal,
)
from paritylp.profiles import AmplitudeProfile, CostFunction, bernoulli_profile


def profile(n, weights):
    return AmplitudeProfile.from_weights(n, weights)


def regime_profile(family, n, rng):
    """A full-support profile inside the family's nonnegative regime.

    Each weight is a family template times a seeded factor in 90..110.
    hamming: a product law with flip rate 1/10, so mass falls with |i|;
    cohamming: its mirror image, rising with |i|; spike: w_0 twenty times
    below a nearly flat rest, so on every hyperplane the coset avoiding 0
    outweighs the one through 0.
    """
    def template(i):
        h = hamming_weight(i)
        if family == "hamming":
            return 9 ** (n - h)
        if family == "cohamming":
            return 9 ** h
        return 1 if i == 0 else 20

    nums = [template(i) * rng.randint(90, 110) for i in all_vectors(n)]
    total = sum(nums)
    return profile(n, [Fraction(v, total) for v in nums])


class TestAverageDualFamilies:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_feasibility(self, n):
        cost = CostFunction.average(n)
        for family in (dual_hamming, dual_cohamming, dual_spike):
            report = check_dual_feasible(family(n), cost)
            assert report.feasible, family.__name__

    def test_hamming_full_rank_constraint_tight(self):
        slacks = coset_slacks(dual_hamming(2), CostFunction.average(2))
        tight = [key for key, s in slacks.items() if s == 0]
        assert any(code.k == 2 for code, _ in tight)

    def test_hamming_objective_is_twice_average_weight(self):
        p = bernoulli_profile(2, 0.1)
        assert float(dual_hamming(2).evaluate(p)) == pytest.approx(0.8)

    def test_hamming_tight_for_bernoulli(self):
        p = bernoulli_profile(2, 0.1)
        _, rep = solve_primal(p, CostFunction.average(2), mode="float")
        assert float(dual_hamming(2).evaluate(p)) == pytest.approx(
            float(rep.objective), abs=1e-9
        )

    def test_point_mass_hamming_objective_zero(self):
        p = point_mass_profile(2, 0)
        assert dual_hamming(2).evaluate(p) == 0

    def test_spike_objective_formula(self):
        p = profile(2, ["1/20", "3/10", "3/10", "7/20"])
        spike = dual_spike(2)
        assert spike.evaluate(p) == Fraction(6, 5)
        _, rep = solve_primal(p, CostFunction.average(2))
        assert spike.evaluate(p) == rep.objective

    def test_spike_saturation_cases(self):
        # rank-1 coset containing 0 has value 6 >= 2; one avoiding 0 sits at 2
        slacks = coset_slacks(dual_spike(2), CostFunction.average(2))
        for (code, s), slack in slacks.items():
            if code.k != 1:
                continue
            members = code.cosets[s].tolist()
            total = slack + 2
            assert total == (6 if 0 in members else 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weak_duality_random(self, n):
        rng = random.Random(21 + n)
        cost = CostFunction.average(n)
        for _ in range(34):
            p = rand_rational_profile(n, rng)
            _, rep = solve_primal(p, cost)
            for family in (dual_hamming, dual_cohamming, dual_spike):
                assert family(n).evaluate(p) >= rep.objective


class TestAffineImage:
    def test_hamming_to_cohamming(self):
        n = 3
        image = dual_affine_image(dual_hamming(n), identity(n), (1 << n) - 1)
        assert image.b == dual_cohamming(n).b

    def test_identity_map(self):
        image = dual_affine_image(dual_spike(2), identity(2), 0)
        assert image.b == dual_spike(2).b

    def test_coordinate_swap_fixes_spike(self):
        swap = F2Matrix(2, (2, 1))
        image = dual_affine_image(dual_spike(2), swap, 0)
        assert image.b == dual_spike(2).b

    def test_singular_rejected(self):
        with pytest.raises(RankDeficientError):
            dual_affine_image(dual_hamming(2), F2Matrix(2, (1, 1)), 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_feasibility_preserved(self, n):
        rng = random.Random(9)
        cost = CostFunction.average(n)
        invertible = [
            F2Matrix(n, rows)
            for rows in itertools.permutations([1 << j for j in range(n)])
        ]
        for _ in range(5):
            p_mat = invertible[rng.randrange(len(invertible))]
            v = rng.randrange(1 << n)
            image = dual_affine_image(dual_spike(n), p_mat, v)
            assert check_dual_feasible(image, cost).feasible


class TestThresholdFamilies:
    def test_indicator_requires_universal(self):
        with pytest.raises(FamilyError):
            dual_threshold_indicator({0, 2}, 1, 2)

    def test_indicator_point_mass_bound_zero(self):
        p = point_mass_profile(2, 0)
        sol = dual_threshold_indicator({1, 2, 3}, 1, 2)
        assert sol.evaluate(p) == 0
        _, rep = solve_dual(p, CostFunction.threshold(2, 1))
        assert rep.objective == 0

    def test_indicator_uniform_upper_bound(self):
        p = profile(2, ["1/4"] * 4)
        sol = dual_threshold_indicator({0, 1, 2}, 1, 2)
        assert sol.evaluate(p) == Fraction(3, 2)
        _, rep = solve_dual(p, CostFunction.threshold(2, 1))
        assert rep.objective <= Fraction(3, 2)

    def test_indicator_whole_space(self):
        sol = dual_threshold_indicator(set(all_vectors(2)), 2, 2)
        p = profile(2, ["1/4"] * 4)
        assert sol.evaluate(p) == 4

    @pytest.mark.parametrize("tau", [1, 2])
    def test_indicator_feasible(self, tau):
        sol = dual_threshold_indicator(set(all_vectors(3)), tau, 3)
        assert check_dual_feasible(sol, CostFunction.threshold(3, tau)).feasible

    def test_ball_example_constant(self):
        sol = dual_threshold_ball(4, 1, 3.0)
        assert sol.params["tau"] == 3
        assert sol.params["constant"] == 2
        assert sol.b[0] == 0
        assert sol.b[0b1100] == 2

    def test_ball_rank_tau_constraints_reach_tightness(self):
        sol = dual_threshold_ball(4, 1, 3.0)
        report = check_dual_feasible(sol, CostFunction.threshold(4, 3))
        assert report.feasible
        rank3 = [s for (code, _), s in coset_slacks(sol, CostFunction.threshold(4, 3)).items()
                 if code.k == 3]
        assert min(rank3) == 0

    def test_ball_d0(self):
        sol = dual_threshold_ball(3, 0, 3.0)
        assert sol.params["tau"] == 1
        assert sol.b[0] == 0
        assert sol.b[1] == 2
        assert check_dual_feasible(sol, CostFunction.threshold(3, 1)).feasible

    def test_ball_objective_is_constant_times_tail(self):
        from paritylp.profiles import tail_mass

        p = bernoulli_profile(4, 0.1)
        sol = dual_threshold_ball(4, 1, 3.0)
        assert float(sol.evaluate(p)) == pytest.approx(2 * tail_mass(p, 1))

    def test_ball_n5_exhaustive(self):
        sol = dual_threshold_ball(5, 1, 3.0)
        assert sol.params["tau"] == 3
        assert check_dual_feasible(sol, CostFunction.threshold(5, 3)).feasible

    def test_ball_rejects_small_gamma(self):
        with pytest.raises(ValueError):
            dual_threshold_ball(4, 1, 2.0)

    def test_ball_rejects_tau_above_n(self):
        with pytest.raises(ValueError):
            dual_threshold_ball(2, 1, 3.0)


class TestAffineBallGeometry:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_affine_intersection_bound(self, n):
        # |V ∩ B_d| <= sum_{a<=d} C(k, a) for every affine subspace V
        for k in range(n + 1):
            for code in enumerate_codes(n, k):
                cos = code.cosets
                for s in range(len(cos)):
                    members = cos[s].tolist()
                    for d in range(n + 1):
                        inside = sum(
                            1 for v in members if hamming_weight(v) <= d
                        )
                        assert inside <= sum(
                            math.comb(k, a) for a in range(d + 1)
                        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_min_average_weight(self, n):
        # sum over a coset of 2|i| is at least k 2^k
        for code in enumerate_all_codes(n):
            cos = code.cosets
            for s in range(len(cos)):
                total = sum(2 * hamming_weight(i) for i in cos[s].tolist())
                assert total >= code.k * (1 << code.k)


def place_lambda(family, p):
    """The candidate's lambda and objective as they were built before mu:
    each formula value divided by the weight of every member of its coset,
    on codes made afresh from the identity-row matrices."""
    n, weight = p.n, p.weights
    lam, objective = {}, 0

    def place(code, s_target, value):
        for i in code.cosets[s_target].tolist():
            lam[(code, i)] = value / weight[i]

    if family in ("hamming", "cohamming"):
        for k in range(n + 1):
            for mat in enumerate_identity_rows(n, k):
                code = ParityCode.from_matrix(mat)
                cos = code.cosets
                total = 0
                for s in range(len(cos)):
                    leader = (int(code.leaders[0, s]) if family == "cohamming"
                              else int(code.leaders[1, s]))
                    term = weight[leader]
                    total = total - term if hamming_weight(s) & 1 else total + term
                if family == "cohamming" and (n - k) & 1:
                    total = -total
                place(code, (1 << (n - k)) - 1 if family == "cohamming" else 0, total)
                objective = objective + k * (1 << k) * total
    else:
        full = codes_of_rank(n, n)[0]
        for i in all_vectors(n):
            lam[(full, i)] = weight[0] / weight[i]
        objective = objective + n * (1 << n) * weight[0]
        for code in codes_of_rank(n, n - 1):
            cos = code.cosets
            w1 = sum(weight[i] for i in cos[1].tolist())
            w0s = sum(weight[i] for i in cos[0].tolist())
            value = (w1 - w0s) / (1 << (n - 1))
            place(code, 1, value)
            objective = objective + (n - 1) * (1 << (n - 1)) * value
    return lam, objective


def bits(values):
    """Each value's type and repr: repr tells every binary64 apart."""
    return [(type(v), repr(v)) for v in values]


class TestPrimalCandidates:
    def test_cohamming_worked_example(self):
        p = profile(2, ["1/20", "3/20", "3/10", "1/2"])
        cand = primal_candidate("cohamming", p)
        assert cand.nonnegative
        assert cand.objective == Fraction(11, 10)
        dual = paired_dual("cohamming", 2)
        assert dual.evaluate(p) == cand.objective

    def test_spike_worked_example(self):
        p = profile(2, ["1/20", "3/10", "3/10", "7/20"])
        cand = primal_candidate("spike", p)
        assert cand.nonnegative
        assert cand.objective == Fraction(6, 5)

    def test_spike_negative_component(self):
        # xor-branch component is (w1 + w2 - w0 - w3) / (2 w1) < 0 here
        p = profile(2, ["1/20", "3/20", "3/10", "1/2"])
        cand = primal_candidate("spike", p)
        assert not cand.nonnegative
        xor_code = ParityCode.from_matrix(F2Matrix(2, (3,)))
        lam = cand.lam.get((xor_code, 1), 0)
        assert lam == (Fraction(9, 20) - Fraction(11, 20)) / (2 * Fraction(3, 20))

    def test_hamming_nonnegative_for_decreasing_weights(self):
        p = profile(2, [Fraction(9, 16), Fraction(3, 16), Fraction(3, 16),
                        Fraction(1, 16)])
        cand = primal_candidate("hamming", p)
        assert cand.nonnegative
        assert cand.objective == dual_hamming(2).evaluate(p)

    @pytest.mark.parametrize("family", ["hamming", "cohamming", "spike"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_candidates_always_satisfy_equalities(self, family, n):
        # normalization and coset constancy hold for every profile; only
        # nonnegativity is regime-dependent
        rng = random.Random(f"{family}/{n}")
        for _ in range(4):
            p = rand_rational_profile(n, rng)
            cand = primal_candidate(family, p)
            sol = cand.to_solution(p)
            codes = tuple(enumerate_all_codes(n))
            for i in all_vectors(n):
                total = sum(sol.lam.get((code, i), 0) for code in codes)
                assert total == 1, (family, n, i)

    @pytest.mark.parametrize("family", ["hamming", "cohamming", "spike"])
    def test_nonnegative_candidates_certified(self, family):
        rng = random.Random(f"certified/{family}")
        for n in (1, 2, 3):
            cost = CostFunction.average(n)
            dual = paired_dual(family, n)
            for _ in range(6):
                p = regime_profile(family, n, rng)
                cand = primal_candidate(family, p)
                assert cand.nonnegative, (family, n, p.weights)
                sol = cand.to_solution(p)
                assert check_primal_feasible(sol, p).feasible
                report = complementary_slackness(sol, dual, p, cost)
                assert report.certified
                assert report.primal_objective == report.dual_objective
                assert solve_primal(p, cost)[1].objective == cand.objective

    def test_rejects_zero_weight(self):
        p = profile(2, ["1/2", "1/2", "0", "0"])
        with pytest.raises(ProfileError):
            primal_candidate("cohamming", p)

    @pytest.mark.parametrize("kind", ["rational", "binary64"])
    @pytest.mark.parametrize("n", range(1, CANDIDATE_MAX_N + 1))
    @pytest.mark.parametrize("family", AVERAGE_FAMILIES)
    def test_lambda_matches_place_oracle(self, family, n, kind):
        # lambda derived from mu, in order, value, type and bits
        p = rand_rational_profile(n, random.Random(f"place/{n}"))
        if kind == "binary64":
            p = profile(n, [float(w) for w in p.weights])
        cand = primal_candidate(family, p)
        lam, objective = place_lambda(family, p)
        assert list(cand.lam) == list(lam)
        assert bits(cand.lam.values()) == bits(lam.values())
        assert bits([cand.objective]) == bits([objective])
        assert cand.nonnegative == all(v >= 0 for v in lam.values())

    @pytest.mark.parametrize("family", AVERAGE_FAMILIES)
    def test_warm_table_call_builds_no_cosets(self, monkeypatch, family):
        import paritylp.f2lin as f2lin

        p = rand_rational_profile(4, random.Random(f"warm/{family}"))
        primal_candidate(family, p)
        calls = []
        original = f2lin.dual_cosets
        monkeypatch.setattr(f2lin, "dual_cosets",
                            lambda code: calls.append(code) or original(code))
        cand = primal_candidate(family, p)
        assert calls == []
        table = {id(code) for code in enumerate_all_codes(4)}
        assert all(id(code) in table for code, _ in cand.lam)
        assert cand.to_solution(p) is cand

    def test_runs_at_cap_and_refuses_above(self):
        n = CANDIDATE_MAX_N
        rng = random.Random("candidate/cap")
        flat = [1] + [20] * ((1 << n) - 1)  # the spike regime without noise
        for family in AVERAGE_FAMILIES:
            p = (regime_profile(family, n, rng) if family != "spike"
                 else profile(n, [Fraction(v, sum(flat)) for v in flat]))
            cand = primal_candidate(family, p)
            assert cand.nonnegative
            report = complementary_slackness(cand, paired_dual(family, n), p,
                                             CostFunction.average(n))
            assert report.certified and report.primal_objective == cand.objective
        above = profile(n + 1, [Fraction(1, 1 << (n + 1))] * (1 << (n + 1)))
        with pytest.raises(BudgetError, match=f"candidates capped at n <= {n}"):
            primal_candidate("hamming", above)


class TestCountN:
    def test_worked_example(self):
        # n=3, i=111, x=100: supp(x) in supp(i), k=1 in range -> C(2,1)
        assert count_N(1, 0b111, 0b001, 3) == 2

    def test_support_violation(self):
        assert count_N(1, 0b011, 0b100, 3) == 0

    def test_unique_pair(self):
        for n in (2, 3):
            for i in all_vectors(n):
                k = n - hamming_weight(i)
                assert count_N(k, i, i, n) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_bruteforce(self, n):
        for k in range(n + 1):
            mats = [ParityCode.from_matrix(m)
                    for m in enumerate_identity_rows(n, k)]
            ones = (1 << (n - k)) - 1
            for i in all_vectors(n):
                for x in all_vectors(n):
                    brute = 0
                    for code in mats:
                        cos = code.cosets
                        if i not in cos[ones].tolist():
                            continue
                        if any(int(code.leaders[0, s]) == x
                               for s in range(len(cos))):
                            brute += 1
                    assert count_N(k, i, x, n) == brute, (n, k, i, x)


class TestThresholdZeroCertificate:
    def test_point_mass_witness(self):
        cert = threshold_zero_certificate(point_mass_profile(2, 0), 1)
        assert cert.rho_is_zero
        assert cert.witness is not None
        assert set(cert.witness) <= {1, 2, 3}

    def test_full_support_no_witness(self):
        rng = random.Random(33)
        p = rand_rational_profile(2, rng)
        for tau in (1, 2):
            cert = threshold_zero_certificate(p, tau)
            assert not cert.rho_is_zero
            assert cert.missed_subspaces

    def test_matches_lp_value(self):
        rng = random.Random(34)
        profiles = [
            point_mass_profile(3, 0),
            point_mass_profile(3, 5),
            ball_profile(3, 1, rng),
            rand_rational_profile(3, rng),
        ]
        for p in profiles:
            for tau in range(1, 4):
                cert = threshold_zero_certificate(p, tau)
                _, rep = solve_dual(p, CostFunction.threshold(3, tau))
                assert cert.rho_is_zero == (rep.objective == 0)

    def test_ball_profile_boundary(self):
        # support exactly B_d: zero quality iff tau > d
        rng = random.Random(35)
        for d in (0, 1, 2):
            p = ball_profile(3, d, rng)
            for tau in range(1, 4):
                cert = threshold_zero_certificate(p, tau)
                assert cert.rho_is_zero == (tau > d), (d, tau)

    @pytest.mark.parametrize("tau", [2, 3])
    def test_second_call_builds_no_cosets(self, monkeypatch, tau):
        # the certificate reads the coset table, not the codes' cosets
        import paritylp.f2lin as f2lin

        p = ball_profile(4, 2, random.Random(36))
        first = threshold_zero_certificate(p, tau)
        calls = []
        original = f2lin.dual_cosets
        monkeypatch.setattr(f2lin, "dual_cosets",
                            lambda code: calls.append(code) or original(code))
        second = threshold_zero_certificate(p, tau)
        assert calls == []
        assert second == first
        assert first.rho_is_zero == (tau > 2)

    def test_runs_at_cap_and_refuses_above(self):
        n = THRESHOLD_CERT_MAX_N
        p = ball_profile(n, 1, random.Random("threshold/cap"))
        cert = threshold_zero_certificate(p, 2)
        assert cert.rho_is_zero and not cert.missed_subspaces
        assert set(cert.witness) <= set(p.zero_set)
        with pytest.raises(BudgetError, match=f"certificate search capped at n <= {n}"):
            threshold_zero_certificate(point_mass_profile(n + 1, 0), 1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_coset_walk(self, n):
        # every support at n <= 3, seeded ones at n = 4 and 5
        if n <= 3:
            supports = [s for s in itertools.product((0, 1), repeat=1 << n) if any(s)]
        else:
            rng = random.Random(f"threshold-walk/{n}")
            supports = [[int(rng.random() < q) for _ in all_vectors(n)]
                        for q in (0.2, 0.5, 0.8, 0.9) for _ in range(3)]
            supports = [s for s in supports if any(s)]
        outcomes = set()
        for support in supports:
            p = AmplitudeProfile(n, tuple(Fraction(v, sum(support)) for v in support))
            for tau in range(1, n + 1):
                cert = threshold_zero_certificate(p, tau)
                assert cert == walk_threshold_certificate(p, tau)
                outcomes.add(cert.rho_is_zero)
        assert outcomes == {True, False}

    def test_witness_is_minimal(self):
        from paritylp.f2lin import is_universal

        cert = threshold_zero_certificate(point_mass_profile(3, 0), 1)
        w = set(cert.witness)
        assert is_universal(w, 1, 3)
        for v in cert.witness:
            assert not is_universal(w - {v}, 1, 3)


def walk_threshold_certificate(profile, tau):
    """threshold_zero_certificate by a walk over each code's cosets as sets:
    the disjoint ones first, else the greedy prune of the zero set."""
    from paritylp.bounds import ThresholdZeroCertificate

    n, zero = profile.n, set(profile.zero_set)
    cosets = [(code, s, tuple(code.cosets[s].tolist()))
              for code in codes_of_rank(n, tau) for s in range(1 << (n - tau))]
    missed = [c for c in cosets if not zero & set(c[2])]
    if missed:
        return ThresholdZeroCertificate(tau, False, None, missed)
    subspaces = [frozenset(members) for _, _, members in cosets]
    witness = set(zero)
    counts = [len(sub & witness) for sub in subspaces]
    for v in sorted(witness):
        holding = [idx for idx, sub in enumerate(subspaces) if v in sub]
        if all(counts[idx] >= 2 for idx in holding):
            witness.discard(v)
            for idx in holding:
                counts[idx] -= 1
    return ThresholdZeroCertificate(tau, True, tuple(sorted(witness)), [])


class TestN2Optimal:
    def test_worked_cohamming(self):
        p = profile(2, ["1/20", "3/20", "3/10", "1/2"])
        regime, value = n2_optimal(p)
        assert regime == "cohamming" and value == Fraction(11, 10)

    def test_worked_spike(self):
        p = profile(2, ["1/20", "3/10", "3/10", "7/20"])
        regime, value = n2_optimal(p)
        assert regime == "spike" and value == Fraction(6, 5)

    def test_uniform_boundary(self):
        regime, value = n2_optimal(profile(2, ["1/4"] * 4))
        assert regime == "boundary" and value == 2

    def test_requires_n2(self):
        with pytest.raises(ValueError):
            n2_optimal(profile(1, ["1/2", "1/2"]))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_lp_exactly(self, data):
        nums = [data.draw(st.integers(1, 25)) for _ in range(4)]
        total = sum(nums)
        p = profile(2, [Fraction(v, total) for v in nums])
        _, value = n2_optimal(p)
        _, rep = solve_primal(p, CostFunction.average(2))
        assert value == rep.objective
