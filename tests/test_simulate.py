"""Outcome law, seeded sampling, and the state-vector cross-check."""

import math
import random
from fractions import Fraction
from numbers import Rational

import pytest

import numpy as np

from conftest import ball_profile, rand_rational_profile
from paritylp.bounds import primal_candidate
from paritylp.errors import BudgetError
from paritylp.f2lin import (
    ParityCode,
    all_vectors,
    by_code,
    codes_of_rank,
    dot,
    enumerate_all_codes,
)
from paritylp.lp import PrimalSolution, solve_primal
from paritylp.profiles import AmplitudeProfile, CostFunction, bernoulli_profile
from paritylp.simulate import (
    STATEVECTOR_MAX_N,
    OutcomeRecord,
    StatevectorReport,
    exact_distribution,
    sample,
    statevector_check,
)


# -- oracles: the three routes as they walked every coset of mu -------------

def walk_lam(sol):
    """lambda over every coset of mu, one division per member of a nonzero
    level and one per coset for a zero level."""
    w, lam = sol.weights, {}
    for (code, s), v in sol.mu.items():
        members = code.cosets[s].tolist()
        if not w[members[0]]:
            lam[(code, s)] = v + 1
            continue
        q = v or v / w[members[0]]
        for i in members:
            lam[(code, i)] = v / w[i] if v else q
    return lam


def walk_exact_distribution(sol, profile, x):
    acc = {}
    for (code, s), v in sol.mu.items():
        acc[code] = acc.get(code, 0) + (1 << code.k) * v
    bottom = ParityCode.bottom(profile.n)
    acc.setdefault(bottom, sol.objective * 0)
    return {(code, code.parity(x)): p for code, p in acc.items() if p != 0 or code.k == 0}


def walk_sample(sol, profile, x, shots, seed):
    """The bulk sampler with its support x codes matrix filled from the
    whole lambda dict."""
    support = list(profile.support)
    weights = np.array([profile.weights_float[i] for i in support])
    weights = weights / weights.sum()
    codes = enumerate_all_codes(profile.n)
    rows = {i: row for row, i in enumerate(support)}
    cols = {code: col for col, code in enumerate(codes)}
    lam = np.zeros((len(support), len(codes)))
    for (code, i), v in walk_lam(sol).items():
        if i in rows:
            lam[rows[i], cols[code]] = float(v)
    if np.any(lam < 0):
        raise ValueError("lambda entries must be nonnegative")
    row_sums = lam.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-9:
        raise ValueError("lambda rows must sum to 1 on the support")
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(codes), dtype=np.int64)
    for row, m in enumerate(rng.multinomial(shots, weights)):
        if m:
            cells = np.flatnonzero(lam[row])
            counts[cells] += rng.multinomial(m, lam[row, cells] / row_sums[row])
    records = [OutcomeRecord(code, code.parity(x), int(c), int(c) / shots)
               for code, c in zip(codes, counts) if c]
    return sorted(records, key=lambda r: r.code.sort_key)


def walk_statevector_check(sol, profile, x):
    amplitudes, probs = {}, {}
    for (code, s), v in sol.mu.items():
        if v == 0:
            continue
        y = code.parity(x)
        amp = math.sqrt((1 << code.k) * float(v))
        if dot(x, int(code.leaders[0, s])):
            amp = -amp
        amplitudes[(code, y, s)] = amp
        probs[(code, y)] = probs.get((code, y), 0) + (1 << code.k) * v
    norm_dev = abs(math.fsum(a * a for a in amplitudes.values()) - 1.0)
    dist = walk_exact_distribution(sol, profile, x)
    keys = set(dist) | set(probs)
    exact_match = None
    if all(isinstance(p, Rational) for p in dist.values()):
        exact_match = all(dist.get(k, 0) == probs.get(k, 0) for k in keys)
    max_dev = 0.0
    for k in keys:
        max_dev = max(max_dev, abs(float(dist.get(k, 0)) - float(probs.get(k, 0))))
    wrong = math.fsum(a * a for (code, y, _), a in amplitudes.items() if y != code.parity(x))
    return StatevectorReport(norm_dev, max_dev, wrong, len(amplitudes), exact_match)


def uniform(n):
    return AmplitudeProfile.from_weights(n, [Fraction(1, 1 << n)] * (1 << n))


def bottom_only_solution(p):
    """All mass on the no-information outcome (a feasible primal point)."""
    bottom = ParityCode.bottom(p.n)
    values = {(bottom, s): p.weights[s] for s in range(1 << p.n)}
    return PrimalSolution.from_lp_values(p, values, Fraction(0))


def broadcast_compare_counts(sol, p, shots, seed):
    """Per-code counts from `shots` separate ancestral draws: a shot draws
    its index from the weights and takes the number of cumulative-lambda
    entries of that index below a uniform draw, from one shots x codes
    comparison per chunk."""
    support = list(p.support)
    weights = np.array([p.weights_float[i] for i in support])
    weights = weights / weights.sum()
    codes = enumerate_all_codes(p.n)
    lam = np.array([[float(sol.lam.get((c, i), 0)) for c in codes] for i in support])
    cum = np.cumsum(lam / lam.sum(axis=1)[:, None], axis=1)
    rng = np.random.default_rng(seed)
    chunk = 1 << 15
    counts = {}
    for done in range(0, shots, chunk):
        take = min(chunk, shots - done)
        rows = rng.choice(len(support), size=take, p=weights)
        u = rng.random(take)
        picked = np.minimum((cum[rows] < u[:, None]).sum(axis=1), len(codes) - 1)
        for col, c in zip(*np.unique(picked, return_counts=True)):
            counts[codes[col]] = counts.get(codes[col], 0) + int(c)
    return counts


def outcome(route, *args):
    """What a route returns, down to the bits of every number, or the
    ValueError it raises."""
    try:
        result = route(*args)
    except ValueError as exc:
        return "raises", str(exc)
    if isinstance(result, dict):
        return [(key, type(p), repr(p)) for key, p in sorted(result.items(), key=by_code)]
    if isinstance(result, StatevectorReport):
        return repr(result)
    return [(r.code, r.y, r.count, r.frequency.hex()) for r in result]


def assert_routes_match_walks(sol, p, x, seed):
    for shots in (1, 1000, 10**6):
        assert outcome(sample, sol, p, x, shots, seed) == \
            outcome(walk_sample, sol, p, x, shots, seed)
    assert outcome(exact_distribution, sol, p, x) == outcome(walk_exact_distribution, sol, p, x)
    if p.full_support:
        assert outcome(statevector_check, sol, p, x) == \
            outcome(walk_statevector_check, sol, p, x)
    assert "lam" not in vars(sol)


def _lp_cases():
    for n in range(1, 6):
        rng = random.Random(f"walk/{n}")
        full = rand_rational_profile(n, rng)
        binary = AmplitudeProfile.from_weights(
            n, [float(w) for w in rand_rational_profile(n, rng).weights])
        ball = ball_profile(n, n // 2, rng)
        for cost in ("average", "tau2"):
            yield f"n{n}-exact-{cost}", full, "exact", cost
            yield f"n{n}-float-{cost}", binary, "float", cost
            yield f"n{n}-ball-{cost}", ball, "exact", cost


def _candidate_cases():
    for n in range(1, 6):
        rng = random.Random(f"walk/candidate/{n}")
        binary = AmplitudeProfile.from_weights(
            n, [float(w) for w in rand_rational_profile(n, rng).weights])
        for kind, p in (("uniform", uniform(n)), ("rational", rand_rational_profile(n, rng)),
                        ("binary", binary)):
            for family in ("hamming", "cohamming", "spike"):
                yield f"n{n}-{kind}-{family}", p, family


class TestMatchesWholeMuWalk:
    """The routes walk the carried cosets alone and give what the walks over
    every coset of mu (and every entry of lambda) give, bit for bit, and
    build no lambda."""

    @pytest.mark.parametrize("name, p, mode, cost", list(_lp_cases()),
                             ids=[case[0] for case in _lp_cases()])
    def test_lp_solutions(self, name, p, mode, cost):
        c = CostFunction.average(p.n) if cost == "average" else \
            CostFunction.threshold(p.n, min(2, p.n))
        sol, _ = solve_primal(p, c, mode)
        assert len(sol.carried) < len(sol.mu) or p.n == 1
        rng = random.Random(name)
        for x in sorted({0, (1 << p.n) - 1, rng.randrange(1 << p.n)}):
            assert_routes_match_walks(sol, p, x, rng.randrange(1 << 31))

    @pytest.mark.parametrize("name, p, family", list(_candidate_cases()),
                             ids=[case[0] for case in _candidate_cases()])
    def test_dense_candidates(self, name, p, family):
        cand = primal_candidate(family, p)
        rng = random.Random(name)
        for x in sorted({0, (1 << p.n) - 1, rng.randrange(1 << p.n)}):
            assert_routes_match_walks(cand, p, x, rng.randrange(1 << 31))

    def test_candidates_hold_both_verdicts(self):
        verdicts = {primal_candidate(family, p).nonnegative for _, p, family in _candidate_cases()}
        assert verdicts == {True, False}

    def test_dense_rows_and_negative_lambda(self):
        p = uniform(2)
        codes = enumerate_all_codes(2)
        row = [Fraction(19, 79), Fraction(27, 79), Fraction(15, 79), Fraction(18, 79), 0]
        dense = PrimalSolution(2, {(code, s): v / 4 for code, v in zip(codes, row)
                                   for s in range(len(code.cosets))}, Fraction(0), p.weights)
        for x in all_vectors(2):
            assert_routes_match_walks(dense, p, x, x)
        q = uniform(1)
        bottom, full = ParityCode.bottom(1), codes_of_rank(1, 1)[0]
        negative = PrimalSolution(1, {(bottom, 0): -0.25, (bottom, 1): -0.25, (full, 0): 0.75},
                                  1.0, q.weights)
        assert outcome(sample, negative, q, 0, 100, 1) == \
            ("raises", "lambda entries must be nonnegative")
        assert_routes_match_walks(negative, q, 0, 1)


class TestExactDistribution:
    def test_full_recovery_degenerate(self):
        p = uniform(1)
        sol, _ = solve_primal(p, CostFunction.average(1))
        for x in (0, 1):
            dist = exact_distribution(sol, p, x)
            assert dist[(codes_of_rank(1, 1)[0], x)] == 1

    def test_bottom_only(self):
        p = uniform(2)
        sol = bottom_only_solution(p)
        dist = exact_distribution(sol, p, 0)
        assert dist[(ParityCode.bottom(2), 0)] == 1

    def test_probabilities_sum_to_one_exactly(self):
        rng = random.Random(40)
        for n in (1, 2, 3):
            p = rand_rational_profile(n, rng)
            sol, _ = solve_primal(p, CostFunction.average(n))
            for x in (0, (1 << n) - 1):
                dist = exact_distribution(sol, p, x)
                assert sum(dist.values()) == 1

    def test_y_is_always_Hx(self):
        rng = random.Random(41)
        p = rand_rational_profile(2, rng)
        sol, _ = solve_primal(p, CostFunction.average(2))
        for x in all_vectors(2):
            for (code, y) in exact_distribution(sol, p, x):
                assert y == code.parity(x)

    def test_expected_parities_match_objective(self):
        p = bernoulli_profile(2, 0.1)
        sol, rep = solve_primal(p, CostFunction.average(2), mode="float")
        dist = exact_distribution(sol, p, 3)
        mean = sum(code.k * prob for (code, _), prob in dist.items())
        assert mean == pytest.approx(float(rep.objective), abs=1e-9)
        assert mean == pytest.approx(0.8, abs=1e-9)


class TestSample:
    def test_full_recovery_all_shots(self):
        p = uniform(1)
        sol, _ = solve_primal(p, CostFunction.average(1))
        records = sample(sol, p, 1, 2000, seed=1)
        assert len(records) == 1
        rec = records[0]
        assert rec.code == codes_of_rank(1, 1)[0] and rec.y == 1
        assert rec.count == 2000

    def test_bottom_only(self):
        p = uniform(2)
        sol = bottom_only_solution(p)
        records = sample(sol, p, 0, 500, seed=2)
        assert [r.code.k for r in records] == [0]

    def test_deterministic_and_chunk_invariant(self):
        rng = random.Random(42)
        p = rand_rational_profile(2, rng)
        sol, _ = solve_primal(p, CostFunction.average(2))
        a = sample(sol, p, 1, 30000, seed=9)
        b = sample(sol, p, 1, 30000, seed=9)
        assert [(r.code, r.y, r.count) for r in a] == [
            (r.code, r.y, r.count) for r in b
        ]

    def test_three_sigma_agreement(self):
        p = bernoulli_profile(2, 0.1)
        sol, _ = solve_primal(p, CostFunction.average(2), mode="float")
        x = 2
        shots = 100000
        records = sample(sol, p, x, shots, seed=123)
        dist = exact_distribution(sol, p, x)
        for rec in records:
            prob = float(dist[(rec.code, rec.y)])
            sigma = math.sqrt(prob * (1 - prob) / shots)
            assert abs(rec.frequency - prob) <= 3 * sigma + 1e-12

    def test_never_wrong_parity(self):
        rng = random.Random(43)
        p = rand_rational_profile(2, rng)
        sol, _ = solve_primal(p, CostFunction.average(2))
        for x in all_vectors(2):
            for rec in sample(sol, p, x, 5000, seed=x):
                assert rec.y == rec.code.parity(x)

    @pytest.mark.parametrize("n, seed, mode, cost", [
        (3, 46, "exact", "average"),
        (3, 47, "float", "threshold"),
        (4, 48, "exact", "threshold"),
        (4, 49, "float", "average"),
        (4, 50, "ball", "average"),
    ])
    def test_matches_broadcast_compare(self, n, seed, mode, cost):
        # the bulk histogram and the per-shot oracle each sit within
        # 6 sigma + 1 of shots * p in every cell of the exact law
        shots = 200000
        rng = random.Random(seed)
        if mode == "ball":
            p, mode = ball_profile(n, 2, rng), "exact"
        else:
            p = rand_rational_profile(n, rng)
        c = CostFunction.average(n) if cost == "average" else CostFunction.threshold(n, 2)
        sol, _ = solve_primal(p, c, mode)
        x = rng.randrange(1 << n)
        probs = {code: float(v) for (code, _), v in exact_distribution(sol, p, x).items()}
        assert sum(v > 0 for v in probs.values()) > 1
        records = sample(sol, p, x, shots, seed)
        assert all(r.y == r.code.parity(x) and r.frequency == r.count / shots
                   for r in records)
        got = {r.code: r.count for r in records}
        assert all(probs.get(code, 0.0) > 0 for code in got)
        for counts in (got, broadcast_compare_counts(sol, p, shots, seed)):
            assert sum(counts.values()) == shots
            for code in enumerate_all_codes(n):
                prob = probs.get(code, 0.0)
                sigma = math.sqrt(shots * prob * (1 - prob))
                assert abs(counts.get(code, 0) - shots * prob) <= 6 * sigma + 1
        assert sample(sol, p, x, shots, seed) == records
        assert sample(sol, p, x, shots, seed + 1) != records

    def test_zero_probability_code_never_drawn(self):
        # a row's float probabilities need not add to exactly 1; at 2^62
        # shots the rounding leftover must still not reach the full-rank
        # code, whose lambda is 0 on every index
        p = uniform(2)
        codes = enumerate_all_codes(2)
        row = [Fraction(19, 79), Fraction(27, 79), Fraction(15, 79), Fraction(18, 79), 0]
        # lambda = row on every index: mu = row / 4 on every coset of each code
        mu = {(code, s): v / 4 for code, v in zip(codes, row)
              for s in range(len(code.cosets))}
        sol = PrimalSolution(2, mu, Fraction(0), p.weights)
        assert sol.lam == {(code, i): v for code, v in zip(codes, row) for i in range(4)}
        for seed in range(4):
            records = sample(sol, p, 0, 1 << 62, seed)
            assert sum(r.count for r in records) == 1 << 62
            assert codes_of_rank(2, 2)[0] not in {r.code for r in records}

    def test_negative_lambda_rejected(self):
        # rows sum to 1, but a multinomial needs nonnegative probabilities
        p = uniform(1)
        bottom, full = ParityCode.bottom(1), codes_of_rank(1, 1)[0]
        # lambda is -0.5 on the bottom code and 1.5 on the full one, at both indices
        mu = {(bottom, 0): -0.25, (bottom, 1): -0.25, (full, 0): 0.75}
        sol = PrimalSolution(1, mu, 1.0, p.weights)
        with pytest.raises(ValueError, match="nonnegative"):
            sample(sol, p, 0, 100, seed=1)

    def test_shots_must_be_positive(self):
        p = uniform(1)
        sol, _ = solve_primal(p, CostFunction.average(1))
        with pytest.raises(ValueError):
            sample(sol, p, 0, 0, seed=0)


class TestStatevector:
    def test_n1_full_recovery(self):
        p = uniform(1)
        sol, _ = solve_primal(p, CostFunction.average(1))
        report = statevector_check(sol, p, 0)
        assert report.n_amplitudes == 1
        assert report.norm_deviation == 0
        assert report.ok

    def test_norm_and_distribution_match(self):
        rng = random.Random(44)
        for n in (1, 2, 3):
            p = rand_rational_profile(n, rng)
            sol, _ = solve_primal(p, CostFunction.average(n))
            for x in (0, (1 << n) - 1):
                report = statevector_check(sol, p, x)
                assert report.norm_deviation <= 1e-12
                assert report.max_distribution_deviation <= 1e-10
                assert report.wrong_outcome_mass == 0.0
                assert report.exact_match

    def test_float_mode_solution(self):
        # the float basis of the seed-11 profile has degenerate levels that
        # binary64 leaves a hair below zero; they must come back as 0
        for p in (bernoulli_profile(2, 0.1), rand_rational_profile(4, random.Random(11))):
            sol, _ = solve_primal(p, CostFunction.average(p.n), mode="float")
            assert all(v >= 0 for v in sol.mu.values())
            report = statevector_check(sol, p, 1)
            assert report.ok

    def test_requires_full_support(self):
        from paritylp.errors import ProfileError

        p = AmplitudeProfile.from_weights(2, ["1/2", "1/2", "0", "0"])
        sol, _ = solve_primal(p, CostFunction.average(2))
        with pytest.raises(ProfileError):
            statevector_check(sol, p, 0)

    def test_runs_at_cap_and_refuses_above(self):
        # the bottom code alone: no code table is built, even at the cap
        p = uniform(STATEVECTOR_MAX_N)
        report = statevector_check(bottom_only_solution(p), p, 0b10110101)
        assert report.ok and report.exact_match
        assert report.n_amplitudes == 1 << STATEVECTOR_MAX_N
        above = uniform(STATEVECTOR_MAX_N + 1)
        with pytest.raises(BudgetError, match=f"capped at n <= {STATEVECTOR_MAX_N}"):
            statevector_check(bottom_only_solution(above), above, 0)


class TestConsistencyTriangle:
    def test_sample_exact_statevector_agree(self):
        rng = random.Random(45)
        p = rand_rational_profile(3, rng)
        cost = CostFunction.average(3)
        sol, _ = solve_primal(p, cost)
        x = 5
        shots = 100000
        dist = exact_distribution(sol, p, x)
        records = sample(sol, p, x, shots, seed=77)
        sv = statevector_check(sol, p, x)
        assert sv.ok and sv.exact_match
        sampled_keys = {(r.code, r.y) for r in records}
        positive_keys = {k for k, v in dist.items() if v > 0}
        assert sampled_keys <= positive_keys
        for rec in records:
            prob = float(dist[(rec.code, rec.y)])
            sigma = math.sqrt(prob * (1 - prob) / shots)
            assert abs(rec.frequency - prob) <= 4 * sigma + 1e-12
