"""Model building, exact and float solving, feasibility and slackness audits."""

import json
import math
import random
from fractions import Fraction
from itertools import chain
from numbers import Rational

import numpy as np
import pytest
import scipy.optimize

from conftest import (
    RowModel,
    ball_profile,
    full_rank_matrices,
    literal_lp_model,
    rand_rational_profile,
)
from paritylp import simplex
from paritylp.errors import BudgetError
from paritylp.f2lin import (
    F2Matrix,
    ParityCode,
    all_vectors,
    enumerate_all_codes,
    enumerate_codes,
    rank,
    vec_str,
)
from paritylp.lp import (
    Constraint,
    DualSolution,
    PrimalSolution,
    SolveReport,
    build_dual,
    build_primal,
    check_dual_feasible,
    check_primal_feasible,
    complementary_slackness,
    solve,
    solve_dual,
    solve_pair,
    solve_primal,
)
from paritylp.profiles import AmplitudeProfile, CostFunction, bernoulli_profile


def profile(n, weights):
    return AmplitudeProfile.from_weights(n, weights)


def _scipy_raw(model):
    nv = model.n_vars
    c = np.array([float(v) for v in model.objective])
    if model.sense == "max":
        c = -c
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for con in model.constraints:
        row = np.zeros(nv)
        for j, coef in con.coeffs.items():
            row[j] = float(coef)
        if con.rel == "=":
            a_eq.append(row)
            b_eq.append(float(con.rhs))
        elif con.rel == ">=":
            a_ub.append(-row)
            b_ub.append(-float(con.rhs))
        else:
            a_ub.append(row)
            b_ub.append(float(con.rhs))
    return scipy.optimize.linprog(
        c,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        bounds=(0, None),
        method="highs",
    )


def equality_model(a_rows, b, c):
    """min c.x subject to the rows of A x = b, as a row model."""
    constraints = [Constraint({j: v for j, v in enumerate(row) if v}, "=", r)
                   for row, r in zip(a_rows, b)]
    return RowModel("rows", "min", [("x", j) for j in range(len(c))], c, constraints)


def scipy_optimum(model):
    """Independent check through HiGHS."""
    res = _scipy_raw(model)
    assert res.status == 0, res.message
    return -res.fun if model.sense == "max" else res.fun


def two_loop_primal(profile, cost):
    """build_primal by its earlier construction: index every coset variable,
    then fill each support row with one syndrome lookup per code."""
    codes = [code for k in range(profile.n + 1) for code in enumerate_codes(profile.n, k)]
    support = set(profile.support)
    labels, objective, var_index = [], [], {}
    for code in codes:
        cos = code.cosets
        for s in range(cos.n_syndromes):
            if all(i in support for i in cos.members_of(s)):
                var_index[(code, s)] = len(labels)
                labels.append(("mu", code, s))
                objective.append(cost.value(code.k) * (1 << code.k))
    constraints = []
    for i in profile.support:
        inv = 1 / profile.weights[i]
        coeffs = {}
        for code in codes:
            idx = var_index.get((code, code.syndrome(i)))
            if idx is not None:
                coeffs[idx] = inv
        constraints.append(Constraint(coeffs, "=", 1, tag=("index", i)))
    return RowModel("primal", "max", labels, objective, constraints)


def dual_rows(profile, cost):
    """The covering program build_dual writes, as a row model: one variable
    b_i per index, one lower bound per (code, syndrome)."""
    n = profile.n
    labels = [("b", i, n) for i in all_vectors(n)]
    constraints = []
    for code in enumerate_all_codes(n):
        cos = code.cosets
        rhs = cost.value(code.k) * (1 << code.k)
        for s in range(cos.n_syndromes):
            coeffs = {i: 1 for i in cos.members_of(s)}
            constraints.append(Constraint(coeffs, ">=", rhs, tag=("coset", code, s)))
    return RowModel("dual", "min", labels, list(profile.weights), constraints)


def covering_lines(text):
    """(terms, right-hand side) of each covering constraint in build_dual's text."""
    lines = [line.split(" >= ") for line in text.splitlines()[1:]]
    return [(terms.split(" + "), Fraction(rhs)) for terms, rhs in lines]


def _reference_cases():
    for n in range(1, 5):
        rng = random.Random(f"build/{n}")
        yield rand_rational_profile(n, rng), CostFunction.average(n)
        yield ball_profile(n, n // 2, rng), CostFunction.threshold(n, 1)
        yield bernoulli_profile(n, 0.1), CostFunction.custom(n, [0.5 * k for k in range(n + 1)])


class TestBuildPrimal:
    @pytest.mark.parametrize("p, cost", list(_reference_cases()))
    def test_matches_two_loop_construction(self, p, cost):
        got, want = build_primal(p, cost), two_loop_primal(p, cost)
        assert (got.name, got.sense) == (want.name, want.sense)
        assert got.labels == want.labels
        assert got.objective == want.objective
        assert [(list(c.coeffs.items()), c.rel, c.rhs, c.tag) for c in got.constraints] == \
            [(list(c.coeffs.items()), c.rel, c.rhs, c.tag) for c in want.constraints]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_code_table(self, n):
        table = enumerate_all_codes(n)
        assert table is enumerate_all_codes(n)
        assert isinstance(table, tuple)
        assert list(table) == [code for k in range(n + 1) for code in enumerate_codes(n, k)]

    def test_n1_uniform_shape(self):
        m = build_primal(profile(1, ["1/2", "1/2"]), CostFunction.average(1))
        assert m.n_vars == 3
        assert len(m.constraints) == 2

    def test_n2_variable_count(self):
        # sum_k [2 choose k]_2 * 2^(2-k) = 4 + 6 + 1
        m = build_primal(profile(2, ["1/4"] * 4), CostFunction.average(2))
        assert m.n_vars == 11

    def test_point_mass_pins_mixed_cosets(self):
        m = build_primal(profile(2, ["1", "0", "0", "0"]), CostFunction.average(2))
        # only the bottom coset {0} survives the zero-weight pinning
        assert m.n_vars == 1
        assert len(m.constraints) == 1

    def test_budget(self):
        with pytest.raises(BudgetError):
            build_primal(profile(6, ["1/64"] * 64), CostFunction.average(6))

    def test_text_dump(self):
        m = build_primal(profile(1, ["1/2", "1/2"]), CostFunction.average(1))
        text = m.to_text()
        assert "mu[" in text and "= 1" in text


def _dual_text_cases():
    for n in (1, 2, 3):
        rng = random.Random(f"dual-text/{n}")
        costs = [("average", CostFunction.average(n))]
        if n >= 2:
            costs.append(("tau2", CostFunction.threshold(n, 2)))
        for pname, p in (("full", rand_rational_profile(n, rng)),
                         ("ball", ball_profile(n, 1, rng)),
                         ("binary64", bernoulli_profile(n, 0.15))):
            for cname, cost in costs:
                yield pytest.param(p, cost, id=f"{pname}{n}-{cname}")


class TestBuildDual:
    def test_n2_constraint_census(self):
        text = build_dual(profile(2, ["1/4"] * 4), CostFunction.average(2))
        rhs = sorted(float(r) for _, r in covering_lines(text))
        assert rhs == [0.0] * 4 + [2.0] * 6 + [8.0]

    def test_n1_constraints(self):
        text = build_dual(profile(1, ["1/2", "1/2"]), CostFunction.average(1))
        assert [float(r) for _, r in covering_lines(text)] == [0.0, 0.0, 2.0]

    def test_threshold_tau_n_single_active(self):
        text = build_dual(profile(2, ["1/4"] * 4), CostFunction.threshold(2, 2))
        active = [(terms, r) for terms, r in covering_lines(text) if r != 0]
        assert len(active) == 1
        assert float(active[0][1]) == 4.0
        assert set(active[0][0]) == {f"1*b[{vec_str(i, 2)}]" for i in all_vectors(2)}

    @pytest.mark.parametrize("p, cost", list(_dual_text_cases()))
    def test_row_model_writes_build_dual_text(self, p, cost):
        # the oracles below solve dual_rows; it must be the program --dump-model writes
        assert dual_rows(p, cost).to_text() == build_dual(p, cost)


class TestSolve:
    def test_n1_uniform_average(self):
        sol, rep = solve_primal(profile(1, ["1/2", "1/2"]), CostFunction.average(1))
        assert rep.objective == 1

    def test_n1_closed_form(self):
        # direct polytope argument: rho = 2 min(a, b) for average cost
        for a in (Fraction(1, 5), Fraction(2, 5), Fraction(1, 2)):
            p = profile(1, [a, 1 - a])
            _, rep = solve_primal(p, CostFunction.average(1))
            assert rep.objective == 2 * min(a, 1 - a)

    def test_worked_value_cohamming_regime(self):
        p = profile(2, ["1/20", "3/20", "3/10", "1/2"])
        _, rep = solve_primal(p, CostFunction.average(2))
        assert rep.objective == Fraction(11, 10)

    def test_worked_value_spike_regime(self):
        p = profile(2, ["1/20", "3/10", "3/10", "7/20"])
        _, rep = solve_primal(p, CostFunction.average(2))
        assert rep.objective == Fraction(6, 5)

    def test_uniform_is_n(self):
        for n in (1, 2, 3):
            p = profile(n, [Fraction(1, 1 << n)] * (1 << n))
            _, rep = solve_primal(p, CostFunction.average(n))
            assert rep.objective == n

    def test_point_mass_is_zero(self):
        p = profile(2, ["1", "0", "0", "0"])
        _, rep = solve_primal(p, CostFunction.average(2))
        assert rep.objective == 0
        _, drep = solve_dual(p, CostFunction.average(2))
        assert drep.objective == 0

    def test_float_mode(self):
        p = profile(2, [0.05, 0.15, 0.3, 0.5])
        _, rep = solve_primal(p, CostFunction.average(2), mode="float")
        assert rep.objective == pytest.approx(1.1, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_strong_duality_exact(self, n):
        rng = random.Random(100 + n)
        cost = CostFunction.average(n)
        for _ in range(5):
            p = rand_rational_profile(n, rng)
            _, rp = solve_primal(p, cost)
            _, rd = solve_dual(p, cost)
            assert rp.objective == rd.objective

    @pytest.mark.parametrize("n", [1, 2])
    def test_against_scipy(self, n):
        rng = random.Random(17 + n)
        for kind in ("average", "threshold"):
            cost = (CostFunction.average(n) if kind == "average"
                    else CostFunction.threshold(n, 1))
            for _ in range(4):
                p = rand_rational_profile(n, rng)
                m = build_primal(p, cost)
                rep = solve(m, mode="float")
                assert float(rep.objective) == pytest.approx(
                    scipy_optimum(m), abs=1e-8
                )
                d = dual_rows(p, cost)
                drep = solve_rows(d, mode="float")
                assert float(drep.objective) == pytest.approx(
                    scipy_optimum(d), abs=1e-8
                )

    def test_random_small_models_against_scipy(self):
        rng = random.Random(60)
        agree = 0
        for trial in range(100):
            nv = rng.randint(1, 4)
            nc = rng.randint(1, 5)
            sense = rng.choice(["min", "max"])
            objective = [Fraction(rng.randint(-4, 4)) for _ in range(nv)]
            constraints = []
            for _ in range(nc):
                coeffs = {
                    j: Fraction(rng.randint(-3, 3)) for j in range(nv)
                    if rng.random() < 0.8
                }
                if not coeffs:
                    coeffs = {0: Fraction(1)}
                rel = rng.choice(["=", ">=", "<="])
                constraints.append(
                    Constraint(coeffs, rel, Fraction(rng.randint(-4, 4)))
                )
            model = RowModel(f"fuzz{trial}", sense, [("x", j) for j in range(nv)],
                             objective, constraints)
            report = solve_rows(model, mode="exact")
            res = _scipy_raw(model)
            if report.status == "optimal":
                assert res.status == 0, (trial, res.message)
                expected = -res.fun if sense == "max" else res.fun
                assert float(report.objective) == pytest.approx(expected, abs=1e-7)
                agree += 1
            elif report.status == "infeasible":
                assert res.status == 2, trial
            else:
                assert res.status == 3, trial
        assert agree >= 10

    def test_n4_strong_duality_spot_check(self):
        rng = random.Random(61)
        p = rand_rational_profile(4, rng)
        for cost in (CostFunction.average(4), CostFunction.threshold(4, 2)):
            _, rp = solve_primal(p, cost)
            _, rd = solve_dual(p, cost)
            assert rp.objective == rd.objective

    @pytest.mark.parametrize("wrong", ["start", "suboptimal"])
    def test_exact_fallback_matches_certified(self, monkeypatch, wrong):
        """A float stage that hands back a bad basis cannot change the optimum.

        "start" is the artificial starting basis, which does not solve
        A x = b; "suboptimal" is the bottom code's singleton cosets, feasible
        with objective 0.  Both fail the exact check, and the exact pivots
        must land on the certified optimum.
        """
        real = simplex._revised

        def bad_float_stage(a, b, c, unit_cols, art_rows, stats):
            if c.dtype == object:
                return real(a, b, c, unit_cols, art_rows, stats)
            bad = list(unit_cols) if wrong == "start" else list(range(len(b)))
            return simplex.OPTIMAL, bad, None, None

        rng = random.Random(55)
        for n in (1, 2, 3):
            p = rand_rational_profile(n, rng)
            for cost in (CostFunction.average(n), CostFunction.threshold(n, 1)):
                model = build_primal(p, cost)
                fast = solve(model)
                assert fast.strategy == "certified"
                with monkeypatch.context() as m:
                    m.setattr(simplex, "_revised", bad_float_stage)
                    slow = solve(model)
                assert slow.strategy == "exact-pivots"
                assert slow.objective == fast.objective

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dual_model_matches_read_off_dual(self, n):
        rng = random.Random(200 + n)
        for cost in (CostFunction.average(n), CostFunction.threshold(n, n)):
            for p in (rand_rational_profile(n, rng), ball_profile(n, n - 1, rng)):
                direct = solve_rows(dual_rows(p, cost))
                dual, report = solve_dual(p, cost)
                assert direct.objective == dual.objective == report.objective
                assert check_dual_feasible(dual, cost).feasible

    def test_optimum_invariant_under_affine_relabelling(self):
        # i -> P i + v maps every coset of a subspace onto a coset of a
        # subspace of the same dimension, so the program is only relabelled
        rng = random.Random(62)
        for n in (2, 3, 4):
            p = rand_rational_profile(n, rng)
            while True:
                mat = F2Matrix(n, tuple(rng.randrange(1, 1 << n) for _ in range(n)))
                if rank(mat) == n:
                    break
            v = rng.randrange(1 << n)
            moved = profile(n, [p.weights[mat.mul_vec(i) ^ v] for i in all_vectors(n)])
            for cost in (CostFunction.average(n), CostFunction.threshold(n, 2)):
                assert solve_primal(moved, cost)[1].objective == solve_primal(p, cost)[1].objective

    def test_optimum_scales_with_cost(self):
        rng = random.Random(63)
        for n in (2, 3, 4):
            p = rand_rational_profile(n, rng)
            base = CostFunction.average(n)
            tripled = CostFunction.custom(n, [3 * v for v in base.values])
            assert solve_primal(p, tripled)[1].objective == 3 * solve_primal(p, base)[1].objective

    def test_coset_reduction_matches_literal_program(self):
        rng = random.Random(3)
        for n in (1, 2):
            cost = CostFunction.average(n)
            matrices = [F2Matrix(n, ())]
            for k in range(1, n + 1):
                matrices.extend(m for m in full_rank_matrices(n, k))
            canonical = [F2Matrix(n, ())]
            seen = set()
            for m in matrices[1:]:
                space = frozenset(m.row_space())
                if space not in seen:
                    seen.add(space)
                    canonical.append(m)
            for _ in range(3):
                p = rand_rational_profile(n, rng)
                _, rep = solve_primal(p, cost)
                literal = literal_lp_model(p, cost, canonical)
                lit_rep = solve_rows(literal)
                assert lit_rep.objective == rep.objective

    def test_duplicates_do_not_change_optimum(self):
        rng = random.Random(4)
        for n in (1, 2):
            cost = CostFunction.average(n)
            with_duplicates = [F2Matrix(n, ())]
            for k in range(1, n + 1):
                with_duplicates.extend(full_rank_matrices(n, k))
            for _ in range(3):
                p = rand_rational_profile(n, rng)
                _, rep = solve_primal(p, cost)
                literal = literal_lp_model(p, cost, with_duplicates)
                lit_rep = solve_rows(literal)
                assert lit_rep.objective == rep.objective

    def test_monotone_in_cost(self):
        rng = random.Random(5)
        p = rand_rational_profile(2, rng)
        base = CostFunction.custom(2, [0, 1, 1])
        bigger = CostFunction.custom(2, [0, 1, 3])
        _, r1 = solve_primal(p, base)
        _, r2 = solve_primal(p, bigger)
        assert r2.objective >= r1.objective

    def test_exact_reproducible(self):
        p = profile(2, ["1/20", "3/20", "3/10", "1/2"])
        cost = CostFunction.average(2)
        first = solve(build_primal(p, cost))
        second = solve(build_primal(p, cost))
        assert first.objective == second.objective
        assert first.values == second.values

    def test_bernoulli_tightness(self):
        # binary64 weights make every solve a float solve, whatever the mode
        for n, t in ((1, 0.1), (2, 0.1), (3, 0.25)):
            p = bernoulli_profile(n, t)
            for mode in ("float", "exact"):
                _, rep = solve_primal(p, CostFunction.average(n), mode=mode)
                assert (rep.mode, rep.strategy) == ("float", "float")
                q = 0.5 - (t * (1 - t)) ** 0.5
                assert float(rep.objective) == pytest.approx(2 * n * q, abs=1e-9)


class TestAtCap:
    """Exact solves at the cap LP_MAX_N = 5 and on a profile with a zero set."""

    @pytest.mark.parametrize("cost, optimum", [
        (CostFunction.average(5), Fraction(8131, 2236)),
        (CostFunction.threshold(5, 2), Fraction(1)),
        # float cost values are exact binary fractions and keep the solve exact
        (CostFunction.custom(5, [0, 0.5, 1.25, 2.5, 3.75, 4.5]), Fraction(1813, 559)),
    ], ids=["average", "threshold2", "custom"])
    def test_n5_exact_pair(self, cost, optimum):
        p = rand_rational_profile(5, random.Random(505))
        primal, dual, report = solve_pair(p, cost)
        assert (report.mode, report.strategy) == ("exact", "certified")
        assert type(report.objective) is Fraction and report.objective == optimum
        assert float(report.objective) == pytest.approx(
            scipy_optimum(build_primal(p, cost)), abs=1e-9)
        slack = complementary_slackness(primal, dual, p, cost)
        assert slack.certified
        assert slack.primal_objective - slack.dual_objective == 0
        assert dual.objective == report.objective

    def test_n4_ball_dual_read_off(self):
        p = ball_profile(4, 2, random.Random(404))
        assert p.zero_set
        for cost in (CostFunction.average(4), CostFunction.threshold(4, 2)):
            primal, dual, report = solve_pair(p, cost)
            assert check_dual_feasible(dual, cost).feasible
            assert dual.objective == report.objective
            assert complementary_slackness(primal, dual, p, cost).certified


class TestSolverEdgeCases:
    @pytest.mark.parametrize("a_rows, b, c, bad_basis, status, objective", [
        # min x0 + x1, x0 - x1 = 1: basis {x1} prices out dual feasible
        # (y = -1) but puts x1 at -1
        ([[1, -1]], [1], [1, 1], [1], "optimal", 1),
        # x0 = 1, x0 = 2: basis {x0, artificial of row 2} prices out dual
        # feasible but leaves the artificial at 1
        ([[1], [1]], [1, 2], [1], [0, 2], "infeasible", None),
        # min x0, 7 x0 + x1 = 7: basis {x0} is feasible, y = 1/7, and x1's
        # reduced cost is exactly -1/7, one unit over the common denominator
        ([[7, 1]], [7], [1, 0], [0], "optimal", 0),
        # min x0 + x1, x0 - 7 x1 = 1: basis {x1} prices out dual feasible but
        # puts x1 at exactly -1/7
        ([[1, -7]], [1], [1, 1], [1], "optimal", 1),
    ], ids=["negative-level", "artificial-left", "reduced-cost-minus-1/D",
            "level-minus-1/D"])
    def test_certificate_rejects_bad_levels(self, monkeypatch, a_rows, b, c,
                                            bad_basis, status, objective):
        # the certificate has no slack: whatever the float stage proposes,
        # a rejected basis falls back to exact pivots and the same optimum
        assert solve_rows(equality_model(a_rows, b, c)).objective == objective
        real = simplex._revised

        def bad_float_stage(a, b, c, unit_cols, art_rows, stats):
            if c.dtype == object:
                return real(a, b, c, unit_cols, art_rows, stats)
            return simplex.OPTIMAL, list(bad_basis), None, None

        monkeypatch.setattr(simplex, "_revised", bad_float_stage)
        result = solve_rows(equality_model(a_rows, b, c))
        assert result.strategy == "exact-pivots"
        assert (result.status, result.objective) == (status, objective)

    def test_infeasible_hand_model(self):
        model = RowModel("clash", "min", [("x",)], [Fraction(1)], [
            Constraint({0: Fraction(1)}, "=", Fraction(1)),
            Constraint({0: Fraction(1)}, "=", Fraction(2)),
        ])
        assert solve_rows(model).status == "infeasible"

    def test_unbounded_hand_model(self):
        model = RowModel("free", "max", [("x",)], [Fraction(1)], [
            Constraint({0: Fraction(1)}, ">=", Fraction(0)),
        ])
        assert solve_rows(model).status == "unbounded"

    def test_negative_rhs_row_flipped(self):
        # x >= -1 is vacuous for x >= 0; optimum sits at the other bound
        model = RowModel("flip", "min", [("x",)], [Fraction(1)], [
            Constraint({0: Fraction(1)}, ">=", Fraction(-1)),
            Constraint({0: Fraction(1)}, ">=", Fraction(3)),
        ])
        report = solve_rows(model)
        assert report.status == "optimal" and report.objective == 3


class TestFeasibilityChecks:
    def test_hamming_style_dual_feasible(self):
        from paritylp.f2lin import hamming_weight

        b = {i: 2 * hamming_weight(i) for i in all_vectors(2)}
        report = check_dual_feasible(DualSolution(2, b), CostFunction.average(2))
        assert report.feasible
        full_slacks = [
            s for (code, _), s in report.slacks.items() if code.k == 2
        ]
        assert full_slacks == [0]

    def test_float_slacks_sum_members_in_order(self):
        # the coset sums run over the members in ascending order, as b_at did
        dual, _ = solve_dual(bernoulli_profile(4, 0.15), CostFunction.average(4), "float")
        cost = CostFunction.average(4)
        report = check_dual_feasible(dual, cost)
        want = {(code, s): sum(dual.b_at(i) for i in members) - cost.value(code.k) * (1 << code.k)
                for code in enumerate_all_codes(4)
                for s, members in enumerate(code.cosets.members)}
        assert [repr(v) for v in report.slacks.values()] == [repr(v) for v in want.values()]
        assert list(report.slacks) == list(want)

    def test_zero_dual_infeasible(self):
        b = {i: 0 for i in all_vectors(2)}
        report = check_dual_feasible(DualSolution(2, b), CostFunction.average(2))
        assert not report.feasible
        assert report.max_violation == 8

    def test_bottom_only_primal_feasible(self):
        p = profile(2, ["1/4"] * 4)
        sol, _ = solve_primal(p, CostFunction.custom(2, [0, 0, 0]))
        report = check_primal_feasible(sol, p)
        assert report.feasible

    def test_catches_broken_normalization(self):
        p = profile(1, ["1/2", "1/2"])
        sol, _ = solve_primal(p, CostFunction.average(1))
        broken = PrimalSolution(sol.n, {k: 2 * v for k, v in sol.mu.items()},
                                sol.objective, p.weights)
        report = check_primal_feasible(broken, p)
        assert not report.feasible


class TestSlackness:
    def test_optimal_pair_certifies(self):
        rng = random.Random(11)
        for n in (1, 2):
            p = rand_rational_profile(n, rng)
            cost = CostFunction.average(n)
            primal, _ = solve_primal(p, cost)
            dual, _ = solve_dual(p, cost)
            report = complementary_slackness(primal, dual, p, cost)
            assert report.certified
            assert report.primal_objective == report.dual_objective

    def test_suboptimal_pair_reports_nonzero_product(self):
        p = profile(2, ["1/20", "3/20", "3/10", "1/2"])
        cost = CostFunction.average(2)
        primal, _ = solve_primal(p, cost)
        # feasible but loose dual: constant 2^n * max C
        loose = DualSolution(2, {i: 8 for i in all_vectors(2)})
        assert check_dual_feasible(loose, cost).feasible
        report = complementary_slackness(primal, loose, p, cost)
        assert not report.certified
        assert report.violations


# -- programs by rows: one standard form, on the simplex and on a dense tableau

def standard_form(model, mode):
    """A model by rows as min c.x, A x = b, b >= 0, x >= 0.

    Each inequality gains a slack column, each row with a negative
    right-hand side is negated, and every entry of b and c is converted to
    the solve's number type (`Fraction` when the mode is exact and the model
    rational, else float).  Returns (exact, rows, b, c, seeds, flips, sense):
    dense rows of len(c) entries; per row, the slack column that enters
    with +1 (else None) and the sign it was multiplied by; and the sign of
    the objective.
    """
    entries = chain(model.objective,
                    *(chain(con.coeffs.values(), (con.rhs,)) for con in model.constraints))
    exact = mode == "exact" and all(isinstance(v, Rational) for v in entries)
    num = Fraction if exact else float
    nv = model.n_vars
    slack_count = sum(1 for c in model.constraints if c.rel != "=")
    total = nv + slack_count
    rows, rhs, seeds, flips = [], [], [], []
    slack_at = nv
    for con in model.constraints:
        row = [0] * total
        for j, coef in con.coeffs.items():
            row[j] = coef
        r = num(con.rhs)
        slack_col = None
        if con.rel in (">=", "<="):
            slack_col = slack_at
            row[slack_col] = -1 if con.rel == ">=" else 1
            slack_at += 1
        flip = -1 if r < 0 else 1
        if flip < 0:
            row = [-v for v in row]
            r = -r
        seeds.append(slack_col if slack_col is not None and row[slack_col] == 1 else None)
        rows.append(row)
        rhs.append(r)
        flips.append(flip)
    sense = -1 if model.sense == "max" else 1
    c = [sense * num(v) for v in model.objective] + [num(0)] * slack_count
    return exact, rows, rhs, c, seeds, flips, sense


def row_report(model, result, exact, flips, sense):
    """A standard-form result as the model's SolveReport, in the model's own sense."""
    mode = "exact" if exact else "float"
    if result.status != "optimal":
        return SolveReport(result.status, None, None, mode, result.pivots, 0.0,
                           result.strategy, stats=result.stats)
    values = dict(zip(model.labels, result.x[:model.n_vars]))
    duals = [sense * f * y for f, y in zip(flips, result.y)]
    return SolveReport("optimal", sense * result.objective, values, mode,
                       result.pivots, 0.0, result.strategy, duals, result.stats)


def solve_rows(model, mode="exact", seeded=True):
    """Solve a model by rows on simplex.simplex_min: its standard form goes
    over by the nonzeros of each column, the slack seeds (unless `seeded`
    is false) as the starting basis."""
    exact, rows, b, c, seeds, flips, sense = standard_form(model, mode)
    dtype = object if exact else float
    a = np.array(rows, dtype=object).reshape(len(rows), len(c))
    cols, nz = np.nonzero(a.T)
    columns = simplex.Columns(nz, cols, a[nz, cols], [1] * len(b))
    result = simplex.simplex_min(columns, np.array(b, dtype=dtype), np.array(c, dtype=dtype),
                                 basis_seed=seeds if seeded else None)
    return row_report(model, result, exact, flips, sense)


def dense_solve(model, mode="exact", float_stage=True):
    """The standard form solved as lp.solve did on a dense tableau of Python rows.

    Each row is a list of len(c) entries, converted entry by entry to the
    solve's number type; the certificate checks c - Aᵀy with a Fraction loop
    over every row and column.  Every pivot rewrites the whole tableau.
    Without the float stage an exact solve pivots on Fractions from the
    phase-1 start, as the exact fallback does.
    """
    exact, rows, b, c, seeds, flips, sense = standard_form(model, mode)
    return row_report(model, _dense_simplex_min(rows, b, c, seeds, float_stage),
                      exact, flips, sense)


def _dense_simplex_min(a_rows, b, c, seeds, float_stage):
    unit_cols, art_rows = [], []
    for i, col in enumerate(seeds):
        if col is None:
            col = len(c) + len(art_rows)
            art_rows.append(i)
        unit_cols.append(col)
    exact = all(isinstance(v, Rational) for v in chain(b, c))
    status, basis, t, pivots = (_dense_two_phase(a_rows, b, c, unit_cols, art_rows, False)
                                if float_stage else ("skipped", None, None, 0))
    strategy, solution = "float", None
    if exact:
        b = [Fraction(v) for v in b]
        c = [Fraction(v) for v in c]
        strategy = "certified"
        if status == "optimal":
            solution = _dense_certify(a_rows, b, c, basis, art_rows)
        if solution is None:
            status, basis, t, more = _dense_two_phase(a_rows, b, c, unit_cols, art_rows, True)
            pivots += more
            strategy = "exact-pivots"
    if status != "optimal":
        return simplex.StandardResult(status, None, None, pivots, strategy=strategy)
    nv = len(c)
    zero = c[0] * 0 if nv else 0
    if solution is None:
        cost = t[len(basis)].tolist()
        levels = t[:len(basis), -1].tolist()
        if strategy == "float":
            levels = [0.0 if -simplex.FLOAT_TOL <= v < 0 else v for v in levels]
        solution = (levels, [(c[j] if j < nv else zero) - cost[j] for j in unit_cols])
    levels, y = solution
    x = [zero] * nv
    for col, v in zip(basis, levels):
        if col < nv:
            x[col] = v
    objective = sum((ci * xi for ci, xi in zip(c, x) if xi), zero)
    return simplex.StandardResult("optimal", objective, x, pivots, y, strategy)


def _dense_two_phase(a_rows, b, c, unit_cols, art_rows, exact):
    m, nv = len(a_rows), len(c)
    total = nv + len(art_rows)
    if exact:
        num, tol, limit = Fraction, 0, math.inf
        t = np.full((m + 2, total + 1), Fraction(0), dtype=object)
    else:
        num, tol, limit = float, simplex.FLOAT_TOL, 50 * (m + total)
        t = np.zeros((m + 2, total + 1))
    if m:
        t[:m, :nv] = [[num(v) for v in row] for row in a_rows]
        t[:m, -1] = [num(v) for v in b]
    t[art_rows, range(nv, total)] = num(1)
    t[m, :nv] = [num(v) for v in c]
    basis = list(unit_cols)
    t[m] -= t[m, basis] @ t[:m]
    t[m + 1, nv:total] = num(1)
    t[m + 1] -= t[art_rows].sum(axis=0)
    pivots = 0
    if art_rows:
        status, pivots = _tableau_iterate(t, basis, m + 1, total, tol, pivots, limit)
        if status != "optimal":
            return status, basis, t, pivots
        if -t[m + 1, -1] > tol:
            return "infeasible", basis, t, pivots
        for i in range(m):
            if basis[i] >= nv:
                usable = np.flatnonzero(abs(t[i, :nv]) > tol)
                if usable.size:
                    _tableau_pivot(t, basis, i, int(usable[0]))
                    pivots += 1
    status, pivots = _tableau_iterate(t, basis, m, nv, tol, pivots, limit)
    return status, basis, t, pivots


def _tableau_pivot(t, basis, r, j) -> None:
    # On the Fraction tableau only the pivot row's nonzeros take part.
    cols = np.flatnonzero(t[r]) if t.dtype == object else slice(None)
    t[r, cols] /= t[r, j]
    prow = t[r, cols]
    for i in np.flatnonzero(t[:, j]):
        if i != r:
            t[i, cols] -= t[i, j] * prow
    basis[r] = j


def _tableau_iterate(t, basis, obj, allowed, tol, pivots, limit) -> tuple[str, int]:
    """Pivot on objective row `obj` over columns [0, allowed) until optimal.

    The pivot limit guards the float tableau against cycling by rounding;
    the exact tableau has none, since Bland's rule cannot cycle.
    """
    m = len(basis)
    basis_arr = np.array(basis)
    stall = 0
    bland = False
    while allowed:
        costs = t[obj, :allowed]
        if bland:
            eligible = np.flatnonzero(costs < -tol)
            if not eligible.size:
                break
            enter = int(eligible[0])
        else:
            enter = int(np.argmin(costs))
            if costs[enter] >= -tol:
                break
        if pivots >= limit:
            return "iteration-limit", pivots
        column = t[:m, enter]
        rows = np.flatnonzero(column > tol)
        if not rows.size:
            return "unbounded", pivots
        ratios = np.maximum(t[rows, -1], 0) / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + tol]
        leave = int(ties[np.argmin(basis_arr[ties])])
        if not bland:
            stall = stall + 1 if best <= tol else 0
            bland = stall > simplex.STALL_LIMIT
        _tableau_pivot(t, basis, leave, enter)
        basis_arr[leave] = enter
        pivots += 1
    return "optimal", pivots


def _dense_certify(a_rows, b, c, basis, art_rows):
    nv = len(c)
    cols = [[Fraction(row[j]) if j < nv else Fraction(i == art_rows[j - nv])
             for i, row in enumerate(a_rows)] for j in basis]
    levels = _dense_solve_exact([list(r) for r in zip(*cols)], b)
    if levels is None or any(v < 0 or (v and j >= nv) for j, v in zip(basis, levels)):
        return None
    y = _dense_solve_exact(cols, [c[j] if j < nv else 0 for j in basis])
    reduced = list(c)
    for row, yi in zip(a_rows, y):
        if yi:
            for j, v in enumerate(row):
                if v:
                    reduced[j] -= v * yi
    return None if any(v < 0 for v in reduced) else (levels, y)


def _dense_solve_exact(rows, rhs):
    m = len(rows)
    aug = []
    for row, v in zip(rows, rhs):
        eq = [Fraction(q) for q in row] + [Fraction(v)]
        den = math.lcm(*(q.denominator for q in eq))
        aug.append([q.numerator * (den // q.denominator) for q in eq])
    for k in range(m):
        p = next((i for i in range(k, m) if aug[i][k]), None)
        if p is None:
            return None
        aug[k], aug[p] = aug[p], aug[k]
        prow = aug[k]
        piv = prow[k]
        for i in range(m):
            f = aug[i][k]
            if f and i != k:
                new = [a * piv - f * q for a, q in zip(aug[i], prow)]
                g = math.gcd(*new) or 1
                aug[i] = [a // g for a in new]
    return [Fraction(row[m], row[k]) for k, row in enumerate(aug)]


def dense_pair(profile, cost, mode, float_stage=True):
    """solve_pair as it was on dense_solve: lambda by one division per member."""
    model = build_primal(profile, cost)
    report = dense_solve(model, mode, float_stage)
    mu, lam = {}, {}
    for (_, code, s), v in report.values.items():
        mu[(code, s)] = v
        for i in code.cosets.members_of(s):
            lam[(code, i)] = v / profile.weights[i]
    bottom = ParityCode.bottom(profile.n)
    for i in profile.zero_set:
        lam[(bottom, i)] = report.objective * 0 + 1
        mu[(bottom, i)] = report.objective * 0
    b = {con.tag[1]: u * next(iter(con.coeffs.values()))
         for con, u in zip(model.constraints, report.duals)}
    if report.mode != "exact":
        b = {i: 0.0 if -1e-9 <= v < 0 else v for i, v in b.items()}
    cover = report.objective * 0 + max(cost.value(k) * (1 << k) for k in range(profile.n + 1))
    b.update(dict.fromkeys(profile.zero_set, cover))
    return report, mu, lam, b


def same(x, y):
    """Equal in type and bits: repr tells -0.0 from 0.0 and every binary64 apart."""
    if isinstance(x, dict):
        return (isinstance(y, dict) and list(x) == list(y)
                and all(same(v, y[k]) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return (type(x) is type(y) and len(x) == len(y)
                and all(same(u, v) for u, v in zip(x, y)))
    return type(x) is type(y) and repr(x) == repr(y)


def assert_same_report(got, want):
    for name in ("status", "objective", "values", "duals", "pivots", "strategy", "mode"):
        assert same(getattr(got, name), getattr(want, name)), name


def _oracle_profiles():
    for n in range(1, 6):
        rng = random.Random(f"oracle/{n}")
        yield f"full{n}", rand_rational_profile(n, rng)
        yield f"ball{n}", ball_profile(n, max(1, n // 2), rng)
        yield f"bernoulli{n}", bernoulli_profile(n, 0.15)
    # float(1 / w) != 1 / float(w) for w = 1/49 and 2/49
    yield "odd2", profile(2, ["1/49", "2/49", "3/49", "43/49"])


def _oracle_cases(modes=("exact", "float"), max_n=5):
    for name, p in _oracle_profiles():
        n = p.n
        if n > max_n:
            continue
        costs = {"average": CostFunction.average(n), "tau1": CostFunction.threshold(n, 1)}
        if n >= 2:
            costs["tau2"] = CostFunction.threshold(n, 2)
        costs["custom"] = CostFunction.custom(n, [0.5 * k * k for k in range(n + 1)])
        if n == 5:
            costs = {k: costs[k] for k in ("average", "tau2")}
        for cname, cost in costs.items():
            for mode in modes:
                yield pytest.param(p, cost, mode, id=f"{name}-{cname}-{mode}")


def _fuzz_models():
    """The random models of test_random_small_models_against_scipy."""
    rng = random.Random(60)
    for trial in range(100):
        nv = rng.randint(1, 4)
        nc = rng.randint(1, 5)
        sense = rng.choice(["min", "max"])
        objective = [Fraction(rng.randint(-4, 4)) for _ in range(nv)]
        constraints = []
        for _ in range(nc):
            coeffs = {j: Fraction(rng.randint(-3, 3)) for j in range(nv) if rng.random() < 0.8}
            if not coeffs:
                coeffs = {0: Fraction(1)}
            constraints.append(Constraint(coeffs, rng.choice(["=", ">=", "<="]),
                                          Fraction(rng.randint(-4, 4))))
        yield RowModel(f"fuzz{trial}", sense, [("x", j) for j in range(nv)],
                       objective, constraints)


def _dual_and_literal_models():
    rng = random.Random(70)
    for n in (1, 2, 3):
        p = rand_rational_profile(n, rng)
        for cost in (CostFunction.average(n), CostFunction.threshold(n, 1)):
            yield dual_rows(p, cost)
            yield dual_rows(ball_profile(n, 1, rng), cost)
        matrices = [F2Matrix(n, ())] + [m for k in range(1, n + 1)
                                        for m in full_rank_matrices(n, k)][:6]
        yield literal_lp_model(p, CostFunction.average(n), matrices)


def without_float_stage(monkeypatch):
    """Exact solves skip the float stage, so the revised loop runs on
    Fractions from the phase-1 start, as the exact fallback does."""
    real = simplex._revised

    def exact_only(a, b, c, *rest):
        if c.dtype == object:
            return real(a, b, c, *rest)
        return simplex.ITERATION_LIMIT, None, None, None

    monkeypatch.setattr(simplex, "_revised", exact_only)


def assert_same_optimum(got, want, model):
    """The gate between the revised loop and the tableau where rounding may
    pick another optimal vertex: the same status; an exact optimum equal as
    a Fraction and certified, its multipliers giving the same value; a
    float optimum within 1e-9 of HiGHS."""
    assert got.status == want.status
    if got.status != "optimal":
        return
    if got.mode == "exact":
        assert same(got.objective, want.objective)
        assert got.strategy == "certified"
        assert sum(y * con.rhs for y, con in zip(got.duals, model.constraints)) == got.objective
    else:
        assert abs(got.objective - scipy_optimum(model)) <= 1e-9


class TestColumnFormMatchesDenseRows:
    """The revised loop on columns against the dense-row tableau it replaced.

    In exact arithmetic the two follow the same pivot path, so the loop the
    exact fallback runs matches the Fraction tableau bit for bit.  In
    binary64 they round differently, and on a degenerate program a solve
    may end on another optimal vertex; there `assert_same_optimum` holds.
    """

    @pytest.mark.parametrize("p, cost, mode", list(_oracle_cases()))
    def test_solve_pair(self, p, cost, mode):
        primal, dual, report = solve_pair(p, cost, mode)
        model = build_primal(p, cost)
        assert_same_optimum(report, dense_solve(model, mode), model)
        assert complementary_slackness(primal, dual, p, cost).certified
        assert sum(report.stats.phase_pivots) == report.pivots

    @pytest.mark.parametrize("p, cost, mode", [
        case for case in _oracle_cases(("exact",), max_n=3) if case.values[0].rational])
    def test_exact_loop_solve_pair(self, monkeypatch, p, cost, mode):
        without_float_stage(monkeypatch)
        primal, dual, report = solve_pair(p, cost, mode)
        want, mu, lam, b = dense_pair(p, cost, mode, float_stage=False)
        assert_same_report(report, want)
        assert same(primal.mu, mu) and same(primal.lam, lam)
        assert same(dual.b, b)
        assert report.strategy == "exact-pivots"

    def test_odd_profile_has_inexact_inverses(self):
        # odd2 pins the float stage's float(1 / w_i): 1 / float(w_i) differs there
        p = dict(_oracle_profiles())["odd2"]
        assert any(float(1 / w) != 1 / float(w) for w in p.weights)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_fuzz_models(self, mode):
        statuses = set()
        for model in _fuzz_models():
            got = solve_rows(model, mode)
            assert_same_optimum(got, dense_solve(model, mode), model)
            statuses.add(got.status)
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_exact_loop_fuzz_models(self, monkeypatch):
        without_float_stage(monkeypatch)
        for model in _fuzz_models():
            assert_same_report(solve_rows(model), dense_solve(model, float_stage=False))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_dual_and_literal_models(self, mode):
        for model in _dual_and_literal_models():
            assert_same_optimum(solve_rows(model, mode), dense_solve(model, mode), model)

    def test_exact_loop_dual_and_literal_models(self, monkeypatch):
        without_float_stage(monkeypatch)
        for model in _dual_and_literal_models():
            assert_same_report(solve_rows(model), dense_solve(model, float_stage=False))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_phased_n5_float(self, seed):
        rng = random.Random(f"phased5/{seed}")
        amps = [math.sqrt(rng.uniform(0.05, 1.0)) * complex(math.cos(t), math.sin(t))
                for t in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(32))]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        p = AmplitudeProfile.from_amplitudes(5, [a / norm for a in amps])
        for cost in (CostFunction.average(5), CostFunction.threshold(5, 2)):
            primal, dual, report = solve_pair(p, cost, "float")
            assert abs(report.objective - scipy_optimum(build_primal(p, cost))) <= 1e-9
            assert complementary_slackness(primal, dual, p, cost).certified


def beale_model():
    """Beale's example, which cycles under the steepest-coefficient rule."""
    return RowModel("beale", "min", [("x", j) for j in range(4)],
                   [Fraction(-3, 4), Fraction(150), Fraction(-1, 50), Fraction(6)], [
        Constraint({0: Fraction(1, 4), 1: Fraction(-60), 2: Fraction(-1, 25), 3: Fraction(9)},
                   "<=", Fraction(0)),
        Constraint({0: Fraction(1, 2), 1: Fraction(-90), 2: Fraction(-1, 50), 3: Fraction(3)},
                   "<=", Fraction(0)),
        Constraint({2: Fraction(1)}, "<=", Fraction(1)),
    ])


class TestSolveStats:
    @pytest.mark.parametrize("mode", ["exact", "float", "exact-loop"])
    def test_beale_counts_pinned(self, monkeypatch, mode):
        # the slacks start feasible, so phase 1 makes no pivot; STALL_LIMIT + 1
        # degenerate pivots in a row hand over to Bland's rule, which ends the cycle
        if mode == "exact-loop":
            without_float_stage(monkeypatch)
        report = solve_rows(beale_model(), mode.removesuffix("-loop"))
        assert report.stats == simplex.SolveStats([0, 36], degenerate=34, bland_at=31)
        assert report.pivots == 36 == dense_solve(beale_model(), float_stage=False).pivots
        assert float(report.objective) == pytest.approx(-1 / 20)

    @pytest.mark.parametrize("mode", ["exact", "float", "exact-loop"])
    def test_beale_from_artificials_never_stalls(self, monkeypatch, mode):
        # without basis_seed every row starts on an artificial, and the
        # steepest rule reaches the optimum before a run of degenerate pivots
        # can hand over: the slack basis is what brings Bland's rule into reach
        if mode == "exact-loop":
            without_float_stage(monkeypatch)
        report = solve_rows(beale_model(), mode.removesuffix("-loop"), seeded=False)
        assert report.stats == simplex.SolveStats([3, 2], degenerate=2)
        assert float(report.objective) == pytest.approx(-1 / 20)

    @pytest.mark.parametrize("mode", ["exact", "float", "exact-loop"])
    def test_drive_out_counts_in_phase_1(self, monkeypatch, mode):
        # min 3 x0 - x1, -x1 = 0: phase 1 ends at once with the artificial
        # basic at level 0, and x1 replaces it in phase 1's count
        if mode == "exact-loop":
            without_float_stage(monkeypatch)
        report = solve_rows(equality_model([[0, -1]], [Fraction(0)], [Fraction(3), Fraction(-1)]),
                            mode.removesuffix("-loop"))
        assert report.stats == simplex.SolveStats([1, 0])
        assert report.objective == 0

    @pytest.mark.parametrize("name", ["full5", "bernoulli5"])
    def test_float_reinversions(self, name):
        p = dict(_oracle_profiles())[name]
        _, _, report = solve_pair(p, CostFunction.average(5), "float")
        assert report.stats.reinversions == report.pivots // simplex.REINVERT_EVERY > 0
        assert sum(report.stats.phase_pivots) == report.pivots

    def test_fallback_adds_its_pivots(self, monkeypatch):
        # a rejected float basis: the exact loop's pivots add to the float stage's
        model = build_primal(rand_rational_profile(2, random.Random(5)), CostFunction.average(2))
        fast = solve(model)
        real = simplex._revised

        def bad_float_stage(a, b, c, unit_cols, art_rows, stats):
            result = real(a, b, c, unit_cols, art_rows, stats)
            return result if c.dtype == object else (simplex.OPTIMAL, list(unit_cols), None, None)

        monkeypatch.setattr(simplex, "_revised", bad_float_stage)
        slow = solve(model)
        assert slow.strategy == "exact-pivots" and slow.objective == fast.objective
        assert slow.stats.phase_pivots == [2 * v for v in fast.stats.phase_pivots]


def eager_lam(profile, values, objective):
    """PrimalSolution.from_lp_values's lambda as it was built eagerly, in
    the order of the LP values: one division per member of a nonzero level,
    one per coset for a zero level; then 1 on the bottom code at each
    zero-weight index."""
    lam = {}
    for (_, code, s), v in values.items():
        members = code.cosets.members_of(s)
        q = v or v / profile.weights[members[0]]
        for i in members:
            lam[(code, i)] = v / profile.weights[i] if v else q
    bottom = ParityCode.bottom(profile.n)
    for i in profile.zero_set:
        lam[(bottom, i)] = objective * 0 + 1
    return lam


def _lambda_profiles():
    for n in range(1, 5):
        rng = random.Random(f"lambda/{n}")
        yield f"full{n}", rand_rational_profile(n, rng)
        ball = ball_profile(n, n // 2, rng)
        yield f"ball{n}", ball
        yield f"bernoulli{n}", bernoulli_profile(n, 0.15)
        yield f"binary-ball{n}", AmplitudeProfile.from_weights(n, [float(w) for w in ball.weights])
    yield "ball5", ball_profile(5, 2, random.Random("lambda/5"))


class TestLazyLambda:
    """lambda is derived from mu on first read, as the eager loop built it."""

    def test_cases_hold_zero_levels_and_zero_sets(self):
        zero_levels = zero_sets = 0
        for _, p in _lambda_profiles():
            report = solve(build_primal(p, CostFunction.threshold(p.n, 1)), "exact")
            zero_levels += any(v == 0 for v in report.values.values())
            zero_sets += bool(p.zero_set)
        assert zero_levels >= 10 and zero_sets >= 6

    @pytest.mark.parametrize("p", [p for _, p in _lambda_profiles()],
                             ids=[name for name, _ in _lambda_profiles()])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_matches_eager_loop(self, p, mode):
        for cost in (CostFunction.average(p.n), CostFunction.threshold(p.n, 1)):
            report = solve(build_primal(p, cost), mode)
            sol = PrimalSolution.from_lp_values(p, report.values, report.objective)
            want = eager_lam(p, report.values, report.objective)
            assert same(sol.lam, want)
            assert sol.lam is sol.lam
            if p.zero_set:
                assert sol.mu_at(ParityCode.bottom(p.n), p.zero_set[0]) == 0

    @pytest.mark.parametrize("family", ["hamming", "cohamming", "spike"])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_candidate_points(self, family, n):
        from paritylp.bounds import primal_candidate

        p = rand_rational_profile(n, random.Random(f"lambda/candidate/{n}"))
        cand = primal_candidate(family, p)
        values = {("mu", code, code.syndrome(i)): v * p.weights[i]
                  for (code, i), v in cand.lam.items()}
        assert same(cand.to_solution(p).lam, eager_lam(p, values, cand.objective))

    @pytest.mark.parametrize("support", ["full", "ball"])
    @pytest.mark.parametrize("argv, reads", [
        (["solve"], False),
        (["solve", "--cost", "threshold", "--tau", "2"], False),
        (["verify", "--family", "hamming"], False),
        (["verify", "--family", "threshold-ball", "--d", "1", "--gamma", "2.5"], False),
        (["threshold", "--tau", "2"], False),
        (["simulate", "--x", "101", "--seed", "1", "--shots", "100"], True),
    ])
    def test_cli_jobs_build_lambda_only_when_read(self, tmp_path, capsys, monkeypatch,
                                                  argv, reads, support):
        rng = random.Random("lambda/cli")
        p = rand_rational_profile(3, rng) if support == "full" else ball_profile(3, 1, rng)
        self._run_counting_builds(tmp_path, capsys, monkeypatch, p, argv, reads)

    def test_candidate_slackness_builds_lambda(self, tmp_path, capsys, monkeypatch):
        # a nonnegative candidate goes through complementary_slackness
        p = profile(3, ["1/8"] * 8)
        self._run_counting_builds(tmp_path, capsys, monkeypatch, p,
                                  ["primal-candidate", "--family", "hamming"], True)

    @staticmethod
    def _run_counting_builds(tmp_path, capsys, monkeypatch, p, argv, reads):
        from paritylp.cli import main

        path = tmp_path / "p.json"
        path.write_text(json.dumps(p.to_json_dict()))
        builds = []
        real = PrimalSolution.lam

        def counted(self):
            if self._lam is None:
                builds.append(self)
            return real.fget(self)

        monkeypatch.setattr(PrimalSolution, "lam", property(counted))
        assert main([argv[0], "--profile", str(path), *argv[1:]]) == 0
        capsys.readouterr()
        assert bool(builds) is reads


def generic_dual_audit(sol, cost, tol=None):
    """check_dual_feasible as it was: every coset sum and slack in the
    arithmetic of b, all slacks kept."""
    if tol is None:
        rational = all(isinstance(v, Rational) for v in chain(sol.b.values(), cost.values))
        tol = 0 if rational else 1e-9
    violations, slacks, max_v, checked = [], {}, 0, 0
    b = [sol.b_at(i) for i in all_vectors(sol.n)]
    for i, v in enumerate(b):
        checked += 1
        if v < -tol:
            violations.append({"constraint": f"b[{vec_str(i, sol.n)}] >= 0",
                               "violation": float(-v)})
            max_v = max(max_v, -v)
    for code in enumerate_all_codes(sol.n):
        rhs = cost.value(code.k) * (1 << code.k)
        for s, members in enumerate(code.cosets.members):
            slack = sum(map(b.__getitem__, members)) - rhs
            slacks[(code, s)] = slack
            checked += 1
            if slack < -tol:
                violations.append({"constraint": f"coset sum {code.label()},s={s} >= {rhs}",
                                   "violation": float(-slack)})
                max_v = max(max_v, -slack)
    return not violations, violations, max_v, checked, slacks


def _audit_duals():
    from paritylp import bounds

    for n in range(1, 5):
        yield f"hamming{n}", bounds.dual_hamming(n)
        yield f"cohamming{n}", bounds.dual_cohamming(n)
        yield f"spike{n}", bounds.dual_spike(n)
        yield f"indicator{n}", bounds.dual_threshold_indicator(all_vectors(n), 1, n)
        yield f"affine{n}", bounds.dual_affine_image(
            bounds.dual_hamming(n), F2Matrix(n, tuple(reversed([1 << j for j in range(n)]))),
            (1 << n) - 1)
    yield "ball4", bounds.dual_threshold_ball(4, 1, 2.5)
    yield "ball5", bounds.dual_threshold_ball(5, 1, 3.0)
    yield "ball3-d0", bounds.dual_threshold_ball(3, 0, 3.0, tau=2)
    # every slack is minus a right-hand side: equal to -tol at tol = 2 or 8
    for n in (1, 2):
        yield f"zeros{n}", DualSolution(n, {})
    for trial in range(12):
        rng = random.Random(f"audit/{trial}")
        n = rng.randint(1, 4)
        # mostly covering values, a few short: some cosets violate
        b = {i: rng.choice([0, rng.randint(0, 9),
                            Fraction(rng.randint(-5, 40), rng.randint(1, 12))])
             for i in all_vectors(n)}
        yield f"random{trial}", DualSolution(n, b)
    yield "binary64", solve_dual(bernoulli_profile(3, 0.15), CostFunction.average(3), "float")[0]


def _audit_costs(n):
    yield CostFunction.average(n)
    for tau in range(1, n + 1) if n < 5 else (3,):
        yield CostFunction.threshold(n, tau)
    yield CostFunction.custom(n, [Fraction(k * k, 3) for k in range(n + 1)])


class TestIntegerDualAudit:
    """check_dual_feasible's integer coset sums decide as the generic sums do."""

    @pytest.mark.parametrize("sol", [s for _, s in _audit_duals()],
                             ids=[name for name, _ in _audit_duals()])
    @pytest.mark.parametrize("tol", [None, Fraction(1, 7), 0.05, 2], ids=str)
    def test_matches_generic_path(self, sol, tol):
        for cost in _audit_costs(sol.n):
            report = check_dual_feasible(sol, cost, tol)
            feasible, violations, max_v, checked, slacks = generic_dual_audit(sol, cost, tol)
            assert (report.feasible, report.violations, report.n_checked) == \
                (feasible, violations, checked)
            assert same(report.max_violation, max_v)
            assert same(report.slacks, slacks)

    def test_some_cases_violate(self):
        reports = [check_dual_feasible(sol, cost)
                   for _, sol in _audit_duals() for cost in _audit_costs(sol.n)]
        assert any(r.feasible for r in reports)
        assert sum(not r.feasible for r in reports) > 20

    def test_rational_slacks_summed_on_first_read(self, monkeypatch):
        from paritylp import lp

        calls = []
        real = lp._coset_slacks
        monkeypatch.setattr(lp, "_coset_slacks", lambda *a: calls.append(a) or real(*a))
        report = check_dual_feasible(dict(_audit_duals())["ball4"], CostFunction.threshold(4, 3))
        assert report.feasible and not calls
        assert report.slacks is report.slacks and len(calls) == 1
        check_dual_feasible(dict(_audit_duals())["binary64"], CostFunction.average(3))
        assert len(calls) == 2
