"""Model building, exact and float solving, feasibility and slackness audits."""

import functools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import chain, product
from numbers import Rational

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from conftest import (
    RowModel,
    ball_profile,
    full_rank_matrices,
    lam_of,
    literal_lp_model,
    powered_profile,
    priced,
    rand_rational_profile,
    without_float_stage,
)
from paritylp import simplex
from paritylp.errors import BudgetError, SolveError
from paritylp.f2lin import (
    F2Matrix,
    ParityCode,
    all_vectors,
    enumerate_all_codes,
    enumerate_codes,
    hamming_weight,
    rank,
    vec_str,
)
from paritylp.lp import (
    FLOAT_FEAS_TOL,
    Constraint,
    DualSolution,
    PrimalSolution,
    SolveReport,
    build_dual,
    build_primal,
    check_dual_feasible,
    check_primal_feasible,
    complementary_slackness,
    coset_slacks,
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


def scipy_optimum(model):
    """Independent check through HiGHS."""
    res = _scipy_raw(model)
    assert res.status == 0, res.message
    return -res.fun if model.sense == "max" else res.fun


def sparse_optimum(model):
    """HiGHS on a program of equality rows, handed a scipy.sparse matrix: the
    dense rows of `_scipy_raw` would take about 0.9 GB for the literal n = 5
    program."""
    cons = model.constraints
    assert all(con.rel == "=" for con in cons)
    rows = [r for r, con in enumerate(cons) for _ in con.coeffs]
    cols = [j for con in cons for j in con.coeffs]
    vals = [float(v) for con in cons for v in con.coeffs.values()]
    a_eq = scipy.sparse.csr_array((vals, (rows, cols)), shape=(len(cons), model.n_vars))
    c = np.array([float(v) for v in model.objective])
    res = scipy.optimize.linprog(-c if model.sense == "max" else c, A_eq=a_eq,
                                 b_eq=[float(con.rhs) for con in cons], bounds=(0, None),
                                 method="highs")
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
        for s in range(len(cos)):
            if all(i in support for i in cos[s].tolist()):
                var_index[(code, s)] = len(labels)
                labels.append((code, s))
                objective.append(cost.values[code.k] * (1 << code.k))
    constraints = []
    for i in profile.support:
        inv = 1 / profile.weights[i]
        coeffs = {}
        for code in codes:
            idx = var_index.get((code, code.G.mul_vec(i)))
            if idx is not None:
                coeffs[idx] = inv
        constraints.append(Constraint(coeffs, "=", 1))
    return RowModel("primal", "max", labels, objective, constraints)


def dual_rows(profile, cost):
    """The covering program build_dual writes, as a row model: one variable
    b_i per index, one lower bound per (code, syndrome)."""
    n = profile.n
    labels = [("b", i, n) for i in all_vectors(n)]
    constraints = []
    for code in enumerate_all_codes(n):
        cos = code.cosets
        rhs = cost.values[code.k] * (1 << code.k)
        for s in range(len(cos)):
            coeffs = {i: 1 for i in cos[s].tolist()}
            constraints.append(Constraint(coeffs, ">=", rhs))
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
        yield bernoulli_profile(n, 0.1), CostFunction(n, [0.5 * k for k in range(n + 1)])


class TestBuildPrimal:
    @pytest.mark.parametrize("p, cost", list(_reference_cases()))
    def test_matches_two_loop_construction(self, p, cost):
        got, want = build_primal(p), two_loop_primal(p, cost)
        assert (got.name, got.sense) == (want.name, want.sense)
        assert got.labels == want.labels
        assert priced(got, cost).objective == want.objective
        assert got.to_text(cost) == want.to_text()
        assert [(list(c.coeffs.items()), c.rel, c.rhs) for c in got.constraints] == \
            [(list(c.coeffs.items()), c.rel, c.rhs) for c in want.constraints]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_code_table(self, n):
        table = enumerate_all_codes(n)
        assert table is enumerate_all_codes(n)
        assert isinstance(table, tuple)
        assert list(table) == [code for k in range(n + 1) for code in enumerate_codes(n, k)]

    def test_n1_uniform_shape(self):
        m = build_primal(profile(1, ["1/2", "1/2"]))
        assert m.n_vars == 3
        assert len(m.constraints) == 2

    def test_n2_variable_count(self):
        # sum_k [2 choose k]_2 * 2^(2-k) = 4 + 6 + 1
        m = build_primal(profile(2, ["1/4"] * 4))
        assert m.n_vars == 11

    def test_point_mass_pins_mixed_cosets(self):
        m = build_primal(profile(2, ["1", "0", "0", "0"]))
        # only the bottom coset {0} survives the zero-weight pinning
        assert m.n_vars == 1
        assert len(m.constraints) == 1

    def test_budget(self):
        with pytest.raises(BudgetError):
            build_primal(profile(6, ["1/64"] * 64))

    def test_text_dump(self):
        m = build_primal(profile(1, ["1/2", "1/2"]))
        text = m.to_text(CostFunction.average(1))
        assert "mu[" in text and "= 1" in text


def loop_primal(profile, cost):
    """build_primal as a walk over each code's cosets: one list of rows per
    coset, kept when every member has a row."""
    row_of = {i: r for r, i in enumerate(profile.support)}
    labels, objective, flat, lens = [], [], [], []
    for code in enumerate_all_codes(profile.n):
        value = cost.values[code.k] * (1 << code.k)
        for s, members in enumerate(code.cosets.tolist()):
            rows = [row_of.get(i) for i in members]
            if None not in rows:
                flat += rows
                lens.append(len(rows))
                labels.append((code, s))
                objective.append(value)
    return (labels, objective, np.array(flat, dtype=np.intp),
            np.repeat(np.arange(len(lens)), lens),
            [profile.weights[i] for i in profile.support])


def _primal_cases():
    for n in range(6):
        rng = random.Random(f"primal-arrays/{n}")
        yield f"full{n}", rand_rational_profile(n, rng)
        yield f"zero-set{n}", rand_rational_profile(n, rng, max_num=3, full_support=False)
        if n:
            yield f"ball{n}", ball_profile(n, (n + 1) // 2, rng)
        yield f"binary64-{n}", bernoulli_profile(n, 0.2)


class TestPrimalFromCosetTable:
    @pytest.mark.parametrize("p", [p for _, p in _primal_cases()],
                             ids=[name for name, _ in _primal_cases()])
    def test_arrays_match_coset_walk(self, p):
        got = build_primal(p)
        for cost in (CostFunction.average(p.n), CostFunction(p.n, range(p.n, -1, -1))):
            labels, objective, rows, cols, w = loop_primal(p, cost)
            assert got.labels == labels and same(priced(got, cost).objective, objective)
            for name, want in (("rows", rows), ("cols", cols)):
                array = getattr(got.columns, name)
                assert array.dtype == want.dtype and np.array_equal(array, want), name
            assert same(got.columns.w, w)

    @pytest.mark.parametrize("n", [4, 5])
    def test_cold_solve_builds_no_coset_partition(self, monkeypatch, n):
        import paritylp.f2lin as f2lin

        p, cost = rand_rational_profile(n, random.Random(f"cold/{n}")), CostFunction.average(n)
        warm = solve_pair(p, cost)
        f2lin.enumerate_all_codes.cache_clear()
        f2lin.coset_table.cache_clear()
        calls = []
        original = f2lin.dual_cosets
        monkeypatch.setattr(f2lin, "dual_cosets", lambda code: calls.append(code) or original(code))
        primal, dual, report = solve_pair(p, cost)
        assert calls == []
        assert report.strategy == "certified"
        assert same(primal.mu, warm[0].mu) and same(dual.b, warm[1].b)


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

    def test_short_of_optimal_raises(self, monkeypatch):
        # a float solve has no exact loop to finish what its float stage
        # leaves at the iteration limit, so it raises rather than report
        without_float_stage(monkeypatch)
        p = rand_rational_profile(2, random.Random("short-of-optimal"))
        with pytest.raises(SolveError) as err:
            solve(build_primal(p), CostFunction.average(2), "float")
        assert str(err.value) == "primal solve ended with status iteration-limit"

    def test_point_mass_is_zero(self):
        p = profile(2, ["1", "0", "0", "0"])
        _, rep = solve_primal(p, CostFunction.average(2))
        assert rep.objective == 0
        _, drep = solve_dual(p, CostFunction.average(2))
        assert drep.objective == 0

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_primal_prices_no_dual(self, monkeypatch, mode):
        # solve_primal returns solve_pair's primal and report, and builds no
        # dual: none of its callers reads one
        p = ball_profile(4, 2, random.Random("primal-only"))
        cost = CostFunction.threshold(4, 2)
        want, _, want_report = solve_pair(p, cost, mode)

        def refused(*args):
            raise AssertionError("solve_primal priced a dual")

        monkeypatch.setattr(DualSolution, "__init__", refused)
        got, report = solve_primal(p, cost, mode)
        assert (got.n, got.mu, got.objective) == (want.n, want.mu, want.objective)
        assert (report.objective, report.values, report.duals) == \
            (want_report.objective, want_report.values, want_report.duals)

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
                m = build_primal(p)
                rep = solve(m, cost, mode="float")
                assert float(rep.objective) == pytest.approx(
                    scipy_optimum(priced(m, cost)), abs=1e-8
                )
                d = dual_rows(p, cost)
                drep = dense_solve(d, mode="float")
                assert float(drep.objective) == pytest.approx(
                    scipy_optimum(d), abs=1e-8
                )

    def test_random_small_models_against_scipy(self):
        # the dense oracle, which solves every program by rows, infeasible
        # ones included; simplex_min meets it on seeded models below
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
            report = dense_solve(model, mode="exact")
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

    @pytest.mark.parametrize("wrong", ["start", "suboptimal", "singular"])
    def test_exact_fallback_matches_certified(self, monkeypatch, wrong):
        """A float stage that hands back a bad basis cannot change the optimum.

        "start" is the loop's starting basis and "suboptimal" the bottom
        code's singleton cosets: the same basis, since the solve starts at
        the no-information measurement, feasible with objective 0.
        "singular" repeats column 0 on every row, so the integer loop starts
        from the unit columns.  All fail the exact check, and the exact pivots
        must land on the certified optimum.
        """

        def bad_float_stage(a, *_):
            m = len(a.w)
            bad = {"start": list(range(m)), "suboptimal": list(range(m)),
                   "singular": [0] * m}[wrong]
            return simplex.OPTIMAL, bad, None, None

        rng = random.Random(55)
        for n in (1, 2, 3):
            p = rand_rational_profile(n, rng)
            for cost in (CostFunction.average(n), CostFunction.threshold(n, 1)):
                model = build_primal(p)
                fast = solve(model, cost)
                assert fast.strategy == "certified"
                with monkeypatch.context() as m:
                    m.setattr(simplex, "_revised", bad_float_stage)
                    slow = solve(model, cost)
                assert slow.strategy == "exact-pivots"
                assert slow.objective == fast.objective

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dual_model_matches_read_off_dual(self, n):
        rng = random.Random(200 + n)
        for cost in (CostFunction.average(n), CostFunction.threshold(n, n)):
            for p in (rand_rational_profile(n, rng), ball_profile(n, n - 1, rng)):
                direct = dense_solve(dual_rows(p, cost))
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
            tripled = CostFunction(n, [3 * v for v in base.values])
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
                lit_rep = dense_solve(literal)
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
                lit_rep = dense_solve(literal)
                assert lit_rep.objective == rep.objective

    def test_monotone_in_cost(self):
        rng = random.Random(5)
        p = rand_rational_profile(2, rng)
        base = CostFunction(2, [0, 1, 1])
        bigger = CostFunction(2, [0, 1, 3])
        _, r1 = solve_primal(p, base)
        _, r2 = solve_primal(p, bigger)
        assert r2.objective >= r1.objective

    def test_exact_reproducible(self):
        p = profile(2, ["1/20", "3/20", "3/10", "1/2"])
        cost = CostFunction.average(2)
        first = solve(build_primal(p), cost)
        second = solve(build_primal(p), cost)
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
        (CostFunction(5, [0, 0.5, 1.25, 2.5, 3.75, 4.5]), Fraction(1813, 559)),
    ], ids=["average", "threshold2", "custom"])
    def test_n5_exact_pair(self, cost, optimum):
        p = rand_rational_profile(5, random.Random(505))
        primal, dual, report = solve_pair(p, cost)
        assert (report.mode, report.strategy) == ("exact", "certified")
        assert type(report.objective) is Fraction and report.objective == optimum
        assert float(report.objective) == pytest.approx(
            scipy_optimum(priced(build_primal(p), cost)), abs=1e-9)
        slack = complementary_slackness(primal, dual, p, cost)
        assert slack.certified
        assert slack.primal_objective - slack.dual_objective == 0
        assert dual.objective == report.objective

    @pytest.mark.parametrize("cost", [CostFunction.average(5), CostFunction.threshold(5, 2)],
                             ids=["average", "threshold2"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_n5_matches_literal_program(self, seed, cost):
        # the per-index program, one lambda per (code, index) with explicit
        # coset-constancy rows, against the certified coset-reduced optimum
        p = rand_rational_profile(5, random.Random(f"literal5/{seed}"))
        _, report = solve_primal(p, cost)
        assert (report.mode, report.strategy) == ("exact", "certified")
        literal = literal_lp_model(p, cost, [code.H for code in enumerate_all_codes(5)])
        assert (literal.n_vars, len(literal.constraints)) == (11968, 9549)
        assert sparse_optimum(literal) == pytest.approx(float(report.objective), abs=1e-9)

    def test_n4_ball_dual_read_off(self):
        p = ball_profile(4, 2, random.Random(404))
        assert p.zero_set
        for cost in (CostFunction.average(4), CostFunction.threshold(4, 2)):
            primal, dual, report = solve_pair(p, cost)
            assert check_dual_feasible(dual, cost).feasible
            assert dual.objective == report.objective
            assert complementary_slackness(primal, dual, p, cost).certified


def basis_flaws(model, basis):
    """The least level of a basis of the primal, and the least reduced cost
    of min -objective·x there, both exact."""
    rows = [[con.coeffs.get(j, 0) for j in basis] for con in model.constraints]
    levels = _dense_solve_exact(rows, [1] * len(rows))
    y = _dense_solve_exact([list(col) for col in zip(*rows)], [-model.objective[j] for j in basis])
    reduced = [-v - sum(con.coeffs.get(j, 0) * y_i for con, y_i in zip(model.constraints, y))
               for j, v in enumerate(model.objective)]
    return min(levels), min(reduced)


class TestSolverEdgeCases:
    # n = 1: columns 0 and 1 are the cosets {0} and {1} of the rank-0 code,
    # column 2 is {0, 1}; basis[r] is the column basic on row r
    @pytest.mark.parametrize("weights, values, bad_basis, flaws, optimum", [
        # {mu_{0,1}, mu_0} prices out under the average cost, but puts mu_0
        # at w_0 - w_1 = -1/2
        (["1/4", "3/4"], [0, 1], [2, 0], (Fraction(-1, 2), 0), Fraction(1, 2)),
        # {mu_{0,1}, mu_1} is feasible, and mu_0's reduced cost is exactly
        # -1/2, one unit over the common denominator 2 of c_B
        (["3/7", "4/7"], [Fraction(255, 2), Fraction(509, 4)], [2, 1],
         (Fraction(1, 7), Fraction(-1, 2)), Fraction(255, 2)),
        # {mu_{0,1}, mu_1} prices out, but puts mu_1 at w_1 - w_0 = -1/7,
        # one unit over the common denominator 7 of the weights
        (["4/7", "3/7"], [0, 1], [2, 1], (Fraction(-1, 7), 0), Fraction(6, 7)),
    ], ids=["negative-level", "reduced-cost-minus-1/D", "level-minus-1/D"])
    def test_certificate_rejects_bad_levels(self, monkeypatch, weights, values, bad_basis,
                                            flaws, optimum):
        # the certificate has no slack: whatever the float stage proposes,
        # a rejected basis is repaired by one exact pivot, a dual one for a
        # negative level and a primal one for a negative reduced cost
        model, cost = build_primal(profile(1, weights)), CostFunction(1, values)
        assert basis_flaws(priced(model, cost), bad_basis) == flaws
        assert solve(model, cost).objective == optimum
        monkeypatch.setattr(simplex, "_revised",
                            lambda *_: (simplex.OPTIMAL, list(bad_basis), None, None))
        report = solve(model, cost)
        assert (report.strategy, report.objective, report.pivots) == ("exact-pivots", optimum, 1)

    @pytest.mark.parametrize("cost3, status, objective", [
        (Fraction(-1, 4), "unbounded", None), (0, "optimal", Fraction(-1, 2))],
        ids=["restart", "dual"])
    def test_float_basis_repaired_or_restarted(self, monkeypatch, cost3, status, objective):
        # w = (1/2, 1), rows the float stage scales by 2 and 1; columns {0}, {1}, {0, 1}
        # and an empty column 3.  The proposed basis {0, 1} on row 0 and {0}
        # on row 1 puts mu_0 at w_0 - w_1 = -1/2.  With c_3 = -1/4 column 3's
        # reduced cost is negative too: the loop restarts from the unit
        # columns, {0, 1} enters (its score -1/√5 is below -1/4), then
        # column 3, on no row, is unbounded.  With c_3 = 0 one dual pivot
        # brings in {1}
        a = simplex.Columns(np.array([0, 1, 0, 1]), np.array([0, 1, 2, 2]),
                            [Fraction(1, 2), Fraction(1)], np.arange(4))
        c = np.array([Fraction(v) for v in (0, 0, -1, cost3)], dtype=object)
        monkeypatch.setattr(simplex, "_revised",
                            lambda *_: (simplex.OPTIMAL, [2, 0], None, None))
        result = simplex.simplex_min(a, c)
        assert (result.status, result.objective, result.strategy) == (status, objective, "exact-pivots")
        assert result.stats == simplex.SolveStats(1)

    def test_unbounded_hand_model(self):
        # column 0 is the start, column 1 is in no row and lowers the cost
        a = simplex.Columns(np.array([0]), np.array([0]), [1], np.arange(2))
        result = simplex.simplex_min(a, np.array([Fraction(0), Fraction(-1)], dtype=object))
        assert (result.status, result.strategy) == ("unbounded", "exact-pivots")

    def test_negative_rhs_row_flipped(self):
        # x >= -1 is vacuous for x >= 0; optimum sits at the other bound.
        # The second row has no seed, so the standard form's flip is checked
        # on the dense oracle
        model = RowModel("flip", "min", [("x",)], [Fraction(1)], [
            Constraint({0: Fraction(1)}, ">=", Fraction(-1)),
            Constraint({0: Fraction(1)}, ">=", Fraction(3)),
        ])
        report = dense_solve(model)
        assert report.status == "optimal" and report.objective == 3

    @pytest.mark.parametrize("mode", ["exact", "float", "exact-loop"])
    @pytest.mark.parametrize("cost0", [0, 1, -1], ids=["free", "costly", "unbounded"])
    def test_zero_column_next_to_an_entering_one(self, monkeypatch, mode, cost0):
        # x0 + x2 = 2 from the start x0 = 2: column 1 is in no row,
        # and x2's reduced cost is -1 there.  Column 1's norm is read as 1,
        # so its score is never 0 / 0, a NaN that argmin would pick and the
        # loop would read as "optimal" before x2 enters
        if mode == "exact-loop":
            without_float_stage(monkeypatch)
        a = simplex.Columns(np.array([0, 0]), np.array([0, 2]), [Fraction(2)], np.arange(3))
        c = np.array([Fraction(v) for v in (0, cost0, -1)],
                     dtype=float if mode == "float" else object)
        result = simplex.simplex_min(a, c)
        if cost0 < 0:
            assert result.status == "unbounded"
        else:
            assert (result.status, result.objective, result.x) == ("optimal", -2, {2: 2})

    def test_column_norms(self):
        # column 0 is on both rows, scaled by 3 and 4; column 1 is empty
        a = simplex.Columns(np.array([0, 1]), np.array([0, 0]), [Fraction(1, 3), Fraction(1, 4)],
                            np.arange(2))
        assert simplex.column_norms(a, np.array([3.0, 4.0]), 2).tolist() == [5.0, 1.0]


class TestFeasibilityChecks:
    def test_hamming_style_dual_feasible(self):
        from paritylp.f2lin import hamming_weight

        dual = DualSolution(2, tuple(2 * hamming_weight(i) for i in all_vectors(2)))
        report = check_dual_feasible(dual, CostFunction.average(2))
        assert report.feasible
        full_slacks = [
            s for (code, _), s in coset_slacks(dual, CostFunction.average(2)).items() if code.k == 2
        ]
        assert full_slacks == [0]

    def test_float_slacks_sum_members_in_order(self):
        # the coset sums run over the members in ascending order
        dual, _ = solve_dual(bernoulli_profile(4, 0.15), CostFunction.average(4), "float")
        cost = CostFunction.average(4)
        slacks = coset_slacks(dual, cost)
        want = {(code, s): sum(dual.b[i] for i in members) - cost.values[code.k] * (1 << code.k)
                for code in enumerate_all_codes(4)
                for s, members in enumerate(code.cosets.tolist())}
        assert [repr(v) for v in slacks.values()] == [repr(v) for v in want.values()]
        assert list(slacks) == list(want)

    def test_zero_dual_infeasible(self):
        b = (0,) * 4
        report = check_dual_feasible(DualSolution(2, b), CostFunction.average(2))
        assert not report.feasible
        assert report.max_violation == 8

    def test_bottom_only_primal_feasible(self):
        p = profile(2, ["1/4"] * 4)
        sol, _ = solve_primal(p, CostFunction(2, [0, 0, 0]))
        report = check_primal_feasible(sol, p)
        assert report.feasible

    def test_catches_broken_normalization(self):
        p = profile(1, ["1/2", "1/2"])
        sol, _ = solve_primal(p, CostFunction.average(1))
        broken = PrimalSolution(sol.n, {k: 2 * v for k, v in sol.mu.items()},
                                sol.objective)
        report = check_primal_feasible(broken, p)
        assert not report.feasible

    def test_catches_an_under_covered_index(self):
        # an exact optimum with mu halved covers every index by half:
        # sum_H lambda_i - 1 = -1/2, a violation of 1/2 at each, and the
        # pair no longer certifies
        p = rand_rational_profile(3, random.Random("under-cover"))
        cost = CostFunction.average(3)
        primal, dual, _ = solve_pair(p, cost)
        half = PrimalSolution(3, {key: v / 2 for key, v in primal.mu.items()},
                              primal.objective / 2)
        report = check_primal_feasible(half, p)
        assert p.support == tuple(range(8)) and not report.feasible
        assert report.violations == [{"constraint": f"sum_codes lambda[{vec_str(i, 3)}] = 1",
                                      "violation": 0.5} for i in p.support]
        assert report.max_violation == Fraction(1, 2)
        assert not complementary_slackness(half, dual, p, cost).certified


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

    def test_objective_gap_alone_refuses_a_float_pair(self):
        # b scaled by 1 + eps, eps = 0.9e-9 / max mu cost(k) 2^k, stays dual
        # feasible and moves each coset product mu (sum_C b - cost(k) 2^k) by
        # at most 0.9e-9, within FLOAT_FEAS_TOL, but moves the objective by
        # eps rho, several times it: the gap clause alone refuses the pair
        from test_cli import phased_profile

        cost = CostFunction.average(5)
        for seed in range(5):
            p = AmplitudeProfile.from_json_dict(phased_profile(5, random.Random(f"gap/{seed}")))
            primal, dual, _ = solve_pair(p, cost, "float")
            assert complementary_slackness(primal, dual, p, cost).certified
            eps = 0.9e-9 / max(cost.values[code.k] * (1 << code.k) * v
                               for (code, _), v in primal.mu.items())
            scaled = DualSolution(5, tuple(v * (1 + eps) for v in dual.b))
            report = complementary_slackness(primal, scaled, p, cost)
            assert report.primal_feasible and report.dual_feasible and not report.violations
            assert max(report.max_index_product, report.max_coset_product) <= FLOAT_FEAS_TOL
            assert abs(report.primal_objective - report.dual_objective) > 3 * FLOAT_FEAS_TOL
            assert not report.certified

    def test_suboptimal_pair_reports_nonzero_product(self):
        p = profile(2, ["1/20", "3/20", "3/10", "1/2"])
        cost = CostFunction.average(2)
        primal, _ = solve_primal(p, cost)
        # feasible but loose dual: constant 2^n * max C
        loose = DualSolution(2, (8,) * 4)
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
    """An optimal standard-form result as the model's SolveReport, in the
    model's own sense; any other result as it is, whose `status` its callers
    read."""
    if result.status != "optimal":
        return result
    mode, pivots = "exact" if exact else "float", result.stats.pivots
    values = {model.labels[j]: v for j, v in result.x.items() if j < model.n_vars}
    duals = [sense * f * y for f, y in zip(flips, result.y)]
    return SolveReport("optimal", sense * result.objective, values, mode,
                       pivots, 0.0, result.strategy, duals, result.stats)


def dense_solve(model, mode="exact", float_stage=True, seeds=None):
    """The standard form solved as lp.solve did on a dense tableau of Python
    rows, priced by the float stage's rule (the least d_j / ‖A_j‖ enters).
    It is the general two-phase oracle: a row without a seed starts on an
    artificial, so it solves any program by rows, which simplex_min does
    not, and gives an infeasible verdict.

    Each row is a list of len(c) entries, converted entry by entry to the
    solve's number type; the certificate checks c - Aᵀy with a Fraction loop
    over every row and column.  Every pivot rewrites the whole tableau.
    `seeds`, if given, replaces the slack seeds as the starting basis.
    Without the float stage, or when the certificate fails, an exact solve
    pivots on Fractions from that start by the same rule, the path the
    integer loop takes from the unit columns.
    """
    exact, rows, b, c, slack_seeds, flips, sense = standard_form(model, mode)
    return row_report(model, _dense_simplex_min(rows, b, c, seeds or slack_seeds, float_stage),
                      exact, flips, sense)


def _dense_simplex_min(a_rows, b, c, seeds, float_stage):
    unit_cols, art_rows = [], []
    for i, col in enumerate(seeds):
        if col is None:
            col = len(c) + len(art_rows)
            art_rows.append(i)
        unit_cols.append(col)
    exact = all(isinstance(v, Rational) for v in chain(b, c))
    stats = simplex.SolveStats()
    status, basis, t = (_dense_two_phase(a_rows, b, c, unit_cols, art_rows, False, stats)
                        if float_stage else ("skipped", None, None))
    strategy, solution = "float", None
    if exact:
        b = [Fraction(v) for v in b]
        c = [Fraction(v) for v in c]
        strategy = "certified"
        if status == "optimal":
            solution = _dense_certify(a_rows, b, c, basis, art_rows)
        if solution is None:
            status, basis, t = _dense_two_phase(a_rows, b, c, unit_cols, art_rows, True, stats)
            strategy = "exact-pivots"
    if status != "optimal":
        return simplex.StandardResult(status, None, None, strategy=strategy, stats=stats)
    nv = len(c)
    zero = c[0] * 0 if nv else 0
    if solution is None:
        cost = t[len(basis)].tolist()
        levels = t[:len(basis), -1].tolist()
        if strategy == "float":
            levels = [0.0 if -simplex.FLOAT_TOL <= v < 0 else v for v in levels]
        # Seeded column j holds a_ij on row i alone: its reduced cost is c_j - a_ij y_i.
        solution = (levels, [(c[j] - cost[j]) / a_rows[i][j] if j < nv else zero - cost[j]
                             for i, j in enumerate(unit_cols)])
    levels, y = solution
    x = [zero] * nv
    for col, v in zip(basis, levels):
        if col < nv:
            x[col] = v
    objective = sum((ci * xi for ci, xi in zip(c, x) if xi), zero)
    return simplex.StandardResult("optimal", objective, dict(enumerate(x)), y, strategy, stats)


def _dense_two_phase(a_rows, b, c, unit_cols, art_rows, exact, stats):
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
    for i, j in enumerate(unit_cols):
        if j < nv and t[i, j] != 1:
            # A seeded row starts on its column's multiple of e_i: divide it out.
            t[i] /= t[i, j]
    t[m, :nv] = [num(v) for v in c]
    basis = list(unit_cols)
    t[m] -= t[m, basis] @ t[:m]
    t[m + 1, nv:total] = num(1)
    t[m + 1] -= t[art_rows].sum(axis=0)
    # The pricing norms of the model's columns, before any row is divided out.
    norms = [math.sqrt(sum(float(row[j]) * float(row[j]) for row in a_rows)) or 1.0
             for j in range(nv)] + [1.0] * len(art_rows)
    if art_rows:
        status = _tableau_iterate(t, basis, m + 1, total, tol, limit, norms, stats)
        if status != "optimal":
            return status, basis, t
        if -t[m + 1, -1] > tol:
            return "infeasible", basis, t
        for i in range(m):
            if basis[i] >= nv:
                usable = np.flatnonzero(abs(t[i, :nv]) > tol)
                if usable.size:
                    _tableau_pivot(t, basis, i, int(usable[0]))
                    stats.pivots += 1
    return _tableau_iterate(t, basis, m, nv, tol, limit, norms, stats), basis, t


def _tableau_pivot(t, basis, r, j) -> None:
    # On the Fraction tableau only the pivot row's nonzeros take part.
    cols = np.flatnonzero(t[r]) if t.dtype == object else slice(None)
    t[r, cols] /= t[r, j]
    prow = t[r, cols]
    for i in np.flatnonzero(t[:, j]):
        if i != r:
            t[i, cols] -= t[i, j] * prow
    basis[r] = j


def _tableau_iterate(t, basis, obj, allowed, tol, limit, norms, stats) -> str:
    """Pivot on objective row `obj` over columns [0, allowed) until optimal,
    counting each pivot, and each degenerate one, into `stats`.

    Of the columns whose reduced cost is below -tol, the one with the least
    float(cost) / norm enters, the first of equal scores; after more than
    STALL_LIMIT degenerate pivots in a row the first of them enters (Bland's
    rule).  The pivot limit guards the float tableau against cycling by
    rounding; the exact tableau has none, since Bland's rule cannot cycle.
    """
    m = len(basis)
    basis_arr = np.array(basis)
    stall = 0
    bland = False
    while allowed:
        costs = t[obj, :allowed]
        eligible = [j for j in range(allowed) if costs[j] < -tol]
        if not eligible:
            break
        if bland:
            enter = eligible[0]
        else:
            scores = [float(costs[j]) / norms[j] for j in eligible]
            enter = eligible[scores.index(min(scores))]
        if stats.pivots >= limit:
            return "iteration-limit"
        column = t[:m, enter]
        rows = np.flatnonzero(column > tol)
        if not rows.size:
            return "unbounded"
        ratios = np.maximum(t[rows, -1], 0) / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + tol]
        leave = int(ties[np.argmin(basis_arr[ties])])
        stats.degenerate += bool(best <= tol)
        _tableau_pivot(t, basis, leave, enter)
        basis_arr[leave] = enter
        stats.pivots += 1
        if not bland:
            stall = stall + 1 if best <= tol else 0
            bland = stall > simplex.STALL_LIMIT
            if bland and stats.bland_at is None:
                stats.bland_at = stats.pivots
    return "optimal"


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
    """solve_pair on dense_solve: its report with the levels x != 0 as
    values, mu those levels, and lambda by one division per member."""
    model = priced(build_primal(profile), cost)
    report = dense_solve(model, mode, float_stage, seeds=list(range(len(profile.support))))
    mu = {key: v for key, v in report.values.items() if v}
    lam = {(code, i): v / profile.weights[i]
           for (code, s), v in mu.items() for i in code.cosets[s].tolist()}
    # The oracle's multipliers u are those of the rows divided by w_i; b_i = u_i / w_i.
    duals = [u * next(iter(con.coeffs.values())) for con, u in zip(model.constraints, report.duals)]
    b = dict(zip(profile.support, duals))
    if report.mode != "exact":
        b = {i: 0.0 if -1e-9 <= v < 0 else v for i, v in b.items()}
    cover = report.objective * 0 + max(cost.values[k] * (1 << k) for k in range(profile.n + 1))
    b.update(dict.fromkeys(profile.zero_set, cover))
    return (replace(report, values=mu, duals=duals), mu, lam,
            tuple(b[i] for i in all_vectors(profile.n)))


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
    for name in ("status", "objective", "values", "duals", "pivots", "strategy", "mode", "stats"):
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
        costs["custom"] = CostFunction(n, [0.5 * k * k for k in range(n + 1)])
        if n == 5:
            costs = {k: costs[k] for k in ("average", "tau2")}
        for cname, cost in costs.items():
            for mode in modes:
                yield pytest.param(p, cost, mode, id=f"{name}-{cname}-{mode}")


def _fuzz_models(seeded=False):
    """The random models of test_random_small_models_against_scipy; with
    `seeded`, each row's relation is instead the one whose slack starts the
    row (<= for a right-hand side >= 0, else >=), so no row needs phase 1."""
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
            rel, rhs = rng.choice(["=", ">=", "<="]), Fraction(rng.randint(-4, 4))
            if seeded:
                rel = "<=" if rhs >= 0 else ">="
            constraints.append(Constraint(coeffs, rel, rhs))
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


def assert_same_optimum(got, want, model, cost):
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
        assert sum(b * w for b, w in zip(got.duals, model.columns.w)) == got.objective
    else:
        assert abs(got.objective - scipy_optimum(priced(model, cost))) <= 1e-9


class TestColumnFormMatchesDenseRows:
    """The revised loop on columns against the dense-row tableau it replaced,
    on profiles; the tableau alone, against HiGHS, on general programs.

    In exact arithmetic the two follow the same pivot path, so the integer
    loop from the unit columns matches the Fraction tableau bit for bit.  In
    binary64 they round differently, and on a degenerate program a solve
    may end on another optimal vertex; there `assert_same_optimum` holds.
    """

    @pytest.mark.parametrize("p, cost, mode", list(_oracle_cases()))
    def test_solve_pair(self, p, cost, mode):
        primal, dual, report = solve_pair(p, cost, mode)
        model = build_primal(p)
        assert_same_optimum(report, dense_solve(priced(model, cost), mode), model, cost)
        assert complementary_slackness(primal, dual, p, cost).certified
        assert report.stats.pivots == report.pivots

    @pytest.mark.parametrize("p, cost, mode", [
        case for case in _oracle_cases(("exact",), max_n=3) if case.values[0].rational])
    def test_exact_loop_solve_pair(self, monkeypatch, p, cost, mode):
        without_float_stage(monkeypatch)
        primal, dual, report = solve_pair(p, cost, mode)
        want, mu, lam, b = dense_pair(p, cost, mode, float_stage=False)
        assert_same_report(report, want)
        assert same(primal.mu, mu) and same(lam_of(primal, p.weights), lam)
        assert same(dual.b, b)
        assert report.strategy == "exact-pivots"

    def test_odd_profile_has_inexact_inverses(self):
        # odd2 pins the float stage's float(1 / w_i): 1 / float(w_i) differs there
        p = dict(_oracle_profiles())["odd2"]
        assert any(float(1 / w) != 1 / float(w) for w in p.weights)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_fuzz_models(self, mode):
        # a slack start is feasible, so no verdict is "infeasible"
        statuses = set()
        for model in _fuzz_models(seeded=True):
            got, res = dense_solve(model, mode), _scipy_raw(model)
            assert res.status == {"optimal": 0, "unbounded": 3}[got.status]
            if got.status == "optimal":
                assert abs(float(got.objective) - scipy_optimum(model)) <= 1e-9
            statuses.add(got.status)
        assert statuses == {"optimal", "unbounded"}

    def test_exact_loop_fuzz_models(self):
        # the tableau's Fraction pivots from the slack start reach the
        # optimum of its float stage's basis, exactly
        for model in _fuzz_models(seeded=True):
            slow, fast = dense_solve(model, float_stage=False), dense_solve(model)
            assert (slow.status, slow.strategy) == (fast.status, "exact-pivots")
            assert same(slow.objective, fast.objective)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_dual_and_literal_models(self, mode):
        # programs with rows no column can seed, which the tests solve on the
        # dense oracle alone: it meets HiGHS, and certifies an exact optimum
        for model in _dual_and_literal_models():
            got = dense_solve(model, mode)
            assert got.status == "optimal"
            assert abs(float(got.objective) - scipy_optimum(model)) <= 1e-9
            if got.mode == "exact":
                assert got.strategy == "certified"
                assert sum(y * con.rhs for y, con in zip(got.duals, model.constraints)) \
                    == got.objective

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_phased_n5_float(self, seed):
        rng = random.Random(f"phased5/{seed}")
        amps = [math.sqrt(rng.uniform(0.05, 1.0)) * complex(math.cos(t), math.sin(t))
                for t in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(32))]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        p = AmplitudeProfile.from_amplitudes(5, [a / norm for a in amps])
        for cost in (CostFunction.average(5), CostFunction.threshold(5, 2)):
            primal, dual, report = solve_pair(p, cost, "float")
            assert abs(report.objective - scipy_optimum(priced(build_primal(p), cost))) <= 1e-9
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
    """Pivot counts: Beale's example pinned on the dense tableau oracle, and
    the revised loop against the oracle on a profile."""

    @pytest.mark.parametrize("mode", ["exact", "float", "exact-loop"])
    def test_beale_counts_pinned(self, mode):
        # the slacks start feasible; normalized pricing reaches the optimum in 5 pivots, 4 of them degenerate, where
        # the steepest-coefficient rule cycled until Bland's rule took over
        report = dense_solve(beale_model(), mode.removesuffix("-loop"),
                             float_stage=mode != "exact-loop")
        assert report.stats == simplex.SolveStats(5, degenerate=4)
        assert report.pivots == 5
        assert float(report.objective) == pytest.approx(-1 / 20)

    @pytest.mark.parametrize("mode", ["exact", "float", "exact-loop"])
    def test_bland_takes_over_after_the_stall_limit(self, monkeypatch, mode):
        # no input of the suite cycles under normalized pricing, so the limit
        # is lowered to 0: the 9th pivot, the first degenerate one, hands over
        # to Bland's rule, which takes 14 pivots where the rule alone takes 11,
        # to the same optimum; the dense tableau follows the same path
        p, cost = rand_rational_profile(3, random.Random("bland/3/0")), CostFunction.average(3)
        unlowered = solve_pair(p, cost)[2]
        assert unlowered.stats == simplex.SolveStats(11, degenerate=1)
        monkeypatch.setattr(simplex, "STALL_LIMIT", 0)
        if mode == "exact-loop":
            without_float_stage(monkeypatch)
        report = solve_pair(p, cost, mode.removesuffix("-loop"))[2]
        oracle = dense_pair(p, cost, mode.removesuffix("-loop"),
                            float_stage=mode != "exact-loop")[0]
        assert report.stats == oracle.stats == simplex.SolveStats(14, degenerate=2, bland_at=9)
        assert report.objective == oracle.objective
        assert float(report.objective) == pytest.approx(float(unlowered.objective), abs=1e-12)

    def test_float_pivot_budget(self):
        # 24 seeded n=5 profiles: the steepest-coefficient rule took 3,187
        # pivots under the average cost and 2,430 under tau = 2
        totals = [sum(solve_pair(rand_rational_profile(5, random.Random(s)), cost, "float")[2].pivots
                      for s in range(24))
                  for cost in (CostFunction.average(5), CostFunction.threshold(5, 2))]
        assert totals == [1893, 1188]
        assert totals[0] < 3187 and totals[1] < 2430

    @pytest.mark.parametrize("name", ["full5", "bernoulli5"])
    def test_float_reinversions(self, name):
        p = dict(_oracle_profiles())[name]
        _, _, report = solve_pair(p, CostFunction.average(5), "float")
        assert report.stats.reinversions == report.pivots // simplex.REINVERT_EVERY > 0
        assert report.stats.pivots == report.pivots

    def test_fallback_adds_its_pivots(self, monkeypatch):
        # a rejected float basis: the integer loop's pivots add to the float
        # stage's.  Handed the start, it takes the path it takes from there
        # when the float stage is skipped
        model = build_primal(rand_rational_profile(2, random.Random(5)))
        cost = CostFunction.average(2)
        fast = solve(model, cost)
        real = simplex._revised

        def bad_float_stage(a, *args):
            real(a, *args)
            return simplex.OPTIMAL, list(range(len(a.w))), None, None

        with monkeypatch.context() as m:
            m.setattr(simplex, "_revised", bad_float_stage)
            slow = solve(model, cost)
        without_float_stage(monkeypatch)
        loop = solve(model, cost)
        assert slow.strategy == loop.strategy == "exact-pivots"
        assert slow.objective == loop.objective == fast.objective
        assert slow.stats.pivots == fast.stats.pivots + loop.stats.pivots > fast.stats.pivots


def _start_cases():
    """The oracle's rational, ball-supported and binary64 profiles, and n = 0."""
    for name, p in [("r0", profile(0, ["1"])), *_oracle_profiles()]:
        # the integer loop from the unit columns runs on rational data:
        # full4 takes 20 pivots in 0.01 s, full5 84 in 0.11 s
        loop = ["exact-loop"] if p.rational else []
        for mode in ["exact", "float"] + loop:
            yield pytest.param(p, mode, id=f"{name}-{mode}")


class TestNoInformationStart:
    """`lp.solve` starts at the rank-0 code's singleton cosets, mu_i = w_i,
    which is feasible for every profile, so simplex_min needs no phase 1;
    the integer loop starts there when it has no float basis to repair."""

    @pytest.mark.parametrize("p, mode", list(_start_cases()))
    def test_phase_1_makes_no_pivot(self, monkeypatch, p, mode):
        if mode == "exact-loop":
            without_float_stage(monkeypatch)
        model = build_primal(p)
        bottom, m = ParityCode.bottom(p.n), len(p.support)
        assert model.labels[:m] == [(bottom, i) for i in p.support]
        # those columns are the unit vectors simplex_min starts from, and the
        # float stage runs once from there; the integer loop runs once after
        # it on exact data
        a = model.columns
        assert a.rows[a.cols < m].tolist() == a.cols[a.cols < m].tolist() == list(range(m))
        runs = []
        for stage in ("_revised", "_exact"):
            real = getattr(simplex, stage)
            monkeypatch.setattr(simplex, stage,
                                lambda *args, stage=stage, real=real: runs.append(stage) or real(*args))
        report = solve(model, CostFunction.average(p.n), mode.removesuffix("-loop"))
        assert report.status == "optimal"
        assert runs == (["_revised", "_exact"] if report.mode == "exact" else ["_revised"])
        if report.mode == "exact":
            assert report.strategy == ("exact-pivots" if mode == "exact-loop" else "certified")

    @pytest.mark.parametrize("order", [[2, 1, 0], [1, 0, 2]], ids=["two-rows", "other-row"])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_seed_off_its_row_refused(self, order, mode):
        # the n = 1 primal's columns {0}, {1} and {0, 1}, reordered so that
        # the first is {0, 1}, on two rows, or {1}, on the other row
        model = build_primal(profile(1, ["1/3", "2/3"]))
        a = model.columns
        members = [a.rows[a.cols == j] for j in order]
        cols = np.repeat(np.arange(len(order)), [len(rows) for rows in members])
        reordered = simplex.Columns(np.concatenate(members), cols, a.w, a.ranks[order])
        # the average cost, cost(k) 2^k for ranks 0 and 1
        c = -np.array([0, 2], dtype=object if mode == "exact" else float)
        with pytest.raises(ValueError, match="starting column"):
            simplex.simplex_min(reordered, c)

    def test_failed_integer_check_takes_the_exact_loop(self, monkeypatch):
        # _adjugate proposes d = |det M_B| rounded and nothing else: a
        # singular M_B gets no adj, a regular one its true adjugate
        ones, regular = np.ones((2, 2), dtype=np.int64), np.array([[1, 1], [1, 0]])
        assert simplex._adjugate(ones) == (None, 0)
        adj, d = simplex._adjugate(regular)
        assert (adj.tolist(), d) == ([[0, 1], [1, -1]], 1)
        # when the proposal fails the integer check, _adjugate gives None,
        # and the integer loop from the unit columns reaches the certified
        # optimum
        model = build_primal(rand_rational_profile(3, random.Random("adjugate")))
        cost = CostFunction.average(3)
        fast = solve(model, cost)
        proposals = []
        monkeypatch.setattr(simplex, "_adjugate", lambda m_b: proposals.append(m_b) or (None, 0))
        slow = solve(model, cost)
        assert len(proposals) == 1
        assert (fast.strategy, slow.strategy) == ("certified", "exact-pivots")
        assert same(slow.objective, fast.objective) and same(slow.duals, fast.duals)

    def test_tiny_weight_profile_takes_the_exact_loop(self, monkeypatch):
        # the first index of powered_profile with a weight below 1e-9 whose
        # float basis fails the exact check
        p = powered_profile(1)
        assert min(p.weights) < 1e-9
        model, cost = build_primal(p), CostFunction.average(4)
        fast, report = solve(model, cost, "float"), solve(model, cost)
        # the float basis is rejected on a negative level, and one dual
        # pivot repairs it; the integer loop from the unit columns, a
        # path of primal pivots, meets the same optimum
        assert report.strategy == "exact-pivots"
        assert (fast.pivots, report.pivots - fast.pivots) == (16, 1)
        assert report.stats.pivots == report.pivots
        assert abs(report.objective - scipy_optimum(priced(model, cost))) <= 1e-9
        without_float_stage(monkeypatch)
        assert solve(model, cost).objective == report.objective

    @pytest.mark.parametrize("n, index, seed, pivots", [
        (4, 59, 2, (15, 9)), (5, 13, 5, (33, 15))], ids=["n4", "n5"])
    def test_tiny_weight_repair_pivots(self, n, index, seed, pivots):
        # the longest repairs under the average cost on the seeded sets: 9
        # dual pivots on one of the 200 n=4 profiles, 15 on one of the 60 n=5 ones
        p = powered_profile(index, n, seed)
        cost = CostFunction.average(n)
        model = build_primal(p)
        fast, report = solve(model, cost, "float"), solve(model, cost)
        assert report.strategy == "exact-pivots"
        assert (fast.pivots, report.pivots - fast.pivots) == pivots
        # dual pivots follow Bland's rule from the first, with no stall to hand over
        assert report.stats.bland_at is None
        assert abs(report.objective - scipy_optimum(priced(model, cost))) <= 1e-9
        primal, dual, _ = solve_pair(p, cost)
        slack = complementary_slackness(primal, dual, p, cost)
        assert slack.certified and slack.primal_objective - slack.dual_objective == 0

    def test_inexact_division_restarts(self, monkeypatch):
        # adj / d with d a proper divisor of det M_B passes M_B adj = d I too,
        # but the fraction-free update divides exactly only for the true
        # adjugate.  With every common factor divided out, the first update
        # of this repair leaves a remainder, and the loop restarts from the
        # unit columns: 17 primal pivots where 4 dual ones repair the basis
        model, cost = build_primal(powered_profile(127)), CostFunction.average(4)
        fast, want = solve(model, cost, "float"), solve(model, cost)
        real = simplex._adjugate

        def reduced(m_b):
            adj, d = real(m_b)
            g = math.gcd(d, *adj.ravel().tolist())
            return adj // g, d // g

        monkeypatch.setattr(simplex, "_adjugate", reduced)
        got = solve(model, cost)
        assert (want.strategy, want.pivots - fast.pivots) == ("exact-pivots", 4)
        assert (got.strategy, got.pivots - fast.pivots) == ("exact-pivots", 17)
        assert got.objective == want.objective


def _cost_scale_cases():
    """Seeded n = 3..5 profiles, rational and binary64, under the average
    cost and tau = 2, in each mode that runs on them."""
    for n in (3, 4, 5):
        rational = rand_rational_profile(n, random.Random(f"cost-scale/{n}"))
        binary64 = profile(n, [float(w) for w in rational.weights])
        for name, p in ((f"rational{n}", rational), (f"binary64-{n}", binary64)):
            for cname, cost in (("average", CostFunction.average(n)),
                                ("tau2", CostFunction.threshold(n, 2))):
                for mode in ("exact", "float") if p.rational else ("float",):
                    yield pytest.param(p, cost, mode, id=f"{name}-{cname}-{mode}")


class TestCostScale:
    """Both stages price c / 2^s with max |c| in [128, 256), so the float
    tolerance reads costs of any scale alike."""

    @staticmethod
    def solve_scaled(p, cost, factor, mode):
        return solve(build_primal(p), CostFunction(p.n, [v * factor for v in cost.values]), mode)

    @pytest.mark.parametrize("p, cost, mode", list(_cost_scale_cases()))
    def test_powers_of_two_keep_the_pivots(self, p, cost, mode):
        # the float stage sees the same costs bit for bit, and rho, summed
        # from the caller's costs, scales exactly
        base = solve(build_primal(p), cost, mode)
        for factor in (Fraction(1, 2 ** 40), Fraction(2 ** 40)):
            got = self.solve_scaled(p, cost, factor, mode)
            assert (got.status, got.pivots, got.strategy) == ("optimal", base.pivots, base.strategy)
            assert type(got.objective) is type(base.objective)
            assert got.objective == base.objective * factor

    @pytest.mark.parametrize("p, cost, mode", list(_cost_scale_cases()))
    def test_powers_of_ten_keep_the_optimum(self, p, cost, mode):
        base = solve(build_primal(p), cost, mode)
        for k in (-12, -6, 3, 6):
            factor = Fraction(10) ** k
            got = self.solve_scaled(p, cost, factor, mode)
            assert got.status == "optimal"
            if got.mode == "exact":
                assert got.strategy == "certified"
                assert got.objective == base.objective * factor
            else:
                assert math.isclose(got.objective, base.objective * float(factor), rel_tol=1e-12)


def _fractional_cost_cases(ns=(3, 4, 5)):
    """A seeded rational profile for each n, under costs k/3 and under a
    list of decimals."""
    decimals = ["0", "0.5", "1.25", "2", "3.5", "4.75"]
    for n in ns:
        p = rand_rational_profile(n, random.Random(f"fractional/{n}"))
        yield pytest.param(p, CostFunction(n, [Fraction(k, 3) for k in range(n + 1)]),
                           id=f"thirds{n}")
        yield pytest.param(p, CostFunction(n, [Fraction(v) for v in decimals[:n + 1]]),
                           id=f"decimals{n}")


class TestFractionalCosts:
    """Costs off the integers: the integer loop reads them as integer
    numerators over one common denominator."""

    @pytest.mark.parametrize("p, cost", list(_fractional_cost_cases()))
    def test_certified_optimum_matches_highs(self, p, cost):
        primal, dual, report = solve_pair(p, cost)
        assert report.strategy == "certified"
        assert abs(report.objective - scipy_optimum(priced(build_primal(p), cost))) <= 1e-9
        slack = complementary_slackness(primal, dual, p, cost)
        assert slack.certified and slack.primal_objective == slack.dual_objective
        if cost.values[1] == Fraction(1, 3):
            # k/3 is the average cost over 3, and so is its optimum, exactly
            assert report.objective * 3 == solve_pair(p, CostFunction.average(p.n))[2].objective

    @pytest.mark.parametrize("p, cost", list(_fractional_cost_cases((3, 4))))
    def test_integer_loop_matches_dense_oracle(self, monkeypatch, p, cost):
        # the Fraction tableau from the unit columns follows the same path
        # (at n = 5 it takes 15-20 s a cost, so the suite stops at n = 4)
        without_float_stage(monkeypatch)
        primal, dual, report = solve_pair(p, cost)
        want, mu, lam, b = dense_pair(p, cost, "exact", float_stage=False)
        assert report.strategy == "exact-pivots"
        assert_same_report(report, want)
        assert same(primal.mu, mu) and same(dual.b, b)

    @pytest.mark.parametrize("p, cost", list(_fractional_cost_cases()))
    def test_certificate_compares_no_fractions(self, monkeypatch, p, cost):
        # every comparison of the certificate is on integers: no
        # Fraction.__lt__ runs while _exact does
        inside, seen = [], []
        real_exact, real_lt = simplex._exact, Fraction.__lt__

        def exact(*args):
            inside.append(True)
            try:
                return real_exact(*args)
            finally:
                inside.pop()

        def lt(x, y):
            seen.extend(inside)
            return real_lt(x, y)

        monkeypatch.setattr(simplex, "_exact", exact)
        monkeypatch.setattr(Fraction, "__lt__", lt)
        report = solve(build_primal(p), cost)
        assert report.strategy == "certified" and not seen


class TestCostPerRank:
    """A model is the profile's alone, and a cost reaches the solver as its
    n + 1 values cost(k) 2^k, expanded to the columns by rank."""

    def test_scale_counts_only_ranks_with_a_column(self):
        # no rank-3 coset lies inside the support, so cost(3) 2^3 = 8e300 is
        # on no column: it must set neither the float stage's scale, which
        # would read every other cost as 0, nor the integer loop's denominator
        p = profile(3, ["1/4", "1/8", "1/8", "1/4", "1/4", "0", "0", "0"])
        cost = CostFunction(3, (0, 1, 1, 10 ** 300))
        assert 3 not in build_primal(p).columns.ranks.tolist()
        for mode, rho in (("exact", Fraction(1)), ("float", 1.0)):
            primal, dual, report = solve_pair(p, cost, mode)
            assert (type(report.objective), report.objective) == (type(rho), rho)
            assert (report.mode, report.pivots) == (mode, 5)
            assert report.strategy == ("certified" if mode == "exact" else "float")
            assert complementary_slackness(primal, dual, p, cost).certified

    def test_no_fraction_work_per_column(self, monkeypatch):
        # the n = 5 primal has 2451 columns: a solve under costs k/3 negates
        # its n + 1 costs, the 32 multipliers and the optimum, and floats the
        # costs and the 32 weights, but no cost per column.  Fraction has no
        # __float__ of its own
        p = rand_rational_profile(5, random.Random("spy"))
        model, cost = build_primal(p), CostFunction(5, [Fraction(k, 3) for k in range(6)])
        assert model.n_vars == 2451 and "__float__" not in vars(Fraction)
        calls = {"__neg__": 0, "__float__": 0}

        def counted(name, real):
            def call(x):
                calls[name] += 1
                return real(x)
            return call

        for owner, name in ((Fraction, "__neg__"), (Rational, "__float__")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        report = solve(model, cost)
        monkeypatch.undo()
        assert report.strategy == "certified"
        assert 0 < calls["__neg__"] < 64 and 0 < calls["__float__"] < 64, calls

    def test_one_model_for_every_cost(self):
        # solving one model under several costs gives each cost's own solve_pair
        p = rand_rational_profile(3, random.Random("one-model"))
        model = build_primal(p)
        for cost in (CostFunction.average(3), CostFunction.threshold(3, 2),
                     CostFunction(3, [Fraction(k, 3) for k in range(4)])):
            for mode in ("exact", "float"):
                _, _, want = solve_pair(p, cost, mode)
                got = solve(model, cost, mode)
                assert same(got.objective, want.objective) and same(got.duals, want.duals)
                assert (got.values, got.pivots, got.strategy) == (want.values, want.pivots,
                                                                  want.strategy)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("cost_n", [2, 4])
    def test_cost_for_another_n_refused(self, cost_n, mode):
        # a cost with too few ranks failed in numpy's broadcast, and one with
        # too many solved with its extra ranks ignored
        model = build_primal(rand_rational_profile(3, random.Random("other-n")))
        assert model.n == 3
        with pytest.raises(SolveError, match=f"cost for n={cost_n} given to a model for n=3"):
            solve(model, CostFunction.average(cost_n), mode)


class TestUnscaledRows:
    """`simplex_min` solves M x = w as the paper writes it, sum mu = w_i:
    its multipliers are those rows' own, b itself on a profile's primal,
    and only the float stage scales the rows by 1 / w_i."""

    def test_hand_model_multipliers_are_b(self):
        # the n = 1 primal for w = (1/4, 3/4) under the average cost, as
        # min -2 mu_{0,1}: mu_{0,1} = 1/4 on row 0 and mu_1 = 1/2 on row 1.
        # Its multipliers solve y_0 + y_1 = -2 and y_1 = 0, so b = -y = (2, 0)
        # covers the coset {0, 1}, and sum y_i w_i is the optimum, exactly
        w = [Fraction(1, 4), Fraction(3, 4)]
        a = simplex.Columns(np.array([0, 1, 0, 1]), np.array([0, 1, 2, 2]), w, np.arange(3))
        c = np.array([Fraction(0), Fraction(0), Fraction(-2)], dtype=object)
        result = simplex.simplex_min(a, c)
        assert (result.strategy, result.x) == ("certified", {1: Fraction(1, 2), 2: Fraction(1, 4)})
        assert same(result.y, [Fraction(-2), Fraction(0)])
        assert sum(y * v for y, v in zip(result.y, w)) == result.objective == Fraction(-1, 2)

    def test_three_row_hand_model(self):
        # rows w = (1/2, 1/3, 1/6) and the columns {0, 1}, {1, 2} and
        # {0, 1, 2} beside the units, at costs -1, -1 and -2.  Row 1 bounds
        # the three by 1/3 and row 2 bounds {0, 1, 2} by 1/6, so the optimum
        # is -1/2, at mu_0 = mu_{0,1} = mu_{0,1,2} = 1/6, where y = (0, -1, -1)
        w = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        a = simplex.Columns(np.array([0, 1, 2, 0, 1, 1, 2, 0, 1, 2]),
                            np.array([0, 1, 2, 3, 3, 4, 4, 5, 5, 5]), w, np.arange(6))
        c = np.array([Fraction(v) for v in (0, 0, 0, -1, -1, -2)], dtype=object)
        result = simplex.simplex_min(a, c)
        assert (result.strategy, result.objective) == ("certified", Fraction(-1, 2))
        assert result.x == dict.fromkeys([0, 3, 5], Fraction(1, 6))
        assert same(result.y, [Fraction(0), Fraction(-1), Fraction(-1)])
        assert sum(y * v for y, v in zip(result.y, w)) == result.objective
        reduced = [c[j] - sum(result.y[r] for r in a.rows[a.cols == j].tolist())
                   for j in range(len(c))]
        assert min(reduced) == 0 and all(reduced[j] == 0 for j in result.x)

    @pytest.mark.parametrize("p, cost, mode", list(_oracle_cases(max_n=4)))
    def test_multipliers_are_b_on_the_support(self, p, cost, mode):
        # exact: -y is b on the support, and sum y_i w_i is the optimum with
        # no gap; float: the same up to the clamp of rounding residue
        model = build_primal(p)
        exact = mode == "exact" and p.rational
        values = [v * (1 << k) for k, v in enumerate(cost.values)]
        result = simplex.simplex_min(model.columns, -np.array(
            values, dtype=object if exact else float))
        _, dual, report = solve_pair(p, cost, mode)
        assert same([-y for y in result.y], report.duals)
        b = [dual.b[i] for i in p.support]
        if exact:
            assert same(b, report.duals)
            assert sum(y * v for y, v in zip(result.y, model.columns.w)) == result.objective
        else:
            assert b == [0.0 if -1e-9 <= u < 0 else u for u in report.duals]
            assert math.fsum(y * v for y, v in zip(result.y, model.columns.w)) == pytest.approx(
                float(result.objective), abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_no_fraction_division(self, monkeypatch, n):
        # no weight is inverted to build the primal, and the certificate
        # reads w as integers over one denominator: no Fraction division
        # runs in build_primal, nor in _exact on a certified solve
        p = rand_rational_profile(n, random.Random(f"no-division/{n}"))
        cost = CostFunction.average(n)
        calls = []
        for name in ("__truediv__", "__rtruediv__"):
            real = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name,
                                lambda x, y, name=name, real=real: calls.append(name) or real(x, y))
        assert (Fraction(1, 3) / 2, 2 / Fraction(1, 3)) == (Fraction(1, 6), 6)
        assert calls == ["__truediv__", "__rtruediv__"]
        calls.clear()
        model = build_primal(p)
        assert calls == []
        real_exact, in_exact = simplex._exact, []

        def exact(*args):
            start = len(calls)
            try:
                return real_exact(*args)
            finally:
                in_exact.append(calls[start:])

        monkeypatch.setattr(simplex, "_exact", exact)
        report = solve(model, cost)
        assert report.strategy == "certified" and in_exact == [[]]


def loop_column_sums(a, nv, y):
    """simplex._column_sums as a walk: sum_r y_r M[r, j] on Python ints,
    column by column."""
    sums = [0] * nv
    for r, j in zip(a.rows.tolist(), a.cols.tolist()):
        sums[j] += y[r]
    return sums


class TestCertificateColumnSums:
    """The integer loop's column sums (Mᵀy)_j, int64 and object paths."""

    def test_large_multipliers_take_the_object_path(self, monkeypatch):
        # a cost with denominator 3^41 puts the certificate's integer
        # multipliers past 2^62: the column sums are taken on Python ints
        seen, real = [], simplex._column_sums

        def sums(a, nv, y):
            seen.append(simplex._int64_safe(1, y))
            return real(a, nv, y)

        monkeypatch.setattr(simplex, "_column_sums", sums)
        p = rand_rational_profile(2, random.Random("object-path"))
        cost = CostFunction(2, [0, 1, 2 + Fraction(1, 3 ** 41)])
        primal, dual, report = solve_pair(p, cost)
        assert seen == [False] and report.strategy == "certified"
        assert complementary_slackness(primal, dual, p, cost).certified

    @pytest.mark.parametrize("scale", [1, 2 ** 40, 3 ** 40, 2 ** 70])
    def test_matches_column_walk(self, scale):
        # the primal's incidence, and a hand one with empty columns, under
        # multipliers up to 2^70: sums past int64 go to Python ints
        rng = random.Random(f"prices/{scale}")
        primal = build_primal(rand_rational_profile(3, rng))
        # columns 1 and 3 have no nonzero
        gaps = simplex.Columns(np.array([0, 1, 0]), np.array([0, 0, 2]), [1, 1], np.arange(4))
        for columns, nv in ((primal.columns, primal.n_vars), (gaps, 4)):
            m = len(columns.w)
            for trial in range(12):
                # every third y is uniformly very negative
                y = [-64 * scale] * m if trial % 3 == 0 else \
                    [rng.randint(-scale, scale) for _ in range(m)]
                got = simplex._column_sums(columns, nv, y)
                assert got.tolist() == loop_column_sums(columns, nv, y)
                assert got.dtype == (object if scale > 2 ** 50 else np.int64)


def eager_lam(profile, values):
    """lambda as it was built eagerly from a solve's values, in their
    order: one division per member of a nonzero level, one per coset for a
    zero level."""
    lam = {}
    for (code, s), v in values.items():
        members = code.cosets[s].tolist()
        q = v or v / profile.weights[members[0]]
        for i in members:
            lam[(code, i)] = v / profile.weights[i] if v else q
    return lam


def dense_values(model, report):
    """A solve's values with a zero level on every other column of its
    model, as `values` held them before they kept only x != 0."""
    zero = report.objective * 0
    return {label: report.values.get(label, zero) for label in model.labels}


def _lambda_profiles():
    for n in range(1, 5):
        rng = random.Random(f"lambda/{n}")
        yield f"full{n}", rand_rational_profile(n, rng)
        ball = ball_profile(n, n // 2, rng)
        yield f"ball{n}", ball
        yield f"bernoulli{n}", bernoulli_profile(n, 0.15)
        yield f"binary-ball{n}", AmplitudeProfile.from_weights(n, [float(w) for w in ball.weights])
    yield "ball5", ball_profile(5, 2, random.Random("lambda/5"))


class TestSparseMu:
    """A solve keeps only the columns with x != 0, at most one per row, in
    the model's column order, and mu is those values."""

    @pytest.mark.parametrize("p", [p for _, p in _lambda_profiles()],
                             ids=[name for name, _ in _lambda_profiles()])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_no_zero_entries(self, p, mode):
        for cost in (CostFunction.average(p.n), CostFunction.threshold(p.n, 1)):
            model = build_primal(p)
            report = solve(model, cost, mode)
            assert report.values and all(report.values.values())
            assert len(report.values) <= len(p.support)
            assert list(report.values) == [key for key in model.labels if key in report.values]
            primal, _, pair_report = solve_pair(p, cost, mode)
            assert same(primal.mu, pair_report.values) and same(pair_report.values, report.values)


class TestLazyLambda:
    """lambda = mu / w_i is derived from mu and the profile, in the tests
    alone (`lam_of`), as the eager loop built it; no job's report lists it."""

    def test_cases_hold_zero_levels_and_zero_sets(self):
        zero_levels = zero_sets = 0
        for _, p in _lambda_profiles():
            model = build_primal(p)
            report = solve(model, CostFunction.threshold(p.n, 1), "exact")
            zero_levels += any(v == 0 for v in dense_values(model, report).values())
            zero_sets += bool(p.zero_set)
        assert zero_levels >= 10 and zero_sets >= 6

    @pytest.mark.parametrize("p", [p for _, p in _lambda_profiles()],
                             ids=[name for name, _ in _lambda_profiles()])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_matches_eager_loop(self, p, mode):
        for cost in (CostFunction.average(p.n), CostFunction.threshold(p.n, 1)):
            model = build_primal(p)
            report = solve(model, cost, mode)
            for values in (report.values, dense_values(model, report)):
                sol = PrimalSolution(p.n, values, report.objective)
                assert same(lam_of(sol, p.weights), eager_lam(p, values))
                if p.zero_set:
                    assert sol.mu.get((ParityCode.bottom(p.n), p.zero_set[0]), 0) == 0

    @pytest.mark.parametrize("family", ["hamming", "cohamming", "spike"])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_candidate_points(self, family, n):
        from paritylp.bounds import primal_candidate

        p = rand_rational_profile(n, random.Random(f"lambda/candidate/{n}"))
        cand = primal_candidate(family, p)
        values = {(code, code.G.mul_vec(i)): v * p.weights[i]
                  for (code, i), v in lam_of(cand, p.weights).items()}
        assert same(lam_of(cand.to_solution(p), p.weights), eager_lam(p, values))

    @pytest.mark.parametrize("support", ["full", "ball"])
    @pytest.mark.parametrize("argv, reads", [
        (["solve"], False),
        (["solve", "--cost", "threshold", "--tau", "2"], False),
        (["verify", "--family", "hamming"], False),
        (["verify", "--family", "threshold-ball", "--d", "1", "--gamma", "2.5"], False),
        (["threshold", "--tau", "2"], False),
    ])
    def test_cli_jobs_build_lambda_only_when_read(self, tmp_path, capsys, argv, reads, support):
        rng = random.Random("lambda/cli")
        p = rand_rational_profile(3, rng) if support == "full" else ball_profile(3, 1, rng)
        self._run_listing_lambda(tmp_path, capsys, p, argv, reads)

    @pytest.mark.parametrize("argv, support", [
        (["simulate", "--x", "101", "--seed", "1", "--shots", "100"], "full"),
        (["simulate", "--x", "101", "--seed", "1", "--shots", "100"], "ball"),
        (["simulate", "--x", "011", "--seed", "2", "--shots", "100", "--mode", "float"], "full"),
        (["povm", "--assume-real-amplitudes"], "full"),
        (["povm", "--assume-real-amplitudes", "--mode", "float"], "full"),
    ], ids=["simulate-full", "simulate-ball", "simulate-float", "povm", "povm-float"])
    def test_measurement_jobs_never_build_lambda(self, tmp_path, capsys, argv, support):
        # the sampler, the outcome law, the state-vector oracle and the
        # operators read the cosets of mu alone, and report no lambda
        rng = random.Random("lambda/cli")
        p = rand_rational_profile(3, rng) if support == "full" else ball_profile(3, 1, rng)
        self._run_listing_lambda(tmp_path, capsys, p, argv, False)

    @staticmethod
    def _run_listing_lambda(tmp_path, capsys, p, argv, reads):
        """Run the job; its report has a "lambda" key somewhere exactly when
        `reads` is set, and a `PrimalSolution` holds no lambda to build."""
        from paritylp.cli import main

        path = tmp_path / "p.json"
        path.write_text(json.dumps(p.to_json_dict()))
        assert main([argv[0], "--profile", str(path), *argv[1:]]) == 0
        keys, stack = set(), [json.loads(capsys.readouterr().out)]
        while stack:
            node = stack.pop()
            if isinstance(node, dict):
                keys |= set(node)
                stack += node.values()
            elif isinstance(node, list):
                stack += node
        assert ("lambda" in keys) is reads
        assert not {"lam", "lam_items", "from_lp_values", "weights"} & set(dir(PrimalSolution))


def generic_dual_audit(sol, cost, tol=None):
    """check_dual_feasible as it was: every coset sum and slack in the
    arithmetic of b, all slacks kept."""
    if tol is None:
        rational = all(isinstance(v, Rational) for v in chain(sol.b, cost.values))
        tol = 0 if rational else 1e-9
    violations, slacks, max_v, checked = [], {}, 0, 0
    b = list(sol.b)
    for i, v in enumerate(b):
        checked += 1
        if v < -tol:
            violations.append({"constraint": f"b[{vec_str(i, sol.n)}] >= 0",
                               "violation": float(-v)})
            max_v = max(max_v, -v)
    for code in enumerate_all_codes(sol.n):
        rhs = cost.values[code.k] * (1 << code.k)
        for s, members in enumerate(code.cosets.tolist()):
            slack = sum(map(b.__getitem__, members)) - rhs
            slacks[(code, s)] = slack
            checked += 1
            if slack < -tol:
                violations.append({"constraint": f"coset sum {code.label()},s={s} >= {rhs}",
                                   "violation": float(-slack)})
                max_v = max(max_v, -slack)
    return not violations, violations, max_v, checked, slacks


def generic_lam(sol, w):
    """lambda as the primal audits built it: mu / w_i on each member, and
    ((code, s), mu + 1) alone for a coset whose first member weighs zero."""
    lam = {}
    for (code, s), v in sol.mu.items():
        members = code.cosets[s].tolist()
        if not w[members[0]]:
            lam[(code, s)] = v + 1
            continue
        for i in members:
            lam[(code, i)] = v / w[i]
    return lam


def generic_primal_audit(sol, profile, tol=None):
    """check_primal_feasible as it was: the whole lambda dict, each index's
    sum of lambda in the arithmetic of mu.  Returns (feasible, totals)."""
    lam = generic_lam(sol, profile.weights)
    if tol is None:
        rational = all(isinstance(v, Rational) for v in chain(profile.weights, lam.values()))
        tol = 0 if rational else 1e-9
    totals = [0] * (1 << sol.n)
    for (_, i), v in lam.items():
        totals[i] += v
    feasible = (all(v >= -tol for v in lam.values())
                and all(abs(totals[i] - 1) <= tol for i in profile.support))
    return feasible, totals


def generic_slackness(primal, dual, profile, cost):
    """complementary_slackness as it was, in the arithmetic of the operands:
    (certified, primal feasible, dual feasible, largest index product,
    largest coset product)."""
    rational = all(isinstance(v, Rational)
                   for v in chain(profile.weights, generic_lam(primal, profile.weights).values(), dual.b))
    tol = 0 if rational else 1e-9
    p_ok, totals = generic_primal_audit(primal, profile, tol)
    d_ok = generic_dual_audit(dual, cost, tol)[0]
    b = dual.b
    index = [abs((total - 1) * b_i) for total, b_i in zip(totals, b)]
    coset = [abs(v * (sum(b[i] for i in code.cosets[s].tolist())
                      - cost.values[code.k] * (1 << code.k)))
             for (code, s), v in primal.mu.items() if v]
    p_obj = sum(cost.values[code.k] * (1 << code.k) * v for (code, _), v in primal.mu.items())
    certified = (p_ok and d_ok and all(x <= tol for x in index + coset)
                 and abs(p_obj - dual.evaluate(profile)) <= tol)
    return certified, p_ok, d_ok, max(index), max(coset, default=0)


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
        yield f"zeros{n}", DualSolution(n, (0,) * (1 << n))
    for trial in range(12):
        rng = random.Random(f"audit/{trial}")
        n = rng.randint(1, 4)
        # mostly covering values, a few short: some cosets violate
        b = tuple(rng.choice([0, rng.randint(0, 9),
                              Fraction(rng.randint(-5, 40), rng.randint(1, 12))])
                  for i in all_vectors(n))
        yield f"random{trial}", DualSolution(n, b)
    yield "binary64", solve_dual(bernoulli_profile(3, 0.15), CostFunction.average(3), "float")[0]


def _audit_costs(n):
    yield CostFunction.average(n)
    for tau in range(1, n + 1) if n < 5 else (3,):
        yield CostFunction.threshold(n, tau)
    yield CostFunction(n, [Fraction(k * k, 3) for k in range(n + 1)])


class TestDualAuditCap:
    def test_n6_refused_before_any_coset_table(self, monkeypatch):
        from paritylp import f2lin, lp

        built = []
        real = lp.coset_table
        monkeypatch.setattr(lp, "coset_table", lambda n: built.append(n) or real(n))
        before = f2lin.coset_table.cache_info()
        sol = DualSolution(6, (Fraction(1),) * 64)
        for audit in (check_dual_feasible, coset_slacks):
            with pytest.raises(BudgetError, match="capped at n <= 5"):
                audit(sol, CostFunction.average(6))
        after = f2lin.coset_table.cache_info()
        assert not built
        assert (after.misses, after.currsize) == (before.misses, before.currsize)


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
            assert same(coset_slacks(sol, cost), slacks)

    def test_some_cases_violate(self):
        reports = [check_dual_feasible(sol, cost)
                   for _, sol in _audit_duals() for cost in _audit_costs(sol.n)]
        assert any(r.feasible for r in reports)
        assert sum(not r.feasible for r in reports) > 20


def _tiny_weight_profile(n, rng):
    """Binary64 weights mixing scales near 1e-9, 1e-6 and 1."""
    raw = [rng.choice([1e-9, 1e-6, 1.0]) * rng.uniform(0.5, 2) for _ in all_vectors(n)]
    total = math.fsum(raw)
    return AmplitudeProfile(n, tuple(w / total for w in raw))


@functools.cache
def _float_duals():
    """Seeded binary64 duals: solve_pair duals at n = 2..5, half on tiny
    weights, each also scaled by 1 - 1e-10 so that its tight cosets fall
    short by about 1e-10; then random b, some of it negative or short of
    covering."""
    rng = random.Random("float-dual-audit")
    cases = []
    for trial in range(16):
        n = 2 + trial % 4
        if trial % 2:
            p = _tiny_weight_profile(n, rng)
        else:
            p = bernoulli_profile(n, rng.choice([0.001, 0.05, 0.2, 0.45]))
        cost = rng.choice([CostFunction.average(n), CostFunction.threshold(n, rng.randint(1, n))])
        dual = solve_pair(p, cost, "float")[1]
        cases.append((dual, cost))
        cases.append((DualSolution(n, tuple(v * (1 - 1e-10) for v in dual.b)), cost))
    for _ in range(40):
        n = rng.randint(1, 5)
        b = tuple(rng.choice([0.0, rng.uniform(-0.5, 10), rng.uniform(0, 2 ** n),
                              1e-12 * rng.random()]) for _ in all_vectors(n))
        cases.append((DualSolution(n, b), CostFunction.average(n)))
    return cases


def _tiny_weight_set():
    """The README's seeded set: at each n = 3..5, 14 Bernoulli profiles with
    t from 0.001 to 0.49 in geometric steps and 42 `_tiny_weight_profile`s."""
    rng = random.Random("tiny-weights")
    for n in (3, 4, 5):
        for k in range(14):
            yield bernoulli_profile(n, 0.001 * 490 ** (k / 13))
        for _ in range(42):
            yield _tiny_weight_profile(n, rng)


class TestFloatTinyWeights:
    def test_slackness_failures_are_tiny_and_flagged(self):
        """"Float mode and tiny weights" in the README: of 168 float solves,
        every one that fails complementary slackness has a weight below
        2.2e-9 and fails the primal audit, and none that passes fails it."""
        verdicts = []
        for p in _tiny_weight_set():
            cost = CostFunction.average(p.n)
            primal, dual, _ = solve_pair(p, cost, "float")
            certified = complementary_slackness(primal, dual, p, cost).certified
            assert check_primal_feasible(primal, p).feasible == certified
            assert certified or min(p.weights) < 2.2e-9
            verdicts.append(certified)
        assert len(verdicts) == 168 and 0 < verdicts.count(False) < 168


class TestFloatDualAudit:
    """Binary64 b goes through the integer coset sums and reports what the
    generic float sums report."""

    @pytest.mark.parametrize("tol", [None, 1e-12, 1e-9, 0.05], ids=str)
    def test_matches_generic_path(self, tol):
        verdicts = []
        for sol, cost in _float_duals():
            report = check_dual_feasible(sol, cost, tol)
            feasible, violations, max_v, checked, _ = generic_dual_audit(sol, cost, tol)
            assert (report.feasible, report.violations, report.n_checked) == \
                (feasible, violations, checked)
            assert repr(report.max_violation) == repr(max_v)
            verdicts.append(feasible)
        assert any(verdicts) and verdicts.count(False) >= 10

    def test_solved_duals_straddle_the_tolerances(self):
        solved, scaled = _float_duals()[:32:2], _float_duals()[1:32:2]
        assert all(type(v) is float for sol, _ in solved + scaled for v in sol.b)
        assert all(check_dual_feasible(sol, cost, 1e-12).feasible for sol, cost in solved)
        assert all(not check_dual_feasible(sol, cost, 1e-12).feasible for sol, cost in scaled)
        assert all(check_dual_feasible(sol, cost, 0.05).feasible for sol, cost in scaled)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_b_refused(self, bad):
        b = (bad,) + (8.0,) * 3
        with pytest.raises(ValueError):
            check_dual_feasible(DualSolution(2, b), CostFunction.average(2))

    def test_infinite_tolerance_refused(self):
        with pytest.raises(ValueError):
            check_dual_feasible(DualSolution(2, (8,) * 4), CostFunction.average(2), math.inf)


def off_points(sol):
    """sol, then sol with every mu doubled and with the first nonzero mu
    negated: two points the audits must refuse."""
    doubled = {key: 2 * v for key, v in sol.mu.items()}
    negated = dict(sol.mu)
    key, v = next((key, v) for key, v in sol.mu.items() if v)
    negated[key] = -v
    return [sol] + [PrimalSolution(sol.n, mu, sol.objective)
                    for mu in (doubled, negated)]


def rational_bernoulli(n, q):
    """Weights q^|i| (1 - q)^(n - |i|): a Bernoulli profile, rational for a
    rational q, inside the hamming candidate's nonnegative regime."""
    from paritylp.f2lin import hamming_weight

    return profile(n, [q ** hamming_weight(i) * (1 - q) ** (n - hamming_weight(i))
                       for i in all_vectors(n)])


def zero_set_counterexample():
    """(0, 1/2, 1/4, 1/4) with mu = 1/4 on coset s=0 of H[10], the indices
    {0, 1}, and the bottom code on the rest: index 1 sums lambda to 3/2."""
    p = profile(2, [0, Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    code = next(c for c in enumerate_codes(2, 1) if c.label() == "H[10]")
    bottom = ParityCode.bottom(2)
    mu = {(code, 0): Fraction(1, 4), (bottom, 0): Fraction(0),
          (bottom, 1): Fraction(1, 2), (bottom, 2): Fraction(1, 4), (bottom, 3): Fraction(1, 4)}
    return PrimalSolution(2, mu, Fraction(5, 4)), p


class TestExactPrimalAudit:
    """The primal audits read mu alone, decide on exact rationals, and give
    the verdicts of the lambda walk (`generic_primal_audit`) on every point
    below but the zero-set counterexample, which the walk passes."""

    @staticmethod
    def assert_verdicts_match(sol, dual, p, cost, tol=None):
        """The verdicts of both audits, and on rational operands the largest
        products too, against the lambda walk's.  The walk reads sol with
        mu = 0 on the bottom code at each zero-weight index, where its lambda
        is 1, the form a solve's mu took before it kept only mu != 0."""
        walked = dict(sol.mu)
        for i in p.zero_set:
            walked.setdefault((ParityCode.bottom(p.n), i), sol.objective * 0)
        walked = PrimalSolution(sol.n, walked, sol.objective)
        assert check_primal_feasible(sol, p, tol).feasible == \
            generic_primal_audit(walked, p, tol)[0]
        report = complementary_slackness(sol, dual, p, cost)
        *verdicts, max_index, max_coset = generic_slackness(walked, dual, p, cost)
        assert [report.certified, report.primal_feasible, report.dual_feasible] == verdicts
        if all(isinstance(v, Rational) for v in chain(p.weights, sol.mu.values(), dual.b)):
            assert (report.max_index_product, report.max_coset_product) == (max_index, max_coset)
        return report.certified

    @pytest.mark.parametrize("p", [p for _, p in _lambda_profiles()],
                             ids=[name for name, _ in _lambda_profiles()])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_solves_match_lambda_walk(self, p, mode):
        for cost in (CostFunction.average(p.n), CostFunction.threshold(p.n, 1)):
            primal, dual, _ = solve_pair(p, cost, mode)
            # feasible, but short of optimal wherever the optimum is below 2^n max C
            loose = DualSolution(p.n, (max(cost.values) * (1 << p.n),) * (1 << p.n))
            verdicts = [self.assert_verdicts_match(sol, d, p, cost)
                        for sol in off_points(primal) for d in (dual, loose)]
            assert verdicts[0] and verdicts[2:] == [False] * 4

    @pytest.mark.parametrize("n", range(1, 6))
    def test_candidates_match_lambda_walk(self, n):
        from paritylp.bounds import AVERAGE_FAMILIES, paired_dual, primal_candidate

        rng = random.Random(f"primal-audit/candidate/{n}")
        rational = rand_rational_profile(n, rng)
        profiles = [rational, profile(n, [float(w) for w in rational.weights]),
                    bernoulli_profile(n, 0.1), rational_bernoulli(n, Fraction(1, 5))]
        cost = CostFunction.average(n)
        signs = set()
        for p in profiles:
            for family in AVERAGE_FAMILIES:
                cand = primal_candidate(family, p)
                signs.add(cand.nonnegative)
                for sol in off_points(cand):
                    self.assert_verdicts_match(sol, paired_dual(family, n), p, cost)
        assert signs == {True, False}

    @pytest.mark.parametrize("index", range(6))
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_powered_rationals_match_lambda_walk(self, index, mode):
        p = powered_profile(index)
        for cost in (CostFunction.average(4), CostFunction.threshold(4, 2)):
            primal, dual, _ = solve_pair(p, cost, mode)
            for sol in off_points(primal):
                self.assert_verdicts_match(sol, dual, p, cost)

    def test_tiny_weights_match_lambda_walk(self):
        rng = random.Random("primal-audit/tiny")
        verdicts = []
        for trial in range(12):
            n = 3 + trial % 3
            p = _tiny_weight_profile(n, rng)
            cost = rng.choice([CostFunction.average(n), CostFunction.threshold(n, 2)])
            primal, dual, _ = solve_pair(p, cost, "float")
            for sol in off_points(primal):
                for tol in (1e-12, 1e-6):
                    assert check_primal_feasible(sol, p, tol).feasible == \
                        generic_primal_audit(sol, p, tol)[0]
                verdicts.append(self.assert_verdicts_match(sol, dual, p, cost))
        # the solved points pass on some profiles and fail on tiny-weight rows on others
        assert any(verdicts[::3]) and not all(verdicts[::3])

    def test_zero_set_mass_refused(self):
        sol, p = zero_set_counterexample()
        report = check_primal_feasible(sol, p)
        assert not report.feasible
        assert [v["constraint"] for v in report.violations] == [
            "mu[H[10],s=0] = 0 on the zero set", "sum_codes lambda[10] = 1"]
        assert report.max_violation == Fraction(1, 2)
        # the lambda walk keys lambda = mu + 1 by the syndrome and passes it
        assert generic_primal_audit(sol, p)[0]

    @pytest.mark.parametrize("case, refused", [
        # mu = -10^-13 is lambda = -1/10 on the bottom code at index 0
        ("negative", ["mu[bottom,s=0] >= 0"]),
        # the mu holding index 0 sum to w_0 + 10^-13, so lambda sums to 11/10
        ("normalization", ["sum_codes lambda[0] = 1"]),
        ("feasible", []),
    ], ids=["negative", "normalization", "feasible"])
    def test_tolerance_in_lambda_units(self, case, refused):
        # a tolerance of 10^-9 bounds lambda = mu / w, not mu: at an index
        # of weight 10^-12, a mu off by 10^-13 puts lambda off by 1/10
        w0, d = Fraction(1, 10**12), Fraction(1, 10**13)
        p = profile(1, [w0, 1 - w0])
        bottom, top = ParityCode.bottom(1), enumerate_codes(1, 1)[0]
        # mu on {0} and {1} of the bottom code and on {0, 1} of the top one
        m0, m01, m1 = {"negative": (-d, w0 + d, 1 - 2 * w0 - d),
                       "normalization": (w0, d, 1 - w0 - d),
                       "feasible": (w0, 0, 1 - w0)}[case]
        mu = {(bottom, 0): m0, (bottom, 1): m1, (top, 0): m01}
        sol = PrimalSolution(1, mu, 0)
        report = check_primal_feasible(sol, p, Fraction(1, 10**9))
        assert [v["constraint"] for v in report.violations] == refused
        assert generic_primal_audit(sol, p, Fraction(1, 10**9))[0] == (not refused)

    def test_lambda_keyed_by_members(self):
        sol, p = zero_set_counterexample()
        code, bottom = next(iter(sol.mu))[0], ParityCode.bottom(2)
        assert lam_of(sol, p.weights) == {(code, 0): Fraction(1, 4), (code, 1): Fraction(1, 2),
                           (bottom, 0): Fraction(1), (bottom, 1): Fraction(1),
                           (bottom, 2): Fraction(1), (bottom, 3): Fraction(1)}

    def test_negative_candidate_names_its_cosets(self):
        from paritylp.bounds import primal_candidate

        p = profile(2, ["1/20", "3/20", "3/10", "1/2"])
        cand = primal_candidate("spike", p)
        report = check_primal_feasible(cand, p)
        assert not cand.nonnegative and not report.feasible
        assert {v["constraint"] for v in report.violations} == {
            f"mu[{code.label()},s={s}] >= 0" for (code, s), v in cand.mu.items() if v < 0}

    def test_audits_never_build_lambda(self, tmp_path, capsys):
        from dataclasses import fields

        from paritylp.bounds import paired_dual, primal_candidate
        from paritylp.cli import main

        assert [f.name for f in fields(PrimalSolution)] == ["n", "mu", "objective"]
        p = rand_rational_profile(3, random.Random("primal-audit/lambda"))
        for mode in ("exact", "float"):
            primal, dual, _ = solve_pair(p, CostFunction.average(3), mode)
            check_primal_feasible(primal, p)
            assert complementary_slackness(primal, dual, p, CostFunction.average(3)).certified
        q = rational_bernoulli(3, Fraction(1, 5))
        cand = primal_candidate("hamming", q)
        check_primal_feasible(cand, q)
        assert complementary_slackness(cand, paired_dual("hamming", 3), q,
                                       CostFunction.average(3)).certified
        path = tmp_path / "p.json"
        path.write_text(json.dumps(bernoulli_profile(3, 0.2).to_json_dict()))
        assert main(["solve", "--profile", str(path), "--mode", "float"]) == 0
        assert json.loads(capsys.readouterr().out)["audits"]["primal_feasible"]

    def test_n6_refused_before_any_work(self):
        class Unread(dict):
            def items(self):
                raise AssertionError("mu read above the cap")

            values = items

        p = profile(6, [Fraction(1, 64)] * 64)
        bottom = ParityCode.bottom(6)
        sol = PrimalSolution(6, Unread({(bottom, i): w for i, w in enumerate(p.weights)}),
                             Fraction(0))
        with pytest.raises(BudgetError, match="capped at n <= 5"):
            check_primal_feasible(sol, p)
        with pytest.raises(BudgetError, match="capped at n <= 5"):
            complementary_slackness(sol, DualSolution(6, (Fraction(1),) * 64), p,
                                    CostFunction.average(6))


def loop_short_cosets(b, cost, tol):
    """lp._short_cosets as a walk over each code's cosets, on Python ints."""
    exact = [Fraction(v) for v in b]
    tol = Fraction(tol)
    den = math.lcm(*(v.denominator for v in exact))
    nums = [v.numerator * (den // v.denominator) for v in exact]
    n = len(b).bit_length() - 1
    for code in enumerate_all_codes(n):
        rhs = cost.values[code.k] * (1 << code.k)
        limit = math.ceil((rhs - tol) * den)
        for s, members in enumerate(code.cosets.tolist()):
            if sum(map(nums.__getitem__, members)) < limit:
                yield (code, s), sum(map(b.__getitem__, members)) - rhs


def _short_coset_cases():
    rng = random.Random("short-cosets")
    for n in range(4):
        yield f"zeros{n}", (0,) * (1 << n), CostFunction.average(n), 0
    for trial in range(10):
        n = rng.randint(1, 5)
        cost = rng.choice([CostFunction.average(n), CostFunction.threshold(n, rng.randint(1, n))])
        # negative entries, and denominators whose common multiple passes 2^62
        b = tuple(rng.choice([rng.randint(-3, 9), Fraction(rng.randint(-9, 99), rng.choice(
            [1, 7, 3 ** 41, 2 ** 70 + 1])), rng.uniform(-1, 2 ** n)]) for _ in all_vectors(n))
        yield f"mixed{trial}", b, cost, rng.choice([0, Fraction(1, 3), 1e-9])
    big = 2 ** 62
    yield "numerators-past-int64", (big, -big, Fraction(big, 3), 1), CostFunction.average(2), 0
    # the hamming dual is tight on some cosets: tolerances below, at and above 0
    d3 = hamming_b(3)
    for shift in (-1, 0, 1):
        yield f"tol-edge{shift}", d3, CostFunction.average(3), Fraction(shift, 2)


def hamming_b(n):
    from paritylp import bounds

    return bounds.dual_hamming(n).b


class TestShortCosets:
    """The table's integer sums pick out the cosets the walk picks, with the
    same slacks, in the same order."""

    @pytest.mark.parametrize("b, cost, tol", [case[1:] for case in _short_coset_cases()],
                             ids=[case[0] for case in _short_coset_cases()])
    def test_matches_coset_walk(self, b, cost, tol):
        from paritylp.lp import _short_cosets

        got, want = list(_short_cosets(b, cost, tol)), list(loop_short_cosets(b, cost, tol))
        assert [key for key, _ in got] == [key for key, _ in want]
        assert same([v for _, v in got], [v for _, v in want])

    def test_cases_reach_both_paths_and_the_edge(self):
        cases = {name: case for name, *case in _short_coset_cases()}
        wide = [case for case in cases.values()
                if max(abs(Fraction(v)).numerator for v in case[0]) >= 2 ** 62
                or math.lcm(*(Fraction(v).denominator for v in case[0])) >= 2 ** 62]
        assert 3 <= len(wide) < len(cases) - 3
        assert any(list(loop_short_cosets(*case)) for case in wide)
        # a tolerance below zero makes the tight cosets short, none otherwise
        short = [len(list(loop_short_cosets(*cases[f"tol-edge{shift}"]))) for shift in (-1, 0, 1)]
        assert short[0] > 0 and short[1:] == [0, 0]

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_refused(self, bad):
        from paritylp.lp import _short_cosets

        with pytest.raises(ValueError, match="finite"):
            list(_short_cosets((1, bad), CostFunction.average(1), 0))
        with pytest.raises(ValueError, match="finite"):
            list(_short_cosets((1, 2), CostFunction.average(1), bad))


class TestDualVector:
    """Every producer gives b as a tuple over F_2^n."""

    def _producers(self):
        from paritylp import bounds

        for n in range(1, 5):
            yield n, bounds.dual_hamming(n)
            yield n, bounds.dual_cohamming(n)
            yield n, bounds.dual_spike(n)
            yield n, bounds.dual_threshold_indicator(all_vectors(n), 1, n)
            yield n, bounds.dual_affine_image(bounds.dual_spike(n), F2Matrix(
                n, tuple(reversed([1 << j for j in range(n)]))), 1)
            yield n, bounds.dual_threshold_ball(n, 0, 3.0)
            p = ball_profile(n, n // 2, random.Random(f"vector/{n}"))
            for mode in ("exact", "float"):
                yield n, solve_pair(p, CostFunction.average(n), mode)[1]
                yield n, solve_dual(p, CostFunction.average(n), mode)[0]

    def test_tuple_of_length_two_to_the_n(self):
        for n, sol in self._producers():
            assert type(sol.b) is tuple and len(sol.b) == 1 << n


def _cross_solve_profiles(n):
    """Twenty rational n-bit profiles: 12 random, 6 with tiny weights, and
    the radius-1 and radius-2 balls."""
    rng = random.Random(f"cross-solve/{n}")
    return ([rand_rational_profile(n, rng) for _ in range(12)]
            + [powered_profile(i, n, seed=n) for i in range(6)]
            + [ball_profile(n, d, rng) for d in (1, 2)])


class TestCrossSolveLaw:
    """The dual feasible set does not depend on the profile: an optimal b(w)
    is feasible for every other profile w', so b(w).w' >= rho(w'), and rho
    is the minimum of linear functions of w, so it is concave.  Exact
    solves, so each inequality is decided on rationals."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_optimal_duals_bound_every_other_profile(self, n):
        profiles = _cross_solve_profiles(n)
        pairs = 0
        for cost in (CostFunction.average(n), CostFunction.threshold(n, 2)):
            solved = [solve_pair(p, cost) for p in profiles]
            rho = [report.objective for _, _, report in solved]
            assert all(type(r) is Fraction for r in rho)
            for i, (_, dual, _) in enumerate(solved):
                for j, other in enumerate(profiles):
                    if i != j:
                        pairs += 1
                        assert dual.evaluate(other) >= rho[j], (i, j)
            for i in range(10):
                j = (i + 7) % len(profiles)
                mid = AmplitudeProfile.from_weights(n, [
                    (a + b) / 2 for a, b in zip(profiles[i].weights, profiles[j].weights)])
                assert solve_pair(mid, cost)[2].objective >= (rho[i] + rho[j]) / 2, (i, j)
        assert pairs == 2 * 380


def _product_factors(n, rng):
    """Seeded n-bit factors: a random rational profile, a powered one and,
    at n >= 2, one on the radius-1 ball."""
    factors = [rand_rational_profile(n, rng), powered_profile(rng.randrange(6), n, seed=n)]
    if n >= 2:
        factors.append(ball_profile(n, 1, rng))
    return factors


class TestProductProfiles:
    """ROADMAP fact 2, the product lemma: with block 1 the low n1 bits,
    w(i) = w1(i mod 2^n1) w2(i >> n1) has rho_average(w) = rho_average(w1) +
    rho_average(w2), and b(i) = b1(i mod 2^n1) + b2(i >> n1) is an optimal
    dual of the product.  Exact solves, every split, every pair of factor
    kinds.  The threshold costs are not additive, so they are left out."""

    @pytest.mark.parametrize("n, products", [(2, 4), (3, 12), (4, 21), (5, 30)])
    def test_average_cost_is_additive(self, n, products):
        cost = CostFunction.average(n)
        seen = 0
        for n1 in range(1, n):
            rng = random.Random(f"product/{n1}/{n - n1}")
            blocks = [[(p, *solve_pair(p, CostFunction.average(m))[1:])
                       for p in _product_factors(m, rng)] for m in (n1, n - n1)]
            low = (1 << n1) - 1
            for (p1, dual1, rep1), (p2, dual2, rep2) in product(*blocks):
                p = AmplitudeProfile.from_weights(n, [p1.weights[i & low] * p2.weights[i >> n1]
                                                      for i in all_vectors(n)])
                rho = solve(build_primal(p), cost).objective
                assert type(rho) is Fraction and rho == rep1.objective + rep2.objective
                dual = DualSolution(n, tuple(dual1.b[i & low] + dual2.b[i >> n1]
                                             for i in all_vectors(n)))
                assert check_dual_feasible(dual, cost).feasible
                assert dual.evaluate(p) == rho
                seen += 1
        assert seen == products


def krawtchouk(n, t, x):
    """K_t(x) = sum_j (-1)^j C(x, j) C(n - x, t - j)."""
    return sum((-1) ** j * math.comb(x, j) * math.comb(n - x, t - j) for j in range(t + 1))


def fixed_weight_profile(n, t):
    """Fixed-weight noise: w_i = K_t(|i|)^2 / (2^n C(n, t)), which sums to
    exactly 1, as the profile requires, by the orthogonality of the
    Krawtchouk polynomials."""
    scale = (1 << n) * math.comb(n, t)
    return AmplitudeProfile.from_weights(n, [Fraction(krawtchouk(n, t, hamming_weight(i)) ** 2,
                                                      scale) for i in all_vectors(n)])


FIXED_WEIGHT_AVERAGE = {(2, 1): 1, (3, 1): Fraction(5, 3), (3, 2): Fraction(5, 3),
                        (4, 1): 2, (4, 2): Fraction(5, 3), (4, 3): 2,
                        **{(5, t): Fraction(13, 5) for t in range(1, 5)}}


class TestFixedWeightNoise:
    """Exact optima of fixed-weight noise, each certified by its own dual."""

    def assert_optimum(self, p, cost, want):
        primal, dual, report = solve_pair(p, cost)
        assert (report.mode, report.objective) == ("exact", want)
        assert check_dual_feasible(dual, cost).feasible
        slack = complementary_slackness(primal, dual, p, cost)
        assert slack.certified and slack.primal_objective - slack.dual_objective == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_average_cost(self, n):
        for t in range(n + 1):
            want = FIXED_WEIGHT_AVERAGE.get((n, t), n)
            self.assert_optimum(fixed_weight_profile(n, t), CostFunction.average(n), want)

    def test_threshold_costs_at_n5_t2(self):
        p = fixed_weight_profile(5, 2)
        for tau, want in zip(range(1, 6), [1, Fraction(3, 4), Fraction(1, 2),
                                           Fraction(3, 7), Fraction(2, 5)]):
            self.assert_optimum(p, CostFunction.threshold(5, tau), want)
