"""Operator synthesis: states, coset bases, construction, symmetrization."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import lam_of, rand_rational_profile
from paritylp.errors import BudgetError, ProfileError
from paritylp.f2lin import (
    F2Matrix,
    ParityCode,
    all_vectors,
    codes_of_rank,
    dot,
    enumerate_all_codes,
)
from paritylp.lp import PrimalSolution, solve_primal
from paritylp.povm import (
    POVM_MAX_N,
    PovmSet,
    PovmVerification,
    _code_stacks,
    _coset_fourier,
    _coset_states,
    _covariance_dev,
    _shift_average,
    _states,
    build_from_primal,
    fourier_diag_check,
    rho_eval,
    state_psi,
    symmetrize,
    verify_povm,
    walsh_hadamard,
)
from paritylp.profiles import AmplitudeProfile, CostFunction


# -- oracles: the operators and the element-by-element audits --------------

def shift_op(a, n):
    """Permutation matrix sending |x> to |x + a>."""
    size = 1 << n
    mat = np.zeros((size, size))
    idx = np.arange(size)
    mat[idx ^ a, idx] = 1.0
    return mat


def phase_op(a, n):
    """Diagonal matrix with entries (-1)^(a.x)."""
    return np.diag([(-1.0 if dot(a, x) else 1.0) for x in all_vectors(n)])


def shifted(m, a):
    """X_a m X_a with X_a = shift_op(a, n), by permuting rows and columns."""
    p = np.arange(len(m)) ^ a
    return m[np.ix_(p, p)]


def coset_basis(profile, code, y):
    """A_s for every syndrome s, as the builder makes them: one Fourier
    support per code, signed by (-1)^(y.u) for the outcome y."""
    fourier = _coset_fourier(profile, code)
    return list(_coset_states(code, fourier, range(len(fourier[0])))[y])


def coset_basis_loops(profile, code, y, syndromes=None):
    """A_s for every listed syndrome (by default all), coefficient by
    coefficient over the coset."""
    amps = profile.require_amplitudes()
    w = walsh_hadamard(profile.n)
    span = [code.H.transpose_mul(u) for u in range(1 << code.k)]
    out = []
    for s in range(len(code.cosets)) if syndromes is None else syndromes:
        four = np.zeros(1 << profile.n, dtype=complex)
        for u in range(1 << code.k):
            idx = span[u] ^ int(code.leaders[0, s])
            coeff = 1.0 / np.conj(amps[idx])
            four[idx] = -coeff if dot(y, u) else coeff
        out.append(w @ four)
    return out


def build_from_primal_loops(sol, profile):
    """One coset basis per outcome, summed syndrome by syndrome."""
    size = 1 << profile.n
    elements = {}
    for code in enumerate_all_codes(profile.n):
        coeffs = [float(sol.mu.get((code, s), 0)) / (1 << code.k)
                  for s in range(1 << (profile.n - code.k))]
        live = [s for s, c in enumerate(coeffs) if c]
        if code.k == 0 or not live:
            continue
        for y in range(1 << code.k):
            mat = np.zeros((size, size), dtype=complex)
            for s, vec in zip(live, coset_basis_loops(profile, code, y, live)):
                mat += coeffs[s] * np.outer(vec, np.conj(vec))
            elements[(code, y)] = mat
    total = sum(elements.values(), np.zeros((size, size), dtype=complex))
    return PovmSet.from_elements(profile.n, elements, np.eye(size, dtype=complex) - total,
                                 profile)


def rho_eval_loops(povm, cost):
    states = [state_psi(povm.profile, x) for x in all_vectors(povm.n)]
    total = 0.0
    for (code, y), mat in povm.elements.items():
        ck = float(cost.value(code.k))
        if ck == 0.0:
            continue
        total += ck * sum(
            float(np.real(np.conj(s) @ (mat @ s))) for s in states
        )
    c0 = float(cost.value(0))
    if c0:
        total += c0 * sum(
            float(np.real(np.conj(s) @ (povm.perp @ s))) for s in states
        )
    return total / (1 << povm.n)


def symmetrize_loops(povm):
    """Without the input check."""
    n = povm.n
    size = 1 << n
    elements = {}
    groups = {}
    for code, y in povm.elements:
        groups.setdefault(code, []).append(y)
    for code, ys in groups.items():
        for y in ys:
            acc = np.zeros((size, size), dtype=complex)
            for a in all_vectors(n):
                partner = povm.elements[(code, y ^ code.parity(a))]
                acc += shifted(partner, a)
            elements[(code, y)] = acc / size
    perp = sum(
        (shifted(povm.perp, a) for a in all_vectors(n)),
        np.zeros((size, size), dtype=complex),
    ) / size
    return PovmSet.from_elements(n, elements, perp, povm.profile)


def verify_povm_loops(povm, *, tol_hermitian=1e-12, tol_psd=1e-9,
                      tol_complete=1e-8, tol_unambig=1e-10, tol_symmetry=1e-9):
    n = povm.n
    size = 1 << n
    all_ops = list(povm.elements.values()) + [povm.perp]

    herm = max(
        float(np.max(np.abs(m - m.conj().T))) for m in all_ops
    )
    min_eig = min(
        float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2))) for m in all_ops
    )
    total = sum(all_ops[:-1], np.zeros((size, size), dtype=complex)) + povm.perp
    complete = float(np.linalg.norm(total - np.eye(size)))

    states = [state_psi(povm.profile, x) for x in all_vectors(n)]
    unambig = 0.0
    for (code, y), mat in povm.elements.items():
        for x in all_vectors(n):
            if code.parity(x) != y:
                s = states[x]
                unambig = max(unambig, abs(complex(np.conj(s) @ (mat @ s))))

    # covariance on the generators e_1..e_n, reported as n times the largest
    # deviation: a bound on the deviation under every shift
    sym_dev = 0.0
    generators = [1 << j for j in range(n)]
    for (code, y), mat in povm.elements.items():
        for a in generators:
            partner = povm.elements[(code, y ^ code.parity(a))]
            sym_dev = max(sym_dev, float(np.max(np.abs(shifted(mat, a) - partner))))
    for a in generators:
        moved = shifted(povm.perp, a)
        sym_dev = max(sym_dev, float(np.max(np.abs(moved - povm.perp))))
    sym_dev = n * sym_dev

    gamma_ok = (
        herm <= tol_hermitian
        and min_eig >= -tol_psd
        and complete <= tol_complete
        and unambig <= tol_unambig
    )
    return PovmVerification(herm, min_eig, complete, unambig, sym_dev,
                            gamma_ok, sym_dev <= tol_symmetry)


def fourier_diag_check_loops(povm):
    n = povm.n
    w_mat = walsh_hadamard(n)
    weights = povm.profile.weights_float
    offdiag = 0.0
    factor = 0.0
    spread = 0.0

    groups = {}
    for (code, y), mat in povm.elements.items():
        groups.setdefault(code, []).append(mat)
    groups.setdefault(ParityCode.bottom(n), []).append(povm.perp)

    for code, mats in groups.items():
        agg = sum(mats[1:], mats[0].copy())
        agg_hat = w_mat @ agg @ w_mat
        off = agg_hat - np.diag(np.diag(agg_hat))
        offdiag = max(offdiag, float(np.max(np.abs(off))))
        scale = 1 << code.k
        for mat in mats:
            mat_hat_diag = np.real(np.diag(w_mat @ mat @ w_mat))
            factor = max(factor, float(np.max(np.abs(
                np.real(np.diag(agg_hat)) - scale * mat_hat_diag
            ))))
            cos = code.cosets
            for s in range(len(cos)):
                vals = [weights[i] * mat_hat_diag[i] for i in cos[s].tolist()]
                spread = max(spread, max(vals) - min(vals))
    return (offdiag, factor, float(spread))


def all_shifts_deviation(povm):
    """max |X_a F[(code, y)] X_a - F[(code, y + H.a)]| over every element,
    the leftover and every shift a, with X_a as a matrix.  X_a is real, so
    it acts on the real and imaginary parts in turn, which halves the cost
    of the products."""
    n = povm.n
    keyed = list(povm.elements) + [(ParityCode.bottom(n), 0)]
    mats = np.stack([*povm.elements.values(), povm.perp])
    lookup = dict(zip(keyed, mats))
    re, im = mats.real.copy(), mats.imag.copy()
    dev = 0.0
    for a in all_vectors(n):
        xa = shift_op(a, n)
        moved = xa @ re @ xa + 1j * (xa @ im @ xa)
        partners = np.stack([lookup[(code, y ^ code.parity(a))] for code, y in keyed])
        dev = max(dev, float(np.max(np.abs(moved - partners))))
    return dev


def uniform_amps(n):
    a = 1 / math.sqrt(1 << n)
    return AmplitudeProfile.from_amplitudes(n, [a] * (1 << n))


def random_phase_profile(n, rng):
    """Rational weights dressed with random phases."""
    base = rand_rational_profile(n, rng)
    amps = [
        math.sqrt(float(w)) * cmath.exp(2j * math.pi * rng.random())
        for w in base.weights
    ]
    return AmplitudeProfile.from_amplitudes(n, amps)


class TestStates:
    def test_uniform_maps_to_basis_states(self):
        p = uniform_amps(1)
        assert state_psi(p, 0) == pytest.approx(np.array([1.0, 0.0]))
        assert state_psi(p, 1) == pytest.approx(np.array([0.0, 1.0]))

    def test_point_mass_shift_invariant(self):
        p = AmplitudeProfile.from_amplitudes(2, [1.0, 0.0, 0.0, 0.0])
        ref = state_psi(p, 0)
        for x in all_vectors(2):
            assert state_psi(p, x) == pytest.approx(ref)

    def test_unit_norm(self):
        rng = random.Random(2)
        p = random_phase_profile(2, rng)
        for x in all_vectors(2):
            assert np.linalg.norm(state_psi(p, x)) == pytest.approx(1.0)

    def test_weights_only_rejected(self):
        p = AmplitudeProfile.from_weights(1, ["1/2", "1/2"])
        with pytest.raises(ProfileError):
            state_psi(p, 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_batched_states_match_state_psi(self, n):
        # bit for bit, signed zeros of real-amplitude profiles included
        rng = random.Random(30 + n)
        for p in (random_phase_profile(n, rng),
                  rand_rational_profile(n, rng).with_real_amplitudes()):
            states = _states(p)
            assert [row.tobytes() for row in states] == \
                [state_psi(p, x).tobytes() for x in all_vectors(n)]

    def test_shift_relation(self):
        # |psi_x> = X_x |psi_0>
        rng = random.Random(3)
        p = random_phase_profile(2, rng)
        psi0 = state_psi(p, 0)
        for x in all_vectors(2):
            assert shift_op(x, 2) @ psi0 == pytest.approx(state_psi(p, x))


class TestShiftPhaseOps:
    def test_shift_on_fourier_basis(self):
        n = 2
        w = walsh_hadamard(n)
        for a in all_vectors(n):
            xa = shift_op(a, n)
            for i in all_vectors(n):
                fourier_i = w[:, i]
                expected = (-1) ** dot(i, a) * fourier_i
                assert xa @ fourier_i == pytest.approx(expected)

    def test_shift_zero_is_identity(self):
        assert shift_op(0, 2) == pytest.approx(np.eye(4))

    def test_phase_squares_to_identity(self):
        for a in all_vectors(2):
            z = phase_op(a, 2)
            assert z @ z == pytest.approx(np.eye(4))

    def test_intertwining(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            size = 1 << n
            w = walsh_hadamard(n)
            literal = np.array([[(-1.0) ** dot(i, j) for j in range(size)]
                                for i in range(size)]) / np.sqrt(size)
            assert np.array_equal(w, literal)
            m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            for a in all_vectors(n):
                xa = shift_op(a, n)
                assert xa @ w == pytest.approx(w @ phase_op(a, n))
                assert np.array_equal(shifted(m, a), xa @ m @ xa)


class TestCosetBasis:
    def test_n1_uniform(self):
        p = uniform_amps(1)
        code = codes_of_rank(1, 1)[0]
        basis = coset_basis(p, code, 0)
        assert len(basis) == 1
        assert basis[0] == pytest.approx(np.array([2.0, 0.0]))

    def test_orthogonality(self):
        rng = random.Random(5)
        p = random_phase_profile(2, rng)
        code = ParityCode.from_matrix(F2Matrix(2, (3,)))
        for y in (0, 1):
            basis = coset_basis(p, code, y)
            assert abs(np.vdot(basis[0], basis[1])) < 1e-12

    def test_overlap_with_wrong_states_is_zero(self):
        rng = random.Random(6)
        for n in (1, 2, 3):
            p = random_phase_profile(n, rng)
            for k in range(1, n + 1):
                code = ParityCode.from_matrix(
                    F2Matrix(n, tuple(1 << j for j in range(k)))
                )
                for y in range(1 << k):
                    for vec in coset_basis(p, code, y):
                        for x in all_vectors(n):
                            overlap = np.vdot(vec, state_psi(p, x))
                            if code.parity(x) != y:
                                assert abs(overlap) < 1e-10
                            else:
                                # character-sum value 2^k up to the leader sign
                                assert abs(overlap) == pytest.approx(1 << k)

    def test_signed_overlap_with_right_states(self):
        # <A_s|psi_x> = 2^k (-1)^(v_s.x) when Hx = y, for any phases
        rng = random.Random(16)
        p = random_phase_profile(3, rng)
        code = ParityCode.from_matrix(F2Matrix(3, (3, 5)))
        cos = code.cosets
        for y in range(4):
            basis = coset_basis(p, code, y)
            for s, vec in enumerate(basis):
                v_s = int(code.leaders[0, s])
                for x in all_vectors(3):
                    if code.parity(x) != y:
                        continue
                    expected = (1 << 2) * (-1 if dot(v_s, x) else 1)
                    overlap = np.vdot(vec, state_psi(p, x))
                    assert overlap == pytest.approx(expected, abs=1e-10)

    def test_zero_amplitude_rejected(self):
        p = AmplitudeProfile.from_amplitudes(1, [1.0, 0.0])
        with pytest.raises(ProfileError):
            coset_basis(p, codes_of_rank(1, 1)[0], 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("phases", ["phased", "real"])
    def test_matches_loops(self, n, phases):
        # bit for bit, signed zeros of real-amplitude profiles included
        rng = random.Random(60 + n)
        p = random_phase_profile(n, rng)
        if phases == "real":
            p = rand_rational_profile(n, rng).with_real_amplitudes()
        for code in enumerate_all_codes(n):
            for y in range(1 << code.k):
                got, want = coset_basis(p, code, y), coset_basis_loops(p, code, y)
                assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


class TestBuildFromPrimal:
    def test_n1_uniform_full_recovery(self):
        p = uniform_amps(1)
        sol, rep = solve_primal(p, CostFunction.average(1))
        povm = build_from_primal(sol, p)
        code = codes_of_rank(1, 1)[0]
        assert povm.elements[(code, 0)] == pytest.approx(np.diag([1.0, 0.0]))
        assert povm.elements[(code, 1)] == pytest.approx(np.diag([0.0, 1.0]))
        assert povm.perp == pytest.approx(np.zeros((2, 2)))

    def test_elements_are_read_only_views_of_the_stacks(self):
        p = random_phase_profile(3, random.Random(17))
        sol, _ = solve_primal(p, CostFunction.average(3), mode="float")
        povm = build_from_primal(sol, p)
        for code, stack in povm.stacks.items():
            assert len(stack) == 1 << code.k and not stack.flags.writeable
            for y in range(len(stack)):
                assert povm.elements[(code, y)].base is stack
        key = next(iter(povm.elements))
        with pytest.raises(TypeError):
            povm.elements[key] = np.zeros((8, 8), dtype=complex)
        with pytest.raises(ValueError):
            povm.elements[key][0, 0] = 1.0

    def test_all_mass_on_bottom_gives_identity_leftover(self):
        p = uniform_amps(2)
        from paritylp.lp import PrimalSolution

        bottom = ParityCode.bottom(2)
        values = {(bottom, s): 0.25 for s in all_vectors(2)}
        sol = PrimalSolution(p.n, values, 0.0)
        povm = build_from_primal(sol, p)
        assert not povm.elements
        assert povm.perp == pytest.approx(np.eye(4))

    def test_all_invariants_on_optimal_solutions(self):
        rng = random.Random(7)
        for n in (1, 2, 3):
            p = random_phase_profile(n, rng)
            cost = CostFunction.average(n)
            sol, rep = solve_primal(p, cost, mode="float")
            povm = build_from_primal(sol, p)
            ver = verify_povm(povm)
            assert ver.gamma_ok and ver.symmetric_ok, ver.to_json_dict()
            assert rho_eval(povm, cost) == pytest.approx(
                float(rep.objective), abs=1e-8
            )

    def test_fourier_diagonal_values_are_lambda_over_2k(self):
        rng = random.Random(8)
        p = random_phase_profile(2, rng)
        sol, _ = solve_primal(p, CostFunction.average(2), mode="float")
        povm = build_from_primal(sol, p)
        lam = lam_of(sol, p.weights)
        w = walsh_hadamard(2)
        for (code, y), mat in povm.elements.items():
            hat = w @ mat @ w
            for i in all_vectors(2):
                expected = float(lam.get((code, i), 0)) / (1 << code.k)
                assert hat[i, i].real == pytest.approx(expected, abs=1e-10)

    def test_suboptimal_feasible_point_scores_its_own_objective(self):
        # convex mix of the optimum with the all-bottom point stays feasible
        # and must synthesize a valid set scoring exactly half the optimum
        from paritylp.lp import PrimalSolution, check_primal_feasible

        rng = random.Random(15)
        p = random_phase_profile(2, rng)
        cost = CostFunction.average(2)
        sol, rep = solve_primal(p, cost, mode="float")
        bottom = ParityCode.bottom(2)
        mixed_mu = {key: 0.5 * v for key, v in sol.mu.items()}
        for s in all_vectors(2):
            key = (bottom, s)
            mixed_mu[key] = mixed_mu.get(key, 0.0) + 0.5 * p.weights_float[s]
        mixed = PrimalSolution(p.n, mixed_mu, 0.5 * rep.objective)
        assert check_primal_feasible(mixed, p).feasible
        povm = build_from_primal(mixed, p)
        assert verify_povm(povm).ok
        assert rho_eval(povm, cost) == pytest.approx(
            0.5 * float(rep.objective), abs=1e-8
        )

    def test_born_rule_matches_exact_outcome_law(self):
        # trace of F[(H, Hx)] against the x-th state equals sum_i lambda w
        from paritylp.simulate import exact_distribution

        rng = random.Random(14)
        p = random_phase_profile(2, rng)
        sol, _ = solve_primal(p, CostFunction.average(2), mode="float")
        povm = build_from_primal(sol, p)
        for x in all_vectors(2):
            dist = exact_distribution(sol, p, x)
            for (code, y), mat in povm.elements.items():
                s = state_psi(p, x)
                got = float(np.real(np.vdot(s, mat @ s)))
                expected = float(dist.get((code, y), 0.0))
                assert got == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("phases", ["phased", "real"])
    def test_matches_loops(self, n, phases):
        # LP optima (exact on rational weights), every candidate family, a
        # mixture with the bottom code, that mixture's mu in reverse order
        # and every syndrome of every rank-1 code from the last: the same
        # elements in the same order, bit for bit; each set holds 2^k
        # elements per code that carries mass, and they are exact
        # relabellings of one another
        from paritylp.bounds import primal_candidate

        rng = random.Random(70 + n)
        p = random_phase_profile(n, rng)
        if phases == "real":
            p = rand_rational_profile(n, rng).with_real_amplitudes()
        sols = []
        for cost in (CostFunction.average(n), CostFunction.threshold(n, 1),
                     CostFunction.threshold(n, min(2, n))):
            for mode in ("float", "exact"):
                sols.append(solve_primal(p, cost, mode=mode)[0])
        sols += [primal_candidate(family, p) for family in ("hamming", "cohamming", "spike")]
        sol, bottom = sols[0], ParityCode.bottom(n)
        mixed = {key: v / 2 for key, v in sol.mu.items()}
        for s in all_vectors(n):
            mixed[(bottom, s)] = mixed.get((bottom, s), 0) + p.weights[s] / 2
        spread = {(code, s): rng.random() for code in reversed(codes_of_rank(n, 1))
                  for s in reversed(range(1 << (n - 1)))}
        for mu in (mixed, dict(reversed(mixed.items())), spread):
            sols.append(PrimalSolution(n, mu, sol.objective / 2))
        for sol in sols:
            povm = build_from_primal(sol, p)
            assert_same_sets(povm, build_from_primal_loops(sol, p))
            carrying = {code for (code, _), v in sol.mu.items() if code.k and v}
            assert len(povm.elements) == sum(1 << code.k for code in carrying)
            assert_relabellings(povm)

    def test_threshold_cost_solution(self):
        rng = random.Random(9)
        p = random_phase_profile(2, rng)
        cost = CostFunction.threshold(2, 1)
        sol, rep = solve_primal(p, cost, mode="float")
        povm = build_from_primal(sol, p)
        ver = verify_povm(povm)
        assert ver.ok
        assert rho_eval(povm, cost) == pytest.approx(
            float(rep.objective), abs=1e-8
        )


class TestRhoEval:
    def test_perp_only_scores_zero(self):
        p = uniform_amps(2)
        from paritylp.povm import PovmSet

        povm = PovmSet(2, {}, np.eye(4, dtype=complex), p)
        assert rho_eval(povm, CostFunction.average(2)) == 0
        assert rho_eval(povm, CostFunction.threshold(2, 1)) == 0

    def test_n1_uniform_full_recovery_scores_one(self):
        p = uniform_amps(1)
        sol, _ = solve_primal(p, CostFunction.average(1))
        povm = build_from_primal(sol, p)
        assert rho_eval(povm, CostFunction.average(1)) == pytest.approx(1.0)


class TestSymmetrize:
    def test_symmetric_input_fixed_point(self):
        rng = random.Random(10)
        p = random_phase_profile(2, rng)
        sol, _ = solve_primal(p, CostFunction.average(2), mode="float")
        povm = build_from_primal(sol, p)
        sym = symmetrize(povm)
        for key, mat in povm.elements.items():
            assert sym.elements[key] == pytest.approx(mat, abs=1e-12)
        assert sym.perp == pytest.approx(povm.perp, abs=1e-12)

    def test_asymmetric_input_symmetrized_and_score_preserved(self):
        rng = random.Random(11)
        p = random_phase_profile(2, rng)
        cost = CostFunction.average(2)
        sol, _ = solve_primal(p, cost, mode="float")
        povm = build_from_primal(sol, p)
        # zero out one informative branch, dumping its mass into the leftover
        key = next(k for k in povm.elements if k[0].k == 1)
        dropped = povm.elements[key]
        povm = PovmSet.from_elements(2, {**povm.elements, key: np.zeros_like(dropped)},
                                     povm.perp + dropped, p)
        before = verify_povm(povm)
        assert before.gamma_ok and before.symmetric_ok is False
        rho_before = rho_eval(povm, cost)
        sym = symmetrize(povm)
        after = verify_povm(sym)
        assert after.gamma_ok and after.symmetric_ok
        assert rho_eval(sym, cost) == pytest.approx(rho_before, abs=1e-10)

    def test_missing_element_read_as_zero(self):
        rng = random.Random(11)
        p = random_phase_profile(2, rng)
        cost = CostFunction.average(2)
        sol, _ = solve_primal(p, cost, mode="float")
        povm = build_from_primal(sol, p)
        # drop one informative element, moving its mass to the leftover
        key = next(k for k in povm.elements if k[0].k == 1)
        kept = {k: mat for k, mat in povm.elements.items() if k != key}
        povm = PovmSet.from_elements(2, kept, povm.perp + povm.elements[key], p)
        assert not povm.elements[key].any()
        before = verify_povm(povm)
        assert before.gamma_ok and before.symmetric_ok is False
        sym = symmetrize(povm)
        assert key in sym.elements
        after = verify_povm(sym)
        assert after.gamma_ok and after.symmetric_ok
        assert rho_eval(sym, cost) == pytest.approx(rho_eval(povm, cost),
                                                       abs=1e-10)

    def test_rejects_invalid_input(self):
        p = uniform_amps(1)
        sol, _ = solve_primal(p, CostFunction.average(1))
        povm = build_from_primal(sol, p)
        povm = PovmSet(1, povm.stacks, povm.perp - 10 * np.eye(2), p)
        with pytest.raises(ValueError):
            symmetrize(povm)


class TestFourierDiagCheck:
    def test_full_recovery_aggregate_is_identity(self):
        p = uniform_amps(1)
        sol, _ = solve_primal(p, CostFunction.average(1))
        povm = build_from_primal(sol, p)
        report = fourier_diag_check(povm)
        assert report.max_offdiagonal < 1e-12
        assert report.max_factor_dev < 1e-12
        assert report.max_coset_spread < 1e-12

    def test_constructed_set_passes(self):
        rng = random.Random(12)
        p = random_phase_profile(2, rng)
        sol, _ = solve_primal(p, CostFunction.average(2), mode="float")
        povm = build_from_primal(sol, p)
        report = fourier_diag_check(povm)
        assert report.max_offdiagonal < 1e-10
        assert report.max_coset_spread < 1e-10


class TestOperatorCap:
    def test_hand_built_set_at_cap(self):
        # mu = min w on the full-rank code, the rest of each weight on the
        # no-information outcome: a feasible point at n = POVM_MAX_N
        n = POVM_MAX_N
        p = random_phase_profile(n, random.Random(60))
        w = p.weights_float
        assert 0 < min(w) < max(w)
        values = {(codes_of_rank(n, n)[0], 0): min(w)}
        values.update({(ParityCode.bottom(n), s): w[s] - min(w)
                       for s in all_vectors(n)})
        cost = CostFunction.average(n)
        objective = float(cost.value(n)) * (1 << n) * min(w)
        povm = build_from_primal(PrimalSolution(n, values, objective), p)
        assert len(povm.elements) == 1 << n

        ver = verify_povm(povm)
        assert ver.ok, ver.to_json_dict()
        assert abs(rho_eval(povm, cost) - objective) <= 1e-9
        assert max(fourier_diag_check(povm).to_json_dict().values()) <= 1e-9
        assert all_shifts_deviation(povm) <= ver.max_symmetry_dev * (1 + 1e-12)

    def test_above_cap_refused(self):
        with pytest.raises(BudgetError, match="capped"):
            state_psi(uniform_amps(POVM_MAX_N + 1), 0)


class TestStateFamilyRank:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_support_states_span_everything(self, n):
        rng = random.Random(13 + n)
        p = random_phase_profile(n, rng)
        gram = np.array([
            [np.vdot(state_psi(p, x), state_psi(p, y)) for y in all_vectors(n)]
            for x in all_vectors(n)
        ])
        assert np.linalg.matrix_rank(gram, tol=1e-10) == 1 << n


def seeded_sets(n):
    """Four sets from one seeded n-bit optimum: the covariant optimum, one
    element zeroed or left out of the mapping (so held as a zero element)
    with its mass moved to the leftover, and one element perturbed off
    Hermitian."""
    rng = random.Random(40 + n)
    p = random_phase_profile(n, rng)
    sol, _ = solve_primal(p, CostFunction.average(n), mode="float")
    base = build_from_primal(sol, p)
    key = next(iter(base.elements))
    mat = base.elements[key]
    kept = {k: m for k, m in base.elements.items() if k != key}
    zeroed = PovmSet.from_elements(n, {**base.elements, key: np.zeros_like(mat)},
                                   base.perp + mat, p)
    missing = PovmSet.from_elements(n, kept, base.perp + mat, p)
    noise = np.random.default_rng(n).normal(size=(2, 1 << n, 1 << n))
    skewed = PovmSet.from_elements(
        n, {**base.elements, key: mat + 1e-3 * (noise[0] + 1j * noise[1])}, base.perp, p)
    return {"optimum": base, "zeroed": zeroed, "missing": missing,
            "non-hermitian": skewed}


def gather_covariance_dev(code, stack):
    """povm._covariance_dev with each generator's permutation as a 2-D
    fancy-index gather of rows and columns and each outcome's partner
    gathered by index, the form it replaced."""
    idx, outcomes = np.arange(stack.shape[1]), np.arange(len(stack))
    dev = 0.0
    for a in (1 << j for j in range(code.n)):
        p = idx ^ a
        moved = stack[:, p[:, None], p]
        moved -= stack[outcomes ^ code.parity(a)]
        dev = max(dev, float(np.max(np.abs(moved))))
    return dev


def float_bits(values):
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


def assert_relabellings(povm):
    """X_a F[(H, y)] X_a is F[(H, y + H.a)] bit for bit, for every element
    and every generator a: `shifted` on a code's elements at once."""
    idx = np.arange(1 << povm.n)
    for code, stack in povm.stacks.items():
        for a in (1 << j for j in range(povm.n)):
            p = idx ^ a
            partners = np.arange(len(stack)) ^ code.parity(a)
            assert stack[:, p[:, None], p].tobytes() == stack[partners].tobytes()


def assert_same_sets(got, want):
    assert list(got.elements) == list(want.elements)
    for mat, ref in zip([*got.elements.values(), got.perp],
                        [*want.elements.values(), want.perp]):
        assert (mat.dtype, mat.shape) == (ref.dtype, ref.shape)
        assert mat.tobytes() == ref.tobytes()


SEEDED = [(n, label) for n in (1, 2, 3, 4)
          for label in ("optimum", "zeroed", "missing", "non-hermitian")] + [(5, "optimum")]


class TestFromElements:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_missing_outcome_is_its_zeroed_twin(self, n):
        # bit for bit: stacks, audits, score, Fourier check and symmetrize
        sets = seeded_sets(n)
        missing, zeroed = sets["missing"], sets["zeroed"]
        assert len(missing.elements) == len(sets["optimum"].elements)
        assert list(missing.stacks) == list(zeroed.stacks)
        assert not any(stack.flags.writeable for stack in missing.stacks.values())
        assert_same_sets(missing, zeroed)
        assert float_bits(verify_povm(missing).to_json_dict().values()) == \
            float_bits(verify_povm(zeroed).to_json_dict().values())
        assert float_bits(fourier_diag_check(missing).to_json_dict().values()) == \
            float_bits(fourier_diag_check(zeroed).to_json_dict().values())
        for cost in (CostFunction.average(n), CostFunction.threshold(n, 1)):
            assert float_bits([rho_eval(missing, cost)]) == \
                float_bits([rho_eval(zeroed, cost)])
        assert_same_sets(symmetrize(missing), symmetrize(zeroed))

    def test_outcomes_in_ascending_order(self):
        base = seeded_sets(2)["optimum"]
        shuffled = PovmSet.from_elements(2, dict(reversed(base.elements.items())),
                                         base.perp, base.profile)
        assert list(shuffled.stacks) == list(reversed(base.stacks))
        for code, stack in base.stacks.items():
            assert shuffled.stacks[code].tobytes() == stack.tobytes()

    @pytest.mark.parametrize("y", [-1, 4])
    def test_outcome_outside_range_refused(self, y):
        base = seeded_sets(2)["optimum"]
        code = next(code for code in base.stacks if code.k == 2)
        elements = {**base.elements, (code, y): np.zeros((4, 4), dtype=complex)}
        with pytest.raises(ValueError, match="outside range"):
            PovmSet.from_elements(2, elements, base.perp, base.profile)


class TestAuditsMatchLoops:
    """The per-code batched audits reproduce the element-by-element loops
    bit for bit."""

    @pytest.mark.parametrize("n,label", SEEDED)
    def test_verify_povm(self, n, label):
        povm = seeded_sets(n)[label]
        got = verify_povm(povm)
        assert float_bits(got.to_json_dict().values()) == \
            float_bits(verify_povm_loops(povm).to_json_dict().values())
        assert got.ok == (label == "optimum")

    @pytest.mark.parametrize("n,label", SEEDED)
    def test_rho_eval(self, n, label):
        povm = seeded_sets(n)[label]
        costs = [CostFunction.average(n), CostFunction.threshold(n, 1),
                 CostFunction.custom(n, [Fraction(1, 2)] + [1] * n)]
        for cost in costs:
            assert float_bits([rho_eval(povm, cost)]) == \
                float_bits([rho_eval_loops(povm, cost)])

    @pytest.mark.parametrize("n,label", SEEDED)
    def test_fourier_diag_check(self, n, label):
        povm = seeded_sets(n)[label]
        got = fourier_diag_check(povm)
        assert float_bits(got.to_json_dict().values()) == \
            float_bits(fourier_diag_check_loops(povm))

    @pytest.mark.parametrize("n,label", SEEDED)
    def test_symmetrize(self, n, label):
        povm = seeded_sets(n)[label]
        want = symmetrize_loops(povm)
        assert_same_sets(_shift_average(povm), want)
        if label == "non-hermitian":
            with pytest.raises(ValueError):
                symmetrize(povm)
        else:
            assert_same_sets(symmetrize(povm), want)

    @pytest.mark.parametrize("n,label", SEEDED)
    def test_covariance_matches_gather(self, n, label):
        # every set but the optimum breaks covariance on purpose
        povm = seeded_sets(n)[label]
        devs = [(_covariance_dev(code, stack), gather_covariance_dev(code, stack))
                for code, stack in _code_stacks(povm)]
        assert float_bits([got for got, _ in devs]) == float_bits([want for _, want in devs])
        assert (max(got for got, _ in devs) > 1e-6) == (label != "optimum")
        if n >= 3:
            # a rank >= 1 code with H.e_j = 0: a generator whose flip leaves
            # the outcome axes alone
            assert any(code.parity(1 << j) == 0
                       for code in povm.stacks for j in range(n))

    @pytest.mark.parametrize("n,label", SEEDED)
    def test_covariance_against_shift_matrices(self, n, label):
        # the generator figure bounds the deviation under every shift
        povm = seeded_sets(n)[label]
        reported = verify_povm(povm).max_symmetry_dev
        assert all_shifts_deviation(povm) <= reported * (1 + 1e-12)
