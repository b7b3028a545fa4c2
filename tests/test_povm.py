"""Operator synthesis: states, coset bases, construction, symmetrization."""

import cmath
import math
import random

import numpy as np
import pytest

from conftest import rand_rational_profile
from paritylp.errors import ProfileError
from paritylp.f2lin import F2Matrix, ParityCode, all_vectors, dot
from paritylp.lp import solve_primal
from paritylp.povm import (
    _shifted,
    build_from_primal,
    coset_basis,
    fourier_diag_check,
    phase_op,
    rho_eval,
    shift_op,
    state_psi,
    symmetrize,
    verify_povm,
    walsh_hadamard,
)
from paritylp.profiles import AmplitudeProfile, CostFunction


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
                assert np.array_equal(_shifted(m, a), xa @ m @ xa)


class TestCosetBasis:
    def test_n1_uniform(self):
        p = uniform_amps(1)
        code = ParityCode.full(1)
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
                v_s = cos.leader_min(s)
                for x in all_vectors(3):
                    if code.parity(x) != y:
                        continue
                    expected = (1 << 2) * (-1 if dot(v_s, x) else 1)
                    overlap = np.vdot(vec, state_psi(p, x))
                    assert overlap == pytest.approx(expected, abs=1e-10)

    def test_zero_amplitude_rejected(self):
        p = AmplitudeProfile.from_amplitudes(1, [1.0, 0.0])
        with pytest.raises(ProfileError):
            coset_basis(p, ParityCode.full(1), 0)


class TestBuildFromPrimal:
    def test_n1_uniform_full_recovery(self):
        p = uniform_amps(1)
        sol, rep = solve_primal(p, CostFunction.average(1))
        povm = build_from_primal(sol, p)
        code = ParityCode.full(1)
        assert povm.elements[(code, 0)] == pytest.approx(np.diag([1.0, 0.0]))
        assert povm.elements[(code, 1)] == pytest.approx(np.diag([0.0, 1.0]))
        assert povm.perp == pytest.approx(np.zeros((2, 2)))

    def test_all_mass_on_bottom_gives_identity_leftover(self):
        p = uniform_amps(2)
        from paritylp.lp import PrimalSolution

        bottom = ParityCode.bottom(2)
        values = {("mu", bottom, s): 0.25 for s in all_vectors(2)}
        sol = PrimalSolution.from_lp_values(p, values, 0.0)
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
            ver = verify_povm(povm, p)
            assert ver.gamma_ok and ver.symmetric_ok, ver.to_json_dict()
            assert rho_eval(povm, p, cost) == pytest.approx(
                float(rep.objective), abs=1e-8
            )

    def test_fourier_diagonal_values_are_lambda_over_2k(self):
        rng = random.Random(8)
        p = random_phase_profile(2, rng)
        sol, _ = solve_primal(p, CostFunction.average(2), mode="float")
        povm = build_from_primal(sol, p)
        w = walsh_hadamard(2)
        for (code, y), mat in povm.items():
            hat = w @ mat @ w
            for i in all_vectors(2):
                expected = float(sol.lam_at(code, i)) / (1 << code.k)
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
        values = {("mu", code, s): v for (code, s), v in mixed_mu.items()}
        mixed = PrimalSolution.from_lp_values(p, values, 0.5 * rep.objective)
        assert check_primal_feasible(mixed, p).feasible
        povm = build_from_primal(mixed, p)
        assert verify_povm(povm, p).ok
        assert rho_eval(povm, p, cost) == pytest.approx(
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
            for (code, y), mat in povm.items():
                s = state_psi(p, x)
                got = float(np.real(np.vdot(s, mat @ s)))
                expected = float(dist.get((code, y), 0.0))
                assert got == pytest.approx(expected, abs=1e-10)

    def test_threshold_cost_solution(self):
        rng = random.Random(9)
        p = random_phase_profile(2, rng)
        cost = CostFunction.threshold(2, 1)
        sol, rep = solve_primal(p, cost, mode="float")
        povm = build_from_primal(sol, p)
        ver = verify_povm(povm, p)
        assert ver.ok
        assert rho_eval(povm, p, cost) == pytest.approx(
            float(rep.objective), abs=1e-8
        )


class TestRhoEval:
    def test_perp_only_scores_zero(self):
        p = uniform_amps(2)
        from paritylp.povm import PovmSet

        povm = PovmSet(2, {}, np.eye(4, dtype=complex), p)
        assert rho_eval(povm, p, CostFunction.average(2)) == 0
        assert rho_eval(povm, p, CostFunction.threshold(2, 1)) == 0

    def test_n1_uniform_full_recovery_scores_one(self):
        p = uniform_amps(1)
        sol, _ = solve_primal(p, CostFunction.average(1))
        povm = build_from_primal(sol, p)
        assert rho_eval(povm, p, CostFunction.average(1)) == pytest.approx(1.0)


class TestSymmetrize:
    def test_symmetric_input_fixed_point(self):
        rng = random.Random(10)
        p = random_phase_profile(2, rng)
        sol, _ = solve_primal(p, CostFunction.average(2), mode="float")
        povm = build_from_primal(sol, p)
        sym = symmetrize(povm)
        for key, mat in povm.items():
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
        povm.elements[key] = np.zeros_like(dropped)
        povm.perp = povm.perp + dropped
        before = verify_povm(povm, p)
        assert before.gamma_ok and before.symmetric_ok is False
        rho_before = rho_eval(povm, p, cost)
        sym = symmetrize(povm)
        after = verify_povm(sym, p)
        assert after.gamma_ok and after.symmetric_ok
        assert rho_eval(sym, p, cost) == pytest.approx(rho_before, abs=1e-10)

    def test_rejects_invalid_input(self):
        p = uniform_amps(1)
        sol, _ = solve_primal(p, CostFunction.average(1))
        povm = build_from_primal(sol, p)
        povm.perp = povm.perp - 10 * np.eye(2)
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
