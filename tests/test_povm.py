"""Operator synthesis: states, coset bases, construction, symmetrization."""

import cmath
import math
import os
import random
import tracemalloc
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from conftest import (
    ball_profile,
    code_from_matrix,
    held,
    holding,
    lam_of,
    orbit_breaks,
    rand_rational_profile,
    relabelled,
    report_outcomes,
    stacks,
)
from test_cli import phased_profile
from paritylp.cli import dump_json
from paritylp.errors import BudgetError, ProfileError
from paritylp.f2lin import (
    F2Matrix,
    ParityCode,
    all_vectors,
    codes_of_rank,
    dot,
    enumerate_all_codes,
    vec_str,
)
from paritylp.lp import PrimalSolution, solve_primal
from paritylp.povm import (
    POVM_MAX_N,
    PovmSet,
    PovmVerification,
    _coset_states,
    _covariance_dev,
    _max,
    _overlaps,
    _relabelled,
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
from paritylp.profiles import AmplitudeProfile, CostFunction, perturb_full_support


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
    """A_s of outcome y for every syndrome s: outcome 0's from `_coset_states`,
    and outcome y's as X_a A_s (-1)^(a.v_s), with v_s the coset leader and a
    the least shift with H.a = y, the shift the builder relabels outcome 0 by."""
    a = int(code.least_shifts[y])
    p = np.arange(1 << code.n) ^ a
    return [-vec[p] if dot(a, int(v)) else vec[p] for vec, v in zip(
        _coset_states(profile, code, range(len(code.cosets))), code.leaders[0])]


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


def least_shift(code, y):
    """The least a with H.a = y."""
    return min(x for x in all_vectors(code.n) if code.parity(x) == y)


def orbit_reading(povm, every_element=False):
    """(code, y) -> (M, a) for every element and, keyed (bottom, 0), the
    leftover: the audits read the entries, spectrum and Fourier diagonal of
    outcome (code, y) off M, and its Born overlap with psi_x as that of M with
    psi_(x+a).  By default, the reading of a built set, M is outcome 0 and a
    the least shift with H.a = y, as F[(H, y)] = X_a F[(H, 0)] X_a and
    X_a psi_x = psi_(x+a); with `every_element`, the reading of a dense set,
    M is the element itself and a = 0."""
    keyed = {**povm.elements, (ParityCode.bottom(povm.n), 0): povm.perp}
    if every_element:
        return {key: (mat, 0) for key, mat in keyed.items()}
    return {(code, y): (keyed[(code, 0)], least_shift(code, y)) for code, y in keyed}


def top(values):
    """max(values), but NaN if any value is, as the audits' maxima read."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def least(values):
    """min(values), but NaN if any value is."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else min(values)


def rho_eval_loops(povm, cost, every_element=False):
    reading = orbit_reading(povm, every_element)
    states = [state_psi(povm.profile, x) for x in all_vectors(povm.n)]
    total = 0.0
    for (code, y) in povm.elements:
        ck = float(cost.values[code.k])
        if ck == 0.0:
            continue
        mat, a = reading[(code, y)]
        total += ck * sum(
            float(np.real(np.conj(states[x ^ a]) @ (mat @ states[x ^ a])))
            for x in all_vectors(povm.n)
        )
    c0 = float(cost.values[0])
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


def verify_povm_loops(povm, *, every_element=False, tol_hermitian=1e-12, tol_psd=1e-9,
                      tol_complete=1e-8, tol_unambig=1e-10, tol_symmetry=1e-9):
    n = povm.n
    size = 1 << n
    all_ops = list(povm.elements.values()) + [povm.perp]
    reading = orbit_reading(povm, every_element)
    read = [m for m, _ in reading.values()]

    herm = top(
        float(np.max(np.abs(m - m.conj().T))) for m in read
    )
    # eigvalsh fails on a non-finite entry: its spectrum reads NaN
    min_eig = least(
        float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2))) if np.isfinite(m).all()
        else math.nan for m in read
    )
    total = sum(all_ops[:-1], np.zeros((size, size), dtype=complex)) + povm.perp
    complete = float(np.linalg.norm(total - np.eye(size)))

    states = [state_psi(povm.profile, x) for x in all_vectors(n)]
    unambig = 0.0
    for (code, y) in povm.elements:
        mat, a = reading[(code, y)]
        for x in all_vectors(n):
            if code.parity(x) != y:
                s = states[x ^ a]
                unambig = top([unambig, abs(complex(np.conj(s) @ (mat @ s)))])

    # covariance on the generators e_1..e_n, reported as n times the largest
    # deviation: a bound on the deviation under every shift
    sym_dev = 0.0
    generators = [1 << j for j in range(n)]
    for (code, y), mat in povm.elements.items():
        for a in generators:
            partner = povm.elements[(code, y ^ code.parity(a))]
            sym_dev = top([sym_dev, float(np.max(np.abs(shifted(mat, a) - partner)))])
    for a in generators:
        moved = shifted(povm.perp, a)
        sym_dev = top([sym_dev, float(np.max(np.abs(moved - povm.perp)))])
    sym_dev = n * sym_dev

    gamma_ok = (
        herm <= tol_hermitian
        and min_eig >= -tol_psd
        and complete <= tol_complete
        and unambig <= tol_unambig
    )
    return PovmVerification(herm, min_eig, complete, unambig, sym_dev,
                            gamma_ok, sym_dev <= tol_symmetry)


def fourier_diag_check_loops(povm, every_element=False):
    n = povm.n
    w_mat = walsh_hadamard(n)
    weights = povm.profile.weights_float
    reading = orbit_reading(povm, every_element)
    offdiag = 0.0
    factor = 0.0
    spread = 0.0

    groups = {}
    for (code, y), mat in {**povm.elements, (ParityCode.bottom(n), 0): povm.perp}.items():
        groups.setdefault(code, []).append((mat, reading[(code, y)][0]))

    for code, pairs in groups.items():
        mats = [mat for mat, _ in pairs]
        agg = sum(mats[1:], mats[0].copy())
        agg_hat = w_mat @ agg @ w_mat
        off = agg_hat - np.diag(np.diag(agg_hat))
        offdiag = top([offdiag, float(np.max(np.abs(off)))])
        scale = 1 << code.k
        for _, read in pairs:
            mat_hat_diag = np.real(np.diag(w_mat @ read @ w_mat))
            factor = top([factor, float(np.max(np.abs(
                np.real(np.diag(agg_hat)) - scale * mat_hat_diag
            )))])
            cos = code.cosets
            for s in range(len(cos)):
                vals = [weights[i] * mat_hat_diag[i] for i in cos[s].tolist()]
                spread = top([spread, top(vals) - least(vals)])
    return (offdiag, factor, float(spread))


def covariance_dev_loops(code, stack):
    """max |shifted(F_y, a) - F_(y + H.a)| over the elements F_y of a code's
    stack and the generators a = e_1..e_n, one element at a time; NaN if any
    difference is.  A generator under which every element equals its
    partner, value for value, adds nothing, as the audit skips it."""
    dev = 0.0
    for a in (1 << j for j in range(code.n)):
        pairs = [(shifted(mat, a), stack[y ^ code.parity(a)]) for y, mat in enumerate(stack)]
        if all(np.array_equal(moved, partner) for moved, partner in pairs):
            continue
        for moved, partner in pairs:
            diff = float(np.max(np.abs(moved - partner)))
            dev = math.nan if math.isnan(diff) or math.isnan(dev) else max(dev, diff)
    return dev


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_relabelled_is_shifted(self, n):
        # byte for byte, element by element: a scalar shift on a stack, and
        # an array of shifts, its axes in front, on one matrix
        size = 1 << n
        rng = np.random.default_rng(70 + n)
        stack = rng.normal(size=(3, size, size)) + 1j * rng.normal(size=(3, size, size))
        for a in all_vectors(n):
            moved = _relabelled(stack, a)
            assert [m.tobytes() for m in moved] == [shifted(m, a).tobytes() for m in stack]
        shifts = np.arange(size).reshape(2, size // 2)
        moved = _relabelled(stack[0], shifts)
        assert moved.shape == (2, size // 2, size, size)
        assert [m.tobytes() for row in moved for m in row] == \
            [shifted(stack[0], a).tobytes() for a in all_vectors(n)]


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
        code = code_from_matrix(F2Matrix(2, (3,)))
        for y in (0, 1):
            basis = coset_basis(p, code, y)
            assert abs(np.vdot(basis[0], basis[1])) < 1e-12

    def test_overlap_with_wrong_states_is_zero(self):
        rng = random.Random(6)
        for n in (1, 2, 3):
            p = random_phase_profile(n, rng)
            for k in range(1, n + 1):
                code = code_from_matrix(
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
        code = code_from_matrix(F2Matrix(3, (3, 5)))
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
        # outcome 0 bit for bit, signed zeros of real-amplitude profiles
        # included; a relabelled outcome value for value, since its zeros may
        # take the other sign (the elements match bit for bit, in
        # TestBuildFromPrimal::test_matches_loops)
        rng = random.Random(60 + n)
        p = random_phase_profile(n, rng)
        if phases == "real":
            p = rand_rational_profile(n, rng).with_real_amplitudes()
        for code in enumerate_all_codes(n):
            got, want = coset_basis(p, code, 0), coset_basis_loops(p, code, 0)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
            for y in range(1, 1 << code.k):
                got, want = coset_basis(p, code, y), coset_basis_loops(p, code, y)
                assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


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
        built, elements = stacks(povm), povm.elements
        assert list(built) == list(held(povm))[:-1]
        for code, stack in built.items():
            # the set holds outcome 0 alone, one row, and builds each stack on
            # read as outcome 0 relabelled to every outcome
            zero = held(povm)[code]
            assert zero.shape == (1, 8, 8) and not zero.flags.writeable
            assert len(stack) == 1 << code.k and not stack.flags.writeable
            assert stack.tobytes() == _relabelled(zero[0], code.least_shifts).tobytes()
            for y in range(len(stack)):
                assert not elements[(code, y)].flags.writeable
                assert elements[(code, y)].tobytes() == stack[y].tobytes()
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
        povm = PovmSet(1, stacks(povm), povm.perp - 10 * np.eye(2), p)
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
        objective = float(cost.values[n]) * (1 << n) * min(w)
        povm = build_from_primal(PrimalSolution(n, values, objective), p)
        assert len(povm.elements) == 1 << n

        ver = verify_povm(povm)
        assert ver.ok, ver.to_json_dict()
        assert abs(rho_eval(povm, cost) - objective) <= 1e-9
        assert max(fourier_diag_check(povm).to_json_dict().values()) <= 1e-9
        assert all_shifts_deviation(povm) <= ver.max_symmetry_dev * (1 + 1e-12)
        every = stacks(povm, leftover=True).items()
        assert float_bits([_covariance_dev(code, stack) for code, stack in every]) == \
            float_bits([covariance_dev_loops(code, stack) for code, stack in every])
        assert_symmetry_dev(povm)
        assert_audits_match_loops(povm)

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


def float_bits(values):
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


def assert_symmetry_dev(povm):
    """`verify_povm`'s max_symmetry_dev is n times the largest
    `_covariance_dev` of every held stack, bit for bit, NaN kept."""
    want = povm.n * reduce(_max, [_covariance_dev(c, s) for c, s in held(povm).items()], 0.0)
    assert float_bits([verify_povm(povm).max_symmetry_dev]) == float_bits([want])


def assert_relabellings(povm):
    """X_a F[(H, y)] X_a is F[(H, y + H.a)] bit for bit, for every element
    and every generator a: `shifted` on a code's elements at once."""
    idx = np.arange(1 << povm.n)
    for code, stack in stacks(povm).items():
        for a in (1 << j for j in range(povm.n)):
            p = idx ^ a
            partners = np.arange(len(stack)) ^ code.parity(a)
            assert stack[:, p[:, None], p].tobytes() == stack[partners].tobytes()


def assert_audits_match_loops(povm, every_element=False):
    """`verify_povm`, `fourier_diag_check` and `rho_eval` give the
    element-loop oracles' figures bit for bit: their outcome-0 reading for a
    built set, their every-element reading for a dense one."""
    n = povm.n
    assert float_bits(verify_povm(povm).to_json_dict().values()) == \
        float_bits(verify_povm_loops(povm, every_element=every_element).to_json_dict().values())
    assert float_bits(fourier_diag_check(povm).to_json_dict().values()) == \
        float_bits(fourier_diag_check_loops(povm, every_element))
    for cost in (CostFunction.average(n), CostFunction.threshold(n, 1),
                 CostFunction(n, [Fraction(1, 2)] + [1] * n)):
        assert float_bits([rho_eval(povm, cost)]) == \
            float_bits([rho_eval_loops(povm, cost, every_element)])


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
        assert list(stacks(missing)) == list(stacks(zeroed))
        assert not any(stack.flags.writeable for stack in stacks(missing).values())
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
        assert list(stacks(shuffled)) == list(reversed(stacks(base)))
        for code, stack in stacks(base).items():
            assert stacks(shuffled)[code].tobytes() == stack.tobytes()

    @pytest.mark.parametrize("y", [-1, 4])
    def test_outcome_outside_range_refused(self, y):
        base = seeded_sets(2)["optimum"]
        code = next(code for code in stacks(base) if code.k == 2)
        elements = {**base.elements, (code, y): np.zeros((4, 4), dtype=complex)}
        with pytest.raises(ValueError, match="outside range"):
            PovmSet.from_elements(2, elements, base.perp, base.profile)

    def test_code_of_another_n_refused(self):
        # an n=2 code in an n=1 set, which the audits would index past its end
        base = seeded_sets(1)["optimum"]
        code = codes_of_rank(2, 1)[0]
        elements = {**base.elements, (code, 0): np.zeros((2, 2), dtype=complex)}
        with pytest.raises(ValueError, match="on 2 bits in a set on 1"):
            PovmSet.from_elements(1, elements, base.perp, base.profile)

    def test_rank_0_code_refused(self):
        # a valid n=1 set of two identity halves, one given as the rank-0
        # outcome: the leftover perp is that outcome, so the set is refused
        # rather than held with two no-information elements
        half = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError, match="rank-0"):
            PovmSet.from_elements(1, {(ParityCode.bottom(1), 0): half}, half, uniform_amps(1))


class TestAuditsMatchLoops:
    """The per-code batched audits reproduce the element-by-element loops
    bit for bit."""

    @pytest.mark.parametrize("n,label", SEEDED)
    def test_verify_povm(self, n, label):
        # the built optimum is read off outcome 0, every dense set element
        # by element
        povm = seeded_sets(n)[label]
        got = verify_povm(povm)
        every = label != "optimum"
        assert float_bits(got.to_json_dict().values()) == \
            float_bits(verify_povm_loops(povm, every_element=every).to_json_dict().values())
        assert got.ok == (label == "optimum")

    @pytest.mark.parametrize("n,label", SEEDED)
    def test_rho_eval(self, n, label):
        povm = seeded_sets(n)[label]
        costs = [CostFunction.average(n), CostFunction.threshold(n, 1),
                 CostFunction(n, [Fraction(1, 2)] + [1] * n)]
        for cost in costs:
            assert float_bits([rho_eval(povm, cost)]) == \
                float_bits([rho_eval_loops(povm, cost, every_element=label != "optimum")])

    @pytest.mark.parametrize("n,label", SEEDED)
    def test_fourier_diag_check(self, n, label):
        povm = seeded_sets(n)[label]
        got = fourier_diag_check(povm)
        assert float_bits(got.to_json_dict().values()) == \
            float_bits(fourier_diag_check_loops(povm, every_element=label != "optimum"))

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
        # every set but the optimum breaks covariance on purpose; the
        # reference walks the elements one at a time through `shifted`
        povm = seeded_sets(n)[label]
        devs = [(_covariance_dev(code, stack), covariance_dev_loops(code, stack))
                for code, stack in stacks(povm, leftover=True).items()]
        assert float_bits([got for got, _ in devs]) == float_bits([want for _, want in devs])
        assert_symmetry_dev(povm)
        assert (max(got for got, _ in devs) > 1e-6) == (label != "optimum")
        if n >= 3:
            # a rank >= 1 code with H.e_j = 0: a generator whose flip leaves
            # the outcome axes alone
            assert any(code.parity(1 << j) == 0
                       for code in stacks(povm) for j in range(n))

    @pytest.mark.parametrize("n,label", SEEDED)
    def test_orbit_reading_matches_every_element(self, n, label):
        # a dense copy of a set holds every element and is read element by
        # element, as the every-element loops read it; reading the built,
        # exactly covariant optimum off outcome 0 instead moves the figures
        # by rounding alone, and no verdict
        povm = seeded_sets(n)[label]
        dense = PovmSet.from_elements(n, povm.elements, povm.perp, povm.profile)
        assert all(len(stack) == 1 << code.k for code, stack in held(dense).items())
        assert all(len(stack) == 1 for stack in held(povm).values()) == (label == "optimum")
        assert_audits_match_loops(dense, every_element=True)
        orbit, every = verify_povm(povm).to_json_dict(), verify_povm(dense).to_json_dict()
        for key, value in orbit.items():
            if isinstance(value, bool):
                assert value == every[key], key
            else:
                assert abs(value - every[key]) <= 1e-15, key
        for got, want in zip(fourier_diag_check(povm).to_json_dict().values(),
                             fourier_diag_check(dense).to_json_dict().values()):
            assert abs(got - want) <= 1e-15
        for cost in (CostFunction.average(n), CostFunction.threshold(n, 1)):
            assert math.isclose(rho_eval(povm, cost), rho_eval(dense, cost),
                                rel_tol=1e-14, abs_tol=0)

    @pytest.mark.parametrize("n,label", SEEDED)
    def test_covariance_against_shift_matrices(self, n, label):
        # the generator figure bounds the deviation under every shift
        povm = seeded_sets(n)[label]
        reported = verify_povm(povm).max_symmetry_dev
        assert all_shifts_deviation(povm) <= reported * (1 + 1e-12)

    @pytest.mark.parametrize("name", ["minus-zero", "kernel-shift"])
    def test_orbit_breaks(self, name):
        # a dense set, so every code, the broken one too, is held as its 2^k
        # outcomes and read element by element, as the loops read it;
        # "minus-zero" relabels outcome 0 value for value, but not byte for byte
        povm, broken = orbit_breaks()[1][name]
        assert len(held(povm)[broken]) == 1 << broken.k
        assert_audits_match_loops(povm, every_element=True)

    def test_nan_break_reads_nan(self):
        # a dense set, so its figures are also the loops' every-element
        # reading, NaN kept
        povm, _ = orbit_breaks()[1]["nan"]
        ver = verify_povm(povm).to_json_dict()
        figures = [v for v in ver.values() if isinstance(v, float)]
        figures += [*fourier_diag_check(povm).to_json_dict().values(),
                    rho_eval(povm, CostFunction.average(3))]
        assert len(figures) == 9 and all(map(math.isnan, figures))
        assert not (ver["gamma_ok"] or ver["symmetric_ok"] or ver["ok"])
        assert_audits_match_loops(povm, every_element=True)


def with_outcome_1(base, code, mat):
    """The set `base` with outcome 1 of `code` replaced by `mat`."""
    return PovmSet.from_elements(base.n, {**base.elements, (code, 1): mat},
                                 base.perp, base.profile)


class TestOrbitReading:
    """A code is read off outcome 0 exactly when it is held as outcome 0
    alone, one row: a code held as its 2^k outcomes takes the
    element-by-element path, however close to an orbit it is."""

    def test_negative_eigenvalue_off_outcome_0_is_found(self):
        # outcome 1 is the relabelled outcome 0 less 1e-6 |v><v| for a unit v
        # in its kernel: outcome 0 alone shows no negative eigenvalue
        base = seeded_sets(3)["optimum"]
        code = next(code for code in stacks(base) if code.k == 3)
        relabelled = shifted(base.elements[(code, 0)], least_shift(code, 1))
        values, vectors = np.linalg.eigh(relabelled)
        assert abs(values[0]) < 1e-12
        v = vectors[:, 0]
        povm = with_outcome_1(base, code, relabelled - 1e-6 * np.outer(v, np.conj(v)))
        ver = verify_povm(povm)
        assert ver.min_eigenvalue <= -5e-7
        assert verify_povm(base).min_eigenvalue > -1e-12
        assert not ver.gamma_ok and not ver.symmetric_ok

    def test_one_ulp_off_takes_the_element_path(self):
        # one Hermitian pair of entries of outcome 1 a ulp off the relabelled
        # outcome 0: the code, held as its 2^k outcomes, is read element by
        # element, and its overlaps, which differ in bits from those read off
        # outcome 0, are those of its elements
        base = seeded_sets(3)["optimum"]
        code = next(code for code in stacks(base) if code.k == 3)
        mat = shifted(base.elements[(code, 0)], least_shift(code, 1))
        assert mat.tobytes() == base.elements[(code, 1)].tobytes() and mat[0, 1].real
        mat[0, 1] = complex(np.nextafter(mat[0, 1].real, np.inf), mat[0, 1].imag)
        mat[1, 0] = np.conj(mat[0, 1])
        povm = with_outcome_1(base, code, mat)
        at = list(stacks(povm)).index(code)
        stack = stacks(povm)[code]
        assert held(povm)[code].tobytes() == stack.tobytes() and len(stack) == 8
        assert 0 < _covariance_dev(code, stack) < 1e-15
        assert verify_povm(povm).max_symmetry_dev > 0

        states = _states(povm.profile)
        direct = _overlaps(stack, states)
        x = np.arange(len(states))
        read_off_0 = np.stack([_overlaps(stack[:1], states)[0][x ^ least_shift(code, y)]
                               for y in range(len(stack))])
        assert read_off_0.tobytes() != direct.tobytes()
        assert povm.overlaps[at].tobytes() == direct.tobytes()
        assert_audits_match_loops(povm, every_element=True)


class TestNonFinite:
    """A non-finite entry neither passes nor crashes the audits: every
    deviation and maximum it reaches reads NaN (inf where the entry is
    infinite and no NaN arises), and every verdict is false."""

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_entry(self, entry):
        base = seeded_sets(3)["optimum"]
        code = next(code for code in stacks(base) if code.k == 3)
        mat = base.elements[(code, 1)].copy()
        mat[0, 1] = complex(entry, mat[0, 1].imag)
        povm = with_outcome_1(base, code, mat)
        # numpy warns of the inf - inf in the products; the figures say it
        with np.errstate(invalid="ignore"):
            dev = _covariance_dev(code, stacks(povm)[code])
            ver = verify_povm(povm)
            fourier = fourier_diag_check(povm).to_json_dict()
        assert not ver.gamma_ok and not ver.symmetric_ok and not ver.ok
        figures = [dev, ver.max_hermitian_dev, ver.min_eigenvalue, ver.completeness_frobenius,
                   ver.max_unambiguity_trace, ver.max_symmetry_dev, *fourier.values()]
        assert not any(map(math.isfinite, figures))
        if math.isnan(entry):
            assert all(map(math.isnan, figures))

    @pytest.mark.parametrize("case,rank,want,subtractions", [
        # an inf on the orbit of a rank-3 code: every generator moves it onto
        # an equal inf and is skipped
        ("covariant", 3, 0.0, 0),
        # on the orbit of a rank-1 code, the generators of ker H move it
        # within its element, onto finite entries
        ("covariant", 1, math.inf, 0),
        ("lone", 3, math.inf, 0),
        # the orbit plus 1e-3 off it: no generator is skipped, and each that
        # meets the inf subtracts inf - inf, which numpy warns of
        ("break", 3, math.nan, 3),
        ("break", 1, math.nan, 1),
    ])
    def test_inf_entry_covariance(self, case, rank, want, subtractions):
        base = seeded_sets(3)["optimum"]
        code = next(code for code in stacks(base) if code.k == rank)
        zero = base.elements[(code, 0)].copy()
        zero[0, 1] = complex(math.inf, zero[0, 1].imag)
        elements = relabelled(zero, code)
        if case == "lone":
            elements = {(code, 1): base.elements[(code, 1)].copy()}
            elements[(code, 1)][0, 1] = complex(math.inf, zero[0, 1].imag)
        elif case == "break":
            elements[(code, 1)][2, 3] += 1e-3
        stack = stacks(PovmSet.from_elements(3, {**base.elements, **elements}, base.perp,
                                             base.profile))[code]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dev = _covariance_dev(code, stack)
        assert [str(w.message) for w in caught] == \
            ["invalid value encountered in subtract"] * subtractions
        assert float_bits([dev]) == float_bits([want])
        with np.errstate(invalid="ignore"):
            assert float_bits([covariance_dev_loops(code, stack)]) == float_bits([want])

    @pytest.mark.parametrize("value,want", [(complex(math.nan, 0.5), math.nan),
                                            (complex(math.inf, math.nan), math.inf)])
    def test_non_finite_wrong_outcome_overlap(self, value, want):
        # one wrong-outcome Born overlap of a rank-2 code set to `value`: the
        # audit's vector maximum and the Python walk over abs read the same,
        # with no warning
        base = seeded_sets(3)["optimum"]
        povm = PovmSet(base.n, stacks(base), base.perp, base.profile)
        at = next(i for i, code in enumerate(stacks(povm)) if code.k == 2)
        code = list(stacks(povm))[at]
        overlaps = [rows.copy() for rows in base.overlaps]
        wrong = code.parities != np.arange(1 << code.k)[:, None]
        y, x = np.argwhere(wrong)[1]
        overlaps[at][y, x] = value
        povm.__dict__["overlaps"] = overlaps
        walk = 0.0
        for (code, stack), rows in zip(stacks(povm, leftover=True).items(), overlaps):
            wrong = code.parities != np.arange(len(stack))[:, None]
            walk = reduce(_max, map(abs, rows[wrong].tolist()), walk)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = verify_povm(povm).max_unambiguity_trace
        assert float_bits([got]) == float_bits([walk]) == float_bits([want])


ORBIT_CASES = [(n, family, tau) for n in (3, 4, 5) for family in ("rational", "phased", "ball")
               for tau in (None, 2)]


class TestExactOrbits:
    """How a code is held decides how it is read, with no test of its bytes.
    Every code `build_from_primal` makes is held as outcome 0 alone, one row,
    has deviation 0 on the generators of ker H and is reported as its
    outcome 0 and shifts; `verify_povm` runs `_covariance_dev` on every held
    stack, and its max_symmetry_dev is n times the largest deviation."""

    @pytest.mark.parametrize("n,family,tau", ORBIT_CASES)
    def test_every_built_code_passes(self, n, family, tau):
        rng = random.Random(f"orbit/{n}/{family}/{tau}")
        cost = CostFunction.average(n) if tau is None else CostFunction.threshold(n, tau)
        codes = 0
        for _ in range(8):
            if family == "phased":
                p, mode = random_phase_profile(n, rng), "float"
            elif family == "rational":
                p, mode = rand_rational_profile(n, rng).with_real_amplitudes(), "exact"
            else:
                ball = perturb_full_support(ball_profile(n, 2, rng), Fraction(1, 50))
                p, mode = ball.with_real_amplitudes(), "exact"
            povm = build_from_primal(solve_primal(p, cost, mode)[0], p)
            built, rows = stacks(povm), held(povm)
            codes += len(built)
            assert all(len(rows[code]) == 1 for code in built)
            assert_relabellings(povm)
            devs = [_covariance_dev(code, stack) for code, stack in rows.items()]
            assert float_bits(devs[:len(built)]) == float_bits([0.0] * len(built))
            assert_symmetry_dev(povm)
            report = povm.to_json_dict()["codes"]
            assert [entry["H"] for entry in report] == \
                [code.label() for code in sorted(built, key=lambda code: code.sort_key)]
            for entry in report:
                code = next(code for code in built if code.label() == entry["H"])
                # the report holds outcome 0 itself, not a copy, and its shifts
                (zero,) = entry["held"]
                assert zero.base is rows[code].base and zero.shape == rows[code].shape[1:]
                assert entry["shifts"] == [vec_str(least_shift(code, y), n)
                                           for y in range(1 << code.k)]
                assert np.stack(report_outcomes(entry)).tobytes() == built[code].tobytes()
        assert codes > 0

    def test_deviation_only_off_the_orbit(self, monkeypatch):
        # verify_povm runs `_covariance_dev` once on each held stack, as held:
        # one row for each built code, 2^k rows for each code of a dense set;
        # of the codes, only the broken one of a break deviates, and
        # "minus-zero" by a sign of zero alone, which is no deviation in value
        base, breaks = orbit_breaks()
        seen = []
        real = _covariance_dev
        monkeypatch.setattr("paritylp.povm._covariance_dev",
                            lambda code, stack: seen.append((code, len(stack))) or real(code, stack))
        for name, (povm, broken) in [("base", (base, None)), *breaks.items()]:
            seen.clear()
            verify_povm(povm)
            rows = held(povm)
            assert seen == [(code, len(stack)) for code, stack in rows.items()]
            assert [len(stack) for stack in rows.values()][:-1] == \
                [1 if povm is base else 1 << code.k for code in list(rows)[:-1]]
            assert [code for code, stack in list(rows.items())[:-1] if real(code, stack) != 0.0] == \
                ([] if broken is None or name == "minus-zero" else [broken])

    def test_breaks_take_the_deviation(self):
        # each break is a dense set, every code held as its 2^k outcomes and
        # checked on e_1..e_n; the broken code alone deviates in value
        base, breaks = orbit_breaks()
        assert all(len(stack) == 1 for stack in held(base).values())
        for name, (povm, broken) in breaks.items():
            rows = held(povm)
            codes = list(stacks(povm))
            assert [len(rows[code]) for code in codes] == [1 << code.k for code in codes], name
            devs = [_covariance_dev(code, stack) for code, stack in rows.items()]
            assert_symmetry_dev(povm)
            assert float_bits(devs) == float_bits(
                [covariance_dev_loops(code, stack) for code, stack in rows.items()]), name
            assert [dev == 0.0 for dev in devs[:len(codes)]] == \
                [code != broken or name == "minus-zero" for code in codes], name
            dev = devs[codes.index(broken)]
            assert {"minus-zero": dev == 0.0, "nan": math.isnan(dev),
                    "kernel-shift": dev > 1e-4}[name]
            # the broken code's elements are its outcome 0 relabelled, but for
            # the -0.0 of "minus-zero"
            stack = stacks(povm)[broken]
            again = np.stack(list(relabelled(stack[0], broken).values()))
            assert (again.tobytes() == stack.tobytes()) == (name != "minus-zero")

    @pytest.mark.parametrize("name", ["nan", "kernel-shift"])
    def test_held_outcome_0_off_the_orbit(self, name):
        # the broken code held by its edited outcome 0 alone, one row, has the
        # dense copy's elements, and is read off outcome 0 as every one-row
        # stack is, with covariance on the generators of ker H
        base, breaks = orbit_breaks()
        dense, code = breaks[name]
        one = holding(base, code, stacks(dense)[code][:1])
        assert held(one)[code].shape == (1, 8, 8)
        assert [s.tobytes() for s in stacks(one).values()] == \
            [s.tobytes() for s in stacks(dense).values()]
        # the loops' outcome-0 reading, bit for bit, NaN kept, but for the
        # covariance, which the audit takes on the generators of ker H
        ver, want = verify_povm(one).to_json_dict(), verify_povm_loops(one).to_json_dict()
        sym, symmetric_ok = ver.pop("max_symmetry_dev"), ver.pop("symmetric_ok")
        del want["max_symmetry_dev"], want["symmetric_ok"]
        assert float_bits(ver.values()) == float_bits(want.values())
        assert float_bits(fourier_diag_check(one).to_json_dict().values()) == \
            float_bits(fourier_diag_check_loops(one))
        assert float_bits([rho_eval(one, CostFunction.average(3))]) == \
            float_bits([rho_eval_loops(one, CostFunction.average(3))])
        if name == "nan":
            # ker H of the rank-3 code is 0, and its outcomes carry the NaN
            # onto one another exactly: the deviation is the leftover's alone
            assert math.isnan(ver["max_hermitian_dev"]) and not ver["gamma_ok"]
            assert sym == verify_povm(base).max_symmetry_dev and symmetric_ok
        else:
            # n times the deviation on ker H still bounds every shift's
            assert 1e-4 < all_shifts_deviation(one) <= sym * (1 + 1e-12)
            assert not symmetric_ok

        def outcomes(s):
            return [[m.tobytes() for m in report_outcomes(entry)]
                    for entry in s.to_json_dict()["codes"]]

        # written as held, as outcome 0 and its shifts, and rebuilt bit for bit
        (entry,) = [e for e in one.to_json_dict()["codes"] if e["H"] == code.label()]
        assert len(entry["held"]) == 1
        assert outcomes(one) == outcomes(dense)


class TestStorage:
    """A built set holds each code as one row, a view of its (2^n, 2^n)
    outcome 0, and its leftover, and the povm job's peak stays near one
    code's stack."""

    @pytest.fixture(scope="class")
    def phased5(self):
        p = AmplitudeProfile.from_json_dict(phased_profile(5, random.Random("ci/phased5")))
        return p, solve_primal(p, CostFunction.average(5), "float")[0]

    def test_holds_outcome_0_alone(self, phased5):
        p, sol = phased5
        povm = build_from_primal(sol, p)
        rows = list(held(povm).values())
        assert len(rows) > 2 and all(s.shape == (1, 32, 32) for s in rows)
        # each code's row is a read-only view of its outcome 0, not a copy
        assert not any(s.flags.owndata or s.flags.writeable for s in rows[:-1])
        assert sum(s.base.nbytes for s in rows) == len(rows) * 16 * 4 ** 5

    def test_report_peak(self, phased5):
        p, sol = phased5
        cost = CostFunction.average(5)

        def job():
            povm = build_from_primal(sol, p)
            verify_povm(povm)
            fourier_diag_check(povm)
            rho_eval(povm, cost)
            with open(os.devnull, "w") as fh:
                dump_json(povm.to_json_dict(), fh)

        job()  # fills the caches the job reads: the Walsh matrix, the code tables
        tracemalloc.start()
        try:
            job()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
