"""Explicit measurement operators from primal solutions, with verification.

Every element attached to a (code, y) outcome is a mixture of rank-one
projectors onto the coset states A_s, weighted by mu[(code, s)] / 2^k.  The
Fourier diagonal of such an element is lambda_i / 2^k, which makes the set
complete once the leftover goes to the no-information element, keeps every
wrong-outcome overlap exactly zero, and commutes with shifts up to the
outcome relabeling y -> y + H.a.  All of that is re-checked numerically by
``verify_povm`` instead of being trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ProfileError
from .f2lin import ParityCode, all_vectors, dot, enumerate_all_codes, vec_str
from .lp import PrimalSolution
from .profiles import AmplitudeProfile, CostFunction

POVM_MAX_N = 6

TOL_HERMITIAN = 1e-12
TOL_PSD = 1e-9
TOL_COMPLETE = 1e-8
TOL_UNAMBIG = 1e-10
TOL_SYMMETRY = 1e-9


@lru_cache(maxsize=None)
def walsh_hadamard(n: int) -> np.ndarray:
    """The unitary with entries (-1)^(i.j) / 2^(n/2), as a Sylvester Kronecker power."""
    mat = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * n, np.ones((1, 1)))
    mat /= np.sqrt(1 << n)
    mat.flags.writeable = False
    return mat


def _check_n(n: int) -> None:
    if n > POVM_MAX_N:
        raise ValueError(f"dense operator work capped at n <= {POVM_MAX_N}")


def state_psi(profile: AmplitudeProfile, x: int) -> np.ndarray:
    """Computational-basis vector of the x-shifted member of the family."""
    _check_n(profile.n)
    amps = profile.require_amplitudes()
    four = np.array(
        [a if dot(i, x) == 0 else -a for i, a in enumerate(amps)], dtype=complex
    )
    return walsh_hadamard(profile.n) @ four


def shift_op(a: int, n: int) -> np.ndarray:
    """Permutation matrix sending |x> to |x + a>."""
    _check_n(n)
    size = 1 << n
    mat = np.zeros((size, size))
    idx = np.arange(size)
    mat[idx ^ a, idx] = 1.0
    return mat


def _shifted(m: np.ndarray, a: int) -> np.ndarray:
    """X_a m X_a with X_a = shift_op(a, n), by permuting rows and columns."""
    p = np.arange(len(m)) ^ a
    return m[np.ix_(p, p)]


def phase_op(a: int, n: int) -> np.ndarray:
    """Diagonal matrix with entries (-1)^(a.x)."""
    _check_n(n)
    return np.diag([(-1.0 if dot(a, x) else 1.0) for x in all_vectors(n)])


def coset_basis(profile: AmplitudeProfile, code: ParityCode, y: int) -> list[np.ndarray]:
    """The per-syndrome states orthogonal to every wrong-outcome family member.

    A_s carries Fourier coefficients 1/conj(amplitude) with signs (-1)^(y.u)
    on the coset of syndrome s, anchored at the coset leader.  Distinct
    syndromes have disjoint Fourier support, so the list is orthogonal.
    """
    _check_n(profile.n)
    amps = profile.require_amplitudes()
    if any(a == 0 for a in amps):
        raise ProfileError(
            "coset states need full dual support; apply perturb_full_support"
        )
    size = 1 << profile.n
    w = walsh_hadamard(profile.n)
    cos = code.cosets
    out = []
    for s in range(cos.n_syndromes):
        v_s = cos.leader_min(s)
        four = np.zeros(size, dtype=complex)
        for u in range(1 << code.k):
            idx = code.H.transpose_mul(u) ^ v_s
            coeff = 1.0 / np.conj(amps[idx])
            if dot(y, u):
                coeff = -coeff
            four[idx] = coeff
        out.append(w @ four)
    return out


@dataclass
class PovmSet:
    """Operators for every informative (code, y) outcome plus the leftover."""

    n: int
    elements: dict
    perp: np.ndarray
    profile: AmplitudeProfile

    def bottom_code(self) -> ParityCode:
        return ParityCode.bottom(self.n)

    def items(self):
        return self.elements.items()

    def to_json_dict(self) -> dict:
        """The set with its operators as ndarrays; `cli.dump_json` writes each
        matrix as rows of {"re": real, "im": imag} dicts."""
        return {
            "n": self.n,
            "elements": [
                {"H": code.label(), "k": code.k, "y": vec_str(y, code.k),
                 "matrix": mat}
                for (code, y), mat in sorted(self.items(), key=lambda kv: kv[0])
            ],
            "perp": self.perp,
        }


def build_from_primal(sol: PrimalSolution, profile: AmplitudeProfile) -> PovmSet:
    """Assemble the measurement attached to a feasible primal point.

    F[(code, y)] = sum_s mu[(code, s)] / 2^k |A_s><A_s| for every rank >= 1
    code carrying mass; the no-information element is the completeness
    leftover, which the Fourier-diagonal structure keeps positive.
    """
    _check_n(profile.n)
    size = 1 << profile.n
    elements: dict = {}
    for code in enumerate_all_codes(profile.n):
        if code.k == 0:
            continue
        cos = code.cosets
        coeffs = [float(sol.mu_at(code, s)) / (1 << code.k)
                  for s in range(cos.n_syndromes)]
        if not any(coeffs):
            continue
        for y in range(1 << code.k):
            basis = coset_basis(profile, code, y)
            mat = np.zeros((size, size), dtype=complex)
            for c, vec in zip(coeffs, basis):
                if c:
                    mat += c * np.outer(vec, np.conj(vec))
            elements[(code, y)] = mat
    total = sum(elements.values(), np.zeros((size, size), dtype=complex))
    perp = np.eye(size, dtype=complex) - total
    return PovmSet(profile.n, elements, perp, profile)


def rho_eval(povm: PovmSet, profile: AmplitudeProfile, cost: CostFunction) -> float:
    """Average score over a uniform hidden string (the expectation form)."""
    states = [state_psi(profile, x) for x in all_vectors(povm.n)]
    total = 0.0
    for (code, y), mat in povm.items():
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


def symmetrize(povm: PovmSet, *, check_input: bool = True) -> PovmSet:
    """Average over shifts, landing in the shift-covariant class.

    F_bar[(code, y)] = 2^-n sum_a X_a F[(code, y + H.a)] X_a; validity of
    the input (positivity, completeness, unambiguity) is required and the
    output rescores identically under the expectation form.
    """
    if check_input:
        report = verify_povm(povm, povm.profile, check_symmetry=False)
        if not report.gamma_ok:
            raise ValueError("input fails the measurement-validity checks")
    n = povm.n
    size = 1 << n
    elements = {}
    groups: dict[ParityCode, list[int]] = {}
    for code, y in povm.elements:
        groups.setdefault(code, []).append(y)
    for code, ys in groups.items():
        for y in ys:
            acc = np.zeros((size, size), dtype=complex)
            for a in all_vectors(n):
                partner = povm.elements[(code, y ^ code.parity(a))]
                acc += _shifted(partner, a)
            elements[(code, y)] = acc / size
    perp = sum(
        (_shifted(povm.perp, a) for a in all_vectors(n)),
        np.zeros((size, size), dtype=complex),
    ) / size
    return PovmSet(n, elements, perp, povm.profile)


@dataclass
class PovmVerification:
    max_hermitian_dev: float
    min_eigenvalue: float
    completeness_frobenius: float
    max_unambiguity_trace: float
    max_symmetry_dev: float | None
    gamma_ok: bool
    symmetric_ok: bool | None

    @property
    def ok(self) -> bool:
        return self.gamma_ok and (self.symmetric_ok is not False)

    def to_json_dict(self) -> dict:
        return {
            "max_hermitian_dev": self.max_hermitian_dev,
            "min_eigenvalue": self.min_eigenvalue,
            "completeness_frobenius": self.completeness_frobenius,
            "max_unambiguity_trace": self.max_unambiguity_trace,
            "max_symmetry_dev": self.max_symmetry_dev,
            "gamma_ok": self.gamma_ok,
            "symmetric_ok": self.symmetric_ok,
            "ok": self.ok,
        }


def verify_povm(povm: PovmSet, profile: AmplitudeProfile, *,
                tol_hermitian: float = TOL_HERMITIAN,
                tol_psd: float = TOL_PSD,
                tol_complete: float = TOL_COMPLETE,
                tol_unambig: float = TOL_UNAMBIG,
                tol_symmetry: float = TOL_SYMMETRY,
                check_symmetry: bool = True) -> PovmVerification:
    """Numerically audit every defining property of the measurement set."""
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

    states = [state_psi(profile, x) for x in all_vectors(n)]
    unambig = 0.0
    for (code, y), mat in povm.items():
        for x in all_vectors(n):
            if code.parity(x) != y:
                s = states[x]
                unambig = max(unambig, abs(complex(np.conj(s) @ (mat @ s))))

    sym_dev = None
    if check_symmetry:
        sym_dev = 0.0
        for (code, y), mat in povm.items():
            for a in all_vectors(n):
                partner = povm.elements.get((code, y ^ code.parity(a)))
                moved = _shifted(mat, a)
                if partner is None:
                    sym_dev = max(sym_dev, float(np.max(np.abs(moved))))
                else:
                    sym_dev = max(sym_dev, float(np.max(np.abs(moved - partner))))
        for a in all_vectors(n):
            moved = _shifted(povm.perp, a)
            sym_dev = max(sym_dev, float(np.max(np.abs(moved - povm.perp))))

    gamma_ok = (
        herm <= tol_hermitian
        and min_eig >= -tol_psd
        and complete <= tol_complete
        and unambig <= tol_unambig
    )
    symmetric_ok = None if sym_dev is None else sym_dev <= tol_symmetry
    return PovmVerification(herm, min_eig, complete, unambig, sym_dev,
                            gamma_ok, symmetric_ok)


@dataclass
class FourierDiagReport:
    max_offdiagonal: float
    max_factor_dev: float
    max_coset_spread: float

    def to_json_dict(self) -> dict:
        return {
            "max_offdiagonal": self.max_offdiagonal,
            "max_factor_dev": self.max_factor_dev,
            "max_coset_spread": self.max_coset_spread,
        }


def fourier_diag_check(povm: PovmSet) -> FourierDiagReport:
    """Check the two Fourier-side structure facts of a shift-covariant set.

    (i) The per-code aggregate sum_y F[(code, y)] is Fourier-diagonal with
    entries 2^k times any single element's diagonal (y-independence);
    (ii) weight * Fourier diagonal is constant on every dual coset.
    """
    n = povm.n
    w_mat = walsh_hadamard(n)
    weights = povm.profile.weights_float
    offdiag = 0.0
    factor = 0.0
    spread = 0.0

    groups: dict[ParityCode, list[np.ndarray]] = {}
    for (code, y), mat in povm.items():
        groups.setdefault(code, []).append(mat)
    groups.setdefault(povm.bottom_code(), []).append(povm.perp)

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
            for s in range(cos.n_syndromes):
                vals = [weights[i] * mat_hat_diag[i] for i in cos.members_of(s)]
                spread = max(spread, max(vals) - min(vals))
    return FourierDiagReport(offdiag, factor, float(spread))
