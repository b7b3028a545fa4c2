"""Explicit measurement operators from primal solutions, with verification.

Every element attached to a (code, y) outcome is a mixture of rank-one
projectors onto the coset states A_s, weighted by mu[(code, s)] / 2^k.  The
Fourier diagonal of such an element is lambda_i / 2^k, which makes the set
complete once the leftover goes to the no-information element, keeps every
wrong-outcome overlap exactly zero, and commutes with shifts up to the
outcome relabeling y -> y + H.a.  All of that is re-checked numerically by
``verify_povm`` instead of being trusted.  The audits walk the set once per
code, on the stack of that code's elements, and check covariance on the n
generators e_1..e_n of the shift group.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import BudgetError, ProfileError
from .f2lin import ParityCode, all_vectors, by_code, code_positions, dot, vec_str
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
        raise BudgetError(f"dense operator work capped at n <= {POVM_MAX_N}")


def state_psi(profile: AmplitudeProfile, x: int) -> np.ndarray:
    """Computational-basis vector of the x-shifted member of the family."""
    _check_n(profile.n)
    amps = profile.require_amplitudes()
    four = np.array(
        [a if dot(i, x) == 0 else -a for i, a in enumerate(amps)], dtype=complex
    )
    return walsh_hadamard(profile.n) @ four


def _coset_fourier(profile: AmplitudeProfile, code: ParityCode) -> tuple[np.ndarray, np.ndarray]:
    """Fourier support and unsigned coefficients of a code's coset states.

    Row s holds the coset of syndrome s as H^T.u ^ v_s over u = 0..2^k-1,
    anchored at the coset leader v_s, and the matching 1/conj(amplitude);
    every outcome y of the code shares both.
    """
    _check_n(profile.n)
    amps = np.array(profile.require_amplitudes(), dtype=complex)
    if not amps.all():
        raise ProfileError(
            "coset states need full dual support; apply perturb_full_support"
        )
    span = np.array([code.H.transpose_mul(u) for u in range(1 << code.k)])
    idx = code.leaders[0][:, None] ^ span
    return idx, 1.0 / np.conj(amps[idx])


def _coset_states(code: ParityCode, y: int, fourier, syndromes) -> list[np.ndarray]:
    """A_s for each listed syndrome s: its coefficients signed by (-1)^(y.u)."""
    idx, inv = fourier
    signed = np.where(walsh_hadamard(code.k)[y] < 0, -inv, inv)
    w = walsh_hadamard(code.n)
    out = []
    for s in syndromes:
        four = np.zeros(len(w), dtype=complex)
        four[idx[s]] = signed[s]
        out.append(w @ four)
    return out


def coset_basis(profile: AmplitudeProfile, code: ParityCode, y: int) -> list[np.ndarray]:
    """The per-syndrome states orthogonal to every wrong-outcome family member.

    A_s carries Fourier coefficients 1/conj(amplitude) with signs (-1)^(y.u)
    on the coset of syndrome s, anchored at the coset leader.  Distinct
    syndromes have disjoint Fourier support, so the list is orthogonal.
    """
    fourier = _coset_fourier(profile, code)
    return _coset_states(code, y, fourier, range(len(fourier[0])))


@dataclass
class PovmSet:
    """Operators for every informative (code, y) outcome plus the leftover."""

    n: int
    elements: dict
    perp: np.ndarray
    profile: AmplitudeProfile

    def to_json_dict(self) -> dict:
        """The set with its operators as ndarrays; `cli.dump_json` writes each
        matrix as rows of {"re": real, "im": imag} dicts."""
        return {
            "n": self.n,
            "elements": [
                {"H": code.label(), "k": code.k, "y": vec_str(y, code.k),
                 "matrix": mat}
                for (code, y), mat in sorted(self.elements.items(), key=by_code)
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
    # (s, mu / 2^k) for each carried coset of each rank >= 1 code, where
    # that is nonzero in binary64 too
    carried: dict = {}
    for (code, s), v in sol.carried:
        c = float(v) / (1 << code.k)
        if code.k and c:
            carried.setdefault(code, []).append((s, c))
    position = code_positions(profile.n)
    elements: dict = {}
    # in the code table's order, each code's syndromes ascending: the order
    # the terms and elements are summed in, here and in verify_povm
    for code in sorted(carried, key=position.__getitem__):
        syndromes, coeffs = zip(*sorted(carried[code]))
        fourier = _coset_fourier(profile, code)
        for y in range(1 << code.k):
            mat = np.zeros((size, size), dtype=complex)
            for c, vec in zip(coeffs, _coset_states(code, y, fourier, syndromes)):
                mat += c * np.outer(vec, np.conj(vec))
            elements[(code, y)] = mat
    total = sum(elements.values(), np.zeros((size, size), dtype=complex))
    perp = np.eye(size, dtype=complex) - total
    return PovmSet(profile.n, elements, perp, profile)


def _code_stacks(povm: PovmSet):
    """Walk the set once per code, in the set's order.

    Yields (code, ys, stack) with stack[j] the element of outcome
    (code, ys[j]), as one (len(ys), 2^n, 2^n) array; the no-information
    element comes last, as the one outcome of ParityCode.bottom(n).  Only
    one code is stacked at a time, so the set is never copied whole.
    """
    groups: dict[ParityCode, list[int]] = {}
    for code, y in povm.elements:
        groups.setdefault(code, []).append(y)
    for code, ys in groups.items():
        yield code, ys, np.stack([povm.elements[(code, y)] for y in ys])
    yield ParityCode.bottom(povm.n), [0], povm.perp[None]


def _states(profile: AmplitudeProfile) -> np.ndarray:
    """Row x is the x-shifted state of the family."""
    return np.array([state_psi(profile, x) for x in all_vectors(profile.n)])


def _overlaps(stack: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<psi_x|M_j|psi_x> at [j, x] for every element M_j of a stack.

    The two batched products keep the core shapes of conj(psi) @ (M @ psi)
    (matrix-vector, then vector-vector), so each value has the bits of the
    one-element, one-state product.
    """
    applied = np.matmul(stack[:, None], states[None, :, :, None])
    return np.matmul(np.conj(states)[None, :, None, :], applied)[..., 0, 0]


def _zero_filled(code: ParityCode, ys, stack: np.ndarray) -> np.ndarray:
    """All 2^k outcomes of a code, with zeros where the set has no element."""
    full = np.zeros((1 << code.k,) + stack.shape[1:], dtype=complex)
    full[ys] = stack
    return full


def _covariance_dev(code: ParityCode, ys, stack: np.ndarray) -> float:
    """max |X_a F[(code, y)] X_a - F[(code, y + H.a)]| over the elements of
    a stack and the generators a = e_1..e_n, a missing partner read as zero."""
    full = _zero_filled(code, ys, stack)
    idx = np.arange(stack.shape[1])
    dev = 0.0
    for a in (1 << j for j in range(code.n)):
        p = idx ^ a
        moved = stack[:, p[:, None], p]
        moved -= full[np.bitwise_xor(ys, code.parity(a))]
        dev = max(dev, float(np.max(np.abs(moved))))
    return dev


def rho_eval(povm: PovmSet, profile: AmplitudeProfile, cost: CostFunction) -> float:
    """Average score over a uniform hidden string (the expectation form)."""
    states = _states(profile)
    total = 0.0
    for code, _, stack in _code_stacks(povm):
        ck = float(cost.value(code.k))
        if ck:
            for row in _overlaps(stack, states).real.tolist():
                total += ck * sum(row)
    return total / (1 << povm.n)


def symmetrize(povm: PovmSet) -> PovmSet:
    """Average over shifts, landing in the shift-covariant class.

    F_bar[(code, y)] = 2^-n sum_a X_a F[(code, y + H.a)] X_a, with a missing
    element read as zero; every outcome of a code present in the input is
    present in the output.  Validity of the input (positivity,
    completeness, unambiguity) is required and the output rescores
    identically under the expectation form.
    """
    report = verify_povm(povm, povm.profile, check_symmetry=False)
    if not report.gamma_ok:
        raise ValueError("input fails the measurement-validity checks")
    return _shift_average(povm)


def _shift_average(povm: PovmSet) -> PovmSet:
    """The shift average of `symmetrize`, on any input, valid or not."""
    n = povm.n
    idx = np.arange(1 << n)
    elements = {}
    for code, ys, stack in _code_stacks(povm):
        full = _zero_filled(code, ys, stack)
        outcomes = np.arange(len(full))
        acc = np.zeros_like(full)
        for a in all_vectors(n):
            p = idx ^ a
            acc += full[(outcomes ^ code.parity(a))[:, None, None], p[:, None], p]
        acc /= len(idx)
        elements.update(((code, y), mat) for y, mat in enumerate(acc))
    perp = elements.pop((ParityCode.bottom(n), 0))
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
        return {**asdict(self), "ok": self.ok}


def verify_povm(povm: PovmSet, profile: AmplitudeProfile, *,
                tol_psd: float = TOL_PSD,
                tol_complete: float = TOL_COMPLETE,
                tol_unambig: float = TOL_UNAMBIG,
                check_symmetry: bool = True) -> PovmVerification:
    """Numerically audit every defining property of the measurement set.

    A missing element counts as zero.  Covariance is checked on the shift
    generators e_1..e_n; max_symmetry_dev is n times their largest deviation,
    which bounds the deviation under every one of the 2^n shifts.  Hermiticity
    and covariance are held to TOL_HERMITIAN and TOL_SYMMETRY.
    """
    n = povm.n
    size = 1 << n
    states = _states(profile)
    total = np.zeros((size, size), dtype=complex)
    herm = unambig = 0.0
    min_eig = math.inf
    sym_dev = 0.0 if check_symmetry else None
    for code, ys, stack in _code_stacks(povm):
        adj = stack.conj().transpose(0, 2, 1)
        herm = max(herm, float(np.max(np.abs(stack - adj))))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh((stack + adj) / 2))))
        del adj  # before the covariance audit, which holds several stack-sized arrays
        # element by element, in the set's order, as a running sum adds them
        total = np.concatenate((total[None], stack)).sum(axis=0)

        parity = np.array([code.parity(x) for x in all_vectors(n)])
        wrong = parity != np.array(ys)[:, None]
        if wrong.any():
            overlaps = _overlaps(stack, states)[wrong].tolist()
            unambig = max(unambig, max(map(abs, overlaps)))

        if check_symmetry:
            sym_dev = max(sym_dev, n * _covariance_dev(code, ys, stack))
    complete = float(np.linalg.norm(total - np.eye(size)))

    gamma_ok = (
        herm <= TOL_HERMITIAN
        and min_eig >= -tol_psd
        and complete <= tol_complete
        and unambig <= tol_unambig
    )
    symmetric_ok = None if sym_dev is None else sym_dev <= TOL_SYMMETRY
    return PovmVerification(herm, min_eig, complete, unambig, sym_dev,
                            gamma_ok, symmetric_ok)


@dataclass
class FourierDiagReport:
    max_offdiagonal: float
    max_factor_dev: float
    max_coset_spread: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def fourier_diag_check(povm: PovmSet) -> FourierDiagReport:
    """Check the two Fourier-side structure facts of a shift-covariant set.

    (i) The per-code aggregate sum_y F[(code, y)] is Fourier-diagonal with
    entries 2^k times any single element's diagonal (y-independence);
    (ii) weight * Fourier diagonal is constant on every dual coset.
    """
    w_mat = walsh_hadamard(povm.n)
    weights = np.array(povm.profile.weights_float)
    offdiag = factor = spread = 0.0
    for code, _, stack in _code_stacks(povm):
        agg_hat = w_mat @ stack.sum(axis=0) @ w_mat
        off = agg_hat - np.diag(np.diag(agg_hat))
        offdiag = max(offdiag, float(np.max(np.abs(off))))
        hat_diag = np.real(np.diagonal(w_mat @ stack @ w_mat, axis1=1, axis2=2))
        factor = max(factor, float(np.max(np.abs(
            np.real(np.diag(agg_hat)) - (1 << code.k) * hat_diag
        ))))
        by_coset = (weights * hat_diag)[:, code.cosets]
        spread = max(spread, float(np.max(by_coset.max(axis=2) - by_coset.min(axis=2))))
    return FourierDiagReport(offdiag, factor, spread)
