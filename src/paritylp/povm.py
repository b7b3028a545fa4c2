"""Explicit measurement operators from primal solutions, with verification.

Every element attached to a (code, y) outcome is a mixture of rank-one
projectors onto the coset states A_s, weighted by mu[(code, s)] / 2^k.  The
Fourier diagonal of such an element is lambda_i / 2^k, which makes the set
complete once the leftover goes to the no-information element, keeps every
wrong-outcome overlap exactly zero, and commutes with shifts up to the
outcome relabeling y -> y + H.a.  All of that is re-checked numerically by
``verify_povm`` instead of being trusted.  A set holds one stack per code,
the (2^k, 2^n, 2^n) array of all that code's elements, which the builder
fills and the audits, the score and the report read as it is.  Covariance is
checked on the n generators e_1..e_n of the shift group.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache, reduce
from types import MappingProxyType

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


def _coset_states(code: ParityCode, fourier, syndromes) -> np.ndarray:
    """A_s of every outcome y and listed syndrome s, at [y, j] for s =
    syndromes[j]: the coefficients of s signed by (-1)^(y.u), taken to the
    computational basis by one batched product with the core shape of
    W @ four, so each state has the bits of that one product."""
    idx, inv = fourier
    picked = list(syndromes)
    signs = walsh_hadamard(code.k)[:, None, :] < 0
    signed = np.where(signs, -inv[picked], inv[picked])
    four = np.zeros((len(signs), len(picked), 1 << code.n), dtype=complex)
    four[:, np.arange(len(picked))[:, None], idx[picked]] = signed
    return (walsh_hadamard(code.n) @ four[..., None])[..., 0]


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Operators for every informative (code, y) outcome plus the leftover.

    `stacks` is the set's only storage: it maps each code, in the set's
    order, to one read-only (2^k, 2^n, 2^n) array whose row y is the element
    of outcome (code, y).  `perp` is the no-information element; `profile`
    is the family the audits and the score read.
    """

    n: int
    stacks: dict
    perp: np.ndarray
    profile: AmplitudeProfile

    @classmethod
    def from_elements(cls, n: int, elements, perp: np.ndarray,
                      profile: AmplitudeProfile) -> PovmSet:
        """The set of an element mapping keyed by (code, y): one stack per
        code, the codes in the order they first appear, and a zero element
        for each outcome of a listed code that the mapping lacks."""
        size = 1 << n
        stacks: dict = {}
        for (code, y), mat in elements.items():
            if not 0 <= y < 1 << code.k:
                raise ValueError(f"outcome {y} of a rank-{code.k} code is outside "
                                 f"range({1 << code.k})")
            if code not in stacks:
                stacks[code] = np.zeros((1 << code.k, size, size), dtype=complex)
            stacks[code][y] = mat
        for stack in stacks.values():
            stack.flags.writeable = False
        return cls(n, stacks, perp, profile)

    @cached_property
    def elements(self) -> MappingProxyType:
        """(code, y) -> element, each a view into its code's stack."""
        return MappingProxyType({(code, y): mat
                                 for code, stack in self.stacks.items()
                                 for y, mat in enumerate(stack)})

    @cached_property
    def overlaps(self) -> list[np.ndarray]:
        """<psi_x|M_j|psi_x> at [j, x] for each code's stack, in the set's
        order, then for the leftover, under the set's profile: read by both
        `verify_povm` and `rho_eval`."""
        states = _states(self.profile)
        return [_overlaps(stack, states) for _, stack in _code_stacks(self)]

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
    # (s, mu / 2^k) for each coset of each rank >= 1 code that carries mass
    # in binary64
    carried: dict = {}
    for (code, s), v in sol.mu.items():
        c = float(v) / (1 << code.k)
        if code.k and c:
            carried.setdefault(code, []).append((s, c))
    position = code_positions(profile.n)
    stacks: dict = {}
    total = np.zeros((size, size), dtype=complex)
    # in the code table's order, each code's syndromes ascending: the order
    # the terms and elements are summed in, here and in verify_povm
    for code in sorted(carried, key=position.__getitem__):
        syndromes, coeffs = zip(*sorted(carried[code]))
        states = _coset_states(code, _coset_fourier(profile, code), syndromes)
        stack = np.zeros((len(states), size, size), dtype=complex)
        for j, c in enumerate(coeffs):
            vec = states[:, j]
            term = vec[:, :, None] * np.conj(vec)[:, None, :]
            term *= c
            stack += term
        for mat in stack:
            total += mat
        stack.flags.writeable = False
        stacks[code] = stack
    perp = np.eye(size, dtype=complex) - total
    return PovmSet(profile.n, stacks, perp, profile)


def _code_stacks(povm: PovmSet):
    """Walk the set once per code, in the set's order: (code, stack) for
    each code's stack as the set holds it, then the no-information element
    as the one outcome of ParityCode.bottom(n)."""
    yield from povm.stacks.items()
    yield ParityCode.bottom(povm.n), povm.perp[None]


def _states(profile: AmplitudeProfile) -> np.ndarray:
    """Row x is the x-shifted state of the family, `state_psi(profile, x)`
    bit for bit: row x of the sign pattern of W picks a_i or -a_i, and one
    batched product keeps the core shape of W @ four."""
    _check_n(profile.n)
    amps = profile.require_amplitudes()
    w = walsh_hadamard(profile.n)
    four = np.where(w < 0, np.array([-a for a in amps], dtype=complex),
                    np.array(amps, dtype=complex))
    return (w @ four[..., None])[..., 0]


def _overlaps(stack: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<psi_x|M_j|psi_x> at [j, x] for every element M_j of a stack.

    The two batched products keep the core shapes of conj(psi) @ (M @ psi)
    (matrix-vector, then vector-vector), so each value has the bits of the
    one-element, one-state product.
    """
    applied = np.matmul(stack[:, None], states[None, :, :, None])
    return np.matmul(np.conj(states)[None, :, None, :], applied)[..., 0, 0]


def _covariance_dev(code: ParityCode, stack: np.ndarray) -> float:
    """max |X_a F[(code, y)] X_a - F[(code, y + H.a)]| over the elements of
    a code's stack and the generators a = e_1..e_n.

    The stack is read as k outcome bit axes, then n row and n column bit
    axes, the highest bit first.  Conjugating by X_a for a = e_j reverses
    the row and the column axis of bit j, and y -> y + H.a reverses the
    outcome axes of the bits set in H.a (none where H.a = 0), so the pairs
    compared are those of one flipped view and the stack itself: no index
    arrays and no gathered copy."""
    n, k = code.n, code.k
    elements = stack.reshape((2,) * (k + 2 * n))
    dev = 0.0
    for j in range(n):
        h = code.parity(1 << j)
        axes = (k + n - 1 - j, k + 2 * n - 1 - j,
                *(k - 1 - b for b in range(k) if h >> b & 1))
        dev = max(dev, float(np.max(np.abs(np.flip(elements, axes) - elements))))
    return dev


def rho_eval(povm: PovmSet, cost: CostFunction) -> float:
    """Average score over a uniform hidden string (the expectation form)."""
    total = 0.0
    for (code, _), overlaps in zip(_code_stacks(povm), povm.overlaps):
        ck = float(cost.value(code.k))
        if ck:
            for row in overlaps.real.tolist():
                total += ck * sum(row)
    return total / (1 << povm.n)


def symmetrize(povm: PovmSet) -> PovmSet:
    """Average over shifts, landing in the shift-covariant class.

    F_bar[(code, y)] = 2^-n sum_a X_a F[(code, y + H.a)] X_a.  Validity of
    the input (positivity, completeness, unambiguity) is required and the
    output rescores identically under the expectation form.
    """
    if not verify_povm(povm).gamma_ok:
        raise ValueError("input fails the measurement-validity checks")
    return _shift_average(povm)


def _shift_average(povm: PovmSet) -> PovmSet:
    """The shift average of `symmetrize`, on any input, valid or not."""
    n = povm.n
    idx = np.arange(1 << n)
    stacks = {}
    for code, stack in _code_stacks(povm):
        outcomes = np.arange(len(stack))
        acc = np.zeros_like(stack)
        for a in all_vectors(n):
            p = idx ^ a
            acc += stack[(outcomes ^ code.parity(a))[:, None, None], p[:, None], p]
        acc /= len(idx)
        acc.flags.writeable = False
        stacks[code] = acc
    perp = stacks.pop(ParityCode.bottom(n))
    return PovmSet(n, stacks, perp[0], povm.profile)


@dataclass
class PovmVerification:
    max_hermitian_dev: float
    min_eigenvalue: float
    completeness_frobenius: float
    max_unambiguity_trace: float
    max_symmetry_dev: float
    gamma_ok: bool
    symmetric_ok: bool

    @property
    def ok(self) -> bool:
        return self.gamma_ok and self.symmetric_ok

    def to_json_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def verify_povm(povm: PovmSet, *,
                tol_psd: float = TOL_PSD,
                tol_complete: float = TOL_COMPLETE,
                tol_unambig: float = TOL_UNAMBIG) -> PovmVerification:
    """Numerically audit every defining property of the measurement set
    against its own profile.

    Covariance is checked on the shift generators e_1..e_n; max_symmetry_dev
    is n times their largest deviation, which bounds the deviation under
    every one of the 2^n shifts.  Hermiticity and covariance are held to
    TOL_HERMITIAN and TOL_SYMMETRY.
    """
    n = povm.n
    size = 1 << n
    total = np.zeros((size, size), dtype=complex)
    herm = unambig = sym_dev = 0.0
    min_eig = math.inf
    for (code, stack), overlaps in zip(_code_stacks(povm), povm.overlaps):
        adj = stack.conj().transpose(0, 2, 1)
        herm = max(herm, float(np.max(np.abs(stack - adj))))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh((stack + adj) / 2))))
        del adj  # before the covariance audit, which holds several stack-sized arrays
        # element by element, in the set's order, as a running sum adds them
        for mat in stack:
            total += mat

        wrong = code.parities != np.arange(len(stack))[:, None]
        if wrong.any():
            unambig = max(unambig, max(map(abs, overlaps[wrong].tolist())))

        sym_dev = max(sym_dev, n * _covariance_dev(code, stack))
    complete = float(np.linalg.norm(total - np.eye(size)))

    gamma_ok = (
        herm <= TOL_HERMITIAN
        and min_eig >= -tol_psd
        and complete <= tol_complete
        and unambig <= tol_unambig
    )
    return PovmVerification(herm, min_eig, complete, unambig, sym_dev,
                            gamma_ok, sym_dev <= TOL_SYMMETRY)


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
    for code, stack in _code_stacks(povm):
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
