"""Explicit measurement operators from primal solutions, with verification.

Every element attached to a (code, y) outcome, the rank-0 leftover too, is
a mixture of rank-one projectors onto the coset states A_s, weighted by
mu[(code, s)] / 2^k.  Its Fourier diagonal is lambda_i / 2^k, which makes
the set complete exactly when mu is feasible, keeps every wrong-outcome
overlap exactly zero, and commutes with shifts up to the outcome
relabeling y -> y + H.a.  All of that is re-checked numerically by
``verify_povm`` instead of being trusted.  A set maps each code, the
leftover's rank-0 code too, to a stack: a built code as outcome 0 alone,
one row, and a hand-built or symmetrized code as all 2^k outcomes.  How a
code is held decides how it is read: the audits and the Born overlaps
read a one-row stack off outcome 0, and any other stack element by
element; a reader that needs every element builds one code's stack at a
time.  The report writes each code as it is held, with the shifts that
relabel outcome 0.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import BudgetError, ProfileError
from .f2lin import ParityCode, all_vectors, code_positions, dot, vec_str
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


def _coset_states(profile: AmplitudeProfile, code: ParityCode, syndromes) -> np.ndarray:
    """A_s of outcome 0 at row j, for s = syndromes[j]: 1/conj(amplitude) on
    the coset H^T.u ^ v_s (u = 0..2^k-1, v_s its leader) in the Fourier basis,
    taken to the computational basis by one batched product with the core
    shape of W @ four, so each state has the bits of that one product."""
    _check_n(profile.n)
    amps = np.array(profile.require_amplitudes(), dtype=complex)
    if not amps.all():
        raise ProfileError(
            "coset states need full dual support; apply perturb_full_support"
        )
    span = np.array([code.H.transpose_mul(u) for u in range(1 << code.k)])
    idx = code.leaders[0][list(syndromes), None] ^ span
    four = np.zeros((len(idx), 1 << code.n), dtype=complex)
    four[np.arange(len(idx))[:, None], idx] = 1.0 / np.conj(amps[idx])
    return (walsh_hadamard(code.n) @ four[..., None])[..., 0]


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Operators for every (code, y) outcome of the family `profile`, the
    leftover being the rank-0 code's.  `held` maps each code, in the set's
    order, to a read-only complex stack: one row, outcome 0, whose outcome y
    is its relabelling by a_y, the least a with H.a = y (`build_from_primal`),
    or 2^k rows, row y outcome y (`from_elements`, `symmetrize`).  A code of
    another n or a stack of another shape is refused, and a stack that is not
    complex or that a write can reach is held as a read-only complex copy."""

    n: int
    held: dict
    profile: AmplitudeProfile

    def __post_init__(self):
        size = 1 << self.n
        held = {}
        for code, stack in self.held.items():
            if code.n != self.n:
                raise ValueError(f"a code on {code.n} bits in a set on {self.n}")
            stack = np.asarray(stack)
            if stack.shape not in ((1, size, size), (1 << code.k, size, size)):
                raise ValueError(f"{stack.shape} stack for a rank-{code.k} code on {self.n} bits")
            base = stack if stack.base is None else stack.base  # what owns the data
            safe = isinstance(base, np.ndarray) and base.base is None and not base.flags.writeable
            if not safe or stack.flags.writeable or stack.dtype != complex:
                stack = np.array(stack, dtype=complex)
                stack.flags.writeable = False
            held[code] = stack
        object.__setattr__(self, "held", held)

    @classmethod
    def from_elements(cls, n: int, elements, profile: AmplitudeProfile) -> PovmSet:
        """The set of an element mapping keyed by (code, y), the leftover by
        (ParityCode.bottom(n), 0): one stack per code, in the order the codes
        first appear, zero for each outcome of a listed code that the mapping
        lacks.  An outcome outside range(2^k) is refused."""
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
        return cls(n, stacks, profile)

    @property
    def elements(self) -> Mapping:
        """(code, y) -> element, read-only, each built on read."""
        return _Elements(self.held)

    @cached_property
    def overlaps(self) -> list[np.ndarray]:
        """<psi_x|M_j|psi_x> at [j, x] per held code.  A one-row stack is
        read off outcome 0: M_y is X_a M_0 X_a for a = a_y, and
        X_a psi_x = psi_(x+a), so row y is row 0 at x + a."""
        states = _states(self.profile)
        x = np.arange(len(states))
        return [_overlaps(stack, states)[0][x ^ code.least_shifts[:, None]] if len(stack) == 1
                else _overlaps(stack, states) for code, stack in self.held.items()]

    def to_json_dict(self) -> dict:
        """The set for `cli.dump_json`, each code as it is held, in code
        order: `shifts` lists a_y, the least a with H.a = y, for each outcome
        y, and `held` the held matrices.  Outcome y is held[y] when all 2^k
        are held, and X_a held[0] X_a for a = shifts[y] when outcome 0 alone
        is, as `_full` builds it."""
        codes = sorted(self.held.items(), key=lambda item: item[0].sort_key)
        return {"n": self.n,
                "codes": [{"H": code.label(), "k": code.k,
                           "shifts": [vec_str(a, code.n) for a in code.least_shifts.tolist()],
                           "held": list(stack)} for code, stack in codes]}


def build_from_primal(sol: PrimalSolution, profile: AmplitudeProfile) -> PovmSet:
    """Assemble the measurement attached to a feasible primal point.

    F[(code, y)] = sum_s mu[(code, s)] / 2^k |A_s><A_s| for every code that
    carries mass, the rank-0 one's outcome 0 being the leftover.  Only
    outcome 0 is summed: the A_s of outcome y are those of outcome 0 shifted
    by any a with H.a = y, up to sign, so outcome y is outcome 0 `_relabelled`
    by the least such a.  The set is complete only if mu is feasible."""
    _check_n(profile.n)
    size = 1 << profile.n
    # (s, mu / 2^k) for each coset of each code that carries mass in binary64
    carried: dict = {}
    for (code, s), v in sol.mu.items():
        c = float(v) / (1 << code.k)
        if c:
            carried.setdefault(code, []).append((s, c))
    position = code_positions(profile.n)
    held: dict = {}
    # codes in the table's order, which verify_povm sums in, syndromes ascending
    for code in sorted(carried, key=position.__getitem__):
        syndromes, coeffs = zip(*sorted(carried[code]))
        outcome0 = np.zeros((size, size), dtype=complex)
        for vec, c in zip(_coset_states(profile, code, syndromes), coeffs):
            outcome0 += vec[:, None] * np.conj(vec)[None, :] * c
        outcome0.flags.writeable = False
        held[code] = outcome0[None]
    return PovmSet(profile.n, held, profile)


@dataclass(frozen=True, eq=False)
class _Elements(Mapping):
    """(code, y) -> outcome y of `_full` on a held stack, built on read."""

    held: dict

    def __getitem__(self, key):
        code, y = key
        if code not in self.held or not 0 <= y < 1 << code.k:
            raise KeyError(key)
        return _full(code, self.held[code], y)

    def __iter__(self):
        return ((code, y) for code in self.held for y in range(1 << code.k))

    def __len__(self) -> int:
        return sum(1 << code.k for code in self.held)

    def items(self) -> list:  # a list, reversible as a dict's items are
        return [(key, self[key]) for key in self]


def _full(code: ParityCode, stack: np.ndarray, ys=slice(None)) -> np.ndarray:
    """Outcomes `ys` (all by default) of a held stack: its rows, or outcome
    0 relabelled by their least shifts, as the builder relabels it."""
    if len(stack) == 1 << code.k:
        return stack[ys]
    out = _relabelled(stack[0], code.least_shifts[ys])
    out.flags.writeable = False
    return out


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


def _relabelled(m: np.ndarray, shifts) -> np.ndarray:
    """X_a m X_a on the last two axes of `m`: rows and columns i read at
    i ^ a.  An array of shifts adds its axes in front of those two."""
    p = np.arange(m.shape[-1]) ^ np.asarray(shifts, dtype=np.intp)[..., None]
    return m[..., p[..., :, None], p[..., None, :]]


def _covariance_dev(code: ParityCode, stack: np.ndarray) -> float:
    """max |X_a F[(code, y)] X_a - F[(code, y + H.a)]| over the rows of a
    held stack: on every element and the generators a = e_1..e_n, or, for
    outcome 0 alone, on outcome 0 and the generators a of ker H, which must
    relabel it onto itself; NaN if any entry is NaN.  A generator that
    relabels the stack onto its partners value for value subtracts nothing,
    so an inf it moves onto an equal inf reads 0."""
    dev = 0.0
    for a in code.G.rows if len(stack) == 1 else (1 << j for j in range(code.n)):
        moved, partners = _relabelled(stack, a), stack[np.arange(len(stack)) ^ code.parity(a)]
        if not np.array_equal(moved, partners):
            dev = _max(dev, float(np.max(np.abs(moved - partners))))
    return dev


def _max(a: float, b: float) -> float:
    """max(a, b), but NaN if either is, so no NaN leaves a running maximum."""
    return b if b > a or b != b else a


def _min(a: float, b: float) -> float:
    """min(a, b), but NaN if either is."""
    return b if b < a or b != b else a


def rho_eval(povm: PovmSet, cost: CostFunction) -> float:
    """Average score over a uniform hidden string (the expectation form)."""
    total = 0.0
    for code, overlaps in zip(povm.held, povm.overlaps):
        ck = float(cost.values[code.k])
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
    stacks = {}
    for code, stack in povm.held.items():
        stack = _full(code, stack)
        outcomes = np.arange(len(stack))
        acc = sum((_relabelled(stack[outcomes ^ code.parity(a)], a) for a in all_vectors(n)),
                  np.zeros_like(stack)) / (1 << n)
        acc.flags.writeable = False
        stacks[code] = acc
    return PovmSet(n, stacks, povm.profile)


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


def verify_povm(povm: PovmSet) -> PovmVerification:
    """Numerically audit every defining property of the measurement set
    against its own profile.

    A one-row stack is read off outcome 0, its relabellings being similar
    matrices, and checked for covariance on the generators of ker H; any
    other stack is read element by element and checked on the shift
    generators e_1..e_n; completeness adds every element.  Any shift is a
    sum of at most n of e_1..e_n, and any shift in ker H of at most n - k of
    its generators, so max_symmetry_dev, n times the largest deviation,
    bounds the deviation under every one of the 2^n shifts.  Hermiticity,
    positivity, completeness, unambiguity and covariance are held to
    TOL_HERMITIAN, TOL_PSD, TOL_COMPLETE, TOL_UNAMBIG and TOL_SYMMETRY.
    """
    n = povm.n
    size = 1 << n
    total = np.zeros((size, size), dtype=complex)
    herm = unambig = sym_dev = 0.0
    min_eig = math.inf
    for (code, stack), overlaps in zip(povm.held.items(), povm.overlaps):
        adj = stack.conj().transpose(0, 2, 1)
        dev_h = float(np.max(np.abs(stack - adj)))
        herm = _max(herm, dev_h)
        # dev_h is NaN or inf for a non-finite entry, where eigvalsh fails
        min_eig = _min(min_eig, float(np.min(np.linalg.eigvalsh((stack + adj) / 2)))
                       if math.isfinite(dev_h) else math.nan)
        # element by element, in the set's order, as a running sum adds them
        for mat in _full(code, stack):
            total += mat

        wrong = code.parities != np.arange(len(overlaps))[:, None]
        if wrong.any():
            off = overlaps[wrong]
            unambig = _max(unambig, float(np.max(np.hypot(off.real, off.imag))))

        sym_dev = _max(sym_dev, n * _covariance_dev(code, stack))
    complete = float(np.linalg.norm(total - np.eye(size)))

    gamma_ok = (
        herm <= TOL_HERMITIAN
        and min_eig >= -TOL_PSD
        and complete <= TOL_COMPLETE
        and unambig <= TOL_UNAMBIG
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
    for code, stack in povm.held.items():
        agg_hat = w_mat @ _full(code, stack).sum(axis=0) @ w_mat
        off = agg_hat - np.diag(np.diag(agg_hat))
        offdiag = _max(offdiag, float(np.max(np.abs(off))))
        # W X_a M X_a W = Z_a W M W Z_a, Z_a diagonal: the same Fourier diagonal
        hat_diag = np.real(np.diagonal(w_mat @ stack @ w_mat, axis1=1, axis2=2))
        factor = _max(factor, float(np.max(np.abs(
            np.real(np.diag(agg_hat)) - (1 << code.k) * hat_diag
        ))))
        by_coset = (weights * hat_diag)[:, code.cosets]
        spread = _max(spread, float(np.max(by_coset.max(axis=2) - by_coset.min(axis=2))))
    return FourierDiagReport(offdiag, factor, spread)
