"""One-phase revised simplex on columns: a float basis, an integer certificate, an exact fallback.

Solves   min c.x   s.t.   A x = b,  x >= 0,  with b >= 0,  over `Fraction`s
(b and c numpy arrays of dtype object) or binary64 floats (float64).  A
comes by columns, as A = diag(scale) M (`Columns`; for a profile's primal,
M is the 0/1 coset incidence).  The loop keeps no tableau, only B⁻¹, updated
rank-1 on each pivot, and x_B = B⁻¹ b (Maros, Computational Techniques of
the Simplex Method, 2003), from a diagonal start of seeded columns, which
is feasible since b >= 0, so one phase prices the objective from there.
It prices d = c - (c_B B⁻¹) A and stops when no d_j < 0 (within the float
tolerance).  Among the eligible columns the one with the most negative
d_j / ‖A_j‖ enters, ties going to the lowest index: the column norms
‖A_j‖ = √(Σᵢ (scaleᵢ Mᵢⱼ)²) are computed once per solve in binary64 (1 for
an all-zero column), so a column through rows scaled by a large 1 / w_i
does not win on the size of its entries alone (normalized pricing with
fixed reference weights; Forrest & Goldfarb, Math. Program. 1992).  After
STALL_LIMIT consecutive degenerate pivots the lowest eligible index enters
instead (Bland's rule, which cannot cycle); the leaving row is the minimum
ratio, ties going to the lowest basis index.

Float data is solved by that loop alone.  On exact data it runs in binary64
and only proposes a basis B, and an inverse M_B⁻¹ = adj / d that counts only
if M_B adj = d I holds on integers.  B is accepted when x_B >= 0 and every
reduced cost is >= 0, both read on integers (Applegate, Cook, Dash &
Espinoza, Oper. Res. Lett. 2007).  Otherwise the same loop runs again from
the same start on `Fraction`s, with no tolerance and the same norms and
rule (the scores compare d_j rounded to binary64, all scaled by a power of
two when one would overflow it); it terminates on every input and gives an
exact unbounded verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"

# How the returned point was obtained.
FLOAT = "float"
CERTIFIED = "certified"
EXACT_PIVOTS = "exact-pivots"

# Comparison tolerance of the float stage.
FLOAT_TOL = 1e-9

# Degenerate pivots allowed under the normalized rule before the
# iteration switches (permanently) to Bland's rule, which cannot cycle.
STALL_LIMIT = 30

# Float pivots between fresh inversions of B⁻¹, which clear its rank-1 updates' rounding.
REINVERT_EVERY = 50


@dataclass(frozen=True)
class Columns:
    """A = diag(scale) M by the nonzeros of M: M[rows[e], cols[e]] = coef[e]."""

    rows: np.ndarray
    cols: np.ndarray  # nondecreasing
    coef: np.ndarray
    scale: list


@dataclass
class SolveStats:
    """What the pivot loops of a solve did, float stage and exact fallback
    together: its pivots, and its pivot count when Bland's rule took over."""

    pivots: int = 0
    degenerate: int = 0
    bland_at: int | None = None
    reinversions: int = 0


@dataclass
class StandardResult:
    status: str
    objective: object | None
    x: list | None
    pivots: int
    # Row multipliers at optimality: c - Aᵀy >= 0 and b.y equals the objective.
    y: list | None = None
    strategy: str = FLOAT
    stats: SolveStats = field(default_factory=SolveStats)


def simplex_min(a: Columns, b, c, *, basis_seed) -> StandardResult:
    """Simplex for min c.x, A x = b (b >= 0), x >= 0, from a seeded basis.

    Args:
        a: the len(b) x len(c) matrix A in column form.
        b, c: nonnegative right-hand sides and objective coefficients, numpy
            arrays of dtype object (rationals) for an exact solve, else float64.
        basis_seed: the start: per row r, a column whose one nonzero is a
            positive entry on row r (else ValueError), so the start is a
            feasible basis.  `lp.solve` seeds the no-information measurement.

    The entering column is the eligible one with the most negative
    d_j / ‖A_j‖, on norms that `column_norms` computes once for the float
    stage and the exact fallback alike.

    Returns:
        StandardResult; x has length len(c) and y length len(b).  Its
        strategy is "float" on float data, and on exact data "certified"
        when the float basis passed the exact check, else "exact-pivots".
        A float run that reaches its pivot limit ends "iteration-limit".
        Float levels within FLOAT_TOL below zero are reported as 0, so x >= 0.
    """
    nv, seeds = len(c), list(basis_seed)
    exact = c.dtype == object
    stats = SolveStats()
    norms = column_norms(a, nv)
    c_float = c.astype(float)
    shift = _pricing_shift(c_float, len(b))
    status, basis, levels, y = _revised(a, b.astype(float), np.ldexp(c_float, -shift),
                                        seeds, stats, norms)
    if shift and y is not None:
        y = [math.ldexp(v, shift) for v in y]
    strategy = FLOAT
    if exact:
        solution = _certify(a, b, c, basis) if status == OPTIMAL else None
        strategy = CERTIFIED if solution else EXACT_PIVOTS
        status, basis, levels, y = ((status, basis, *solution) if solution
                                    else _revised(a, b, c, seeds, stats, norms))
    if status != OPTIMAL:
        return StandardResult(status, None, None, stats.pivots, strategy=strategy, stats=stats)

    zero = (Fraction(0) if exact else float(c[0]) * 0) if nv else 0
    x = [zero] * nv
    for col, v in zip(basis, levels):
        x[col] = v
    cols = sorted(basis)
    objective = sum((cj * x[j] for j, cj in zip(cols, c[cols].tolist()) if x[j]), zero)
    return StandardResult(OPTIMAL, objective, x, stats.pivots, y, strategy, stats)


def column_norms(a: Columns, nv: int) -> np.ndarray:
    """‖A_j‖ = √(Σᵢ (scaleᵢ Mᵢⱼ)²) in binary64 for the nv columns of `a`;
    an all-zero column counts as norm 1."""
    scale = np.array([float(v) for v in a.scale])
    entries = scale[a.rows] * a.coef.astype(float)
    norms = np.sqrt(np.bincount(a.cols, weights=entries * entries, minlength=nv))
    norms[norms == 0] = 1.0
    return norms


def _pricing_shift(c, m: int) -> int:
    """The power of two the float stage divides c by: 0, unless a sum of m
    costs could pass 2^1000, when just enough to bring such sums under it.

    Pricing sums products of costs over the rows, so costs near the top of
    binary64 would price with infinities.  A power of two keeps every cost
    above 2^-1022 exact, and the multipliers are scaled back.
    """
    return max(0, math.frexp(np.abs(c).max(initial=0))[1] + m.bit_length() - 1000)


def _revised(a, b, c, basis_seed, stats, norms) -> tuple:
    """The pivot loop in the arithmetic of c: on Fractions if its dtype is object.

    Returns (status, basis, levels x_B, multipliers y), the last two None
    unless optimal.  `norms` holds the pricing norm of every column.
    """
    m, nv = len(b), len(c)
    exact = c.dtype == object
    num, tol, dot = (Fraction, 0, _sparse_dot) if exact else (float, FLOAT_TOL, np.dot)
    big = np.full((m, nv), num(0), dtype=c.dtype)
    # num(scale_i) coef: float(1 / w_i) on the primal, not 1 / float(w_i).
    big[a.rows, a.cols] = np.array([num(v) for v in a.scale])[a.rows] * a.coef
    # The starting basis is diagonal, so B⁻¹ = diag(1 / B_rr) and x_B = b / B_rr.
    basis = np.array(basis_seed, dtype=np.intp)
    diag = big[range(m), basis]
    if not (diag > 0).all() or np.count_nonzero(big[:, basis]) != m:
        raise ValueError("a seeded column is not a positive multiple of its row's unit vector")
    binv = np.where(np.eye(m, dtype=bool), 1 / diag, num(0))
    x = b / diag
    # A pivot limit guards binary64 against cycling by rounding (the float run
    # comes first, so the solve's count is its own); Bland's rule cannot cycle.
    limit = math.inf if exact else 50 * (m + nv)

    def pivot(r, j, alpha):
        """Bring column j into the basis at row r; alpha is B⁻¹ A_j."""
        prow, xr = binv[r] / alpha[r], x[r] / alpha[r]
        if exact:
            # Only the rows alpha touches and the columns prow touches change.
            rows, cols = np.flatnonzero(alpha), np.flatnonzero(prow)
            binv[np.ix_(rows, cols)] -= np.outer(alpha[rows], prow[cols])
            x[rows] -= alpha[rows] * xr
        else:
            binv[:] -= alpha[:, None] * prow
            x[:] -= alpha * xr
        binv[r], x[r], basis[r] = prow, xr, j
        stats.pivots += 1
        if not exact and stats.pivots % REINVERT_EVERY == 0:
            binv[:] = np.linalg.inv(big[:, basis])
            x[:] = binv @ b
            stats.reinversions += 1

    stall, bland = 0, False
    while nv:
        d = c - dot(dot(c[basis], binv), big)
        eligible = d < -tol
        if bland:
            # Bland's rule takes the first eligible column.
            enter = int(eligible.argmax())
        else:
            # The most negative d_j / ‖A_j‖ over the eligible columns, scored
            # in binary64 on either arithmetic.  The lowest score over all
            # columns is nearly always eligible; when not, mask the others.
            try:
                score = d.astype(float, copy=False) / norms
            except OverflowError:
                # A Fraction d_j past binary64: score d / 2^e, with e just
                # large enough to bring every |d_j| under 2^1000.
                top = max(map(abs, d))
                e = top.numerator.bit_length() - top.denominator.bit_length() - 999
                score = (d / (1 << e)).astype(float) / norms
            enter = int(score.argmin())
            if not eligible[enter]:
                score[~eligible] = np.inf
                enter = int(score.argmin())
        if not eligible[enter]:
            break
        if stats.pivots >= limit:
            return ITERATION_LIMIT, basis.tolist(), None, None
        alpha = dot(big[:, enter], binv.T)
        rows = (alpha > tol).nonzero()[0]
        if not rows.size:
            return UNBOUNDED, basis.tolist(), None, None
        ratios = np.maximum(x[rows], 0) / alpha[rows]
        best = ratios.min()
        ties = rows[ratios <= best + tol]
        stall = stall + 1 if best <= tol else 0
        stats.degenerate += stall > 0
        pivot(int(ties[basis[ties].argmin()]), enter, alpha)
        if stall > STALL_LIMIT and not bland:
            bland = True
            stats.bland_at = stats.bland_at or stats.pivots
    if not exact:
        # Rounding leaves degenerate levels a hair below zero; they are 0.
        x[(x < 0) & (x >= -FLOAT_TOL)] = 0.0
    return OPTIMAL, basis.tolist(), x.tolist(), (c[basis] @ binv).tolist()


def _sparse_dot(u, mat):
    """u @ mat over the nonzeros of u and of mat's rows, for Fractions."""
    out = np.full(mat.shape[1], Fraction(0), dtype=object)
    for i in np.flatnonzero(u):
        nz = np.flatnonzero(mat[i])
        out[nz] += u[i] * mat[i, nz]
    return out


# -- exact certificate -----------------------------------------------------

def _certify(a, b, c, basis) -> tuple | None:
    """Check a basis exactly; return its levels x_B and multipliers y, or None.

    With M_B adj = d I, x_B = adj (b / scale) / d solves M_B x_B = b / scale,
    y' = adjᵀ c_B / d solves M_Bᵀ y' = c_B, and y = y' / scale.
    """
    m_b = np.zeros((len(b), len(c)), dtype=a.coef.dtype)
    m_b[a.rows, a.cols] = a.coef
    adj, d = _adjugate(m_b[:, basis])
    if adj is None:
        return None
    x_num, den_x = _times(adj, [v / s for v, s in zip(b, a.scale)])
    if any(v < 0 for v in x_num):
        return None
    # y' = Y / den, so den (Mᵀy')_j is an integer sum along column j.
    y_num, den = _times(adj.T, c[basis].tolist())
    den *= d
    if not _prices_out(a, c, y_num, den):
        return None
    return ([Fraction(v, d * den_x) for v in x_num],
            [Fraction(v * s.denominator, den * s.numerator) for v, s in zip(y_num, a.scale)])


def _times(adj, v) -> tuple:
    """adj v for rationals v, as a list of integer numerators over the common
    denominator of v, computed in int64 when that cannot overflow."""
    den = math.lcm(*(q.denominator for q in v))
    nums = [q.numerator * (den // q.denominator) for q in v]
    dtype = np.int64 if _int64_safe(adj, nums) else object
    return (adj.astype(dtype) @ np.array(nums, dtype=dtype)).tolist(), den


def _int64_safe(matrix, v) -> bool:
    """Whether a sum of len(v) products of an entry of the integer `matrix`
    and an entry of v stays below 2^62, so that int64 cannot overflow."""
    return matrix.dtype.kind in "iu" and len(v) * max(map(abs, v), default=0) * int(
        np.abs(matrix).max(initial=0)) < 2**62


def _prices_out(a, c, y, den) -> bool:
    """Whether every reduced cost c_j - (Mᵀy)_j / den is >= 0, for integers y.

    The column sums (Mᵀy)_j come from one reduceat over the nonzeros, in
    int64 when M is integer and no sum can reach 2^62, on Python objects
    otherwise; den c_j >= (Mᵀy)_j is then tested in the exact arithmetic of c.
    """
    nv, dtype = len(c), np.int64 if _int64_safe(a.coef, y) else object
    products = np.array(y, dtype=dtype)[a.rows] * a.coef
    sums = np.zeros(nv, dtype=dtype)
    if len(a.cols):
        # The nonzeros of a column are one run of equal indices in a.cols.
        starts = np.concatenate(([0], (a.cols[1:] != a.cols[:-1]).nonzero()[0] + 1))
        sums[a.cols[starts]] = np.add.reduceat(products, starts)
    return not (c * den < sums).any()


def _adjugate(m_b) -> tuple:
    """(adj, d) with m_b adj = d I, adj integer (int64, or Python ints for a
    scaled m_b) and d > 0, or (None, 0).

    A non-integer m_b (only row models built in the tests have one) is scaled
    to integers by columns first.  Binary64 proposes d and adj, d times the
    inverse, rounded; they count only if the identity holds on integers,
    checked in int64 under a bound that rules out overflow.
    """
    ell = None
    if m_b.dtype == object:
        ell = np.array([math.lcm(*(v.denominator for v in col)) for col in m_b.T], dtype=object)
        m_b = np.frompyfunc(int, 1, 1)(m_b * ell)
    f = m_b.astype(float)
    try:
        inv = np.linalg.inv(f)
    except np.linalg.LinAlgError:
        return None, 0
    m = len(f)
    for d in _denominators(f, inv):
        with np.errstate(all="ignore"):
            adj = np.rint(d * inv)
        if 0 < d < 2**62 and m * np.abs(f).max(initial=1) * np.abs(adj).max(initial=1) < 2**62:
            adj, d = adj.astype(np.int64), int(d)
            check = m_b.astype(np.int64) @ adj
            check[range(m), range(m)] -= d
            if not check.any():
                return (adj if ell is None else adj.astype(object) * ell[:, None]), d
    return None, 0


def _denominators(f, inv):
    """Candidates for d: |det f| rounded, then a common denominator of inv
    that continued fractions read off its entries, one entry at a time."""
    yield np.rint(abs(np.linalg.det(f)))
    d = 1
    while d < 2**53 and np.isfinite(inv).all():
        off = np.flatnonzero(np.abs(d * inv - np.rint(d * inv)) > 1e-6)
        if not off.size:
            yield d
            return
        d *= Fraction(d * inv.flat[off[0]]).limit_denominator(2**24).denominator
