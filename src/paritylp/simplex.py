"""Two-phase revised simplex on columns: a float basis, an integer certificate, an exact fallback.

Solves   min c.x   s.t.   A x = b,  x >= 0,  with b >= 0,  over `Fraction`s
(b and c numpy arrays of dtype object) or binary64 floats (float64).  A
comes by columns, as A = diag(scale) M (`Columns`; for a profile's primal,
M is the 0/1 coset incidence).  The loop keeps no tableau, only B⁻¹, updated
rank-1 on each pivot, and x_B = B⁻¹ b (Maros, Computational Techniques of
the Simplex Method, 2003), from a diagonal start of seeded columns and
artificials.  It prices d = c - (c_B B⁻¹) A and stops when no d_j < 0
(within the float tolerance).  Among the eligible columns the one with the
most negative d_j / ‖A_j‖ enters, ties going to the lowest index: the
column norms ‖A_j‖ = √(Σᵢ (scaleᵢ Mᵢⱼ)²) are computed once per solve in
binary64 (1 for an artificial or an all-zero column), so a column through
rows scaled by a large 1 / w_i does not win on the size of its entries
alone (normalized pricing with fixed reference weights; Forrest & Goldfarb,
Math. Program. 1992).  After STALL_LIMIT consecutive degenerate pivots the
lowest eligible index enters instead (Bland's rule, which cannot cycle);
the leaving row is the minimum ratio, ties going to the lowest basis index.

Float data is solved by that loop alone.  On exact data it runs in binary64
and only proposes a basis B, and an inverse M_B⁻¹ = adj / d that counts only
if M_B adj = d I holds on integers.  B is accepted when x_B >= 0 and every
reduced cost is >= 0, both read on integers (Applegate, Cook, Dash &
Espinoza, Oper. Res. Lett. 2007).  Otherwise the same loop runs again from
the same start on `Fraction`s, with no tolerance and the same norms and
rule (the scores compare d_j rounded to binary64); it terminates on every
input and gives exact infeasible and unbounded verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
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
    together: pivots in phases 1 and 2 (phase 1 counts those that drive
    artificials out), and the solve's pivot count when Bland's rule took over."""

    phase_pivots: list = field(default_factory=lambda: [0, 0])
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


def simplex_min(a: Columns, b, c, *, basis_seed=None) -> StandardResult:
    """Two-phase simplex for min c.x, A x = b (b >= 0), x >= 0.

    Args:
        a: the len(b) x len(c) matrix A in column form.
        b, c: nonnegative right-hand sides and objective coefficients, numpy
            arrays of dtype object (rationals) for an exact solve, else float64.
        basis_seed: the start: per row r, a column whose one nonzero is a
            positive entry on row r (else ValueError), or None for an
            artificial.  `lp.solve` seeds the no-information measurement.

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
    nv = len(c)
    seeds = list(basis_seed) if basis_seed else [None] * len(b)
    art_rows = [i for i, col in enumerate(seeds) if col is None]
    arts = iter(range(nv, nv + len(art_rows)))
    unit_cols = [next(arts) if col is None else col for col in seeds]
    exact = c.dtype == object
    stats = SolveStats()
    norms = column_norms(a, nv, len(art_rows))
    c_float = c.astype(float)
    shift = _pricing_shift(c_float, len(b))
    status, basis, levels, y = _revised(a, b.astype(float), np.ldexp(c_float, -shift),
                                        unit_cols, art_rows, stats, norms)
    if shift and y is not None:
        y = [math.ldexp(v, shift) for v in y]
    strategy = FLOAT
    if exact:
        solution = _certify(a, b, c, basis, art_rows) if status == OPTIMAL else None
        strategy = CERTIFIED if solution else EXACT_PIVOTS
        status, basis, levels, y = ((status, basis, *solution) if solution
                                    else _revised(a, b, c, unit_cols, art_rows, stats, norms))
    pivots = sum(stats.phase_pivots)
    if status != OPTIMAL:
        return StandardResult(status, None, None, pivots, strategy=strategy, stats=stats)

    zero = (Fraction(0) if exact else float(c[0]) * 0) if nv else 0
    x = [zero] * nv
    for col, v in zip(basis, levels):
        if col < nv:
            x[col] = v
    cols = sorted(j for j in basis if j < nv)
    objective = sum((cj * x[j] for j, cj in zip(cols, c[cols].tolist()) if x[j]), zero)
    return StandardResult(OPTIMAL, objective, x, pivots, y, strategy, stats)


def column_norms(a: Columns, nv: int, n_art: int) -> np.ndarray:
    """‖A_j‖ = √(Σᵢ (scaleᵢ Mᵢⱼ)²) in binary64 for the nv columns of `a`, then
    1 for each of n_art artificials; an all-zero column counts as norm 1."""
    scale = np.array([float(v) for v in a.scale])
    entries = scale[a.rows] * a.coef.astype(float)
    norms = np.sqrt(np.bincount(a.cols, weights=entries * entries, minlength=nv))
    norms[norms == 0] = 1.0
    return np.concatenate((norms, np.ones(n_art)))


def _pricing_shift(c, m: int) -> int:
    """The power of two the float stage divides c by: 0, unless a sum of m
    costs could pass 2^1000, when just enough to bring such sums under it.

    Pricing sums products of costs over the rows, so costs near the top of
    binary64 would price with infinities.  A power of two keeps every cost
    above 2^-1022 exact, and the multipliers are scaled back.
    """
    return max(0, math.frexp(np.abs(c).max(initial=0))[1] + m.bit_length() - 1000)


def _revised(a, b, c, unit_cols, art_rows, stats, norms) -> tuple:
    """Both phases in the arithmetic of c: on Fractions if its dtype is object.

    Returns (status, basis, levels x_B, multipliers y), the last two None
    unless optimal.  Columns past len(c) are the artificials, one per row in
    art_rows; they may stay in the basis at level zero on redundant rows.
    `norms` holds the pricing norm of every column, artificials included.
    """
    m, nv = len(b), len(c)
    total = nv + len(art_rows)
    exact = c.dtype == object
    num, tol, dot = (Fraction, 0, _sparse_dot) if exact else (float, FLOAT_TOL, np.dot)
    big = np.full((m, total), num(0), dtype=c.dtype)
    # num(scale_i) coef: float(1 / w_i) on the primal, not 1 / float(w_i).
    big[a.rows, a.cols] = np.array([num(v) for v in a.scale])[a.rows] * a.coef
    big[art_rows, range(nv, total)] = num(1)
    phase1 = np.array([num(0)] * nv + [num(1)] * len(art_rows), dtype=c.dtype)
    cost = np.concatenate((c, phase1[nv:] * 0))
    # The starting basis is diagonal, so B⁻¹ = diag(1 / B_rr) and x_B = b / B_rr.
    basis = np.array(unit_cols, dtype=np.intp)
    diag = big[range(m), basis]
    if not (diag > 0).all() or np.count_nonzero(big[:, basis]) != m:
        raise ValueError("a seeded column is not a positive multiple of its row's unit vector")
    binv = np.where(np.eye(m, dtype=bool), 1 / diag, num(0))
    x = b / diag
    # A pivot limit guards binary64 against cycling by rounding (the float run
    # comes first, so the solve's count is its own); Bland's rule cannot cycle.
    limit = math.inf if exact else 50 * (m + total)

    def pivot(r, j, alpha, phase):
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
        stats.phase_pivots[phase] += 1
        if not exact and sum(stats.phase_pivots) % REINVERT_EVERY == 0:
            binv[:] = np.linalg.inv(big[:, basis])
            x[:] = binv @ b
            stats.reinversions += 1

    def iterate(obj, allowed, phase):
        """Pivot on the reduced costs of objective `obj` over columns [0, allowed)."""
        stall, bland = 0, False
        while allowed:
            d = obj[:allowed] - dot(dot(obj[basis], binv), big[:, :allowed])
            eligible = d < -tol
            if bland:
                # Bland's rule takes the first eligible column.
                enter = int(eligible.argmax())
            else:
                # The most negative d_j / ‖A_j‖ over the eligible columns, scored
                # in binary64 on either arithmetic.  The lowest score over all
                # columns is nearly always eligible; when not, mask the others.
                score = d.astype(float, copy=False) / norms[:allowed]
                enter = int(score.argmin())
                if not eligible[enter]:
                    score[~eligible] = np.inf
                    enter = int(score.argmin())
            if not eligible[enter]:
                break
            if sum(stats.phase_pivots) >= limit:
                return ITERATION_LIMIT
            alpha = dot(big[:, enter], binv.T)
            rows = (alpha > tol).nonzero()[0]
            if not rows.size:
                return UNBOUNDED
            ratios = np.maximum(x[rows], 0) / alpha[rows]
            best = ratios.min()
            ties = rows[ratios <= best + tol]
            stall = stall + 1 if best <= tol else 0
            stats.degenerate += stall > 0
            pivot(int(ties[basis[ties].argmin()]), enter, alpha, phase)
            if stall > STALL_LIMIT and not bland:
                bland = True
                stats.bland_at = stats.bland_at or sum(stats.phase_pivots)
        return OPTIMAL

    status = iterate(phase1, total, 0)
    if status == OPTIMAL and phase1[basis] @ x > tol:
        status = INFEASIBLE
    if status == OPTIMAL:
        # Drive artificials out of the (degenerate) basis where a real
        # column can replace them; the rows left are redundant.
        for i in np.flatnonzero(basis >= nv):
            usable = np.flatnonzero(abs(dot(binv[i], big[:, :nv])) > tol)
            if usable.size:
                pivot(i, usable[0], dot(big[:, usable[0]], binv.T), 0)
        status = iterate(cost, nv, 1)
    if status != OPTIMAL:
        return status, basis.tolist(), None, None
    if not exact:
        # Rounding leaves degenerate levels a hair below zero; they are 0.
        x[(x < 0) & (x >= -FLOAT_TOL)] = 0.0
    return OPTIMAL, basis.tolist(), x.tolist(), (cost[basis] @ binv).tolist()


def _sparse_dot(u, mat):
    """u @ mat over the nonzeros of u and of mat's rows, for Fractions."""
    out = np.full(mat.shape[1], Fraction(0), dtype=object)
    for i in np.flatnonzero(u):
        nz = np.flatnonzero(mat[i])
        out[nz] += u[i] * mat[i, nz]
    return out


# -- exact certificate -----------------------------------------------------

def _certify(a, b, c, basis, art_rows) -> tuple | None:
    """Check a basis exactly; return its levels x_B and multipliers y, or None.

    The basis may hold artificial columns (index >= len(c), here the unit
    vector of row art_rows[index - len(c)] of M) only at level exactly zero.
    With M_B adj = d I, x_B = adj (b / scale) / d solves M_B x_B = b / scale,
    y' = adjᵀ c_B / d solves M_Bᵀ y' = c_B, and y = y' / scale.
    """
    m, nv = len(b), len(c)
    m_b = np.zeros((m, nv + len(art_rows)), dtype=a.coef.dtype)
    m_b[a.rows, a.cols] = a.coef
    m_b[art_rows, range(nv, nv + len(art_rows))] = 1
    adj, d = _adjugate(m_b[:, basis])
    if adj is None:
        return None
    x_num, den_x = _times(adj, [v / s for v, s in zip(b, a.scale)])
    if any(v < 0 or (v and j >= nv) for j, v in zip(basis, x_num)):
        return None
    # y' = Y / den, so den (Mᵀy')_j is an integer sum along column j.
    y_num, den = _times(adj.T, [c[j] if j < nv else 0 for j in basis])
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
