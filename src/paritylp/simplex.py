"""Revised simplex for the profile primal: a float basis, proven or repaired on integers.

Solves   min c.x   s.t.   M x = w,  x >= 0,  with M a 0/1 matrix given by
its nonzeros and w > 0 (`Columns`; for a profile's primal, M is the coset
incidence and w the supported weights), over `Fraction`s (c of dtype object)
or binary64 floats (float64).  c has one cost per rank, column j costing
c[ranks[j]]; ranks = 0, 1, ... gives each column its own.  The first m columns
are the unit vectors, column r on row r (the no-information measurement), so
they are a feasible start and one phase prices the objective from there.  The
float stage solves A x = 1, its rows scaled to A = diag(1 / w) M, and keeps no
tableau, only B⁻¹, updated rank-1 on each pivot, and x_B = B⁻¹ 1 (Maros,
Computational Techniques of the Simplex Method, 2003).  It prices
d = c - (c_B B⁻¹) A and stops when no d_j < 0 (within the float tolerance).
Among the eligible columns the one with the most negative d_j / ‖A_j‖ enters,
ties going to the lowest index: the column norms ‖A_j‖ are computed once per
solve in binary64 (1 for an all-zero column), so a column through rows scaled
by a large 1 / w_i does not win on the size of its entries alone (normalized
pricing with fixed reference weights; Forrest & Goldfarb, Math. Program.
1992).  After STALL_LIMIT consecutive degenerate pivots the lowest eligible
index enters instead (Bland's rule, which cannot cycle); the leaving row is
the minimum ratio, ties going to the lowest basis index.

The float stage prices c / 2^s, s = `_cost_shift(c)` over the ranks with a
column: its absolute tolerance reads costs of any size alike on that one
scale, and its sums cannot overflow.  Its multipliers are scaled back; the
objective is summed from c.

Float data is solved by that loop alone.  On exact data it proposes a basis B
and M_B⁻¹ = adj / d, accepted if M_B adj = d I, x_B = adj w / d >= 0 and
every reduced cost is >= 0, all read on integers (Applegate, Cook, Dash &
Espinoza, Oper. Res. Lett. 2007), d = |det M_B| rounded, c and w as integers
over one denominator each.  Otherwise an integer loop repairs B: dual pivots
by Bland's rule while only levels are negative, primal ones by the float
stage's rule while only reduced costs are, each updating adj and d
fraction-free (Bareiss, Math. Comp. 1968).  Both negative, or no adj,
restarts it at adj = I on the unit columns.
"""

from __future__ import annotations

import functools
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

# Comparison tolerance of the float stage, on costs scaled by `_cost_shift`.
FLOAT_TOL = 1e-9

# Degenerate pivots allowed under the normalized rule before the
# iteration switches (permanently) to Bland's rule, which cannot cycle.
STALL_LIMIT = 30

# Float pivots between fresh inversions of B⁻¹, which clear its rank-1 updates' rounding.
REINVERT_EVERY = 50

# Orders the integer loop's ratio candidates (key, num, den), den > 0, by num / den on integers.
_BY_RATIO = functools.cmp_to_key(lambda u, v: u[1] * v[2] - v[1] * u[2])


@dataclass(frozen=True)
class Columns:
    """M x = w by the nonzeros of the 0/1 matrix M (M[rows[e], cols[e]] = 1) and w > 0."""

    rows: np.ndarray
    cols: np.ndarray  # nondecreasing
    w: list
    ranks: np.ndarray  # column j costs c[ranks[j]]


@dataclass
class SolveStats:
    """What the pivot loops of a solve did, float stage and integer loop
    together: its pivots, and its pivot count when Bland's rule took over."""

    pivots: int = 0
    degenerate: int = 0
    bland_at: int | None = None
    reinversions: int = 0


@dataclass
class StandardResult:
    status: str
    objective: object | None
    # Each basic column's level, in column order.
    x: dict | None
    # Row multipliers at optimality: c - Mᵀy >= 0 and Σ y_i w_i equals the objective.
    y: list | None = None
    strategy: str = FLOAT
    stats: SolveStats = field(default_factory=SolveStats)


def simplex_min(a: Columns, c) -> StandardResult:
    """Simplex for min c.x, M x = w, x >= 0, from the unit columns.

    Args:
        a: the len(a.w) x len(a.ranks) matrix M in column form, and w.  Its
            first len(a.w) columns are the start: column r must be row r's
            unit vector (else ValueError).
            `lp.build_primal` puts the no-information measurement there.
        c: one cost per rank, a numpy array of dtype object (rationals) and
            rational w for an exact solve, else float64.

    Returns:
        StandardResult; x maps each basic column to its level and y has one
        multiplier per row.  Its strategy is "float" on float data, and on
        exact data "certified" when the float basis passed the exact check,
        else "exact-pivots".  A float run that reaches its pivot limit ends
        "iteration-limit".  Float levels within FLOAT_TOL below zero are
        reported as 0, so x >= 0.
    """
    nv = len(a.ranks)
    exact = c.dtype == object
    stats = SolveStats()
    # A rank without a column sets neither the cost scale nor the denominator.
    c = np.where(np.bincount(a.ranks, minlength=len(c)) > 0, c, 0)
    c_float = c.astype(float)
    shift = _cost_shift(c_float)
    scale = np.array([float(1 / v) for v in a.w])  # float(1 / w_i), not 1 / float(w_i)
    norms = column_norms(a, scale, nv)
    status, basis, levels, y = _revised(a, scale, norms, np.ldexp(c_float, -shift)[a.ranks], stats)
    strategy = FLOAT
    if exact:
        c_num, c_den = _over_one_denominator(c.tolist())
        strategy, status, basis, levels, y = _exact(a, c_num, c_den, shift, norms, basis, stats)
    if status != OPTIMAL:
        return StandardResult(status, None, None, strategy=strategy, stats=stats)
    # Row i of A is row i of M times scale_i, and so is its multiplier.
    y = y if exact else [math.ldexp(v, shift) * s for v, s in zip(y, scale.tolist())]
    x = dict(sorted(zip(basis, levels)))
    zero = (Fraction(0) if exact else float(c[a.ranks[0]]) * 0) if nv else 0
    objective = sum((cj * v for cj, v in zip(c[a.ranks[list(x)]].tolist(), x.values()) if v), zero)
    return StandardResult(OPTIMAL, objective, x, y, strategy, stats)


def column_norms(a: Columns, scale: np.ndarray, nv: int) -> np.ndarray:
    """‖A_j‖ = √(Σᵢ (scaleᵢ Mᵢⱼ)²) in binary64 for the nv columns of `a`
    under the row scale `scale`; an all-zero column counts as norm 1."""
    entries = scale[a.rows]
    norms = np.sqrt(np.bincount(a.cols, weights=entries * entries, minlength=nv))
    norms[norms == 0] = 1.0
    return norms


def _cost_shift(c) -> int:
    """The exponent s of the power of two both stages divide c by: the one
    that puts max|c| in [128, 256), or 0 when c = 0.

    Division by 2^s is exact in binary64 above its subnormals, and so is
    scaling the multipliers back.
    """
    top = np.abs(c).max(initial=0)
    return math.frexp(top)[1] - 8 if top else 0


def _revised(a, scale, norms, c, stats) -> tuple:
    """The float stage on A = diag(scale) M: (status, basis, levels x_B,
    multipliers y of A's rows) in binary64, the last three None unless optimal."""
    m, nv = len(scale), len(c)
    big = np.zeros((m, nv))
    big[a.rows, a.cols] = scale[a.rows]
    # The starting basis is diagonal, so B⁻¹ = diag(1 / B_rr) and x_B = 1 / B_rr.
    basis = np.arange(m)
    diag = big[basis, basis]
    if not (diag > 0).all() or np.count_nonzero(big[:, :m]) != m:
        raise ValueError("a starting column is not a positive multiple of its row's unit vector")
    binv = np.where(np.eye(m, dtype=bool), 1 / diag, 0.0)
    x = 1 / diag
    ones = np.ones(m)

    def pivot(r, j, alpha):
        """Bring column j into the basis at row r; alpha is B⁻¹ A_j."""
        prow, xr = binv[r] / alpha[r], x[r] / alpha[r]
        binv[:] -= alpha[:, None] * prow
        x[:] -= alpha * xr
        binv[r], x[r], basis[r] = prow, xr, j
        stats.pivots += 1
        if stats.pivots % REINVERT_EVERY == 0:
            binv[:] = np.linalg.inv(big[:, basis])
            x[:] = binv @ ones
            stats.reinversions += 1

    stall, bland = 0, False
    while nv:
        d = c - np.dot(np.dot(c[basis], binv), big)
        eligible = d < -FLOAT_TOL
        if bland:
            # Bland's rule takes the first eligible column.
            enter = int(eligible.argmax())
        else:
            # The most negative d_j / ‖A_j‖ over the eligible columns: the
            # lowest score is nearly always eligible; when not, mask the others.
            score = d / norms
            enter = int(score.argmin())
            if not eligible[enter]:
                score[~eligible] = np.inf
                enter = int(score.argmin())
        if not eligible[enter]:
            break
        # A pivot limit guards against cycling by rounding.
        if stats.pivots >= 50 * (m + nv):
            return ITERATION_LIMIT, None, None, None
        alpha = np.dot(big[:, enter], binv.T)
        rows = (alpha > FLOAT_TOL).nonzero()[0]
        if not rows.size:
            return UNBOUNDED, None, None, None
        ratios = np.maximum(x[rows], 0) / alpha[rows]
        best = ratios.min()
        ties = rows[ratios <= best + FLOAT_TOL]
        stall = stall + 1 if best <= FLOAT_TOL else 0
        stats.degenerate += stall > 0
        pivot(int(ties[basis[ties].argmin()]), enter, alpha)
        if stall > STALL_LIMIT and not bland:
            bland = True
            stats.bland_at = stats.bland_at or stats.pivots
    # Rounding leaves degenerate levels a hair below zero; they are 0.
    x[(x < 0) & (x >= -FLOAT_TOL)] = 0.0
    return OPTIMAL, basis.tolist(), x.tolist(), (c[basis] @ binv).tolist()


# -- integer loop ------------------------------------------------------------

def _exact(a, c_num, c_den, shift, norms, basis, stats) -> tuple:
    """(strategy, status, basis, levels x_B, multipliers y), solved exactly
    from `basis` or, if None, the unit columns, for the rank costs c_num / c_den.
    M_B⁻¹ = adj / d, M_B adj = d I on integers, d > 0, x_B = adj w / d and
    y = adjᵀ c_B / d.  `norms` are the float stage's, for its pricing rule."""
    m, nv = len(a.w), len(a.ranks)
    c_top = max(map(abs, c_num), default=0)
    costs = np.array(c_num, dtype=np.int64 if _int64_safe(1, [c_top]) else object)[a.ranks]
    w_num, w_den = _over_one_denominator(a.w)
    adj, d = None, 0
    if basis is not None:
        # M_B from the basic columns' nonzeros, each column one run of a.cols.
        lo, hi = (np.searchsorted(a.cols, basis, side).tolist() for side in ("left", "right"))
        m_b = np.zeros((m, m), dtype=np.int64)
        for k, (i, j) in enumerate(zip(lo, hi)):
            m_b[a.rows[i:j], k] = 1
        adj, d = _adjugate(m_b)
    strategy, stall, bland = EXACT_PIVOTS if adj is None else CERTIFIED, 0, False
    while True:
        if adj is None:
            basis, adj, d = list(range(m)), np.eye(m, dtype=object), 1
        x_num = _times(adj, w_num)
        # y = Y / (c_den d), so c_den d (Mᵀy)_j is an integer sum along column
        # j, and c_den d times the reduced cost of column j is c_num_j d minus it.
        y_num = _times(adj.T, costs[basis].tolist())
        reduced = ((costs if _int64_safe(d, [c_top]) else costs.astype(object)) * d
                   - _column_sums(a, nv, y_num))
        negative = reduced < 0
        low = [r for r, v in enumerate(x_num) if v < 0]
        if not low and not negative.any():
            y = [Fraction(v, c_den * d) for v in y_num]
            return strategy, OPTIMAL, basis, [Fraction(v, d * w_den) for v in x_num], y
        strategy, adj = EXACT_PIVOTS, None if low and negative.any() else adj.astype(object)
        if adj is None:
            continue
        if low:
            # Dual pivot: the lowest basic index with a negative level
            # leaves; the least d_j / -(B⁻¹A)_rj enters, the first of equals.
            r = min(low, key=basis.__getitem__)
            t = _column_sums(a, nv, adj[r].tolist())
            enter = min(((j, int(reduced[j]), -int(t[j])) for j in np.flatnonzero(t < 0).tolist()),
                        key=_BY_RATIO)[0]
        else:
            # Primal pivot: the float stage's rule enters, scored on d_j of c / 2^shift (a
            # quotient of Python ints is correctly rounded); the least x_r / (B⁻¹A)_rj leaves.
            j = np.flatnonzero(negative)
            den = c_den * d << max(shift, 0)
            score = np.array([(v << max(-shift, 0)) / den for v in reduced[j].tolist()]) / norms[j]
            enter = int(j[0 if bland else score.argmin()])
        q = adj[:, a.rows[a.cols == enter]].sum(axis=1)
        if not low:
            rows = sorted((i for i in range(m) if q[i] > 0), key=basis.__getitem__)
            if not rows:
                return strategy, UNBOUNDED, basis, None, None
            r = min(((i, x_num[i], int(q[i])) for i in rows), key=_BY_RATIO)[0]
        # Exact for the true adjugate (Sylvester); not for a fraction of it.
        p, num = q[r], q[r] * adj - np.outer(q, adj[r])
        num[r] = d * adj[r]
        if (num % d).any():
            adj = None
            continue
        adj, d, basis[r] = num // d * (1 if p > 0 else -1), abs(p), enter
        stats.pivots += 1
        stall = stall + 1 if (reduced[enter] if low else x_num[r]) == 0 else 0
        stats.degenerate += stall > 0
        if stall > STALL_LIMIT and not (low or bland):
            bland, stats.bland_at = True, stats.bland_at or stats.pivots


def _over_one_denominator(v) -> tuple:
    """Rationals v as (integer numerators, their least common denominator)."""
    den = math.lcm(*{q.denominator for q in v})
    if den == 1:
        return [q.numerator for q in v], den
    return [q.numerator * (den // q.denominator) for q in v], den


def _times(adj, v) -> list:
    """adj v for integers v, computed in int64 when that cannot overflow."""
    dtype = np.int64 if _int64_safe(int(np.abs(adj).max(initial=0)), v) else object
    return (adj.astype(dtype) @ np.array(v, dtype=dtype)).tolist()


def _int64_safe(top: int, v) -> bool:
    """Whether a sum of len(v) products of an entry of v and an integer of
    magnitude at most `top` stays below 2^62, so that int64 cannot overflow."""
    return len(v) * max(map(abs, v), default=0) * top < 2**62


def _column_sums(a, nv, y) -> np.ndarray:
    """(Mᵀy)_j for integers y, j < nv: one reduceat over the nonzeros, in
    int64 when no sum can reach 2^62, on Python objects otherwise."""
    dtype = np.int64 if _int64_safe(1, y) else object
    products = np.array(y, dtype=dtype)[a.rows]
    sums = np.zeros(nv, dtype=dtype)
    if len(a.cols):
        # The nonzeros of a column are one run of equal indices in a.cols.
        starts = np.concatenate(([0], (a.cols[1:] != a.cols[:-1]).nonzero()[0] + 1))
        sums[a.cols[starts]] = np.add.reduceat(products, starts)
    return sums


def _adjugate(m_b) -> tuple:
    """(adj, d) with m_b adj = d I for the 0/1 matrix m_b, adj int64 and d > 0,
    or (None, 0).  Binary64 proposes d = |det m_b| and adj = d m_b⁻¹, rounded;
    they count only if the identity holds on integers, checked in int64."""
    f = m_b.astype(float)
    try:
        inv = np.linalg.inv(f)
    except np.linalg.LinAlgError:
        return None, 0
    d = np.rint(abs(np.linalg.det(f)))
    with np.errstate(all="ignore"):
        adj = np.rint(d * inv)
    # m_b adj sums len(m_b) products of a 0/1 entry and an entry of adj.
    top = np.abs(adj).max(initial=d)
    if not (d > 0 and np.isfinite(top) and _int64_safe(int(top), [1] * len(f))):
        return None, 0
    adj, d = adj.astype(np.int64), int(d)
    return (adj, d) if (m_b @ adj == d * np.eye(len(f), dtype=np.int64)).all() else (None, 0)
