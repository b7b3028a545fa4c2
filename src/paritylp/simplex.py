"""Two-phase simplex on columns: a float basis, an integer certificate, an exact fallback.

Solves   min c.x   s.t.   A x = b,  x >= 0,  with b >= 0,
over `Fraction`s or binary64 floats; the entry type of b and c decides
which.  A comes by columns, as A = diag(scale) M (`Columns`; for a
profile's primal, M is the 0/1 coset incidence).  Every pivot loop prices
the same way: the most negative reduced cost enters until STALL_LIMIT
consecutive degenerate pivots, then the lowest eligible index (Bland's
rule, which cannot cycle); the leaving row is the minimum ratio, ties
going to the lowest basis index.

Float data is solved on a binary64 numpy tableau alone, filled by one
scatter.  On exact data that tableau only proposes a basis B: M_B x_B =
b / scale and M_Bᵀ y' = c_B are solved by integer elimination, and B is
accepted when x_B >= 0 and each reduced cost c_j - (Mᵀy')_j, read over
the common denominator of y' (an integer sum when M is integer), is >= 0
(Applegate, Cook, Dash & Espinoza, Oper. Res. Lett. 2007); then the
multipliers are y = y' / scale.  Otherwise the same pivot loop runs again
from scratch on a tableau of `Fraction` objects with no tolerance; it
terminates on every input and gives exact infeasible and unbounded
verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from numbers import Rational

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

# Degenerate pivots allowed under the steepest-coefficient rule before the
# iteration switches (permanently) to Bland's rule, which cannot cycle.
STALL_LIMIT = 30


@dataclass(frozen=True)
class Columns:
    """A = diag(scale) M by the nonzeros of M: M[rows[e], cols[e]] = coef[e]."""

    rows: np.ndarray
    cols: np.ndarray  # nondecreasing
    coef: np.ndarray
    scale: list


@dataclass
class StandardResult:
    status: str
    objective: object | None
    x: list | None
    pivots: int
    # Row multipliers at optimality: c - Aᵀy >= 0 and b.y equals the objective.
    y: list | None = None
    strategy: str = FLOAT


def simplex_min(a: Columns, b, c, *, basis_seed=None) -> StandardResult:
    """Two-phase simplex for min c.x, A x = b (b >= 0), x >= 0.

    Args:
        a: the len(b) x len(c) matrix A in column form.
        b: nonnegative right-hand sides.
        c: objective coefficients.
        basis_seed: optional per-row column index whose column is the r-th
            identity vector; rows without a seed receive an artificial.

    Returns:
        StandardResult; x has length len(c) and y length len(b).  Its
        strategy is "float" on float data, and on exact data "certified"
        when the float basis passed the exact check, else "exact-pivots".
        A float run that reaches its pivot limit ends "iteration-limit".
        Float levels within FLOAT_TOL below zero are reported as 0, so x >= 0.
    """
    seeds = list(basis_seed) if basis_seed else [None] * len(b)
    unit_cols, art_rows = [], []
    for i, col in enumerate(seeds):
        if col is None:
            col = len(c) + len(art_rows)
            art_rows.append(i)
        unit_cols.append(col)
    exact = all(isinstance(v, Rational) for v in chain(b, c))

    status, basis, t, pivots = _two_phase(a, b, c, unit_cols, art_rows, False)
    strategy, solution = FLOAT, None
    if exact:
        strategy = CERTIFIED
        if status == OPTIMAL:
            solution = _certify(a, b, c, basis, art_rows)
        if solution is None:
            status, basis, t, more = _two_phase(a, b, c, unit_cols, art_rows, True)
            pivots += more
            strategy = EXACT_PIVOTS
    if status != OPTIMAL:
        return StandardResult(status, None, None, pivots, strategy=strategy)

    nv = len(c)
    zero = c[0] * 0 if nv else 0
    if solution is None:
        # The cost row is c minus a combination yᵀA of the original rows, and
        # row i owns the unit column unit_cols[i], so y_i is read off there.
        cost = t[len(basis)].tolist()
        levels = t[:len(basis), -1].tolist()
        if strategy == FLOAT:
            # Rounding leaves degenerate levels a hair below zero; they are 0.
            levels = [0.0 if -FLOAT_TOL <= v < 0 else v for v in levels]
        solution = (levels, [(c[j] if j < nv else zero) - cost[j] for j in unit_cols])
    levels, y = solution
    x = [zero] * nv
    for col, v in zip(basis, levels):
        if col < nv:
            x[col] = v
    objective = sum((ci * xi for ci, xi in zip(c, x) if xi), zero)
    return StandardResult(OPTIMAL, objective, x, pivots, y, strategy)


def _two_phase(a, b, c, unit_cols, art_rows, exact):
    """Run both phases on a numpy tableau of floats, or of Fractions if exact.

    Returns (status, basis, tableau, pivots).  The tableau holds the m
    constraint rows, then the cost row and the phase-1 row; its last column
    is the right-hand side.  Columns past len(c) are the artificials, one
    per row in art_rows, which may stay in the basis at level zero on rows
    that are redundant.
    """
    m, nv = len(b), len(c)
    total = nv + len(art_rows)
    if exact:
        num, tol, limit = Fraction, 0, math.inf
        t = np.full((m + 2, total + 1), Fraction(0), dtype=object)
    else:
        num, tol, limit = float, FLOAT_TOL, 50 * (m + total)
        t = np.zeros((m + 2, total + 1))
    # num(scale_i) coef: float(1 / w_i) on the primal, not 1 / float(w_i).
    t[a.rows, a.cols] = np.array([num(v) for v in a.scale])[a.rows] * a.coef
    t[:m, -1] = [num(v) for v in b]
    t[art_rows, range(nv, total)] = num(1)
    t[m, :nv] = [num(v) for v in c]
    basis = list(unit_cols)
    # Price out the starting basis: its columns are unit vectors.
    t[m] -= t[m, basis] @ t[:m]
    t[m + 1, nv:total] = num(1)
    t[m + 1] -= t[art_rows].sum(axis=0)
    pivots = 0

    if art_rows:
        status, pivots = _iterate(t, basis, m + 1, total, tol, pivots, limit)
        if status != OPTIMAL:
            return status, basis, t, pivots
        if -t[m + 1, -1] > tol:
            return INFEASIBLE, basis, t, pivots
        # Drive artificials out of the (degenerate) basis where a real
        # column can replace them; the rows left are redundant.
        for i in range(m):
            if basis[i] >= nv:
                usable = np.flatnonzero(abs(t[i, :nv]) > tol)
                if usable.size:
                    _pivot(t, basis, i, int(usable[0]))
                    pivots += 1

    status, pivots = _iterate(t, basis, m, nv, tol, pivots, limit)
    return status, basis, t, pivots


def _pivot(t, basis, r, j) -> None:
    # On the Fraction tableau only the pivot row's nonzeros take part.
    cols = np.flatnonzero(t[r]) if t.dtype == object else slice(None)
    t[r, cols] /= t[r, j]
    prow = t[r, cols]
    for i in np.flatnonzero(t[:, j]):
        if i != r:
            t[i, cols] -= t[i, j] * prow
    basis[r] = j


def _iterate(t, basis, obj, allowed, tol, pivots, limit) -> tuple[str, int]:
    """Pivot on objective row `obj` over columns [0, allowed) until optimal.

    The pivot limit guards the float tableau against cycling by rounding;
    the exact tableau has none, since Bland's rule cannot cycle.
    """
    m = len(basis)
    basis_arr = np.array(basis)
    stall = 0
    bland = False
    while allowed:
        costs = t[obj, :allowed]
        if bland:
            eligible = np.flatnonzero(costs < -tol)
            if not eligible.size:
                break
            enter = int(eligible[0])
        else:
            enter = int(np.argmin(costs))
            if costs[enter] >= -tol:
                break
        if pivots >= limit:
            return ITERATION_LIMIT, pivots
        column = t[:m, enter]
        rows = np.flatnonzero(column > tol)
        if not rows.size:
            return UNBOUNDED, pivots
        ratios = np.maximum(t[rows, -1], 0) / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + tol]
        leave = int(ties[np.argmin(basis_arr[ties])])
        if not bland:
            stall = stall + 1 if best <= tol else 0
            bland = stall > STALL_LIMIT
        _pivot(t, basis, leave, enter)
        basis_arr[leave] = enter
        pivots += 1
    return OPTIMAL, pivots


# -- exact certificate -----------------------------------------------------

def _certify(a, b, c, basis, art_rows) -> tuple | None:
    """Check a basis exactly; return its levels x_B and multipliers y, or None.

    The basis may hold artificial columns (index >= len(c), here the unit
    vector of row art_rows[index - len(c)] of M) only at level exactly zero.
    """
    m, nv = len(b), len(c)
    starts = np.searchsorted(a.cols, np.arange(nv + 1)).tolist()
    rows, coef = a.rows.tolist(), a.coef.tolist()
    cols = [dict(zip(rows[starts[j]:starts[j + 1]], coef[starts[j]:starts[j + 1]]))
            if j < nv else {art_rows[j - nv]: 1} for j in basis]
    m_b = [[col.get(i, 0) for col in cols] for i in range(m)]
    levels = _solve_exact(m_b, [v / s for v, s in zip(b, a.scale)])
    if levels is None or any(v < 0 or (v and j >= nv) for j, v in zip(basis, levels)):
        return None
    # y solves M_Bᵀ y = c_B here; den (Mᵀy)_j, over the common denominator
    # den of y, is an integer sum along column j, read off one running sum.
    y = _solve_exact([list(col) for col in zip(*m_b)], [c[j] if j < nv else 0 for j in basis])
    den = math.lcm(*(v.denominator for v in y))
    y_num = np.array([v.numerator * (den // v.denominator) for v in y], dtype=object)
    sums = np.concatenate(([0], np.cumsum(y_num[a.rows] * a.coef)))[starts].tolist()
    # den (c_j - (Mᵀy)_j) times the denominator of c_j: the reduced cost's sign.
    if any(v.numerator * den - v.denominator * (hi - lo) < 0
           for v, lo, hi in zip(c, sums, sums[1:])):
        return None
    return levels, [v / s for v, s in zip(y, a.scale)]


def _solve_exact(rows, rhs) -> list | None:
    """Solve the square rational system rows . z = rhs exactly; None if singular.

    Each equation is scaled to integers and Gauss-Jordan elimination runs on
    integers, each new row divided by its gcd, which is much cheaper than
    arithmetic on Fractions.
    """
    m = len(rows)
    aug = []
    for row, v in zip(rows, rhs):
        den = math.lcm(v.denominator, *(q.denominator for q in row))
        aug.append([q.numerator * (den // q.denominator) for q in (*row, v)])
    for k in range(m):
        p = next((i for i in range(k, m) if aug[i][k]), None)
        if p is None:
            return None
        aug[k], aug[p] = aug[p], aug[k]
        prow = aug[k]
        piv = prow[k]
        for i in range(m):
            f = aug[i][k]
            if f and i != k:
                new = [a * piv - f * q for a, q in zip(aug[i], prow)]
                g = math.gcd(*new) or 1
                aug[i] = [a // g for a in new]
    return [Fraction(row[m], row[k]) for k, row in enumerate(aug)]
