"""Exact GF(2) linear algebra on bit-packed vectors and matrices.

A vector of F_2^n is a plain int: coordinate x_j lives in bit (j - 1), so
coordinate 1 is the least-significant bit.  ``vec_str`` renders coordinates
left to right (x_1 x_2 ... x_n).  Matrices are immutable tuples of row ints
with an explicit column count.  Everything here is pure and hashable, so
values double as dictionary keys throughout the package; the exception is
the cosets, which a code and the coset table of each n hold as read-only
integer arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import BudgetError, RankDeficientError

# Enumeration budgets: subspace counts grow as Gaussian binomials, and the
# universality check walks every affine subspace of the given dimension.
CODE_ENUM_MAX_N = 8
UNIVERSAL_MAX_N = 6


def hamming_weight(v: int) -> int:
    return int(v).bit_count()


def dot(u: int, v: int) -> int:
    """Inner product of two vectors over F_2 (0 or 1)."""
    return (u & v).bit_count() & 1


def sign(u: int, v: int) -> int:
    """(-1)**(u.v) as a Python int."""
    return -1 if dot(u, v) else 1


def vec_str(v: int, n: int) -> str:
    """Render a vector as the coordinate string x_1 x_2 ... x_n."""
    return "".join("1" if (v >> j) & 1 else "0" for j in range(n))


def vec_from_str(s: str) -> int:
    """Parse a coordinate string (inverse of vec_str)."""
    v = 0
    for j, ch in enumerate(s):
        if ch == "1":
            v |= 1 << j
        elif ch != "0":
            raise ValueError(f"invalid coordinate string {s!r}")
    return v


def all_vectors(n: int) -> range:
    return range(1 << n)


def ball(n: int, d: int) -> tuple[int, ...]:
    """All vectors of Hamming weight <= d, ascending by integer encoding."""
    return tuple(v for v in all_vectors(n) if hamming_weight(v) <= d)


@dataclass(frozen=True, order=True)
class F2Matrix:
    """Matrix over F_2 stored as one int per row (bit j-1 = column j)."""

    n_cols: int
    rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n_cols < 0:
            raise ValueError("n_cols must be nonnegative")
        limit = 1 << self.n_cols
        for r in self.rows:
            if not 0 <= r < limit:
                raise ValueError(f"row {r} out of range for {self.n_cols} columns")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def mul_vec(self, x: int) -> int:
        """Matrix-vector product M.x; bit j of the result is row_j . x."""
        y = 0
        for j, row in enumerate(self.rows):
            y |= ((row & x).bit_count() & 1) << j
        return y

    def transpose_mul(self, u: int) -> int:
        """Transpose-vector product Mᵀ.u, i.e. the row combination sum u_j row_j."""
        out = 0
        for j, row in enumerate(self.rows):
            if (u >> j) & 1:
                out ^= row
        return out

    def row_space(self) -> list[int]:
        """All vectors in the span of the rows (deduplicated)."""
        reduced, _ = rref(self)
        return [reduced.transpose_mul(u) for u in range(1 << reduced.n_rows)]

    def to_strings(self) -> list[str]:
        return [vec_str(r, self.n_cols) for r in self.rows]


def identity(n: int) -> F2Matrix:
    return F2Matrix(n, tuple(1 << j for j in range(n)))


def rref(m: F2Matrix) -> tuple[F2Matrix, tuple[int, ...]]:
    """Reduced row-echelon form with pivot columns scanned in coordinate order.

    Zero rows are dropped, so the result has one row per pivot and rows come
    out sorted by pivot.  The RREF of a row space is unique, which is what
    makes it usable as a canonical form.
    """
    rows = list(m.rows)
    pivots: list[int] = []
    r = 0
    for col in range(m.n_cols):
        piv = next((i for i in range(r, len(rows)) if (rows[i] >> col) & 1), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
    return F2Matrix(m.n_cols, tuple(rows[:r])), tuple(pivots)


def rank(m: F2Matrix) -> int:
    """GF(2) row rank; 0 for the empty matrix."""
    return rref(m)[0].n_rows


def kernel_generator(h: F2Matrix) -> F2Matrix:
    """Canonical (n-k) x n generator G of Ker(H) for a full-rank k x n H.

    For k = 0 this is the identity (singleton cosets); for k = n it is the
    empty matrix (a single coset covering the whole space).  Raises
    RankDeficientError when H is not full rank.
    """
    reduced, pivots = rref(h)
    if reduced.n_rows != h.n_rows:
        raise RankDeficientError(
            f"matrix has rank {reduced.n_rows}, expected {h.n_rows}"
        )
    n = h.n_cols
    free = [c for c in range(n) if c not in pivots]
    kernel_rows = []
    for f in free:
        v = 1 << f
        for r, p in enumerate(pivots):
            if (reduced.rows[r] >> f) & 1:
                v |= 1 << p
        kernel_rows.append(v)
    reduced_kernel, _ = rref(F2Matrix(n, tuple(kernel_rows)))
    return reduced_kernel


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_2^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    assert num % den == 0
    return num // den


@dataclass(frozen=True, order=True)
class ParityCode:
    """A canonical full-rank k x n parity matrix with its dual-coset data.

    H is in reduced row-echelon form, so two codes with equal row space are
    the same record.  G generates Ker(H); the coset of syndrome s is
    {x : G.x = s}, a shift of the row space of H.  Codes of one n order by
    rank k, then by the rows of H: the canonical order of every report.
    The hash, the label and the plain-tuple `sort_key` (which orders as the
    dataclass order does) are computed once per code, as codes key most
    dictionaries of the package.
    """

    n: int
    k: int
    H: F2Matrix

    @classmethod
    def bottom(cls, n: int) -> ParityCode:
        """The rank-0 code backing the no-information outcome."""
        return cls(n, 0, F2Matrix(n, ()))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.k, self.H))

    @cached_property
    def sort_key(self) -> tuple:
        return (self.n, self.k, self.H.n_cols, self.H.rows)

    @cached_property
    def G(self) -> F2Matrix:
        return kernel_generator(self.H)

    @cached_property
    def cosets(self) -> np.ndarray:
        """Row s: the coset of syndrome s, ascending (`dual_cosets`)."""
        return dual_cosets(self)

    @cached_property
    def leaders(self) -> np.ndarray:
        """Read-only (2, 2^(n-k)): row 0 holds the lightest member of each
        coset, row 1 the heaviest.  The first argmin (argmax) over the
        ascending members breaks weight ties by the smallest encoding."""
        weight = _bit_counts(self.n)[self.cosets]
        picks = np.stack([weight.argmin(1), weight.argmax(1)])
        leaders = self.cosets[np.arange(len(weight)), picks]
        leaders.flags.writeable = False
        return leaders

    def parity(self, x: int) -> int:
        """The measured information y = H.x."""
        return self.H.mul_vec(x)

    @cached_property
    def parities(self) -> np.ndarray:
        """Read-only 2^n array: `parity(x)` at x, from the bit counts."""
        rows = np.array(self.H.rows, dtype=np.intp).reshape(self.k, 1)
        bits = (_bit_counts(self.n) & 1)[rows & np.arange(1 << self.n)]
        parities = (bits << np.arange(self.k)[:, None]).sum(0)
        parities.flags.writeable = False
        return parities

    @cached_property
    def least_shifts(self) -> np.ndarray:
        """Read-only 2^k array: the least x with `parity(x)` = y, at y."""
        least = np.unique(self.parities, return_index=True)[1]
        least.flags.writeable = False
        return least

    def label(self) -> str:
        return self._label

    @cached_property
    def _label(self) -> str:
        if self.k == 0:
            return "bottom"
        return "H[" + ";".join(self.H.to_strings()) + "]"


def by_code(item) -> tuple:
    """Sort key of a ((code, j), value) item: the code's order, then j."""
    (code, j), _ = item
    return code.sort_key, j


def dual_cosets(code: ParityCode) -> np.ndarray:
    """The read-only (2^(n-k), 2^k) array whose row s is the coset
    {x : G.x = s}, ascending: `coset_table(n).members[k][c]` for the code's
    position c.  Runs the table's routine on this code alone, so a single
    code at n = 7 or 8 never builds the table of its n.
    """
    members = _coset_members(_syndromes(code.n, code.k, [code]), code.k)[0]
    members.flags.writeable = False
    return members


@cache
def _bit_counts(n: int) -> np.ndarray:
    """The Hamming weight of each vector of F_2^n, indexed by its encoding."""
    x = np.arange(1 << n)
    weight = sum(((x >> j) & 1 for j in range(n)), np.zeros_like(x))
    weight.flags.writeable = False
    return weight


def _syndromes(n: int, k: int, codes) -> np.ndarray:
    """Row c, column x: the syndrome G.x of the rank-k code codes[c].

    Bit j of G.x is the parity of row_j & x, read from the bit counts."""
    g = np.array([code.G.rows for code in codes], dtype=np.intp).reshape(len(codes), n - k)
    parity = _bit_counts(n) & 1
    bits = parity[g[:, :, None] & np.arange(1 << n)]
    return (bits << np.arange(n - k)[:, None]).sum(1)


def _coset_members(syndromes: np.ndarray, k: int) -> np.ndarray:
    """(codes, 2^(n-k), 2^k): coset s of each rank-k code, ascending.  A
    full-rank G maps 2^k vectors to each syndrome, so the stable argsort of a
    row lists the cosets one after the other, each in ascending order."""
    order = np.argsort(syndromes, axis=1, kind="stable")
    return order.reshape(len(syndromes), -1, 1 << k)


@dataclass(frozen=True)
class CosetTable:
    """The dual cosets of every code of one n, as integer arrays.

    By rank k: `codes[k]` is the rank-k slice of the code table, in its
    order; for its code c, `syndromes[k][c, x]` is the syndrome of x, shape
    (codes, 2^n), and `members[k][c, s]` is coset s in ascending order,
    shape (codes, 2^(n-k), 2^k).  End to end, in the same order: coset j is
    `keys[j]` = (code, s), of rank `ranks[j]`, and its members are
    `entries[starts[j]:starts[j] + 2^ranks[j]]`.
    """

    codes: tuple
    syndromes: tuple
    members: tuple
    keys: tuple
    ranks: np.ndarray
    entries: np.ndarray
    starts: np.ndarray


@cache
def coset_table(n: int) -> CosetTable:
    """The cosets of the code table of n from one syndrome computation per
    rank: one table per n and process, as the code table is."""
    codes = tuple(codes_of_rank(n, k) for k in range(n + 1))
    syndromes = tuple(_syndromes(n, k, codes[k]) for k in range(n + 1))
    by_rank = [_coset_members(syn, k) for k, syn in enumerate(syndromes)]
    entries = np.concatenate([m.ravel() for m in by_rank])
    # Each rank's array is a view of `entries`, so the table holds every coset once.
    parts = np.split(entries, np.cumsum([m.size for m in by_rank])[:-1])
    members = tuple(part.reshape(m.shape) for part, m in zip(parts, by_rank))
    keys = tuple((code, s) for rank in codes for code in rank for s in range(1 << (n - code.k)))
    ranks = np.repeat(np.arange(n + 1), [m.shape[0] * m.shape[1] for m in members])
    starts = np.concatenate(([0], np.cumsum(1 << ranks)[:-1]))
    for array in syndromes + members + (ranks, entries, starts):
        array.flags.writeable = False
    return CosetTable(codes, syndromes, members, keys, ranks, entries, starts)


def enumerate_codes(n: int, k: int) -> list[ParityCode]:
    """One canonical code per k-dimensional row space of F_2^n.

    Enumerates reduced row-echelon forms directly: choose pivot columns,
    then fill the free positions (non-pivot columns right of each pivot).
    The count is the Gaussian binomial [n choose k]_2.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n > CODE_ENUM_MAX_N:
        raise BudgetError(f"code enumeration capped at n <= {CODE_ENUM_MAX_N}")
    out: list[ParityCode] = []
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free_positions = [
            [c for c in range(p + 1, n) if c not in pivot_set] for p in pivots
        ]
        counts = [len(f) for f in free_positions]
        total_free = sum(counts)
        for bits in range(1 << total_free):
            rows = []
            t = 0
            for i in range(k):
                row = 1 << pivots[i]
                for c in free_positions[i]:
                    if (bits >> t) & 1:
                        row |= 1 << c
                    t += 1
                rows.append(row)
            out.append(ParityCode(n, k, F2Matrix(n, tuple(rows))))
    return out


@cache
def enumerate_all_codes(n: int) -> tuple[ParityCode, ...]:
    """All canonical codes of every rank, rank-0 first: one table per n and
    process, so each code computes its cosets once."""
    return tuple(code for k in range(n + 1) for code in enumerate_codes(n, k))


@cache
def code_positions(n: int) -> dict:
    """Each code of the code table of n -> its position in the table."""
    return {code: j for j, code in enumerate(enumerate_all_codes(n))}


def codes_of_rank(n: int, k: int) -> tuple[ParityCode, ...]:
    """The rank-k slice of the code table: the codes of enumerate_codes(n, k),
    in its order, with their cosets kept."""
    start = sum(gaussian_binomial(n, j) for j in range(k))
    return enumerate_all_codes(n)[start:start + gaussian_binomial(n, k)]


def enumerate_identity_rows(n: int, k: int) -> list[F2Matrix]:
    """The C(n, k) ordered row-submatrices of the identity."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return [
        F2Matrix(n, tuple(1 << i for i in combo))
        for combo in itertools.combinations(range(n), k)
    ]


def char_sum(generator: F2Matrix, v: int) -> int:
    """Sum of (-1)**(v.c) over the subspace spanned by the generator rows.

    Equals the subspace size when v is orthogonal to every generator row and
    0 otherwise; computed by direct summation so it can serve as an oracle.
    """
    return sum(sign(c, v) for c in generator.row_space())


def _check_universal_budget(tau: int, n: int) -> None:
    if not 1 <= tau <= n:
        raise ValueError("need 1 <= tau <= n")
    if n > UNIVERSAL_MAX_N:
        raise BudgetError(f"affine-subspace enumeration capped at n <= {UNIVERSAL_MAX_N}")


def coset_counts(u, tau: int, n: int) -> np.ndarray:
    """|U ∩ coset| for coset s of each rank-tau code c of the code table, at
    [c, s]: how many points of U each affine tau-subspace holds."""
    _check_universal_budget(tau, n)
    in_u = np.zeros(1 << n, dtype=np.intp)
    in_u[list(u)] = 1
    return in_u[coset_table(n).members[tau]].sum(-1)


def uncovered_affine_subspaces(
    u: set[int] | frozenset[int], tau: int, n: int
) -> list[tuple[ParityCode, int]]:
    """All tau-dimensional affine subspaces disjoint from U, as (code, syndrome).

    The cosets of a rank-tau code's row space run over every affine
    tau-subspace exactly once as the code ranges over canonical forms.
    """
    missed = np.argwhere(coset_counts(u, tau, n) == 0).tolist()
    codes = coset_table(n).codes[tau]
    return [(codes[c], s) for c, s in missed]


def is_universal(u: set[int] | frozenset[int], tau: int, n: int) -> bool:
    """True iff U meets every affine subspace of dimension tau."""
    return not uncovered_affine_subspaces(u, tau, n)
