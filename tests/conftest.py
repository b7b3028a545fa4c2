"""Shared helpers: random rational profiles and independent brute-force oracles."""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from paritylp import povm, simplex
from paritylp.errors import RankDeficientError
from paritylp.f2lin import (
    F2Matrix,
    ParityCode,
    all_vectors,
    hamming_weight,
    rref,
    vec_from_str,
)
from paritylp.lp import Constraint, model_text, solve_primal
from paritylp.profiles import AmplitudeProfile, CostFunction


@dataclass
class RowModel:
    """A linear program over nonnegative variables given by its rows, for the
    oracles: `lp.solve` takes only the primal's columns."""

    name: str
    sense: str
    labels: list
    objective: list
    constraints: list[Constraint]

    @property
    def n_vars(self) -> int:
        return len(self.labels)

    def to_text(self) -> str:
        return model_text(self.name, self.sense, self.labels, self.objective, self.constraints)


def priced(model, cost) -> RowModel:
    """A profile's primal under `cost`, as a row model for the oracles: the
    objective has one entry per column, cost(k) 2^k at its rank k."""
    objective = [cost.values[k] * (1 << k) for k in model.columns.ranks.tolist()]
    return RowModel(model.name, model.sense, model.labels, objective, model.constraints)


def rand_rational_profile(n: int, rng: random.Random, *, max_num: int = 30,
                          full_support: bool = True) -> AmplitudeProfile:
    low = 1 if full_support else 0
    while True:
        nums = [rng.randint(low, max_num) for _ in range(1 << n)]
        if sum(nums) > 0:
            break
    total = sum(nums)
    return AmplitudeProfile.from_weights(
        n, [Fraction(v, total) for v in nums]
    )


def code_from_matrix(m: F2Matrix) -> ParityCode:
    """The code whose parity matrix has the row space of `m`, which must
    have full rank: its reduced echelon form, the canonical record."""
    reduced, _ = rref(m)
    if reduced.n_rows != m.n_rows:
        raise RankDeficientError("parity matrix must have full rank")
    return ParityCode(m.n_cols, reduced.n_rows, reduced)


def brute_rank(m: F2Matrix) -> int:
    """Rank via the size of the row span; independent of elimination code."""
    span = {0}
    for bits in range(1 << m.n_rows):
        v = 0
        for j in range(m.n_rows):
            if (bits >> j) & 1:
                v ^= m.rows[j]
        span.add(v)
    return len(span).bit_length() - 1


def brute_row_spaces(n: int, k: int) -> set[frozenset]:
    """All k-dimensional row spaces from scanning every k x n matrix."""
    spaces: set[frozenset] = set()
    for rows in itertools.product(range(1 << n), repeat=k):
        m = F2Matrix(n, tuple(rows))
        if brute_rank(m) == k:
            spaces.add(frozenset(m.row_space()))
    return spaces


def full_rank_matrices(n: int, k: int) -> list[F2Matrix]:
    """Every full-rank k x n matrix, duplicates across row spaces included."""
    out = []
    for rows in itertools.product(range(1 << n), repeat=k):
        m = F2Matrix(n, tuple(rows))
        if brute_rank(m) == k:
            out.append(m)
    return out


def literal_lp_model(profile: AmplitudeProfile, cost, matrices) -> RowModel:
    """The per-index formulation with explicit coset-constancy equalities.

    One variable per (matrix, index).  Used as an oracle against the
    coset-reduced builder: matrices may repeat row spaces, which must not
    change the optimum.
    """
    from paritylp.f2lin import kernel_generator

    n = profile.n
    labels = []
    objective = []
    for mi, m in enumerate(matrices):
        ck = cost.values[m.n_rows]
        for i in all_vectors(n):
            labels.append(("lam", mi, i))
            objective.append(ck * profile.weights[i])
    index = {lab: j for j, lab in enumerate(labels)}

    constraints = []
    for i in profile.support:
        coeffs = {index[("lam", mi, i)]: 1 for mi in range(len(matrices))}
        constraints.append(Constraint(coeffs, "=", 1))
    for mi, m in enumerate(matrices):
        gen = kernel_generator(m)
        cosets: dict[int, list[int]] = {}
        for x in all_vectors(n):
            cosets.setdefault(gen.mul_vec(x), []).append(x)
        for members in cosets.values():
            for a, b in zip(members, members[1:]):
                coeffs = {index[("lam", mi, a)]: profile.weights[a],
                          index[("lam", mi, b)]: -profile.weights[b]}
                constraints.append(Constraint(coeffs, "=", 0))
    return RowModel("literal", "max", labels, objective, constraints)


def ball_profile(n: int, d: int, rng: random.Random) -> AmplitudeProfile:
    """Random rational profile supported exactly on the radius-d ball."""
    idx = [i for i in all_vectors(n) if hamming_weight(i) <= d]
    nums = {i: rng.randint(1, 20) for i in idx}
    total = sum(nums.values())
    weights = [Fraction(nums.get(i, 0), total) for i in all_vectors(n)]
    return AmplitudeProfile.from_weights(n, weights)


def point_mass_profile(n: int, at: int) -> AmplitudeProfile:
    weights = [Fraction(1) if i == at else Fraction(0) for i in all_vectors(n)]
    return AmplitudeProfile.from_weights(n, weights)


def lam_items(mu_items, weights):
    """((code, i), lambda) for each member i of each ((code, s), mu) of
    `mu_items`, in their order, with lambda = mu / w_i.  At a zero-weight
    index, where mu / w_i has no value, lambda is mu + 1 on the bottom code
    (the no-information outcome) and mu on every other code, where a
    feasible point has mu = 0.  The library keeps mu alone; this is the
    lambda the tests compare against."""
    for (code, s), v in mu_items:
        for i in code.cosets[s].tolist():
            if weights[i]:
                yield (code, i), v / weights[i]
            else:
                yield (code, i), v if code.k else v + 1


def lam_of(sol, weights) -> dict:
    """lambda[(code, i)] for every member of every coset of sol.mu."""
    return dict(lam_items(sol.mu.items(), weights))


def _sum(p: AmplitudeProfile, terms):
    """A sum in the profile's number type: exact `Fraction` for a rational
    profile, the correctly rounded `math.fsum` for a binary64 one."""
    return sum(terms, Fraction(0)) if p.rational else math.fsum(terms)


def average_dual_weight(p: AmplitudeProfile):
    """Mean Hamming weight of the dual distribution, sum |i| w_i."""
    return _sum(p, (hamming_weight(i) * p.weights[i] for i in all_vectors(p.n)))


def tail_mass(p: AmplitudeProfile, d: int):
    """Total weight on indices of Hamming weight > d."""
    if not 0 <= d <= p.n:
        raise ValueError("need 0 <= d <= n")
    return _sum(p, (p.weights[i] for i in all_vectors(p.n) if hamming_weight(i) > d))


def powered_profile(index, n=4, seed=2):
    """Profile `index` of a seeded set with tiny weights (ROADMAP item 2):
    integer weights 1..1000, and in every other profile each weight raised
    to a power of 1 to 4 of its own.  The n=5 set is seeded with 5."""
    rng = random.Random(seed)
    for k in range(index + 1):
        nums = [rng.randint(1, 1000) for _ in range(1 << n)]
        if k % 2:
            nums = [v ** rng.randint(1, 4) for v in nums]
    return AmplitudeProfile.from_weights(n, [Fraction(v, sum(nums)) for v in nums])


def without_float_stage(monkeypatch):
    """The float stage ends "iteration-limit" at once, so an exact solve's
    integer loop starts from the unit columns."""
    monkeypatch.setattr(simplex, "_revised",
                        lambda *_: (simplex.ITERATION_LIMIT, None, None, None))


def held(povm_set) -> dict:
    """code -> the read-only stack the set holds for it, in the set's order,
    then ParityCode.bottom(n) -> the leftover as one row.  A code is held as
    outcome 0 alone, one row, or as its 2^k outcomes, row y outcome y; the
    audits read a one-row stack off outcome 0 and any other row by row.
    Tests read a set's storage through this helper and `stacks` alone."""
    return dict(povm._code_stacks(povm_set))


def stacks(povm_set, leftover=False) -> dict:
    """code -> its read-only (2^k, 2^n, 2^n) stack of every outcome, in the
    set's order, built from the held stack as every reader builds it; with
    `leftover`, then ParityCode.bottom(n) -> the leftover as one row."""
    items = list(held(povm_set).items())
    return {code: povm._full(code, stack) for code, stack in items[:None if leftover else -1]}


def holding(povm_set, code, stack) -> povm.PovmSet:
    """`povm_set` with `code` held as `stack`."""
    return povm.PovmSet(povm_set.n, {**povm_set.held, code: stack}, povm_set.perp,
                        povm_set.profile)


def report_outcomes(entry) -> list:
    """Every outcome of one code of a `povm` report, by the report's rule:
    held[y] when the entry holds 2^k matrices, else held[0] with rows and
    columns i read at i ^ a, for a = shifts[y].  A held matrix is an ndarray
    (`PovmSet.to_json_dict`) or its rows of {"re", "im"} dicts (the JSON)."""
    mats = [m if isinstance(m, np.ndarray) else
            np.array([[complex(e["re"], e["im"]) for e in row] for row in m])
            for m in entry["held"]]
    if len(mats) == 1 << entry["k"]:
        return mats
    idx = np.arange(len(mats[0]))
    return [mats[0][np.ix_(idx ^ a, idx ^ a)] for a in map(vec_from_str, entry["shifts"])]


def relabelled(zero, code) -> dict:
    """(code, y) -> X_a zero X_a for every outcome y, a the least shift with
    H.a = y, by permuting rows and columns."""
    idx = np.arange(len(zero))
    least = [min(x for x in all_vectors(code.n) if code.parity(x) == y)
             for y in range(1 << code.k)]
    return {(code, y): zero[np.ix_(idx ^ a, idx ^ a)] for y, a in enumerate(least)}


def orbit_breaks() -> tuple:
    """A seeded n=3 optimum with complex phases, and, by name, dense copies
    of it (`PovmSet.from_elements`) that each leave one code's orbit on one
    count alone, with that code: each copy rebuilds the code as its edited
    outcome 0 relabelled.  "minus-zero": one relabelled copy of an entry whose
    imaginary part outcome 0 holds as 0.0 holds -0.0; "nan": outcome 0 of a
    rank-3 code (ker H = 0) holds a NaN; "kernel-shift": outcome 0 of a
    rank-1 code gains 1e-3 at [0, 0], which the generators of ker H move."""
    rng = random.Random("orbit-breaks")
    amps = [math.sqrt(rng.uniform(0.05, 1.0)) * cmath.exp(2j * math.pi * rng.random())
            for _ in range(8)]
    scale = math.sqrt(math.fsum(abs(a) ** 2 for a in amps))
    prof = AmplitudeProfile.from_amplitudes(3, [a / scale for a in amps])
    base = povm.build_from_primal(solve_primal(prof, CostFunction.average(3), "float")[0], prof)
    full = next(code for code in stacks(base) if code.k == 3)
    part = next(code for code in stacks(base) if code.k == 1)

    def rebuilt(code, edit, after=lambda elements: None):
        zero = base.elements[(code, 0)].copy()
        edit(zero)
        elements = {**base.elements, **relabelled(zero, code)}
        after(elements)
        return povm.PovmSet.from_elements(3, elements, base.perp, prof), code

    def real_part_only(m):
        m[0, 1] = m[0, 1].real

    def minus_zero(elements):
        least = next(x for x in all_vectors(3) if full.parity(x) == 1)
        mat = elements[(full, 1)]
        mat[least, 1 ^ least] = complex(mat[least, 1 ^ least].real, -0.0)

    def nan(m):
        m[0, 1] = complex(math.nan, m[0, 1].imag)

    def kernel_shift(m):
        m[0, 0] += 1e-3

    return base, {"minus-zero": rebuilt(full, real_part_only, minus_zero),
                  "nan": rebuilt(full, nan), "kernel-shift": rebuilt(part, kernel_shift)}
