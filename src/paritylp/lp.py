"""Primal and dual linear programs for fine-grained unambiguous measurement.

The primal works on coset-reduced variables mu[(code, s)] = lambda * weight,
one per (canonical code, syndrome) whose coset avoids the zero-weight set;
the constancy of lambda * weight on each coset is thereby built into the
model instead of written as equalities.  The dual has one nonnegative
variable per index and one covering constraint per (code, syndrome).

The primal carries the profile's own numbers (`Fraction` for a rational
profile, binary64 otherwise; costs are always exact), and `solve` alone
picks the arithmetic: a certified rational solve when the mode is exact and
every entry of the model is rational, binary64 otherwise.  Its report
records the mode that ran, and everything downstream is plain arithmetic
on the values it returns.  Every solve of a profile goes through the
primal, which has one row per supported index; the dual is read off the
same optimal basis, as the row multipliers divided by the weights, with an
explicit covering value on the zero-weight indices.  The primal carries
its columns (each variable's member rows, row i scaled by 1 / w_i), which
`solve` hands to the simplex as they are; its rows are derived from them
only when read.  The dual program itself is only ever written out as text.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, compress
from numbers import Rational
from typing import ClassVar

import numpy as np

from . import simplex
from .errors import BudgetError, SolveError
from .f2lin import ParityCode, all_vectors, by_code, coset_table, vec_str
from .profiles import AmplitudeProfile, CostFunction

LP_MAX_N = 5

EXACT = "exact"
FLOAT = "float"

FLOAT_FEAS_TOL = 1e-9


@dataclass
class Constraint:
    coeffs: dict[int, object]
    rel: str
    rhs: object
    tag: tuple = ()


@dataclass
class LpModel:
    """The primal by its columns: maximize objective·x subject to A x = 1
    and x >= 0, with one row per index of `support`.  Variable j is the
    mu of the coset `labels[j]`, a (code, s) key as `PrimalSolution.mu` has.

    `constraints`, the same rows as `Constraint`s tagged ("index", i), is
    derived from the columns on first read; `solve` never reads it.
    """

    name: ClassVar[str] = "primal"
    sense: ClassVar[str] = "max"
    labels: list
    objective: list
    columns: simplex.Columns
    support: tuple

    @property
    def n_vars(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def constraints(self) -> list[Constraint]:
        a = self.columns
        coeffs: list = [{} for _ in self.support]
        for r, j, v in zip(a.rows.tolist(), a.cols.tolist(), a.coef.tolist()):
            coeffs[r][j] = a.scale[r] * v
        return [Constraint(co, "=", 1, ("index", i)) for co, i in zip(coeffs, self.support)]

    def to_text(self) -> str:
        return model_text(self.name, self.sense, self.labels, self.objective, self.constraints)


def model_text(name: str, sense: str, labels: list, objective: list, constraints) -> str:
    """One line for the objective and one per constraint, for eyeballing small models."""
    def terms(coeffs):
        return " + ".join(f"{c}*{_label_str(labels[j])}" for j, c in coeffs if c)

    lines = [f"# {name}: {sense} " + terms(enumerate(objective))]
    lines += [f"{terms(sorted(con.coeffs.items()))} {con.rel} {con.rhs}" for con in constraints]
    return "\n".join(lines)


@dataclass
class SolveReport:
    status: str
    objective: object | None
    values: dict | None
    # The arithmetic that ran: "exact" only for exact mode on a rational model.
    mode: str
    pivots: int
    wall_time: float
    strategy: str
    # Multipliers of the model's constraints, in the model's own sense.
    duals: list | None = None
    # What the pivot loops did; no CLI report carries it.
    stats: simplex.SolveStats | None = None

    def to_json_dict(self) -> dict:
        values = None
        if self.values is not None:
            values = {_label_str(k): v for k, v in self.values.items()}
        return {
            "status": self.status,
            "objective": self.objective,
            "objective_float": None if self.objective is None else float(self.objective),
            "mode": self.mode,
            "pivots": self.pivots,
            "wall_time_s": self.wall_time,
            "strategy": self.strategy,
            "values": values,
        }


def _label_str(label) -> str:
    if isinstance(label[0], ParityCode):
        code, s = label
        return f"mu[{code.label()},s={s}]"
    if label[0] == "b":
        _, i, n = label
        return f"b[{vec_str(i, n)}]"
    return str(label)


def _rank_value(cost: CostFunction, k: int):
    """cost(k) 2^k: the primal objective coefficient of a rank-k coset, and
    the right-hand side of its covering constraint in the dual."""
    return cost.value(k) * (1 << k)


def check_budget(n: int) -> None:
    """Raise BudgetError when a linear program over F_2^n is above the cap."""
    if n > LP_MAX_N:
        raise BudgetError(f"linear programs capped at n <= {LP_MAX_N}")


def build_primal(profile: AmplitudeProfile, cost: CostFunction) -> LpModel:
    """Coset-reduced maximization program for the measurement quality.

    Variables mu[(code, s)] >= 0 exist only for cosets inside the support;
    a coset touching a zero-weight index is pinned to zero by omission.  One
    equality per supported index i: sum over codes of mu[(code, s(i))] / w_i
    equals 1.  The model carries its columns: row i is (1 / w_i) times the
    0/1 incidence of the cosets that hold i, gathered from the coset table.
    """
    check_budget(profile.n)
    n = profile.n
    row_of = np.full(1 << n, -1, dtype=np.intp)
    row_of[list(profile.support)] = np.arange(len(profile.support))
    table = coset_table(n)
    # Row -1 marks a zero-weight index: a coset is kept when none of its
    # members has it.
    rows = row_of[table.entries]
    inside = np.minimum.reduceat(rows, table.starts) >= 0
    # A variable's label is its coset's (code, s) key, as mu is keyed.
    labels = list(compress(table.keys, inside.tolist()))
    values = [_rank_value(cost, k) for k in range(n + 1)]
    ranks = table.ranks[inside]
    objective = [values[k] for k in ranks.tolist()]
    flat = rows[np.repeat(inside, 1 << table.ranks)]
    lens = 1 << ranks
    columns = simplex.Columns(flat, np.repeat(np.arange(len(lens)), lens),
                              np.ones(len(flat), dtype=np.int64),
                              [1 / profile.weights[i] for i in profile.support])
    return LpModel(labels, objective, columns, profile.support)


def build_dual(profile: AmplitudeProfile, cost: CostFunction) -> str:
    """The covering program's text: minimize sum b_i w_i subject to sum b_i
    >= cost(k) 2^k over each coset of each rank-k code."""
    check_budget(profile.n)
    n = profile.n
    rows = [Constraint(dict.fromkeys(coset, 1), ">=", _rank_value(cost, k))
            for k, members in enumerate(coset_table(n).members)
            for coset in members.reshape(-1, 1 << k).tolist()]
    return model_text("dual", "min", [("b", i, n) for i in all_vectors(n)], profile.weights, rows)


def solve(model: LpModel, mode: str = EXACT) -> SolveReport:
    """Solve a model exactly (certified rational optimum) or in binary64.

    The solve is exact when the mode is exact and every entry of the model
    is rational; otherwise it runs in binary64, and the report's mode says
    which ran.  The pricing rule is deterministic, so exact optima are
    bit-identical across invocations.  The report carries the multipliers
    of the model's constraints: the objective equals the sum of
    multiplier times right-hand side.
    """
    if mode not in (EXACT, FLOAT):
        raise SolveError(f"unknown mode {mode!r}")
    start = time.perf_counter()
    # One subclass test per number type, not one isinstance per entry.
    exact = mode == EXACT and all(issubclass(t, Rational) for t in set(map(type, chain(
        model.objective, model.columns.scale))))
    # The dtype of b and c selects the arithmetic of simplex_min; the
    # maximization is solved as min -objective·x.
    num, dtype = (Fraction, object) if exact else (float, float)
    c = -np.array(model.objective, dtype=dtype)
    b = np.full(len(model.support), num(1), dtype=dtype)
    # Column r is the rank-0 code's coset {support[r]}: the no-information
    # measurement, feasible for every profile, is the starting basis.
    result = simplex.simplex_min(model.columns, b, c, basis_seed=range(len(model.support)))
    elapsed = time.perf_counter() - start
    mode = EXACT if exact else FLOAT
    if result.status != simplex.OPTIMAL:
        return SolveReport(result.status, None, None, mode, result.pivots,
                           elapsed, result.strategy, stats=result.stats)
    values = dict(zip(model.labels, result.x))
    return SolveReport("optimal", -result.objective, values, mode, result.pivots,
                       elapsed, result.strategy, [-y for y in result.y], result.stats)


@dataclass
class PrimalSolution:
    """Coset-reduced mu values, with the weights of the profile mu was found
    for; lambda = mu / weight is a view derived from them."""

    n: int
    mu: dict
    objective: object
    weights: tuple

    @functools.cached_property
    def carried(self) -> list:
        """The ((code, s), mu) items of mu with mu != 0, in mu's order, listed
        on first read: the cosets that carry mass, which are all that the
        audits, the outcome law, the sampler and the operators read."""
        return list(compress(self.mu.items(), self.mu.values()))

    @functools.cached_property
    def lam(self) -> dict:
        """lambda[(code, i)] for every coset of mu, as `lam_items` gives it,
        built on first read; only a candidate's report reads it."""
        return dict(self.lam_items(self.mu.items()))

    def lam_items(self, cosets):
        """((code, i), lambda) for each member i of each ((code, s), mu) of
        `cosets`, in their order, with lambda = mu / w_i.  At a zero-weight
        index, where mu / w_i has no value, lambda is mu + 1 on the bottom
        code, whose coset {i} a solve gives mu = 0, and mu on every other
        code, where a feasible point has mu = 0."""
        w = self.weights
        for (code, s), v in cosets:
            for i in code.cosets[s].tolist():
                if w[i]:
                    yield (code, i), v / w[i]
                else:
                    yield (code, i), v if code.k else v + 1

    @classmethod
    def from_lp_values(cls, profile: AmplitudeProfile, values: dict,
                       objective) -> PrimalSolution:
        """The solution of a solve's `values`, which are keyed (code, s) as mu
        is: mu is a copy of them (no key is hashed again), with mu = 0 on the
        bottom code at each zero-weight index."""
        mu = dict(values)
        # Absorb unconstrained indices into the no-information outcome: the
        # bottom code's cosets are single indices.
        bottom = ParityCode.bottom(profile.n)
        mu.update(dict.fromkeys([(bottom, i) for i in profile.zero_set], objective * 0))
        return cls(profile.n, mu, objective, profile.weights)

    def to_json_dict(self) -> dict:
        return {
            "objective": self.objective,
            "mu": {
                f"{code.label()},s={s}": v
                for (code, s), v in sorted(self.mu.items(), key=by_code)
            },
        }


@dataclass
class DualSolution:
    """The dual vector b, with b[i] the value of index i for i = 0 ... 2^n - 1,
    and an optional cached objective."""

    n: int
    b: tuple
    objective: object | None = None
    family: str | None = None
    params: dict = field(default_factory=dict)
    # The report of a family that audits itself, against the cost it is for.
    audit: FeasibilityReport | None = None

    def evaluate(self, profile: AmplitudeProfile):
        return sum(v * w for v, w in zip(self.b, profile.weights))

    def to_json_dict(self) -> dict:
        out = {
            "b": {vec_str(i, self.n): v for i, v in enumerate(self.b)},
            "objective": self.objective,
        }
        if self.family:
            out["family"] = self.family
            out["params"] = self.params
        return out


def solve_pair(profile: AmplitudeProfile, cost: CostFunction, mode: str = EXACT
               ) -> tuple[PrimalSolution, DualSolution, SolveReport]:
    """Optimal primal and dual solutions from one solve of the primal.

    Row i of the primal reads sum mu / w_i = 1, so its multiplier u_i gives
    b_i = u_i / w_i, with 1 / w_i the row's scale in the model's columns, and
    sum b_i w_i = sum u_i is the primal optimum.  An index of weight zero
    carries no row; it gets max_k cost(k) 2^k, which covers by itself every
    coset it lies in.  In float mode a b_i within FLOAT_FEAS_TOL below zero
    is reported as 0, so b >= 0.
    """
    model = build_primal(profile, cost)
    report = solve(model, mode)
    if report.status != "optimal":
        raise SolveError(f"primal solve ended with status {report.status}")
    primal = PrimalSolution.from_lp_values(profile, report.values, report.objective)
    # objective * 0 puts the cover in the number type the solve ran in.
    cover = report.objective * 0 + max(_rank_value(cost, k) for k in range(profile.n + 1))
    b = [cover] * (1 << profile.n)
    for i, u, g in zip(profile.support, report.duals, model.columns.scale):
        b[i] = u * g
        if report.mode != EXACT and -FLOAT_FEAS_TOL <= b[i] < 0:
            # As simplex_min does for levels: rounding residue below zero reads 0.
            b[i] = 0.0
    dual = DualSolution(profile.n, tuple(b))
    dual.objective = dual.evaluate(profile)
    return primal, dual, report


def solve_primal(profile: AmplitudeProfile, cost: CostFunction,
                 mode: str = EXACT) -> tuple[PrimalSolution, SolveReport]:
    primal, _, report = solve_pair(profile, cost, mode)
    return primal, report


def solve_dual(profile: AmplitudeProfile, cost: CostFunction,
               mode: str = EXACT) -> tuple[DualSolution, SolveReport]:
    """The dual read off the primal's optimal basis, with a report on its values."""
    _, dual, report = solve_pair(profile, cost, mode)
    values = {("b", i, profile.n): v for i, v in enumerate(dual.b)}
    return dual, replace(report, values=values)


@dataclass
class FeasibilityReport:
    feasible: bool
    violations: list
    max_violation: object
    n_checked: int

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "n_checked": self.n_checked,
            "max_violation": float(self.max_violation),
            "violations": self.violations[:50],
        }


def _default_tol(tol, *operands):
    """`tol` if given; else 0 when every operand is rational, FLOAT_FEAS_TOL if not."""
    if tol is not None:
        return tol
    return 0 if all(isinstance(v, Rational) for v in chain(*operands)) else FLOAT_FEAS_TOL


def check_primal_feasible(sol: PrimalSolution, profile: AmplitudeProfile,
                          tol=None) -> FeasibilityReport:
    """Audit the point mu on exact rationals, as the dual audit audits b.

    lambda = mu / w is constant on each coset by construction, so only the
    cosets that carry mass are read: lambda >= -tol on each, no mass on one
    that meets the zero set, and sum_H lambda_i = 1 within tol at each
    supported i (the mu holding i sum to w_i).  Ints, `Fraction`s and
    finite floats are all exact rationals; a NaN or an infinity raises
    ValueError, and above LP_MAX_N it raises BudgetError before any work.
    """
    return _primal_audit(sol, profile, tol)[0]


def _primal_audit(sol: PrimalSolution, profile: AmplitudeProfile,
                  tol) -> tuple[FeasibilityReport, list]:
    """The report of `check_primal_feasible` and each index's exact
    sum_H lambda_i - 1 (0 off the support)."""
    check_budget(sol.n)
    tol = _exact(_default_tol(tol, profile.weights, (v for _, v in sol.carried)))
    w = [_exact(v) for v in profile.weights]
    sums, found = [0] * len(w), []
    for (code, s), v in sol.carried:
        members = code.cosets[s].tolist()
        v = _exact(v)
        for i in members:
            sums[i] += v
        # lambda is lowest on the lightest member; where that one weighs 0,
        # mu / 0 has no value and the violation is mu itself
        lightest = min(map(w.__getitem__, members))
        if not lightest:
            found.append((f"mu[{code.label()},s={s}] = 0 on the zero set", abs(v)))
        elif v < -tol * lightest:
            found.append((f"mu[{code.label()},s={s}] >= 0", -v / lightest))
    residuals = [0] * len(w)
    for i in profile.support:
        residuals[i] = sums[i] / w[i] - 1
        if abs(residuals[i]) > tol:
            found.append((f"sum_codes lambda[{vec_str(i, sol.n)}] = 1", abs(residuals[i])))
    violations = [{"constraint": c, "violation": float(gap)} for c, gap in found]
    max_v = max((gap for _, gap in found), default=0)
    checked = len(sol.mu) + len(profile.support)
    return FeasibilityReport(not found, violations, max_v, checked), residuals


def check_dual_feasible(sol: DualSolution, cost: CostFunction,
                        tol=None) -> FeasibilityReport:
    """Exhaustively audit every (code, syndrome) covering constraint.

    An int, a `Fraction` and a finite binary64 float are all exact
    rationals, so every coset is decided on integers (`_short_cosets`); a
    NaN or infinite b_i or tolerance raises ValueError.  Above LP_MAX_N it
    raises BudgetError before any coset table is built.
    """
    check_budget(sol.n)
    tol = _default_tol(tol, sol.b, cost.values)
    violations = []
    max_v = 0

    for i, v in enumerate(sol.b):
        if v < -tol:
            violations.append(
                {"constraint": f"b[{vec_str(i, sol.n)}] >= 0", "violation": float(-v)}
            )
            max_v = max(max_v, -v)

    for (code, s), slack in _short_cosets(sol.b, cost, tol):
        violations.append(
            {"constraint": f"coset sum {code.label()},s={s} >= {_rank_value(cost, code.k)}",
             "violation": float(-slack)}
        )
        max_v = max(max_v, -slack)

    checked = len(sol.b) + len(coset_table(sol.n).keys)
    return FeasibilityReport(not violations, violations, max_v, checked)


def coset_slacks(sol: DualSolution, cost: CostFunction) -> dict:
    """(code, s) -> the sum of b over the coset, in ascending order, minus
    the right-hand side, for every code of the table; capped as
    `check_dual_feasible` is."""
    check_budget(sol.n)
    b, table = sol.b, coset_table(sol.n)
    return {(code, s): sum(map(b.__getitem__, coset)) - _rank_value(cost, k)
            for k, (codes, members) in enumerate(zip(table.codes, table.members))
            for code, cosets in zip(codes, members.tolist())
            for s, coset in enumerate(cosets)}


def _exact(v) -> Fraction:
    """v as an exact rational; a NaN or an infinity is refused."""
    try:
        return Fraction(v)
    except (OverflowError, ValueError):
        raise ValueError(f"the audits need finite numbers, not {v!r}") from None


def _short_cosets(b: tuple, cost: CostFunction, tol):
    """Each ((code, s), slack) with slack < -tol, over the code table.

    With every b_i written exactly as N_i / D over one common denominator D,
    the slack is below -tol exactly when the integer sum of N_i over the
    coset is below ceil((rhs - tol) D).  Those sums are gathered from the
    coset table, in int64 when no sum or limit can reach 2^62 and on Python
    ints otherwise; the slack itself is summed in the arithmetic of b, as
    `coset_slacks` sums it, for the short cosets alone.
    """
    exact = [_exact(v) for v in b]
    tol = _exact(tol)
    den = math.lcm(*(v.denominator for v in exact))
    nums = [v.numerator * (den // v.denominator) for v in exact]
    limits = [math.ceil((_rank_value(cost, k) - tol) * den) for k in range(len(cost.values))]
    n = len(b).bit_length() - 1
    small = max(map(abs, nums)) << n < 2**62 and max(map(abs, limits)) < 2**62
    nums = np.array(nums, dtype=np.int64 if small else object)
    limits = np.array(limits, dtype=nums.dtype)
    table = coset_table(n)
    sums = np.add.reduceat(nums[table.entries], table.starts)
    for j in np.flatnonzero(sums < limits[table.ranks]).tolist():
        (code, s), start = table.keys[j], table.starts[j]
        members = table.entries[start:start + (1 << code.k)].tolist()
        yield (code, s), sum(map(b.__getitem__, members)) - _rank_value(cost, code.k)


@dataclass
class SlacknessReport:
    certified: bool
    primal_feasible: bool
    dual_feasible: bool
    max_index_product: object
    max_coset_product: object
    primal_objective: object
    dual_objective: object
    violations: list

    def to_json_dict(self) -> dict:
        return {
            "certified_optimal": self.certified,
            "primal_feasible": self.primal_feasible,
            "dual_feasible": self.dual_feasible,
            "max_index_product": float(self.max_index_product),
            "max_coset_product": float(self.max_coset_product),
            "primal_objective": self.primal_objective,
            "dual_objective": self.dual_objective,
            "violations": self.violations[:50],
        }


def complementary_slackness(primal: PrimalSolution, dual: DualSolution,
                            profile: AmplitudeProfile,
                            cost: CostFunction) -> SlacknessReport:
    """Check the two product families and certify joint optimality.

    Products (sum_H lambda_i - 1) * b_i and mu[(code, s)] * constraint slack
    must all vanish; together with feasibility of both solutions this proves
    the pair optimal and the objectives equal.  Every product, and the gap
    between the objectives, is taken on exact rationals, as the audits take
    theirs.  The tolerance is 0 when every operand is rational,
    FLOAT_FEAS_TOL if not.
    """
    check_budget(primal.n)
    tol = _default_tol(None, profile.weights, (v for _, v in primal.carried), dual.b)
    p_report, residuals = _primal_audit(primal, profile, tol)
    d_report = check_dual_feasible(dual, cost, tol)
    tol, b = _exact(tol), [_exact(v) for v in dual.b]
    index = [(f"index {vec_str(i, primal.n)}", residual * b_i)
             for i, (residual, b_i) in enumerate(zip(residuals, b))]
    # A coset with mu = 0 adds 0 to the objective and has product 0 whatever
    # its slack, so only the carried cosets are summed, in mu's order.
    coset = [(f"coset {code.label()},s={s}",
              _exact(v) * (sum(map(b.__getitem__, code.cosets[s].tolist()))
                           - _rank_value(cost, code.k)))
             for (code, s), v in primal.carried]
    violations = [{"product": name, "value": float(product)}
                  for name, product in index + coset if abs(product) > tol]
    p_obj = sum(_rank_value(cost, code.k) * v for (code, _), v in primal.carried)
    d_obj = dual.evaluate(profile)
    certified = (p_report.feasible and d_report.feasible and not violations
                 and abs(_exact(p_obj) - _exact(d_obj)) <= tol)
    return SlacknessReport(certified, p_report.feasible, d_report.feasible,
                           max(abs(product) for _, product in index),
                           max((abs(product) for _, product in coset), default=0),
                           p_obj, d_obj, violations)
