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
from itertools import chain
from numbers import Rational
from typing import ClassVar

import numpy as np

from . import simplex
from .errors import BudgetError, SolveError
from .f2lin import ParityCode, all_vectors, by_code, enumerate_all_codes, vec_str
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
    and x >= 0, with one row per index of `support`.

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
    if label[0] == "mu":
        _, code, s = label
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
    0/1 incidence of the cosets that hold i.
    """
    check_budget(profile.n)
    row_of = {i: r for r, i in enumerate(profile.support)}
    labels, objective, flat, lens = [], [], [], []
    for code in enumerate_all_codes(profile.n):
        value = _rank_value(cost, code.k)
        for s, members in enumerate(code.cosets.members):
            rows = [row_of.get(i) for i in members]
            if None not in rows:
                flat += rows
                lens.append(len(rows))
                labels.append(("mu", code, s))
                objective.append(value)
    columns = simplex.Columns(np.array(flat, dtype=np.intp), np.repeat(np.arange(len(lens)), lens),
                              np.ones(len(flat), dtype=np.int64),
                              [1 / profile.weights[i] for i in profile.support])
    return LpModel(labels, objective, columns, profile.support)


def build_dual(profile: AmplitudeProfile, cost: CostFunction) -> str:
    """The covering program's text: minimize sum b_i w_i subject to sum b_i
    >= cost(k) 2^k over each coset of each rank-k code."""
    check_budget(profile.n)
    n = profile.n
    rows = [Constraint(dict.fromkeys(members, 1), ">=", _rank_value(cost, code.k))
            for code in enumerate_all_codes(n) for members in code.cosets.members]
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
    exact = mode == EXACT and all(isinstance(v, Rational) for v in chain(
        model.objective, model.columns.scale))
    # The dtype of b and c selects the arithmetic of simplex_min; the
    # maximization is solved as min -objective·x.
    num, dtype = (Fraction, object) if exact else (float, float)
    c = -np.array(model.objective, dtype=dtype)
    b = np.full(len(model.support), num(1), dtype=dtype)
    result = simplex.simplex_min(model.columns, b, c)
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
    """Coset-reduced mu values; lambda = mu / weight is derived from them on
    first read, with the weights of the profile mu was found for."""

    n: int
    mu: dict
    objective: object
    weights: tuple
    _lam: dict | None = field(default=None, init=False, repr=False)

    @property
    def lam(self) -> dict:
        """lambda[(code, i)] = mu[(code, s)] / w_i for each member i of the
        coset s, in mu's order; a zero-weight index has mu = 0 on the
        bottom code and lambda = 1 there."""
        if self._lam is None:
            w = self.weights
            lam: dict = {}
            for (code, s), v in self.mu.items():
                members = code.cosets.members_of(s)
                w0 = w[members[0]]
                if not w0:
                    lam[(code, s)] = v + 1
                    continue
                # 0 / w is one value for every w > 0: a zero level divides once.
                q = v or v / w0
                for i in members:
                    lam[(code, i)] = v / w[i] if v else q
            self._lam = lam
        return self._lam

    def lam_at(self, code: ParityCode, i: int):
        return self.lam.get((code, i), 0)

    def mu_at(self, code: ParityCode, s: int):
        return self.mu.get((code, s), 0)

    @classmethod
    def from_lp_values(cls, profile: AmplitudeProfile, values: dict,
                       objective) -> PrimalSolution:
        mu = {(code, s): v for (_, code, s), v in values.items()}
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
    """Per-index dual values b_i with an optional cached objective."""

    n: int
    b: dict
    objective: object | None = None
    family: str | None = None
    params: dict = field(default_factory=dict)
    # The report of a family that audits itself, against the cost it is for.
    audit: FeasibilityReport | None = None

    def b_at(self, i: int):
        return self.b.get(i, 0)

    def evaluate(self, profile: AmplitudeProfile):
        return sum(self.b_at(i) * profile.weights[i] for i in all_vectors(self.n))

    def to_json_dict(self) -> dict:
        out = {
            "b": {vec_str(i, self.n): self.b_at(i) for i in all_vectors(self.n)},
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
    b = {i: u * g for i, u, g in zip(profile.support, report.duals, model.columns.scale)}
    if report.mode != EXACT:
        # As simplex_min does for levels: rounding residue below zero reads 0.
        b = {i: 0.0 if -FLOAT_FEAS_TOL <= v < 0 else v for i, v in b.items()}
    # objective * 0 puts the cover in the number type the solve ran in.
    cover = report.objective * 0 + max(_rank_value(cost, k) for k in range(profile.n + 1))
    b.update(dict.fromkeys(profile.zero_set, cover))
    dual = DualSolution(profile.n, b)
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
    values = {("b", i, profile.n): dual.b_at(i) for i in all_vectors(profile.n)}
    return dual, replace(report, values=values)


@dataclass
class FeasibilityReport:
    feasible: bool
    violations: list
    max_violation: object
    n_checked: int
    # The slack of each covering constraint of a dual audit, by (code, s); a
    # callable stands for the dict until `slacks` is first read.
    _slacks: dict | functools.partial | None = None

    @property
    def slacks(self) -> dict | None:
        if callable(self._slacks):
            self._slacks = self._slacks()
        return self._slacks

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
    """Audit nonnegativity and the per-index normalization.

    lambda * weight is constant on each coset by construction (lambda is
    derived from mu), so only these two families are checked.
    """
    return _primal_audit(sol, profile, tol)[0]


def _primal_audit(sol: PrimalSolution, profile: AmplitudeProfile,
                  tol) -> tuple[FeasibilityReport, list]:
    """The report of `check_primal_feasible` and each index's sum of lambda
    over the codes, summed in one pass over lambda."""
    tol = _default_tol(tol, profile.weights, sol.lam.values())
    violations = []
    max_v = 0

    totals = [0] * (1 << sol.n)
    for (code, i), v in sol.lam.items():
        totals[i] += v
        if v < -tol:
            violations.append(
                {"constraint": f"lambda[{code.label()},{vec_str(i, sol.n)}] >= 0",
                 "violation": float(-v)}
            )
            max_v = max(max_v, -v)

    for i in profile.support:
        gap = abs(totals[i] - 1)
        if gap > tol:
            violations.append(
                {"constraint": f"sum_codes lambda[{vec_str(i, sol.n)}] = 1",
                 "violation": float(gap)}
            )
            max_v = max(max_v, gap)

    checked = len(sol.lam) + len(profile.support)
    return FeasibilityReport(not violations, violations, max_v, checked), totals


def check_dual_feasible(sol: DualSolution, cost: CostFunction,
                        tol=None) -> FeasibilityReport:
    """Exhaustively audit every (code, syndrome) covering constraint.

    When b, the costs and the tolerance are all rational, the coset sums are
    tested on integers (`_short_cosets`) and the report's slacks are
    computed on first read; otherwise every slack is computed here.
    """
    tol = _default_tol(tol, sol.b.values(), cost.values)
    violations = []
    max_v = 0

    b = [sol.b_at(i) for i in all_vectors(sol.n)]
    for i, v in enumerate(b):
        if v < -tol:
            violations.append(
                {"constraint": f"b[{vec_str(i, sol.n)}] >= 0", "violation": float(-v)}
            )
            max_v = max(max_v, -v)

    codes = enumerate_all_codes(sol.n)
    if (all(type(v) in (int, Fraction) for v in chain(b, cost.values))
            and (isinstance(tol, Rational) or math.isfinite(tol))):
        slacks = functools.partial(_coset_slacks, b, cost, codes)
        short = _short_cosets(b, cost, codes, tol)
    else:
        slacks = _coset_slacks(b, cost, codes)
        short = ((key, v) for key, v in slacks.items() if v < -tol)
    for (code, s), slack in short:
        violations.append(
            {"constraint": f"coset sum {code.label()},s={s} >= {_rank_value(cost, code.k)}",
             "violation": float(-slack)}
        )
        max_v = max(max_v, -slack)

    checked = len(b) + sum(len(code.cosets.members) for code in codes)
    return FeasibilityReport(not violations, violations, max_v, checked, slacks)


def _coset_slacks(b: list, cost: CostFunction, codes) -> dict:
    """(code, s) -> the sum of b over the coset, in ascending order, minus
    the right-hand side."""
    return {(code, s): sum(map(b.__getitem__, members)) - _rank_value(cost, code.k)
            for code in codes for s, members in enumerate(code.cosets.members)}


def _short_cosets(b: list, cost: CostFunction, codes, tol):
    """Each ((code, s), slack) with slack < -tol, for int and Fraction b.

    With every b_i written as N_i / D over one common denominator D, the
    slack is below -tol exactly when the integer sum of N_i over the coset
    is below ceil((rhs - tol) D); the slack itself is summed as in
    `_coset_slacks` for those cosets alone.
    """
    den = math.lcm(*(v.denominator for v in b))
    nums = [v.numerator * (den // v.denominator) for v in b]
    tol = Fraction(tol)
    limits = [math.ceil((_rank_value(cost, k) - tol) * den) for k in range(len(cost.values))]
    for code in codes:
        limit = limits[code.k]
        for s, members in enumerate(code.cosets.members):
            if sum(map(nums.__getitem__, members)) < limit:
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
    the pair optimal and the objectives equal.  The tolerance is 0 when every
    operand is rational, FLOAT_FEAS_TOL if not.
    """
    tol = _default_tol(None, profile.weights, primal.lam.values(), dual.b.values())
    p_report, totals = _primal_audit(primal, profile, tol)
    d_report = check_dual_feasible(dual, cost, tol)

    violations = []
    b = [dual.b_at(i) for i in all_vectors(primal.n)]
    max_index = 0
    for i, (total, b_i) in enumerate(zip(totals, b)):
        product = (total - 1) * b_i
        if abs(product) > tol:
            violations.append(
                {"product": f"index {vec_str(i, primal.n)}",
                 "value": float(product)}
            )
        max_index = max(max_index, abs(product))

    # A coset with mu = 0 has product 0 whatever its slack, so only the cosets
    # mu uses are summed (as `_coset_slacks` sums them), in mu's order: the
    # code table's for a solve or a candidate.
    max_coset = 0
    for (code, s), v in primal.mu.items():
        if not v:
            continue
        slack = sum(map(b.__getitem__, code.cosets.members_of(s))) - _rank_value(cost, code.k)
        product = v * slack
        if abs(product) > tol:
            violations.append(
                {"product": f"coset {code.label()},s={s}", "value": float(product)}
            )
        max_coset = max(max_coset, abs(product))

    p_obj = sum(_rank_value(cost, code.k) * v
                for (code, _), v in primal.mu.items())
    d_obj = dual.evaluate(profile)
    certified = (p_report.feasible and d_report.feasible and not violations
                 and abs(p_obj - d_obj) <= tol)
    return SlacknessReport(certified, p_report.feasible, d_report.feasible,
                           max_index, max_coset, p_obj, d_obj, violations)
