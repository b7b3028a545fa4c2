"""Reference answers and the per-job correctness gate.

The reference LP is built here from the definitions, not from paritylp:
subspaces of F_2^n come from closing spans under XOR, and the variables
are (subspace, coset) pairs.  scipy's HiGHS solves both the primal and
its covering dual; the two must agree before either is trusted.  scipy
is imported only when references are computed, after the timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

FLOAT_TOL = 1e-9       # float optimum against HiGHS
RHO_POVM_TOL = 1e-8    # rho_povm against rho_lp, the CLI's own audit bound
SAMPLE_SIGMAS = 6.0    # per-cell histogram deviation allowed, in standard deviations


@lru_cache(maxsize=None)
def subspaces(n: int) -> tuple:
    """(dimension, frozenset) for every linear subspace of F_2^n."""
    levels = [{frozenset([0])}]
    for _ in range(n):
        nxt = set()
        for space in levels[-1]:
            for v in range(1, 1 << n):
                if v not in space:
                    nxt.add(space | frozenset(s ^ v for s in space))
        levels.append(nxt)
    return tuple((k, space) for k, level in enumerate(levels)
                 for space in sorted(level, key=sorted))


@lru_cache(maxsize=None)
def cosets(n: int) -> tuple:
    """(dimension, coset) for every coset of every subspace."""
    out = []
    for k, space in subspaces(n):
        seen: set = set()
        for x in range(1 << n):
            if x not in seen:
                coset = frozenset(x ^ s for s in space)
                seen |= coset
                out.append((k, coset))
    return tuple(out)


def lp_optimum(n: int, weights: tuple, cost: tuple) -> float:
    """Optimal quality for weights w and cost c(k), from HiGHS.

    Primal: max sum c(k) 2^k mu[C] over cosets C inside the support, with
    sum_{C ∋ i} mu[C] = w_i for every supported i.  Dual: min sum b_i w_i
    with sum_{i in C} b_i >= c(k) 2^k for every coset and b >= 0.
    """
    import numpy as np
    from scipy.optimize import linprog

    opts = {"primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10}
    all_cosets = cosets(n)
    support = [i for i in range(1 << n) if weights[i] > 0]
    inside = [(k, c) for k, c in all_cosets if all(weights[i] > 0 for i in c)]
    a_eq = np.zeros((len(support), len(inside)))
    row_of = {i: r for r, i in enumerate(support)}
    for j, (_, coset) in enumerate(inside):
        for i in coset:
            a_eq[row_of[i], j] = 1.0
    gain = np.array([cost[k] * (1 << k) for k, _ in inside], dtype=float)
    primal = linprog(-gain, A_eq=a_eq, b_eq=[weights[i] for i in support],
                     bounds=(0, None), method="highs", options=opts)

    a_cover = np.zeros((len(all_cosets), 1 << n))
    for j, (_, coset) in enumerate(all_cosets):
        for i in coset:
            a_cover[j, i] = 1.0
    need = np.array([cost[k] * (1 << k) for k, _ in all_cosets], dtype=float)
    dual = linprog(np.asarray(weights, dtype=float), A_ub=-a_cover, b_ub=-need,
                   bounds=(0, None), method="highs", options=opts)
    if primal.status != 0 or dual.status != 0:
        raise RuntimeError(f"HiGHS failed: {primal.message} / {dual.message}")
    if abs(-primal.fun - dual.fun) > FLOAT_TOL:
        raise RuntimeError(f"HiGHS primal {-primal.fun} and dual {dual.fun} disagree")
    return -primal.fun


def profile_weights(data: dict) -> tuple:
    """Weights of a profile JSON dict, exact where the file is rational."""
    if "amplitudes" in data:
        return tuple(a["re"] ** 2 + a.get("im", 0.0) ** 2 for a in data["amplitudes"])
    return tuple(Fraction(w) if isinstance(w, str) else float(w) for w in data["weights"])


def average_cost(n: int) -> tuple:
    return tuple(range(n + 1))


def threshold_cost(n: int, tau: int) -> tuple:
    return tuple(1 if k >= tau else 0 for k in range(n + 1))


def ball_tau(d: int, gamma: float) -> int:
    return math.ceil(gamma * d) if d >= 1 else 1


def family_b(family: str, n: int, d: int = 0, gamma: float = 0.0) -> list:
    """The closed-form dual certificate b_i of each family, from its definition."""
    if family == "hamming":
        return [2 * i.bit_count() for i in range(1 << n)]
    if family == "cohamming":
        return [2 * (n - i.bit_count()) for i in range(1 << n)]
    if family == "spike":
        return [(1 << n) + n - 1 if i == 0 else n - 1 for i in range(1 << n)]
    if family == "threshold-ball":
        tau = ball_tau(d, gamma)
        inside = sum(math.comb(tau, a) for a in range(d + 1))
        constant = Fraction(1 << tau, (1 << tau) - inside)
        return [0 if i.bit_count() <= d else constant for i in range(1 << n)]
    raise ValueError(f"no reference for family {family!r}")


def _close(a, b, tol: float = FLOAT_TOL) -> bool:
    return abs(float(a) - float(b)) <= tol


def _code_rank(label: str) -> int:
    return 0 if label == "bottom" else label.count(";") + 1


class Reference:
    """Lazily computed HiGHS optima for one set of inputs."""

    def __init__(self, inputs):
        self.inputs = inputs
        self._cache: dict = {}

    def weights(self, job) -> tuple:
        return profile_weights(self.inputs.profiles[job.profile])

    def optimum(self, job, cost: tuple) -> float:
        key = (job.profile, cost)
        if key not in self._cache:
            w = tuple(float(v) for v in self.weights(job))
            self._cache[key] = lp_optimum(len(cost) - 1, w, cost)
        return self._cache[key]

    def check(self, job, report: dict | None) -> list:
        """Problems with one job's report; an empty list means correct."""
        if report is None:
            return ["no report written"]
        problems = [f"audit {k} failed" for k, ok in report.get("audits", {}).items()
                    if not ok]
        problems += getattr(self, "_check_" + job.command.replace("-", "_"))(job, report)
        return problems

    def _n(self, job) -> int:
        return self.inputs.profiles[job.profile]["n"]

    def _check_solve(self, job, r: dict) -> list:
        n = self._n(job)
        cost = (average_cost(n) if job.check["cost"] == "average"
                else threshold_cost(n, job.check["tau"]))
        ref = self.optimum(job, cost)
        out = []
        if Fraction(r["rho"]) != Fraction(r["sigma"]) or r["gap"] != 0:
            out.append(f"exact primal {r['rho']} and dual {r['sigma']} differ")
        if not _close(Fraction(r["rho"]), ref):
            out.append(f"primal {r['rho']} vs HiGHS {ref}")
        return out

    def _check_verify(self, job, r: dict) -> list:
        n = self._n(job)
        family = job.check["family"]
        if family == "threshold-ball":
            b = family_b(family, n, job.check["d"], job.check["gamma"])
            cost = threshold_cost(n, ball_tau(job.check["d"], job.check["gamma"]))
        else:
            b = family_b(family, n)
            cost = average_cost(n)
        w = self.weights(job)
        expected = sum((bi * wi for bi, wi in zip(b, w)), Fraction(0))
        ref = self.optimum(job, cost)
        out = []
        if Fraction(r["objective"]) != expected:
            out.append(f"certificate objective {r['objective']} != {expected}")
        if not r["feasibility"]["feasible"]:
            out.append("certificate reported infeasible")
        if not _close(Fraction(r["lp_optimum"]), ref):
            out.append(f"lp optimum {r['lp_optimum']} vs HiGHS {ref}")
        if float(expected) < ref - FLOAT_TOL:
            out.append("certificate objective below the LP optimum")
        return out

    def _check_threshold(self, job, r: dict) -> list:
        n = self._n(job)
        ref = self.optimum(job, threshold_cost(n, job.check["tau"]))
        value = Fraction(r["lp_value"])
        out = []
        if not _close(value, ref):
            out.append(f"lp value {r['lp_value']} vs HiGHS {ref}")
        if r["certificate"]["rho_is_zero"] != (value == 0):
            out.append("zero certificate disagrees with the exact LP value")
        return out

    def _check_povm(self, job, r: dict) -> list:
        ref = self.optimum(job, average_cost(self._n(job)))
        rho_lp = r["rho_lp"]
        out = []
        if not _close(rho_lp, ref):
            out.append(f"rho_lp {rho_lp} vs HiGHS {ref}")
        if not _close(r["rho_povm"], rho_lp, RHO_POVM_TOL):
            out.append(f"rho_povm {r['rho_povm']} vs rho_lp {rho_lp}")
        if not r["verification"]["ok"]:
            out.append("operator verification failed")
        return out

    def _check_simulate(self, job, r: dict) -> list:
        ref = self.optimum(job, average_cost(self._n(job)))
        dist = r["exact_distribution"]
        shots = job.check["shots"]
        out = []
        if not _close(math.fsum(dist.values()), 1.0):
            out.append("exact distribution does not sum to 1")
        mean_rank = math.fsum(_code_rank(key.split(",y=")[0]) * p
                              for key, p in dist.items())
        if not _close(mean_rank, ref):
            out.append(f"expected parities {mean_rank} vs HiGHS {ref}")
        counts = {f"{h['H']},y={h['y']}": h["count"] for h in r["histogram"]}
        if sum(counts.values()) != shots:
            out.append(f"histogram holds {sum(counts.values())} shots, not {shots}")
        for key in counts.keys() - dist.keys():
            out.append(f"sampled outcome {key} has no exact probability")
        for key, p in dist.items():
            spread = SAMPLE_SIGMAS * math.sqrt(shots * p * (1.0 - p)) + 1.0
            if abs(counts.get(key, 0) - shots * p) > spread:
                out.append(f"outcome {key}: {counts.get(key, 0)} hits, expected {shots * p:.1f}")
        return out

    def _check_primal_candidate(self, job, r: dict) -> list:
        n = self._n(job)
        family = job.check["family"]
        ref = self.optimum(job, average_cost(n))
        w = self.weights(job)
        paired = math.fsum(float(bi) * wi for bi, wi in zip(family_b(family, n), w))
        out = []
        if not _close(r["paired_dual_objective"], paired):
            out.append(f"paired dual objective {r['paired_dual_objective']} != {paired}")
        if paired < ref - FLOAT_TOL:
            out.append("paired dual objective below the LP optimum")
        cand = r["candidate"]
        if cand["nonnegative"]:
            if not (r["slackness"] or {}).get("certified_optimal"):
                out.append("nonnegative candidate not certified")
            if not _close(cand["objective"], ref):
                out.append(f"certified candidate {cand['objective']} vs HiGHS {ref}")
        return out
