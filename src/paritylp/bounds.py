"""Closed-form dual certificate families and their matching primal candidates.

Dual families give upper bounds on the measurement quality by exhibiting
feasible points of the covering program: weight-proportional values for the
average setting (and their affine images), indicator and ball solutions for
the threshold setting.  Each average-setting family has a candidate primal
solution; the candidate is feasible for every profile but nonnegative only
in a parameter regime, and the nonnegativity verdict is always computed,
never assumed.  When it holds, complementary slackness certifies that the
bound is the exact optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, FamilyError, ProfileError, RankDeficientError
from .f2lin import (
    F2Matrix,
    all_vectors,
    ball,
    codes_of_rank,
    coset_counts,
    coset_table,
    hamming_weight,
    is_universal,
    rank,
    vec_str,
)
from .lp import DualSolution, PrimalSolution, check_dual_feasible
from .profiles import AmplitudeProfile, CostFunction

THRESHOLD_CERT_MAX_N = 5
CANDIDATE_MAX_N = 5

AVERAGE_FAMILIES = ("hamming", "cohamming", "spike")


def dual_hamming(n: int) -> DualSolution:
    """b_i = 2 |i|; feasible for the average cost by the minimum-average-weight bound."""
    b = tuple(2 * hamming_weight(i) for i in all_vectors(n))
    return DualSolution(n, b, family="hamming", params={"n": n})


def dual_cohamming(n: int) -> DualSolution:
    """b_i = 2 |i + 1...1|, the all-ones affine image of the hamming family."""
    b = tuple(2 * (n - hamming_weight(i)) for i in all_vectors(n))
    return DualSolution(n, b, family="cohamming", params={"n": n})


def dual_spike(n: int) -> DualSolution:
    """All mass concentrated at zero: b_0 = 2^n + n - 1, b_i = n - 1 elsewhere."""
    b = ((1 << n) + n - 1,) + (n - 1,) * ((1 << n) - 1)
    return DualSolution(n, b, family="spike", params={"n": n})


def dual_affine_image(sol: DualSolution, p: F2Matrix, v: int) -> DualSolution:
    """Relabel a dual solution by the affine bijection i -> P.i + v.

    Feasibility is preserved because affine bijections permute the dual
    cosets among themselves.  A singular P is rejected.
    """
    n = sol.n
    if p.n_cols != n or p.n_rows != n or rank(p) != n:
        raise RankDeficientError("affine relabeling needs an invertible n x n matrix")
    b = tuple(sol.b[p.mul_vec(i) ^ v] for i in all_vectors(n))
    return DualSolution(n, b, family=sol.family and f"{sol.family}+affine",
                        params={"P": p.to_strings(), "v": vec_str(v, n)})


def dual_threshold_indicator(v_set, tau: int, n: int) -> DualSolution:
    """b = 2^tau on a tau-universal set V, zero elsewhere (threshold cost).

    Every rank-k coset with k >= tau splits into 2^(k-tau) sub-cosets of
    dimension tau, each of which meets V, so the covering constraints hold.
    """
    v_set = frozenset(v_set)
    if not is_universal(v_set, tau, n):
        raise FamilyError("the provided set is not tau-universal")
    b = tuple((1 << tau) if i in v_set else 0 for i in all_vectors(n))
    return DualSolution(
        n, b, family="threshold_indicator",
        params={"tau": tau, "set_size": len(v_set)},
    )


def dual_threshold_ball(n: int, d: int, gamma: float,
                        tau: int | None = None) -> DualSolution:
    """Constant mass outside the radius-d ball, scaled to cover every coset.

    With tau = ceil(gamma * d) and gamma > 2, every affine tau-subspace has
    at most sum_{a<=d} C(tau, a) points inside the ball, so
    b_i = 2^tau / (2^tau - sum_{a<=d} C(tau, a)) outside B_d is feasible for
    the threshold-tau cost.  Feasibility is re-verified exhaustively rather
    than trusted.  For d = 0 the derived tau degenerates, so it defaults to
    1 there (any explicit tau in [1, n] works).
    """
    if not (math.isfinite(gamma) and gamma > 2):
        raise ValueError("need finite gamma > 2")
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    if tau is None:
        if gamma * d > n:  # before the ceiling, which a huge gamma d overflows
            raise ValueError(f"threshold tau = ceil({gamma} * {d}) outside [1, {n}]")
        tau = math.ceil(gamma * d) if d >= 1 else 1
    if not 1 <= tau <= n:
        raise ValueError(f"threshold tau={tau} outside [1, {n}]")
    inside = sum(math.comb(tau, a) for a in range(d + 1))
    denom = (1 << tau) - inside
    if denom <= 0:
        raise ValueError("ball too large for this threshold")
    constant = Fraction(1 << tau, denom)
    in_ball = set(ball(n, d))
    b = tuple(0 if i in in_ball else constant for i in all_vectors(n))
    sol = DualSolution(
        n, b, family="threshold_ball",
        params={"d": d, "gamma": gamma, "tau": tau, "constant": constant},
    )
    sol.audit = check_dual_feasible(sol, CostFunction.threshold(n, tau))
    if not sol.audit.feasible:
        raise FamilyError("ball dual solution failed its feasibility audit")
    return sol


def paired_dual(family: str, n: int) -> DualSolution:
    if family == "hamming":
        return dual_hamming(n)
    if family == "cohamming":
        return dual_cohamming(n)
    if family == "spike":
        return dual_spike(n)
    raise FamilyError(f"no paired dual for family {family!r}")


@dataclass
class PrimalCandidate(PrimalSolution):
    """Closed-form primal point paired with an average-setting dual family:
    mu on the code table's codes, as a solve gives it, with the verdict on
    its sign."""

    family: str
    nonnegative: bool

    def to_solution(self, profile: AmplitudeProfile) -> PrimalCandidate:
        """The candidate as an LP point: it already is one, on `profile`."""
        return self

    def to_json_dict(self) -> dict:
        """The verdict and objective, then mu as `solve` lists it, zeros kept."""
        return {
            "family": self.family,
            "nonnegative": self.nonnegative,
            "objective": self.objective,
            **super().to_json_dict(),
        }


def primal_candidate(family: str, profile: AmplitudeProfile) -> PrimalCandidate:
    """Evaluate one of the closed-form candidates on a full-support profile.

    hamming:   mass on the zero-syndrome coset of each identity-row matrix,
               alternating sum of max-leader weights.
    cohamming: mass on the all-ones coset, alternating sum of min-leader
               weights with the (-1)^(n-k) prefactor.
    spike:     full mass w_0/w_i on the identity plus the rank-(n-1)
               coset-difference terms.

    Each formula gives mu on one coset of a code of the code table, so the
    normalization holds; only nonnegativity is regime-dependent, and the
    verdict is returned instead of assumed.
    """
    if family not in AVERAGE_FAMILIES:
        raise FamilyError(f"unknown candidate family {family!r}")
    if profile.n > CANDIDATE_MAX_N:
        raise BudgetError(f"candidates capped at n <= {CANDIDATE_MAX_N}")
    if not profile.full_support:
        raise ProfileError("candidate formulas divide by every weight; "
                           "apply perturb_full_support")
    n = profile.n
    weight = profile.weights
    mu: dict = {}
    objective = 0

    if family in ("hamming", "cohamming"):
        for k in range(n + 1):
            for code in codes_of_rank(n, k):
                if not all(hamming_weight(row) == 1 for row in code.H.rows):
                    continue  # not an identity-row matrix
                # cohamming reads the lightest leaders, hamming the heaviest
                leaders = code.leaders[0 if family == "cohamming" else 1].tolist()
                total = 0
                for s, leader in enumerate(leaders):
                    term = weight[leader]
                    total = total - term if hamming_weight(s) & 1 else total + term
                if family == "cohamming" and (n - k) & 1:
                    total = -total
                s_target = (1 << (n - k)) - 1 if family == "cohamming" else 0
                mu[(code, s_target)] = total
                objective = objective + k * (1 << k) * total
    else:
        # the full-rank code has a single coset, all of F_2^n
        mu[(codes_of_rank(n, n)[0], 0)] = weight[0]
        objective = objective + n * (1 << n) * weight[0]
        for code in codes_of_rank(n, n - 1):
            w1 = sum(weight[i] for i in code.cosets[1].tolist())
            w0s = sum(weight[i] for i in code.cosets[0].tolist())
            value = (w1 - w0s) / (1 << (n - 1))
            mu[(code, 1)] = value
            objective = objective + (n - 1) * (1 << (n - 1)) * value

    nonneg = all(v >= 0 for v in mu.values())
    return PrimalCandidate(n, mu, objective, family, nonneg)


def count_N(k: int, i: int, x: int, n: int) -> int:
    """Number of identity-row matrices placing i in the all-ones coset with x a leader.

    Closed form C(|i| - |x|, k - (n - |i|)) when supp(x) is inside supp(i)
    and n - |i| <= k <= n - |x|; zero otherwise.
    """
    if x & ~i:
        return 0
    wi = hamming_weight(i)
    wx = hamming_weight(x)
    if not n - wi <= k <= n - wx:
        return 0
    return math.comb(wi - wx, k - (n - wi))


@dataclass
class ThresholdZeroCertificate:
    """Either a universal zero-weight witness or the affine subspaces it misses."""

    tau: int
    rho_is_zero: bool
    witness: tuple | None
    missed_subspaces: list

    def to_json_dict(self) -> dict:
        out = {"tau": self.tau, "rho_is_zero": self.rho_is_zero}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        out["missed_subspaces"] = [
            {"H": code.label(), "syndrome": s, "members": list(members)}
            for code, s, members in self.missed_subspaces[:50]
        ]
        return out


def threshold_zero_certificate(profile: AmplitudeProfile,
                               tau: int) -> ThresholdZeroCertificate:
    """Decide rho(S, tau) = 0 by searching the zero-weight set.

    Any universal witness must sit inside the zero-weight set, so it
    suffices to test that set itself; a greedy pass then prunes it to an
    inclusion-minimal witness.  When no witness exists, every affine
    tau-subspace disjoint from the zero set is exhibited as the refutation.
    """
    n = profile.n
    if n > THRESHOLD_CERT_MAX_N:
        raise BudgetError(f"certificate search capped at n <= {THRESHOLD_CERT_MAX_N}")
    zero = profile.zero_set
    counts = coset_counts(zero, tau, n)
    table = coset_table(n)
    codes = table.codes[tau]
    missed = np.argwhere(counts == 0).tolist()
    if missed:
        members = table.members[tau]
        detail = [(codes[c], s, tuple(members[c, s].tolist())) for c, s in missed]
        return ThresholdZeroCertificate(tau, False, None, detail)

    # Each v lies in one subspace per code, the coset of its syndrome; v
    # leaves the witness, in ascending order, when each of those keeps
    # another point of the witness.
    syndromes, rows = table.syndromes[tau], np.arange(len(codes))
    witness = []
    for v in zero:
        holding = (rows, syndromes[:, v])
        if (counts[holding] >= 2).all():
            counts[holding] -= 1
        else:
            witness.append(v)
    return ThresholdZeroCertificate(tau, True, tuple(witness), [])


def n2_optimal(profile: AmplitudeProfile) -> tuple[str, object]:
    """Exact average-setting optimum for n = 2 from the two closed forms.

    Weights are pulled ascending by an affine relabeling (every permutation
    of F_2^2 is affine), then the regime test picks co-Hamming when
    w0 + w3 >= w1 + w2 and spike otherwise; on the boundary both formulas
    coincide and the regime is reported as "boundary".
    """
    if profile.n != 2:
        raise ValueError("this classification is specific to n = 2")
    if not profile.full_support:
        raise ProfileError("n = 2 classification requires full support")
    order = sorted(all_vectors(2), key=lambda i: (profile.weights[i], i))
    w = [profile.weights[j] for j in order]
    cohamming_value = 4 * w[0] + 2 * w[1] + 2 * w[2]
    spike_value = 5 * w[0] + w[1] + w[2] + w[3]
    lhs = w[0] + w[3]
    rhs = w[1] + w[2]
    if lhs > rhs:
        return "cohamming", cohamming_value
    if lhs < rhs:
        return "spike", spike_value
    return "boundary", cohamming_value
