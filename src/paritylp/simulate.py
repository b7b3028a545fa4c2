"""Measurement execution on a chosen hidden string.

Three mutually checking routes: the exact outcome law (the measured code
comes up with probability sum_i lambda_i w_i and always reports y = H.x),
a seeded ancestral sampler, and a state-vector oracle that materializes the
closed-form post-processing state and reads the distribution off its
register amplitudes.  The sampler draws its histogram as per-index
multinomials, so its cost does not grow with the number of shots.  All three
walk only the cosets that carry mass (`PrimalSolution.carried`): an optimal
vertex gives mass to no more cosets than the profile has supported indices.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from numbers import Rational

import numpy as np

from .errors import BudgetError, ProfileError
from .f2lin import ParityCode, code_positions, dot, enumerate_all_codes, vec_str
from .lp import PrimalSolution
from .profiles import AmplitudeProfile

STATEVECTOR_MAX_N = 8
DISTRIBUTION_TOL = 1e-10
SHOTS_LIMIT = 1 << 63


def exact_distribution(sol: PrimalSolution, profile: AmplitudeProfile,
                       x: int) -> dict:
    """Outcome law of the measurement run on the x-th family member.

    Each code H appears with probability sum_i lambda_i^H w_i, always paired
    with y = H.x; probabilities add to one through the normalization
    constraint.  Probabilities are exact fractions for an exact solution.
    """
    acc: dict[ParityCode, object] = {}
    for (code, s), v in sol.carried:
        acc[code] = acc.get(code, 0) + (1 << code.k) * v
    bottom = ParityCode.bottom(profile.n)
    acc.setdefault(bottom, sol.objective * 0)
    dist = {}
    for code, p in acc.items():
        if p != 0 or code.k == 0:
            dist[(code, code.parity(x))] = p
    return dist


@dataclass(frozen=True)
class OutcomeRecord:
    code: ParityCode
    y: int
    count: int
    frequency: float

    def to_json_dict(self) -> dict:
        return {
            "H": self.code.label(),
            "k": self.code.k,
            "y": vec_str(self.y, self.code.k),
            "count": self.count,
            "frequency": self.frequency,
        }


def sample(sol: PrimalSolution, profile: AmplitudeProfile, x: int,
           shots: int, seed: int) -> list[OutcomeRecord]:
    """Ancestral sampling in bulk: i from the weights, then a code from lambda_i.

    The aggregated histogram of `shots` such draws is drawn straight from
    its law with one generator: first the per-index counts m as one
    multinomial over the support (in support order), then for each index
    with m_i > 0 a multinomial of m_i shots over the codes its lambda row
    gives mass to.  The cost is O(|support| * |codes|) whatever `shots`
    is, a code with zero probability always gets count 0, and the
    result is deterministic given (solution, x, shots, seed).
    """
    if not 1 <= shots < SHOTS_LIMIT:
        raise ValueError("need 1 <= shots < 2**63")
    support = list(profile.support)
    weights = np.array([profile.weights_float[i] for i in support])
    weights = weights / weights.sum()
    codes = enumerate_all_codes(profile.n)
    cols = code_positions(profile.n)
    rows = {i: row for row, i in enumerate(support)}
    lam = np.zeros((len(support), len(codes)))
    # lambda is zero off the carried cosets, so only their members are filled
    for (code, i), v in sol.lam_items(sol.carried):
        if i in rows:
            lam[rows[i], cols[code]] = float(v)
    if np.any(lam < 0):
        raise ValueError("lambda entries must be nonnegative")
    row_sums = lam.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-9:
        raise ValueError("lambda rows must sum to 1 on the support")

    rng = np.random.default_rng(seed)
    counts = np.zeros(len(codes), dtype=np.int64)
    for row, m in enumerate(rng.multinomial(shots, weights)):
        if m:
            # only the row's nonzero cells: numpy hands the last cell the
            # leftover shots, which must not land on a zero-probability code
            cells = np.flatnonzero(lam[row])
            counts[cells] += rng.multinomial(m, lam[row, cells] / row_sums[row])

    records = [OutcomeRecord(code, code.parity(x), int(c), int(c) / shots)
               for code, c in zip(codes, counts) if c]
    return sorted(records, key=lambda r: r.code.sort_key)


@dataclass
class StatevectorReport:
    norm_deviation: float
    max_distribution_deviation: float
    wrong_outcome_mass: float
    n_amplitudes: int
    exact_match: bool | None

    @property
    def ok(self) -> bool:
        return (self.norm_deviation <= 1e-12
                and self.max_distribution_deviation <= DISTRIBUTION_TOL
                and self.wrong_outcome_mass == 0.0)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def statevector_check(sol: PrimalSolution, profile: AmplitudeProfile,
                      x: int) -> StatevectorReport:
    """Materialize the closed-form post-processing state and audit it.

    The state lives on registers (y, s, H) with amplitude
    (-1)^(x.v_s) sqrt(2^k mu[(code, s)]) at (H.x, s, H); weights-only
    profiles are accepted with the nonnegative-real amplitude convention.
    Verifies unit norm, that marginalizing s reproduces exact_distribution,
    and that the first register never disagrees with H.x.
    """
    if profile.n > STATEVECTOR_MAX_N:
        raise BudgetError(f"state-vector oracle capped at n <= {STATEVECTOR_MAX_N}")
    if not profile.full_support:
        raise ProfileError("state-vector oracle requires full dual support")
    amplitudes: dict = {}
    probs: dict = {}
    for (code, s), v in sol.carried:
        y = code.parity(x)
        v_s = int(code.leaders[0, s])
        amp = math.sqrt((1 << code.k) * float(v))
        if dot(x, v_s):
            amp = -amp
        amplitudes[(code, y, s)] = amp
        key = (code, y)
        probs[key] = probs.get(key, 0) + (1 << code.k) * v

    norm_dev = abs(math.fsum(a * a for a in amplitudes.values()) - 1.0)

    dist = exact_distribution(sol, profile, x)
    keys = set(dist) | set(probs)
    max_dev = 0.0
    exact_match: bool | None = None
    if all(isinstance(p, Rational) for p in dist.values()):
        exact_match = all(dist.get(k, 0) == probs.get(k, 0) for k in keys)
    for k in keys:
        max_dev = max(max_dev, abs(float(dist.get(k, 0)) - float(probs.get(k, 0))))

    wrong = math.fsum(
        a * a for (code, y, _), a in amplitudes.items() if y != code.parity(x)
    )
    return StatevectorReport(norm_dev, max_dev, wrong, len(amplitudes), exact_match)
