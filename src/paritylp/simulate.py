"""Measurement execution on a chosen hidden string.

Three mutually checking routes: the exact outcome law (the measured code
comes up with probability sum_i lambda_i w_i and always reports y = H.x),
a seeded ancestral sampler, and a state-vector oracle that materializes the
closed-form post-processing state and reads the distribution off its
register amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational

import numpy as np

from .errors import ProfileError
from .f2lin import ParityCode, dot, enumerate_all_codes, vec_str
from .lp import PrimalSolution
from .profiles import AmplitudeProfile

STATEVECTOR_MAX_N = 8
DISTRIBUTION_TOL = 1e-10
SAMPLE_CHUNK = 1 << 15


def exact_distribution(sol: PrimalSolution, profile: AmplitudeProfile,
                       x: int) -> dict:
    """Outcome law of the measurement run on the x-th family member.

    Each code H appears with probability sum_i lambda_i^H w_i, always paired
    with y = H.x; probabilities add to one through the normalization
    constraint.  Probabilities are exact fractions for an exact solution.
    """
    acc: dict[ParityCode, object] = {}
    for (code, s), v in sol.mu.items():
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
           shots: int, seed: int, chunk_size: int = SAMPLE_CHUNK) -> list[OutcomeRecord]:
    """Ancestral sampling: draw i from the weights, then a code from lambda_i.

    Shots are processed in fixed-size chunks whose generators come from
    spawned seed children, so the result is identical no matter how the
    chunks are scheduled.  Within a chunk each shot's code is the first
    one whose cumulative lambda reaches its uniform draw, found by binary
    search on its index's row.  Returns the aggregated histogram,
    deterministic given (solution, x, shots, seed).
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    support = list(profile.support)
    weights = np.array([profile.weights_float[i] for i in support])
    weights = weights / weights.sum()
    codes = enumerate_all_codes(profile.n)
    lam = np.zeros((len(support), len(codes)))
    for row, i in enumerate(support):
        for col, code in enumerate(codes):
            lam[row, col] = float(sol.lam_at(code, i))
    if np.any(lam < 0):
        raise ValueError("lambda entries must be nonnegative")
    row_sums = lam.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-9:
        raise ValueError("lambda rows must sum to 1 on the support")
    cum = np.cumsum(lam / row_sums[:, None], axis=1)

    n_chunks = (shots + chunk_size - 1) // chunk_size
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    counts = np.zeros(len(codes), dtype=np.int64)
    done = 0
    for child in children:
        take = min(chunk_size, shots - done)
        rng = np.random.default_rng(child)
        rows = rng.choice(len(support), size=take, p=weights)
        u = rng.random(take)
        for r in range(len(support)):
            picked = np.searchsorted(cum[r], u[rows == r], side="left")
            counts += np.bincount(np.minimum(picked, len(codes) - 1),
                                  minlength=len(codes))
        done += take

    records = [OutcomeRecord(code, code.parity(x), int(c), int(c) / shots)
               for code, c in zip(codes, counts) if c]
    return sorted(records, key=lambda r: r.code)


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
        return {
            "norm_deviation": self.norm_deviation,
            "max_distribution_deviation": self.max_distribution_deviation,
            "wrong_outcome_mass": self.wrong_outcome_mass,
            "n_amplitudes": self.n_amplitudes,
            "exact_match": self.exact_match,
            "ok": self.ok,
        }


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
        raise ValueError(f"state-vector oracle capped at n <= {STATEVECTOR_MAX_N}")
    if not profile.full_support:
        raise ProfileError("state-vector oracle requires full dual support")
    amplitudes: dict = {}
    probs: dict = {}
    for (code, s), v in sol.mu.items():
        if v == 0:
            continue
        y = code.parity(x)
        v_s = code.cosets.leader_min(s)
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
