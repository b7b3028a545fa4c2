"""Amplitude profiles of shift-symmetric state families and cost functions.

A profile holds the Fourier-side data of the reference state: squared
weights |a_i|^2 indexed by integer encoding, optionally with the complex
amplitudes themselves.  The number type is a property of the data: a
profile whose weights are all rational (ints, fractions, fraction strings)
stores them as `Fraction` and normalizes exactly; any other profile stores
binary64 floats with a 1e-12 validation tolerance.  Arithmetic downstream
follows the type, since Fraction with int stays Fraction and anything mixed
with a float is a float.  Cost values are always stored exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Rational

from .errors import ProfileError
from .f2lin import all_vectors, hamming_weight

FLOAT_TOL = 1e-12


def _is_number(v) -> bool:
    """A JSON number: int or float, but not a boolean."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _fraction(text: str) -> Fraction:
    """A weight string as a `Fraction`; a zero denominator is refused."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ProfileError(f"weight {text!r} has a zero denominator") from None


def _squared_norm(a: complex) -> float:
    """|a|^2 as abs(a) ** 2 gives it; a square past binary64 is refused."""
    try:
        return abs(a) ** 2
    except OverflowError:
        raise ProfileError(f"|amplitude|^2 of {a!r} overflows binary64") from None


@dataclass(frozen=True)
class AmplitudeProfile:
    """Normalized weights (and optional amplitudes) over F_2^n."""

    n: int
    weights: tuple
    amplitudes: tuple | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ProfileError("profile needs n >= 0")
        size = len(self.weights)
        # bit lengths first, so a huge n never builds 2^n
        if size.bit_length() != self.n + 1 or size != 1 << self.n:
            raise ProfileError(f"expected 2^{self.n} weights, got {size}")
        num = Fraction if all(isinstance(w, Rational) for w in self.weights) else float
        object.__setattr__(self, "weights", tuple(map(num, self.weights)))
        # a NaN fails every comparison, so it would pass the checks below
        if num is float and not all(map(math.isfinite, self.weights)):
            raise ProfileError("weights must be finite numbers")
        if any(w < 0 for w in self.weights):
            raise ProfileError("weights must be nonnegative")
        if self.rational:
            # the sum is exactly 1 when the numerators over the common
            # denominator add up to that denominator
            den = math.lcm(*(w.denominator for w in self.weights))
            if sum(w.numerator * (den // w.denominator) for w in self.weights) != den:
                raise ProfileError("rational weights must sum to exactly 1")
        else:
            if abs(math.fsum(self.weights) - 1.0) > FLOAT_TOL:
                raise ProfileError("weights must sum to 1 within 1e-12")
        if self.amplitudes is not None:
            if len(self.amplitudes) != size:
                raise ProfileError("amplitude count does not match 2^n")
            for a, w in zip(self.amplitudes, self.weights):
                if not abs(_squared_norm(a) - float(w)) <= FLOAT_TOL:
                    raise ProfileError("|amplitude|^2 inconsistent with weight")

    @property
    def rational(self) -> bool:
        return all(isinstance(w, Rational) for w in self.weights)

    @cached_property
    def full_support(self) -> bool:
        return all(w != 0 for w in self.weights)

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i in all_vectors(self.n) if self.weights[i] != 0)

    @cached_property
    def zero_set(self) -> tuple[int, ...]:
        return tuple(i for i in all_vectors(self.n) if self.weights[i] == 0)

    @cached_property
    def weights_float(self) -> tuple[float, ...]:
        return tuple(float(w) for w in self.weights)

    def require_amplitudes(self) -> tuple[complex, ...]:
        if self.amplitudes is None:
            raise ProfileError(
                "profile carries weights only; supply amplitudes or use "
                "with_real_amplitudes() to assume nonnegative real ones"
            )
        return self.amplitudes

    def with_real_amplitudes(self) -> AmplitudeProfile:
        """Copy with amplitudes sqrt(w_i), i.e. the nonnegative real choice."""
        if self.amplitudes is not None:
            return self
        amps = tuple(complex(math.sqrt(float(w)), 0.0) for w in self.weights)
        return AmplitudeProfile(self.n, self.weights, amps)

    @classmethod
    def from_weights(cls, n: int, values, amplitudes=None) -> AmplitudeProfile:
        """Build from weights, and amplitudes if given; str/int/Fraction
        entries select rational mode."""
        return cls(n, tuple(_fraction(v) if isinstance(v, str) else v for v in values),
                   amplitudes)

    @classmethod
    def from_amplitudes(cls, n: int, amps) -> AmplitudeProfile:
        amps = tuple(complex(a) for a in amps)
        weights = tuple(map(_squared_norm, amps))
        return cls(n, weights, amps)

    @classmethod
    def from_json_dict(cls, data: dict) -> AmplitudeProfile:
        """The profile `to_json_dict` writes: its weights when given, with the
        amplitudes attached when given too (`__post_init__` checks that they
        agree), else the amplitudes' |a|^2."""
        n = data.get("n") if isinstance(data, dict) else None
        if isinstance(n, bool) or not isinstance(n, int):
            raise ProfileError("profile JSON needs an integer field 'n'")
        amps = None
        if "amplitudes" in data:
            amps = data["amplitudes"]
            if not (isinstance(amps, list) and all(
                    isinstance(a, dict) and _is_number(a.get("re"))
                    and _is_number(a.get("im", 0.0)) for a in amps)):
                raise ProfileError(
                    "'amplitudes' must be a list of {\"re\": number, \"im\": number}")
            amps = tuple(complex(a["re"], a.get("im", 0.0)) for a in amps)
        if "weights" in data:
            weights = data["weights"]
            if not (isinstance(weights, list)
                    and all(isinstance(w, str) or _is_number(w) for w in weights)):
                raise ProfileError("'weights' must be a list of numbers or fraction strings")
            return cls.from_weights(n, weights, amps)
        if amps is not None:
            return cls.from_amplitudes(n, amps)
        raise ProfileError("profile JSON needs 'weights' or 'amplitudes'")

    def to_json_dict(self) -> dict:
        out: dict = {"n": self.n}
        if self.rational:
            out["weights"] = [str(w) for w in self.weights]
        else:
            out["weights"] = list(self.weights_float)
        if self.amplitudes is not None:
            out["amplitudes"] = [
                {"re": a.real, "im": a.imag} for a in self.amplitudes
            ]
        return out


@dataclass(frozen=True)
class CostFunction:
    """Score C(0..n) attached to learning k parities."""

    n: int
    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) != self.n + 1:
            raise ValueError(f"need {self.n + 1} cost values")
        # A solve's float stage reads each cost(k) 2^k as a binary64.
        if not all(0 <= v * (1 << k) <= sys.float_info.max for k, v in enumerate(self.values)):
            raise ValueError("cost values must be nonnegative, with each cost(k) 2^k "
                             "a finite binary64")
        # Floats convert losslessly, so a cost never decides the number type.
        object.__setattr__(self, "values", tuple(
            v if isinstance(v, Rational) else Fraction(v) for v in self.values))

    @classmethod
    def average(cls, n: int) -> CostFunction:
        return cls(n, tuple(range(n + 1)))

    @classmethod
    def threshold(cls, n: int, tau: int) -> CostFunction:
        if not 1 <= tau <= n:
            raise ValueError("threshold requires 1 <= tau <= n")
        return cls(n, tuple(1 if k >= tau else 0 for k in range(n + 1)))

    @classmethod
    def custom(cls, n: int, values) -> CostFunction:
        return cls(n, tuple(values))

    def value(self, k: int):
        return self.values[k]

    @classmethod
    def from_json_dict(cls, n: int, data: dict) -> CostFunction:
        """The cost of a {"kind": ...} object: "average" (the default),
        "threshold" with an integer "tau", or "custom" with "values" a list
        of numbers or fraction strings.  Anything else raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("cost JSON must be an object")
        kind = data.get("kind", "average")
        if kind == "average":
            return cls.average(n)
        if kind == "threshold":
            tau = data.get("tau")
            if isinstance(tau, bool) or not isinstance(tau, int):
                raise ValueError("threshold cost JSON needs an integer 'tau'")
            return cls.threshold(n, tau)
        if kind == "custom":
            values = data.get("values")
            if not (isinstance(values, list)
                    and all(isinstance(v, str) or _is_number(v) for v in values)):
                raise ValueError("'values' must be a list of numbers or fraction strings")
            try:
                return cls.custom(n, [Fraction(str(v)) for v in values])
            except ZeroDivisionError:
                raise ValueError(f"cost values {values!r} divide by zero") from None
        raise ValueError(f"unknown cost kind {kind!r}")


@dataclass(frozen=True)
class BernoulliParams:
    """Error rate t in [0, 1/2] and its dual rate 1/2 - sqrt(t(1-t))."""

    t: float
    t_perp: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.t <= 0.5:
            raise ValueError("need 0 <= t <= 1/2")
        object.__setattr__(self, "t_perp", 0.5 - math.sqrt(self.t * (1.0 - self.t)))


def bernoulli_profile(n: int, t: float) -> AmplitudeProfile:
    """Dual-side profile of n-fold Bernoulli(t) noise.

    The weight of index i is q^|i| (1-q)^(n-|i|) with q the dual rate, and
    all amplitudes are real nonnegative (sqrt(1-t) - sqrt(t) >= 0 for
    t <= 1/2, so the single-bit dual amplitudes are already nonnegative).
    """
    q = BernoulliParams(t).t_perp
    weights = []
    amps = []
    for i in all_vectors(n):
        w = (q ** hamming_weight(i)) * ((1.0 - q) ** (n - hamming_weight(i)))
        weights.append(w)
        amps.append(complex(math.sqrt(w), 0.0))
    return AmplitudeProfile(n, tuple(weights), tuple(amps))


def perturb_full_support(p: AmplitudeProfile, delta) -> AmplitudeProfile:
    """Blend mass delta onto the zero-weight set, restoring full support.

    Weights become (1-delta) w_i off the zero set and delta/|T| on it; a
    profile that already has full support is returned unchanged.  Exact in
    rational mode when delta is rational.
    """
    if not 0 < delta <= 1:
        raise ValueError("need 0 < delta <= 1")
    zero = p.zero_set
    if not zero:
        return p
    t_size = len(zero)
    num = Fraction if p.rational and isinstance(delta, Rational) else float
    one_minus = 1 - num(delta)
    fill = num(delta) / t_size
    new_weights = tuple(fill if w == 0 else one_minus * num(w) for w in p.weights)
    new_amps = None
    if p.amplitudes is not None:
        scale = math.sqrt(1.0 - float(delta))
        lift = math.sqrt(float(delta) / t_size)
        new_amps = tuple(
            complex(lift, 0.0) if p.weights[i] == 0 else scale * p.amplitudes[i]
            for i in all_vectors(p.n)
        )
    return AmplitudeProfile(p.n, new_weights, new_amps)


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
