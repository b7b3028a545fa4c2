"""Profiles: construction, validation, Bernoulli family, perturbation."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritylp.errors import ProfileError
from paritylp.f2lin import hamming_weight
from paritylp.profiles import (
    AmplitudeProfile,
    BernoulliParams,
    CostFunction,
    average_dual_weight,
    bernoulli_profile,
    perturb_full_support,
    tail_mass,
)


class TestAmplitudeProfile:
    def test_rational_mode_from_strings(self):
        p = AmplitudeProfile.from_weights(2, ["1/4", "1/4", "1/4", "1/4"])
        assert p.rational and p.full_support
        assert p.weights == (Fraction(1, 4),) * 4
        ints = AmplitudeProfile(1, (1, 0))
        assert ints.rational and all(type(w) is Fraction for w in ints.weights)
        mixed = AmplitudeProfile.from_weights(1, ["1/2", 0.5])
        assert not mixed.rational and all(type(w) is float for w in mixed.weights)

    def test_rational_sum_must_be_one(self):
        with pytest.raises(ProfileError):
            AmplitudeProfile.from_weights(1, ["1/2", "1/3"])

    @pytest.mark.parametrize("off", [Fraction(1, 10**30), Fraction(-1, 10**30)])
    def test_rational_sum_off_by_a_hair_refused(self, off):
        # denominators 3, 7 and 10^30 + 1: the common one has 32 digits
        tiny = Fraction(1, 10**30 + 1)
        weights = [Fraction(1, 3), Fraction(2, 7), tiny, 1 - Fraction(1, 3) - Fraction(2, 7) - tiny]
        assert AmplitudeProfile(2, tuple(weights)).rational
        weights[3] += off
        assert sum(weights) == 1 + off
        with pytest.raises(ProfileError, match="exactly 1"):
            AmplitudeProfile(2, tuple(weights))

    def test_float_tolerance(self):
        AmplitudeProfile.from_weights(1, [0.5, 0.5 + 1e-13])
        with pytest.raises(ProfileError):
            AmplitudeProfile.from_weights(1, [0.5, 0.51])

    def test_amplitude_consistency(self):
        a = 1 / math.sqrt(2)
        p = AmplitudeProfile.from_amplitudes(1, [a, a * 1j])
        assert p.amplitudes is not None
        with pytest.raises(ProfileError):
            AmplitudeProfile(1, (0.5, 0.5), (complex(1.0), complex(0.0)))

    def test_weights_only_requires_amplitudes(self):
        p = AmplitudeProfile.from_weights(1, ["1/2", "1/2"])
        with pytest.raises(ProfileError):
            p.require_amplitudes()
        q = p.with_real_amplitudes()
        assert q.require_amplitudes()[0] == pytest.approx(1 / math.sqrt(2))

    def test_json_roundtrip(self):
        p = AmplitudeProfile.from_weights(2, ["1/20", "3/20", "3/10", "1/2"])
        q = AmplitudeProfile.from_json_dict(p.to_json_dict())
        assert q.weights == p.weights

    @pytest.mark.parametrize("p", [
        AmplitudeProfile.from_weights(2, ["1/20", "3/20", "3/10", "1/2"]).with_real_amplitudes(),
        bernoulli_profile(5, 0.45),
    ], ids=["rational", "bernoulli5"])
    def test_json_roundtrip_keeps_weights_beside_amplitudes(self, p):
        # with both fields written, the weights are read and the amplitudes
        # attached: |a|^2 would give binary64 weights, off in the last bits
        q = AmplitudeProfile.from_json_dict(p.to_json_dict())
        assert q.rational == p.rational
        assert [repr(w) for w in q.weights] == [repr(w) for w in p.weights]
        assert q.amplitudes == p.amplitudes

    def test_json_weights_and_amplitudes_must_agree(self):
        data = {"n": 1, "weights": ["1/2", "1/2"], "amplitudes": [{"re": 1.0}, {"re": 0.0}]}
        with pytest.raises(ProfileError, match="inconsistent"):
            AmplitudeProfile.from_json_dict(data)

    @pytest.mark.parametrize("data", [
        {"n": 2, "weights": ["1/20", "3/20", "3/10", "1/2"]},
        AmplitudeProfile.from_weights(1, ["1/2", "1/2"]).with_real_amplitudes().to_json_dict(),
        {"n": 1, "amplitudes": [{"re": 0.6}, {"re": 0.0, "im": 0.8}]},
    ], ids=["weights", "weights-and-amplitudes", "amplitudes"])
    def test_json_load_validates_once(self, monkeypatch, data):
        # the weights, their sum and the amplitudes are checked in one pass
        calls = []
        real = AmplitudeProfile.__post_init__
        monkeypatch.setattr(AmplitudeProfile, "__post_init__",
                            lambda self: calls.append(self) or real(self))
        p = AmplitudeProfile.from_json_dict(data)
        assert len(calls) == 1 and calls[0] is p
        assert (p.amplitudes is None) == ("amplitudes" not in data)

    def test_zero_denominator_refused(self):
        with pytest.raises(ProfileError, match="zero denominator"):
            AmplitudeProfile.from_json_dict({"n": 1, "weights": ["1/0", "1"]})

    @pytest.mark.parametrize("data", [
        {"n": 1, "amplitudes": [{"re": 1e308, "im": 1e308}, {"re": 0, "im": 0}]},
        {"n": 1, "weights": [1.0, 0.0], "amplitudes": [{"re": 1e308, "im": 1e308}, {"re": 0}]},
    ], ids=["amplitudes", "beside-weights"])
    def test_amplitude_square_overflow_refused(self, data):
        with pytest.raises(ProfileError, match="overflows"):
            AmplitudeProfile.from_json_dict(data)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_refused(self, bad):
        # NaN fails the sum check's comparison, so only the finiteness
        # check stands between it and a solve
        with pytest.raises(ProfileError, match="finite"):
            AmplitudeProfile.from_weights(1, [bad, 1.0])
        with pytest.raises(ProfileError, match="finite"):
            AmplitudeProfile.from_json_dict({"n": 1, "amplitudes": [{"re": bad}, {"re": 1.0}]})

    def test_nan_amplitude_beside_weights_refused(self):
        with pytest.raises(ProfileError, match="inconsistent"):
            AmplitudeProfile(1, (1.0, 0.0), (complex(math.nan, 0), 0j))

    def test_zero_set(self):
        p = AmplitudeProfile.from_weights(2, ["1/2", "0", "1/2", "0"])
        assert p.zero_set == (1, 3)
        assert p.support == (0, 2)
        assert not p.full_support


class TestCostFunction:
    def test_average(self):
        c = CostFunction.average(3)
        assert c.values == (0, 1, 2, 3)

    def test_threshold(self):
        c = CostFunction.threshold(3, 2)
        assert c.values == (0, 0, 1, 1)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            CostFunction.threshold(3, 0)

    def test_nonnegative(self):
        for bad in (-1, math.inf, math.nan):
            with pytest.raises(ValueError):
                CostFunction.custom(1, [0, bad])

    @pytest.mark.parametrize("values", [
        [Fraction(10) ** 400, 1, 2],
        # cost(2) 2^2 passes the largest binary64, though cost(2) does not
        [0, 1, Fraction(sys.float_info.max) / 2],
    ], ids=["1e400", "rank-value"])
    def test_rank_value_past_binary64_refused(self, values):
        with pytest.raises(ValueError, match="finite binary64"):
            CostFunction.custom(2, values)
        assert CostFunction.custom(2, [0, 1, Fraction(sys.float_info.max) / 4])

    def test_json(self):
        c = CostFunction.from_json_dict(2, {"kind": "threshold", "tau": 2})
        assert c == CostFunction.threshold(2, 2) and c.values == (0, 0, 1)
        c = CostFunction.from_json_dict(2, {"kind": "custom", "values": [0, 0.5, 0.1]})
        assert c.values == (0, Fraction(1, 2), Fraction(1, 10))
        assert all(type(v) is Fraction for v in c.values)
        assert [float(v) for v in c.values] == [0.0, 0.5, 0.1]

    @pytest.mark.parametrize("data", [
        {"kind": "threshold", "tau": 2.7},
        {"kind": "threshold", "tau": True},
        {"kind": "threshold", "tau": "2"},
        {"kind": "threshold"},
        {"kind": "custom", "values": "012"},
        {"kind": "custom", "values": [0, True, 2]},
        {"kind": "custom", "values": [0, None, 2]},
        {"kind": "custom", "values": ["0", "1/0", "2"]},
        {"kind": "custom"},
        [{"kind": "average"}],
        {"kind": "quadratic"},
    ], ids=["tau-float", "tau-bool", "tau-string", "tau-missing", "values-string",
            "values-bool", "values-null", "values-zero-denominator", "values-missing",
            "list", "unknown-kind"])
    def test_json_malformed_refused(self, data):
        with pytest.raises(ValueError):
            CostFunction.from_json_dict(2, data)


class TestBernoulli:
    def test_dual_rate_endpoints(self):
        # noiseless states have a uniform dual side; maximal noise collapses
        # the dual side onto the zero frequency
        assert BernoulliParams(0.0).t_perp == pytest.approx(0.5)
        assert BernoulliParams(0.5).t_perp == 0.0

    def test_known_rate(self):
        assert BernoulliParams(0.1).t_perp == pytest.approx(0.2)

    def test_n1_profile(self):
        p = bernoulli_profile(1, 0.1)
        assert p.weights_float == pytest.approx((0.8, 0.2))

    def test_noiseless_uniform_dual(self):
        p = bernoulli_profile(2, 0.0)
        assert p.weights_float == pytest.approx((0.25,) * 4)

    def test_maximal_noise_point_mass_dual(self):
        p = bernoulli_profile(1, 0.5)
        assert p.weights_float == pytest.approx((1.0, 0.0))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bernoulli_profile(1, 0.7)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [0.05, 0.2, 0.45])
    def test_matches_hadamard_transform_of_primal_amplitudes(self, n, t):
        # Independent oracle: transform the computational-side Bernoulli
        # amplitudes sqrt(t^|e| (1-t)^(n-|e|)) and compare squared weights.
        size = 1 << n
        primal = np.array([
            math.sqrt(t ** hamming_weight(e) * (1 - t) ** (n - hamming_weight(e)))
            for e in range(size)
        ])
        had = np.array([
            [(-1.0) ** hamming_weight(i & j) for j in range(size)]
            for i in range(size)
        ]) / math.sqrt(size)
        dual = had @ primal
        p = bernoulli_profile(n, t)
        assert p.weights_float == pytest.approx(tuple(dual ** 2), abs=1e-12)
        assert [a.real for a in p.amplitudes] == pytest.approx(tuple(dual), abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.3, 0.5])
    def test_average_weight_is_n_tperp(self, t):
        n = 3
        p = bernoulli_profile(n, t)
        assert average_dual_weight(p) == pytest.approx(n * BernoulliParams(t).t_perp)


class TestPerturb:
    def test_point_mass_half(self):
        p = AmplitudeProfile.from_weights(1, ["1", "0"])
        q = perturb_full_support(p, Fraction(1, 2))
        assert q.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_already_full_support_unchanged(self):
        p = AmplitudeProfile.from_weights(1, ["1/2", "1/2"])
        assert perturb_full_support(p, Fraction(1, 10)) is p

    def test_forced_arithmetic(self):
        p = AmplitudeProfile.from_weights(2, ["1/2", "1/2", "0", "0"])
        q = perturb_full_support(p, Fraction(1, 10))
        assert q.weights == (Fraction(9, 20), Fraction(9, 20),
                             Fraction(1, 20), Fraction(1, 20))
        assert q.full_support

    def test_exact_normalization_preserved(self):
        p = AmplitudeProfile.from_weights(3, ["1/3", "0", "2/3"] + ["0"] * 5)
        q = perturb_full_support(p, Fraction(1, 7))
        assert sum(q.weights) == 1 and q.rational

    def test_amplitudes_carried(self):
        p = AmplitudeProfile.from_amplitudes(1, [1.0, 0.0])
        q = perturb_full_support(p, 0.5)
        assert abs(q.amplitudes[1]) ** 2 == pytest.approx(0.5)

    def test_delta_range(self):
        p = AmplitudeProfile.from_weights(1, ["1", "0"])
        with pytest.raises(ValueError):
            perturb_full_support(p, 0)
        with pytest.raises(ValueError):
            perturb_full_support(p, 1.5)

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=30)
    def test_normalization_property(self, n, data):
        size = 1 << n
        nums = [data.draw(st.integers(0, 5)) for _ in range(size)]
        if sum(nums) == 0:
            nums[0] = 1
        total = sum(nums)
        p = AmplitudeProfile.from_weights(
            n, [Fraction(v, total) for v in nums]
        )
        delta = Fraction(data.draw(st.integers(1, 9)), 10)
        q = perturb_full_support(p, delta)
        assert sum(q.weights) == 1
        assert q.full_support


class TestSummaries:
    def test_uniform_average(self):
        p = AmplitudeProfile.from_weights(2, ["1/4"] * 4)
        assert average_dual_weight(p) == 1

    def test_point_mass_tail(self):
        p = AmplitudeProfile.from_weights(2, ["1", "0", "0", "0"])
        for d in range(3):
            assert tail_mass(p, d) == 0

    def test_number_type_follows_the_profile(self):
        rational = AmplitudeProfile.from_weights(2, ["1/2", "1/4", "1/4", "0"])
        binary64 = AmplitudeProfile.from_weights(2, [0.5, 0.3, 0.2, 0.0])
        for p, num in ((rational, Fraction), (binary64, float)):
            assert type(average_dual_weight(p)) is num
            assert all(type(tail_mass(p, d)) is num for d in range(3))
            q = perturb_full_support(p, Fraction(1, 10))
            assert all(type(w) is num for w in q.weights)
        assert average_dual_weight(rational) == Fraction(1, 2)
        assert perturb_full_support(rational, Fraction(1, 10)).weights == (
            Fraction(9, 20), Fraction(9, 40), Fraction(9, 40), Fraction(1, 10))
        assert all(type(w) is float for w in perturb_full_support(rational, 0.1).weights)

    def test_tail_monotone(self):
        p = AmplitudeProfile.from_weights(2, ["1/4"] * 4)
        masses = [tail_mass(p, d) for d in range(3)]
        assert masses == [Fraction(3, 4), Fraction(1, 4), Fraction(0)]
