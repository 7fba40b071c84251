import math
import random

import pytest

from oracles import logging_overhead, shift_overhead

from thermoshift.errors import ScenarioError
from thermoshift.suites import PHONE_PROFILE, SUITES
from thermoshift.workload import (
    ModelVariant,
    PacingPolicy,
    Platform,
    inference_latency,
    iteration_time,
    LOGGING_OVERHEAD,
    normal_stream,
    power_draw,
)


def variant(base_latency=0.205, power=6.96, shift_mean=0.0, shift_std=0.0):
    return ModelVariant("m", base_latency=base_latency, power_nominal=power,
                        accuracy=0.768, shift_mean=shift_mean, shift_std=shift_std)


class TestLatency:
    def test_nominal_frequency_identity(self):
        v = variant(0.205)
        assert inference_latency(v, PHONE_PROFILE.f_nominal, PHONE_PROFILE) == pytest.approx(0.205)

    def test_scales_inversely_with_frequency(self):
        v = variant(0.205)
        lat = inference_latency(v, 1.8, PHONE_PROFILE)
        assert lat == pytest.approx(0.205 * 2.86 / 1.8)
        assert round(lat, 3) == 0.326

    def test_multiplier(self):
        v = variant(0.155)
        lat = inference_latency(v, PHONE_PROFILE.f_nominal, PHONE_PROFILE, multiplier=1.4)
        assert lat == pytest.approx(0.217)

    def test_latency_frequency_reciprocity(self):
        # latency * frequency is constant for a fixed variant and multiplier
        v = variant(0.4)
        rng = random.Random(3)
        reference = inference_latency(v, 1.0, PHONE_PROFILE) * 1.0
        for _ in range(100):
            f = rng.uniform(0.2, 4.0)
            assert inference_latency(v, f, PHONE_PROFILE) * f == pytest.approx(reference)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            inference_latency(variant(), 0.0, PHONE_PROFILE)


class TestIterationTime:
    def test_small_padded_to_target(self):
        v = variant(0.107)
        compute, idle = iteration_time(v, PHONE_PROFILE.f_nominal, PHONE_PROFILE,
                                       PacingPolicy(target_period=0.205))
        assert compute == pytest.approx(0.107)
        assert idle == pytest.approx(0.098)
        assert compute + idle == pytest.approx(0.205)

    def test_large_pads_to_own_latency(self):
        v = variant(0.205)
        compute, idle = iteration_time(v, PHONE_PROFILE.f_nominal, PHONE_PROFILE,
                                       PacingPolicy(target_period=0.205))
        assert idle == 0.0

    def test_no_target_no_idle(self):
        v = variant(0.107)
        _, idle = iteration_time(v, PHONE_PROFILE.f_nominal, PHONE_PROFILE, PacingPolicy())
        assert idle == 0.0

    def test_idle_never_negative_when_throttled(self):
        # throttled compute exceeds the target: idle clamps at zero
        v = variant(0.205)
        compute, idle = iteration_time(v, 1.5, PHONE_PROFILE, PacingPolicy(target_period=0.205))
        assert compute > 0.205
        assert idle == 0.0


class TestPower:
    def test_nominal_identity(self):
        v = variant(power=15.0)
        assert power_draw(v, PHONE_PROFILE.f_nominal, PHONE_PROFILE) == pytest.approx(15.0)

    def test_linear_scaling(self):
        v = variant(power=15.0)
        assert power_draw(v, PHONE_PROFILE.f_nominal / 2, PHONE_PROFILE) == pytest.approx(7.5)

    def test_idle_power_constant_on_profile(self):
        assert PHONE_PROFILE.idle_power == 1.0


class TestShiftOverhead:
    def test_deterministic_under_seed(self):
        v = SUITES["slimmable-resnet50-phone"].large
        a = [shift_overhead(v, random.Random(42)) for _ in range(5)]
        b = [shift_overhead(v, random.Random(42)) for _ in range(5)]
        assert a == b

    def test_stream_bit_identical_across_runs(self):
        v = SUITES["slimmable-resnet50-phone"].small
        rng1, rng2 = random.Random(9), random.Random(9)
        assert [shift_overhead(v, rng1) for _ in range(200)] == \
               [shift_overhead(v, rng2) for _ in range(200)]

    def test_phone_to_large_statistics(self):
        # to-LARGE load stall: mean 1.000, spread 0.252
        v = SUITES["slimmable-resnet50-phone"].large
        assert (v.shift_mean, v.shift_std) == (1.000, 0.252)
        rng = random.Random(0)
        draws = [shift_overhead(v, rng) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(1.000, abs=0.02)
        assert min(draws) >= 0.0

    def test_pi_to_small_statistics(self):
        v = SUITES["slimmable-resnet50-pi"].small
        assert (v.shift_mean, v.shift_std) == (0.143, 0.006)

    def test_true_weight_sharing_is_free(self):
        v = SUITES["slimmable-resnet50-phone"].large
        rng = random.Random(1)
        assert shift_overhead(v, rng, weight_shared=True) == 0.0


class TestNormalStream:
    @pytest.mark.parametrize("seed", [0, 1, 8675309])
    def test_equals_gauss_in_lockstep(self, seed):
        # run_scenario alternates logging draws with load-stall draws; each
        # must equal the gauss call it replaces, bit for bit.
        log = LOGGING_OVERHEAD[Platform.PHONE]
        small = SUITES["slimmable-resnet50-phone"].small
        stall = (small.shift_mean, small.shift_std)
        rng = random.Random(seed)
        z = normal_stream(random.Random(seed).random)
        for i in range(20_000):
            mu, sigma = log if i % 2 == 0 else stall
            assert mu + next(z) * sigma == rng.gauss(mu, sigma), i


class TestLoggingOverhead:
    def test_platform_statistics(self):
        rng = random.Random(0)
        phone = [logging_overhead(Platform.PHONE, rng) for _ in range(4000)]
        pi = [logging_overhead(Platform.PI, rng) for _ in range(4000)]
        assert sum(phone) / len(phone) == pytest.approx(0.023, abs=0.002)
        assert sum(pi) / len(pi) == pytest.approx(0.080, abs=0.002)
        assert min(phone) >= 0.0 and min(pi) >= 0.0

    def test_disabled_is_zero(self):
        assert logging_overhead(Platform.PHONE, random.Random(0), enabled=False) == 0.0


class TestValidation:
    def test_variant_rejects_bad_fields(self):
        with pytest.raises(ScenarioError):
            ModelVariant("x", base_latency=0.0, power_nominal=5.0, accuracy=0.7)
        with pytest.raises(ScenarioError):
            ModelVariant("x", base_latency=0.1, power_nominal=5.0, accuracy=1.7)
        with pytest.raises(ScenarioError):
            ModelVariant("x", base_latency=0.1, power_nominal=5.0, accuracy=0.7,
                         shift_mean=-1.0)

    def test_pacing_rejects_slowdown_below_one(self):
        with pytest.raises(ScenarioError):
            PacingPolicy(latency_multiplier=0.5)
        with pytest.raises(ScenarioError):
            PacingPolicy(target_period=-1.0)


class TestNonFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_variant_names_non_finite_field(self, value):
        with pytest.raises(ScenarioError, match="'m': base_latency must be finite"):
            variant(base_latency=value)
        with pytest.raises(ScenarioError, match="power_nominal must be finite"):
            variant(power=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_pacing_names_non_finite_field(self, value):
        with pytest.raises(ScenarioError, match="target_period must be finite"):
            PacingPolicy(target_period=value)
        with pytest.raises(ScenarioError, match="latency_multiplier must be finite"):
            PacingPolicy(latency_multiplier=value)
