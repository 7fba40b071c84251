import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest

from conftest import controller_bits
from oracles import ema_update, estimate_derivative, reference_memory, reference_observe

from thermoshift.controller import (
    ControllerConfig,
    Decision,
    Mode,
    ShiftController,
    TemperatureSample,
)
from thermoshift.errors import ConfigError, SampleError


def make(temp_threshold=73.0, grad_threshold=-0.07, alpha=0.995, beta=0.99, **kw):
    return ShiftController(ControllerConfig(
        temp_smoothing=alpha, grad_smoothing=beta,
        temp_threshold=temp_threshold, grad_threshold=grad_threshold, **kw))


class Celsius(float):
    """A float subclass: a reading the one-test path hands to the full checks."""


def feed(ctl, temps, t0=0.0, dt=1.0):
    return [ctl.observe(TemperatureSample(t0 + i * dt, temp)) for i, temp in enumerate(temps)]


class TestConfig:
    @pytest.mark.parametrize("alpha", [1.2, 1.0, 0.0, -0.1])
    def test_bad_temp_smoothing_rejected(self, alpha):
        with pytest.raises(ConfigError):
            ControllerConfig(temp_smoothing=alpha, grad_smoothing=0.99,
                             temp_threshold=73.0, grad_threshold=-0.07)

    def test_bad_grad_smoothing_rejected(self):
        with pytest.raises(ConfigError):
            ControllerConfig(temp_smoothing=0.995, grad_smoothing=1.5,
                             temp_threshold=73.0, grad_threshold=-0.07)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_thresholds_rejected(self, bad):
        with pytest.raises(ConfigError):
            ControllerConfig(temp_threshold=bad, grad_threshold=-0.07)
        with pytest.raises(ConfigError):
            ControllerConfig(temp_threshold=73.0, grad_threshold=bad)

    @pytest.mark.parametrize("tlim,glim", [(73.0, -0.07), (65.0, -0.008), (77.0, -0.02)])
    def test_known_good_settings(self, tlim, glim):
        ctl = make(tlim, glim)
        assert ctl.mode is Mode.LARGE
        assert ctl.avg_temp is None
        assert ctl.grad == 0.0
        assert ctl._saw_cooling is False


class TestTemperatureSample:
    """A frozen, slotted record: no instance dict, same equality and repr."""

    def test_no_instance_dict(self):
        sample = TemperatureSample(1.5, 60.25)
        assert not hasattr(sample, "__dict__")
        assert TemperatureSample.__slots__ == ("time_s", "celsius")

    @pytest.mark.parametrize("name", ["celsius", "time_s"])
    def test_frozen(self, name):
        sample = TemperatureSample(1.5, 60.25)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sample, name, 61.0)
        assert sample == TemperatureSample(1.5, 60.25)

    def test_no_attribute_can_be_added(self):
        # On CPython 3.10-3.13 a slotted frozen dataclass refuses a name that
        # is not a field with TypeError, not FrozenInstanceError: its
        # ``__setattr__`` closes over the class that ``slots=True`` replaced.
        sample = TemperatureSample(1.5, 60.25)
        with pytest.raises(TypeError):
            sample.extra = 1.0
        assert not hasattr(sample, "extra")

    def test_copies_and_pickles(self):
        sample = TemperatureSample(1.5, 60.25)
        assert copy.copy(sample) == copy.deepcopy(sample) == sample
        assert pickle.loads(pickle.dumps(sample)) == sample

    def test_equality_hash_and_repr(self):
        sample = TemperatureSample(time_s=1.5, celsius=60.25)
        assert sample == TemperatureSample(1.5, 60.25)
        assert sample != TemperatureSample(1.5, 60.5)
        assert hash(sample) == hash(TemperatureSample(1.5, 60.25))
        assert repr(sample) == "TemperatureSample(time_s=1.5, celsius=60.25)"


class TestEma:
    def test_direct_formula(self):
        assert ema_update(70.0, 72.0, 0.995) == pytest.approx(70.01)
        assert ema_update(0.0, 10.0, 0.99) == pytest.approx(0.1)

    @pytest.mark.parametrize("c", [-5.0, 0.0, 42.7])
    @pytest.mark.parametrize("coeff", [0.1, 0.5, 0.995])
    def test_fixed_point(self, c, coeff):
        assert ema_update(c, c, coeff) == pytest.approx(c)

    def test_fixed_point_geometric_convergence(self):
        # |avg_n - c| <= alpha^n * |avg_0 - c| for constant input c
        rng = random.Random(2024)
        for _ in range(200):
            alpha = rng.uniform(0.05, 0.995)
            c = rng.uniform(-20.0, 100.0)
            avg = rng.uniform(-20.0, 100.0)
            gap0 = abs(avg - c)
            for n in range(1, 60):
                avg = ema_update(avg, c, alpha)
                assert abs(avg - c) <= alpha ** n * gap0 + 1e-9


class TestDerivative:
    def test_first_sample_contributes_zero(self):
        ctl = make()
        assert estimate_derivative(ctl, 70.0) == pytest.approx(0.0)
        assert reference_memory(ctl).prev_avg_temp == 70.0

    def test_direct_formula(self):
        ctl = make(beta=0.99)
        estimate_derivative(ctl, 70.00)
        assert estimate_derivative(ctl, 69.98) == pytest.approx(-0.0002)

    def test_ramp_convergence_direct(self):
        # feeding the smoothed sequence a, a+r, a+2r ... directly: the
        # slope EMA converges geometrically to r
        ctl = make(beta=0.99)
        r = 0.013
        for i in range(701):
            grad = estimate_derivative(ctl, 40.0 + r * i)
        assert abs(grad - r) < 0.01 * r

    def test_per_second_scaling(self):
        base = ControllerConfig(temp_threshold=73.0, grad_threshold=-0.07)
        per_s = ControllerConfig(temp_threshold=73.0, grad_threshold=-0.07, per_second=True)
        a = ShiftController(base)
        b = ShiftController(per_s)
        # 0.5 s apart: per-second slope is twice the per-sample slope
        for ctl, dt in ((a, 1.0), (b, 0.5)):
            ctl.observe(TemperatureSample(0.0, 60.0))
            ctl.observe(TemperatureSample(dt, 61.0))
        assert b.grad == pytest.approx(2.0 * a.grad)


class TestObserve:
    def test_shift_to_small_above_threshold(self):
        ctl = make(73.0, -0.07)
        assert ctl.observe(TemperatureSample(0.0, 73.1)) is Decision.SHIFT_TO_SMALL
        assert ctl.mode is Mode.SMALL
        assert ctl.avg_temp is None  # filters cleared

    def test_tie_does_not_trigger(self):
        ctl = make(73.0)
        assert ctl.observe(TemperatureSample(0.0, 73.0)) is Decision.STAY
        assert ctl.mode is Mode.LARGE

    def test_trigger_uses_raw_not_smoothed(self):
        # long cool history keeps avg_temp low; one hot raw reading still shifts
        ctl = make(73.0)
        feed(ctl, [60.0] * 50)
        assert ctl.avg_temp < 62.0
        assert ctl.observe(TemperatureSample(100.0, 73.5)) is Decision.SHIFT_TO_SMALL

    def test_shift_to_large_when_grad_above_threshold(self):
        ctl = make(73.0, -0.07)
        ctl.mode = Mode.SMALL
        ctl.avg_temp = 70.0
        ctl.grad = -0.05
        ctl._saw_cooling = True
        # constant reading keeps grad near -0.05, above -0.07: shift back
        assert ctl.observe(TemperatureSample(0.0, 70.0)) is Decision.SHIFT_TO_LARGE
        assert ctl.mode is Mode.LARGE

    def test_stay_when_grad_below_threshold(self):
        ctl = make(73.0, -0.07)
        ctl.mode = Mode.SMALL
        ctl.avg_temp = 70.0
        ctl.grad = -0.20
        ctl._saw_cooling = True
        assert ctl.observe(TemperatureSample(0.0, 70.0)) is Decision.STAY
        assert ctl.mode is Mode.SMALL

    @pytest.mark.parametrize("bad,message", [
        (float("nan"), "non-finite temperature reading: nan"),
        (float("inf"), "non-finite temperature reading: inf"),
        (-float("inf"), "non-finite temperature reading: -inf"),
        (-300.0, "temperature below absolute zero: -300.0 C"),
        (math.nextafter(-273.15, -math.inf),
         "temperature below absolute zero: -273.15000000000003 C"),
        (Celsius("nan"), "non-finite temperature reading: nan"),
        (Fraction(70), "non-finite temperature reading: Fraction(70, 1)"),
        ("70", "non-finite temperature reading: '70'"),
        (None, "non-finite temperature reading: None"),
        (10 ** 400, "non-finite temperature reading: 1" + "0" * 400),
    ], ids=["nan", "inf", "-inf", "-300", "below-by-one-ulp", "subclass-nan", "fraction",
            "str", "none", "int-past-float"])
    def test_rejects_bad_sample_without_state_change(self, bad, message):
        ctl = make()
        feed(ctl, [60.0, 61.0, 62.0])
        before = controller_bits(ctl)
        with pytest.raises(SampleError) as info:
            ctl.observe(TemperatureSample(99.0, bad))
        assert str(info.value) == message
        assert controller_bits(ctl) == before

    @pytest.mark.parametrize("reading", [
        -273.15, -0.0, 5e-324, 1.7976931348623157e308, 70, True, Celsius(70.0),
    ], ids=["absolute-zero", "-0.0", "denormal", "float-max", "int", "bool", "subclass"])
    @pytest.mark.parametrize("history", [0, 3])
    def test_accepts_edge_reading_like_the_reference(self, reading, history):
        ctl, ref = make(), make()
        for i, temp in enumerate([60.0, 61.0, 62.0][:history]):
            ctl.observe(TemperatureSample(float(i), temp))
            reference_observe(ref, TemperatureSample(float(i), temp))
        sample = TemperatureSample(10.0, reading)
        assert ctl.observe(sample) is reference_observe(ref, sample)
        assert controller_bits(ctl) == controller_bits(ref)


class TestReset:
    def test_reset_clears_filters_preserves_mode(self):
        ctl = make()
        feed(ctl, [70.0, 65.0, 60.0])
        assert ctl._saw_cooling is True
        ctl.mode = Mode.SMALL
        ctl.reset_filters()
        assert ctl.mode is Mode.SMALL
        assert ctl.avg_temp is None
        assert ctl.grad == 0.0
        assert ctl._saw_cooling is False

    def test_first_sample_after_reset_seeds_average(self):
        ctl = make()
        feed(ctl, [60.0, 61.0])
        ctl.reset_filters()
        ctl.observe(TemperatureSample(10.0, 68.5))
        assert ctl.avg_temp == pytest.approx(68.5)
        assert ctl.grad == pytest.approx(0.0)


class TestWarmupGuard:
    @pytest.mark.parametrize("per_second", [False, True])
    @pytest.mark.parametrize("reading", [73.4, 20.0], ids=["small-step", "plunge"])
    def test_no_bounce_on_first_small_sample(self, reading, per_second):
        # grad restarts at 0 > grad_threshold; the guard must hold the shift,
        # also when the first SMALL reading lies far below the last LARGE one
        ctl = make(73.0, -0.07, per_second=per_second)
        assert ctl.observe(TemperatureSample(0.0, 73.5)) is Decision.SHIFT_TO_SMALL
        assert ctl.observe(TemperatureSample(1.0, reading)) is Decision.STAY
        assert ctl.mode is Mode.SMALL

    def test_release_on_second_cooling_sample(self):
        # once two samples arrived and cooling was seen, the level check
        # applies again; a near-zero grad exceeds any negative threshold
        ctl = make(73.0, -0.07)
        ctl.observe(TemperatureSample(0.0, 73.5))
        ctl.observe(TemperatureSample(1.0, 73.4))
        assert ctl.observe(TemperatureSample(2.0, 73.3)) is Decision.SHIFT_TO_LARGE

    def test_guard_needs_a_cooling_observation(self):
        # temperature still rising after the shift: stay in SMALL
        ctl = make(73.0, -0.07)
        ctl.observe(TemperatureSample(0.0, 73.5))
        decisions = feed(ctl, [73.6, 73.7, 73.8, 73.9], t0=1.0)
        assert decisions == [Decision.STAY] * 4
        assert ctl.mode is Mode.SMALL


class TestLiteralInit:
    def test_zero_seeded_average_and_spurious_slope(self):
        ctl = make(literal_init=True)
        assert ctl.avg_temp == 0.0
        ctl.observe(TemperatureSample(0.0, 70.0))
        # avg jumped from 0 toward 70; the raw slope is that whole jump
        assert ctl.avg_temp == pytest.approx(0.35)
        assert ctl.grad == pytest.approx(0.0035)

    def test_immediate_bounce_back(self):
        # with the guard dropped, SMALL mode fires on its first sample
        ctl = make(73.0, -0.07, literal_init=True)
        assert ctl.observe(TemperatureSample(0.0, 74.0)) is Decision.SHIFT_TO_SMALL
        assert ctl.observe(TemperatureSample(1.0, 73.9)) is Decision.SHIFT_TO_LARGE


def _replay_decisions(temps, config):
    """Independent re-computation of the decision sequence (test oracle)."""
    mode = "LARGE"
    avg = prev = None
    grad = 0.0
    since = 0
    cooled = False
    out = []
    for t in temps:
        avg = t if avg is None else config.temp_smoothing * avg + (1 - config.temp_smoothing) * t
        raw = 0.0 if prev is None else avg - prev
        prev = avg
        if raw < 0:
            cooled = True
        grad = config.grad_smoothing * grad + (1 - config.grad_smoothing) * raw
        since += 1
        if mode == "LARGE" and t > config.temp_threshold:
            mode, avg, prev, grad, since, cooled = "SMALL", None, None, 0.0, 0, False
            out.append(Decision.SHIFT_TO_SMALL)
        elif mode == "SMALL" and grad > config.grad_threshold and since >= 2 and cooled:
            mode, avg, prev, grad, since, cooled = "LARGE", None, None, 0.0, 0, False
            out.append(Decision.SHIFT_TO_LARGE)
        else:
            out.append(Decision.STAY)
    return out


def _random_walk(rng, n):
    temp = rng.uniform(30.0, 76.0)
    temps = []
    for _ in range(n):
        temp += rng.uniform(-0.8, 0.9)
        temps.append(temp)
    return temps


class TestProperties:
    def test_ramp_convergence_through_observe(self):
        # full pipeline: temperature ramp in, slope estimate out
        ctl = make(temp_threshold=1e9, grad_threshold=-1e9, alpha=0.95, beta=0.99)
        r = 0.02
        for i in range(1001):
            ctl.observe(TemperatureSample(float(i), 20.0 + r * i))
        assert abs(ctl.grad - r) < 0.01 * r

    def test_shift_alternation(self):
        rng = random.Random(7)
        for _ in range(300):
            cfg = ControllerConfig(
                temp_threshold=rng.uniform(50.0, 75.0),
                grad_threshold=-rng.uniform(0.001, 0.2),
            )
            ctl = ShiftController(cfg)
            decisions = feed(ctl, _random_walk(rng, 250))
            shifts = [d for d in decisions if d is not Decision.STAY]
            for i, d in enumerate(shifts):
                expected = Decision.SHIFT_TO_SMALL if i % 2 == 0 else Decision.SHIFT_TO_LARGE
                assert d is expected

    def test_trigger_exactness_against_replay(self):
        rng = random.Random(11)
        for _ in range(300):
            cfg = ControllerConfig(
                temp_threshold=rng.uniform(50.0, 75.0),
                grad_threshold=-rng.uniform(0.001, 0.2),
            )
            temps = _random_walk(rng, 250)
            ctl = ShiftController(cfg)
            got = feed(ctl, temps)
            assert got == _replay_decisions(temps, cfg)
            for t, d in zip(temps, got):
                if d is Decision.SHIFT_TO_SMALL:
                    assert t > cfg.temp_threshold

    def test_determinism(self):
        rng = random.Random(13)
        temps = _random_walk(rng, 500)
        cfg = ControllerConfig(temp_threshold=70.0, grad_threshold=-0.05)
        first = feed(ShiftController(cfg), temps)
        second = feed(ShiftController(cfg), temps)
        assert first == second
