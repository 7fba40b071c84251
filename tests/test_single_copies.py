"""Pins for ideas that live in one place: the controller's filter reset,
``Trace`` as a list, ``Summary.to_dict``, the decision values as row
events, the live loop's pacing sleep and clock reads, the governor
table, the profile and controller constants read once per run, and the
one-pass controller update (through both entry points) and ``live_run``
loop against their reference forms."""

import dataclasses
import itertools
import math
import random

import pytest

from conftest import phone_scenario

from thermoshift.analysis import Summary, summarize
from thermoshift.controller import (
    WARMUP_MIN_SAMPLES,
    ControllerConfig,
    Decision,
    Mode,
    ShiftController,
    TemperatureSample,
    ema_update,
)
from thermoshift.errors import SampleError, SensorReadError, SourceExhausted
from thermoshift.harness import (
    EVENT_NONE,
    EVENT_SHIFT_LARGE,
    EVENT_SHIFT_SMALL,
    Trace,
    emit_trace,
    parse_trace,
    pick_event,
    run_scenario,
)
from thermoshift.sensors import ReplaySource, live_run
from thermoshift.suites import PHONE_PROFILE, PI_PROFILE
from thermoshift.thermal import DeviceProfile, DeviceState, HeatSource, advance

# Attributes that are not filter state: the config, the mode and the
# telemetry that survives a reset.
NOT_FILTER_STATE = {"config", "mode", "last_avg_temp", "last_grad"}


def filter_state(ctl):
    return {k: v for k, v in vars(ctl).items() if k not in NOT_FILTER_STATE}


def fake_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


class TestOneFilterReset:
    @pytest.mark.parametrize("literal_init", [False, True])
    def test_fresh_controller_equals_reset_one(self, literal_init):
        cfg = ControllerConfig(temp_threshold=73.0, grad_threshold=-0.07,
                               literal_init=literal_init)
        used = ShiftController(cfg)
        for i, temp in enumerate((60.0, 61.5, 61.0, 60.2, 59.9)):
            used.observe(TemperatureSample(float(i), temp))
        assert filter_state(used) != filter_state(ShiftController(cfg))
        used.reset_filters()
        assert filter_state(used) == filter_state(ShiftController(cfg))


class TestTraceIsAList:
    def traces(self, tmp_path):
        ran = run_scenario(phone_scenario(duration=300.0))
        path = tmp_path / "t.csv"
        emit_trace(ran, path)
        samples = [TemperatureSample(r.sim_time, r.cpu_temp) for r in ran]
        live = live_run(ReplaySource(samples), ControllerConfig(), period=0.25,
                        sleep=lambda s: None, clock=fake_clock())
        return {"run_scenario": ran, "parse_trace": parse_trace(path), "live_run": live}

    def test_every_producer_returns_a_list(self, tmp_path):
        for name, trace in self.traces(tmp_path).items():
            assert isinstance(trace, Trace) and isinstance(trace, list), name
            assert trace.records is trace, name
            assert len(trace) > 0, name
            kind = trace[0].event
            assert trace.events(kind) == [r for r in trace if r.event == kind], name

    def test_constructors(self):
        assert Trace() == [] and len(Trace()) == 0
        records = run_scenario(phone_scenario(duration=60.0))
        copy = Trace(iter(records))
        assert isinstance(copy, Trace) and copy == records

    def test_shuffling_records_shuffles_the_trace(self):
        trace = run_scenario(phone_scenario(duration=120.0))
        before = list(trace)
        random.Random(4).shuffle(trace.records)
        assert list(trace) != before and sorted(map(id, trace)) == sorted(map(id, before))


class TestSummaryToDict:
    def test_keys_are_fields_in_order(self, phone_suite):
        trace = run_scenario(phone_scenario(duration=300.0))
        summary = summarize(trace, phone_suite.large, phone_suite.small)
        names = [f.name for f in dataclasses.fields(Summary)]
        assert list(summary.to_dict()) == names
        assert summary.to_dict() == {n: getattr(summary, n) for n in names}


class TestShiftEventNames:
    def test_values(self):
        assert EVENT_SHIFT_SMALL == "shift_to_small"
        assert EVENT_SHIFT_LARGE == "shift_to_large"
        assert EVENT_SHIFT_SMALL == Decision.SHIFT_TO_SMALL.value
        assert EVENT_SHIFT_LARGE == Decision.SHIFT_TO_LARGE.value

    def test_every_decision_value_is_its_row_event(self):
        assert EVENT_NONE == Decision.STAY.value == "none"
        for decision in Decision:
            assert pick_event(decision, ()) == decision.value


class TestLivePacing:
    def test_one_sleep_per_poll_error_polls_included(self):
        class Flaky:
            """Reads fail on every third poll; exhausted after 10 polls."""

            def __init__(self):
                self.polls = 0

            def read_now(self):
                self.polls += 1
                if self.polls > 10:
                    raise SourceExhausted("done")
                if self.polls % 3 == 0:
                    raise SensorReadError("blip")
                return TemperatureSample(float(self.polls), 60.0)

        source = Flaky()
        sleeps = []
        trace = live_run(source, ControllerConfig(), period=5.0,
                         sleep=sleeps.append, clock=fake_clock())
        # 10 polls, 3 of them errors; the exhausted 11th poll ends the loop unpaced.
        assert len(trace) == 7
        assert len(sleeps) == 10
        # Each poll reads the clock twice (start, then before sleeping): 1 s apart.
        assert sleeps == [4.0] * 10

    @pytest.mark.parametrize("duration", [None, math.inf, 1e9])
    def test_two_clock_reads_per_poll_with_or_without_a_duration(self, duration):
        reads = itertools.count()
        samples = [TemperatureSample(float(i), 60.0) for i in range(100)]
        trace = live_run(ReplaySource(samples), ControllerConfig(), period=5.0,
                         duration=duration, sleep=lambda s: None,
                         clock=lambda: float(next(reads)))
        assert len(trace) == 100
        # One read before the loop, two per poll, one for the exhausted 101st.
        assert next(reads) == 202


def reference_observe(ctl, sample):
    """``observe`` stepped by hand with the reference filter forms."""
    t = sample.celsius
    cfg = ctl.config
    dt = None if ctl._last_time is None else sample.time_s - ctl._last_time
    if ctl.avg_temp is None:
        new_avg = float(t)
    else:
        new_avg = ema_update(ctl.avg_temp, t, cfg.temp_smoothing)
    ctl.avg_temp = new_avg
    ctl.estimate_derivative(new_avg, dt)
    ctl.samples_since_reset += 1
    ctl._last_time = sample.time_s
    ctl.last_avg_temp = new_avg
    ctl.last_grad = ctl.grad
    if ctl.mode is Mode.LARGE and t > cfg.temp_threshold:
        ctl.mode = Mode.SMALL
        ctl.reset_filters()
        return Decision.SHIFT_TO_SMALL
    if (ctl.mode is Mode.SMALL and ctl.grad > cfg.grad_threshold
            and (cfg.literal_init or (ctl.samples_since_reset >= WARMUP_MIN_SAMPLES
                                      and ctl._saw_cooling))):
        ctl.mode = Mode.LARGE
        ctl.reset_filters()
        return Decision.SHIFT_TO_LARGE
    return Decision.STAY


def bits(ctl):
    """Every attribute, floats as their exact bits (so -0.0 != 0.0)."""
    return {k: (type(v), v.hex() if isinstance(v, float) else v) for k, v in vars(ctl).items()}


def random_samples(seed, n=3000):
    """A noisy oscillation through the thresholds, with zero, repeated,
    negative and irregular time steps and some integer readings."""
    rng = random.Random(seed)
    time_s, samples = 0.0, []
    for i in range(n):
        time_s += rng.choice((0.0, 0.25, 0.25, 1.0, -0.5, rng.uniform(0.0, 2.0)))
        temp = 70.0 + 9.0 * math.sin(i / 40.0) + rng.gauss(0.0, 0.6)
        samples.append(TemperatureSample(time_s, round(temp) if rng.random() < 0.1 else temp))
    return samples


def counting(cls):
    """``(subclass, reads)``: instances of the subclass append the name of
    every attribute read on them to ``reads``."""
    reads = []

    class Counting(cls):
        def __getattribute__(self, name):
            reads.append(name)
            return object.__getattribute__(self, name)

    return Counting, reads


def governed(state):
    """What a governor rule sets on a state."""
    return state.temp, state.freq, state.throttled


class TestConstantsBoundOnce:
    """The per-row rules read the frozen profile and controller config
    when a source or controller is built, never while it runs."""

    @pytest.mark.parametrize("base", [PHONE_PROFILE, PI_PROFILE], ids=["phone-drop", "pi-pin"])
    def test_advance_reads_no_profile_field(self, base):
        Profile, reads = counting(DeviceProfile)
        p = Profile(**{f.name: getattr(base, f.name) for f in dataclasses.fields(base)})
        # Heating toward 15 C past the trip point, then idling back to ambient.
        hot = base.dissipation * (base.t_throttle + 15.0 - base.ambient_temp)
        heat = HeatSource(p, lambda f: hot * f / base.f_nominal)
        idle = HeatSource(p, lambda f: 0.0)
        tau = base.heat_capacity / base.dissipation
        state = DeviceState(temp=base.ambient_temp, freq=base.f_nominal)
        reads.clear()
        events = []
        for _ in range(3):
            for _ in range(20):
                events += advance(state, heat, tau / 4)
            events += advance(state, idle, 5 * tau)
        assert reads == []
        assert {"throttle_on", "throttle_off"} <= set(events)

    @pytest.mark.parametrize("options", [{}, {"per_second": True}, {"literal_init": True}],
                             ids=["default", "per_second", "literal_init"])
    def test_observe_reading_reads_no_config_field(self, options):
        Config, reads = counting(ControllerConfig)
        ctl = ShiftController(Config(temp_smoothing=0.8, grad_smoothing=0.7,
                                     temp_threshold=74.0, grad_threshold=-0.05, **options))
        reads.clear()
        seen = {ctl.observe_reading(s.time_s, s.celsius) for s in random_samples(0)}
        assert reads == []
        assert seen == set(Decision)

    @pytest.mark.parametrize("base", [PHONE_PROFILE, PI_PROFILE], ids=["phone-drop", "pi-pin"])
    def test_source_keeps_the_profile_it_was_built_with(self, base):
        power = lambda f: 8.0 * f / base.f_nominal
        old = HeatSource(base, power)
        hotter = dataclasses.replace(base, t_throttle=base.t_throttle + 3.0,
                                     t_resume=base.t_resume + 3.0)
        new = HeatSource(hotter, power)
        # Past the old trip point, short of the new one.
        temp = base.t_throttle + 1.0
        states = [DeviceState(temp=temp, freq=base.f_nominal) for _ in range(3)]
        assert old.rule(states[0]) == "throttle_on"
        assert HeatSource(hotter, power).rule(states[1]) is new.rule(states[2]) is None
        assert governed(states[1]) == governed(states[2]) != governed(states[0])


class TestObserveLockstep:
    @pytest.mark.parametrize("per_second", [False, True])
    @pytest.mark.parametrize("literal_init", [False, True])
    @pytest.mark.parametrize("seed", [0, 8675309])
    def test_bit_equal_to_reference(self, per_second, literal_init, seed):
        cfg = ControllerConfig(temp_smoothing=0.8, grad_smoothing=0.7, temp_threshold=74.0,
                               grad_threshold=-0.05, per_second=per_second,
                               literal_init=literal_init)
        fast, slow = ShiftController(cfg), ShiftController(cfg)
        seen = set()
        for sample in random_samples(seed):
            decision = fast.observe(sample)
            assert decision is reference_observe(slow, sample)
            assert bits(fast) == bits(slow)
            seen.add(decision)
        assert seen == set(Decision)

    @staticmethod
    def config(per_second, literal_init):
        return ControllerConfig(temp_smoothing=0.8, grad_smoothing=0.7, temp_threshold=74.0,
                                grad_threshold=-0.05, per_second=per_second,
                                literal_init=literal_init)

    @pytest.mark.parametrize("per_second", [False, True])
    @pytest.mark.parametrize("literal_init", [False, True])
    @pytest.mark.parametrize("seed", [0, 8675309])
    def test_both_entry_points_bit_equal_to_reference(self, per_second, literal_init, seed):
        """``observe_reading(t, c)`` and ``observe(TemperatureSample(t, c))``,
        alternated on one controller, are one update."""
        fast = ShiftController(self.config(per_second, literal_init))
        slow = ShiftController(self.config(per_second, literal_init))
        seen = {"observe": set(), "observe_reading": set()}
        for i, sample in enumerate(random_samples(seed)):
            if i % 2:
                entry, decision = "observe", fast.observe(sample)
            else:
                entry = "observe_reading"
                decision = fast.observe_reading(sample.time_s, sample.celsius)
            assert decision is reference_observe(slow, sample)
            assert bits(fast) == bits(slow)
            seen[entry].add(decision)
        assert seen["observe"] | seen["observe_reading"] == set(Decision)
        assert all(len(decisions) > 1 for decisions in seen.values())

    @pytest.mark.parametrize("per_second", [False, True])
    @pytest.mark.parametrize("literal_init", [False, True])
    @pytest.mark.parametrize("celsius", [math.nan, math.inf, -math.inf, -273.16, -1e9])
    def test_bad_readings_raise_without_a_state_change(self, per_second, literal_init,
                                                        celsius):
        ctl = ShiftController(self.config(per_second, literal_init))
        for sample in random_samples(0, n=200):
            ctl.observe_reading(sample.time_s, sample.celsius)
        before = bits(ctl)
        with pytest.raises(SampleError):
            ctl.observe_reading(1e6, celsius)
        assert bits(ctl) == before


class TestLiveRunSubstitutions:
    def test_wrappers_set_before_the_run_see_every_call(self, monkeypatch):
        scenario = phone_scenario(duration=600.0)  # heats past the threshold
        samples = [TemperatureSample(r.sim_time, r.cpu_temp) for r in run_scenario(scenario)]
        decisions = []
        observe = ShiftController.observe

        def counting_observe(self, sample):
            decisions.append(observe(self, sample))
            return decisions[-1]

        monkeypatch.setattr(ShiftController, "observe", counting_observe)
        source = ReplaySource(samples)
        polls = errors = 0
        read_now = source.read_now

        def counting_read():
            nonlocal polls, errors
            polls += 1
            if polls % 5 == 0:
                errors += 1
                raise SensorReadError("blip")
            return read_now()

        source.read_now = counting_read
        trace = live_run(source, scenario.controller, period=0.25,
                         sleep=lambda s: None, clock=fake_clock())
        # One observe per successful poll; the last poll finds the replay exhausted.
        assert len(trace) == len(decisions) == len(samples)
        assert polls == len(samples) + errors + 1 and errors > 0
        assert [r.event for r in trace] == [pick_event(d, ()) for d in decisions]
        assert {EVENT_SHIFT_SMALL, EVENT_SHIFT_LARGE} <= {r.event for r in trace}


class TestGovernorTable:
    """A ``HeatSource`` holds one band closure over constants solved once."""

    def test_phone_drop_band(self):
        p = PHONE_PROFILE
        watts = {p.f_nominal: 6.0, p.f_throttled: 4.3}
        source = HeatSource(p, lambda f: watts[f])
        rate = p.dissipation / p.heat_capacity
        nominal_eq = p.ambient_temp + 6.0 / p.dissipation
        throttled_eq = p.ambient_temp + 4.3 / p.dissipation
        state = DeviceState(temp=50.0, freq=p.f_nominal)
        assert source.band(state) == (rate, nominal_eq, p.t_throttle)
        state.temp, state.freq, state.throttled = 70.0, p.f_throttled, True
        assert source.band(state) == (rate, throttled_eq, p.t_resume)
        state.temp = p.t_resume - 1.0  # past its threshold: due at once
        assert source.band(state) == (rate, throttled_eq, state.temp)

    def test_pi_pin_band(self):
        p = PI_PROFILE
        source = HeatSource(p, lambda f: 8.0 * f / p.f_nominal)
        rate = p.dissipation / p.heat_capacity
        state = DeviceState(temp=40.0, freq=p.f_nominal)
        assert source.band(state) == (rate, p.ambient_temp + 8.0 / p.dissipation, p.t_throttle)
        state.temp = p.t_throttle + 0.5
        pinned_rate, pinned_eq, edge = source.band(state)
        assert pinned_rate > rate and p.t_throttle < pinned_eq and edge is None
