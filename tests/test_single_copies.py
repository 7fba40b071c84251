"""Pins for ideas that live in one place: the controller's filter reset,
``Trace`` as a list, ``Summary.to_dict``, the decision values as row
events, the live loop's pacing sleep and clock reads, the platform
profile table, the governor table, the profile and controller constants
read once per run, enum members bound outside every loop, and the
one-pass controller update (through both entry points), ``live_run``
loop and trace CSV rows against their reference forms."""

import ast
import dataclasses
import itertools
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import (
    controller_bits,
    phone_scenario,
    pi_sweep_scenario,
    record_bits,
    state_bits,
)
from oracles import (
    pick_event,
    record_throttle_changes,
    reference_csv_text,
    reference_observe,
    reference_parse_lines,
)

import thermoshift
from thermoshift import harness, thermal
from thermoshift.analysis import Summary, cell_seed, summarize
from thermoshift.config import build_scenario
from thermoshift.controller import (
    ControllerConfig,
    Decision,
    Mode,
    ShiftController,
    TemperatureSample,
)
from thermoshift.errors import SampleError, SensorReadError, SourceExhausted, TraceFormatError
from thermoshift.harness import (
    EVENT_NONE,
    EVENT_SHIFT_LARGE,
    EVENT_SHIFT_SMALL,
    EVENT_THROTTLE_ON,
    Trace,
    TraceRecord,
    emit_trace,
    parse_trace,
    run_scenario,
)
from thermoshift.sensors import ReplaySource, live_run
from thermoshift.suites import PHONE_PROFILE, PI_PROFILE, PROFILES, SUITE_NAMES, default_profile
from thermoshift.thermal import (
    DeviceProfile,
    DeviceState,
    GovernorKind,
    HeatSource,
    advance,
)
from thermoshift.workload import Platform

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
            assert len(trace) > 0, name

    def test_constructors(self):
        assert Trace() == [] and len(Trace()) == 0
        records = run_scenario(phone_scenario(duration=60.0))
        copy = Trace(iter(records))
        assert isinstance(copy, Trace) and copy == records


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
    return state.temp, state.freq, state.throttled, state.trips


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
        events = record_throttle_changes(heat)
        record_throttle_changes(idle, events)
        reads.clear()
        for _ in range(3):
            for _ in range(20):
                advance(state, heat, tau / 4)
            advance(state, idle, 5 * tau)
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
        fresh = HeatSource(hotter, power)
        old_events, fresh_events, new_events = map(record_throttle_changes, (old, fresh, new))
        # Past the old trip point, short of the new one.
        temp = base.t_throttle + 1.0
        states = [DeviceState(temp=temp, freq=base.f_nominal) for _ in range(3)]
        old.rule(states[0])
        fresh.rule(states[1])
        new.rule(states[2])
        assert old_events == ["throttle_on"]
        assert fresh_events == new_events == []
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
            assert controller_bits(fast) == controller_bits(slow)
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
            assert controller_bits(fast) == controller_bits(slow)
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
        before = controller_bits(ctl)
        with pytest.raises(SampleError):
            ctl.observe_reading(1e6, celsius)
        assert controller_bits(ctl) == before


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


class TestProfileTable:
    def test_default_profile_is_the_platform_entry(self):
        assert set(PROFILES) == {platform.value for platform in Platform}
        for platform in Platform:
            assert default_profile(platform) is PROFILES[platform.value]


class TestGovernorTable:
    """Each governor kind has one solver, and a ``HeatSource`` holds the
    band and rule closures of one call to it, over constants solved once.
    A band is ``(rate, t_eq, edge, steady)``; ``steady`` is the bound of a
    band on which the rule cannot act, or None. A steady band is one tuple,
    built once per source and returned as is."""

    @pytest.mark.parametrize("base", [PHONE_PROFILE, PI_PROFILE], ids=["phone-drop", "pi-pin"])
    def test_one_solver_per_kind(self, base):
        assert set(thermal._GOVERNORS) == set(GovernorKind)
        power = lambda f: 8.0 * f / base.f_nominal
        solved = thermal._GOVERNORS[base.governor](base, power)
        assert type(solved) is tuple and len(solved) == 3
        band, rule, hottest = solved
        source = HeatSource(base, power)
        assert hottest == source.hottest
        # Past the trip point: the same band, and the rule trips the governor.
        states = [DeviceState(temp=base.t_throttle + 1.0, freq=base.f_nominal) for _ in range(2)]
        assert band(states[0]) == source.band(states[1])
        # The solver's rule, held as a source holds it, so the helper can wrap it.
        solved_rule = SimpleNamespace(rule=rule)
        solved_events = record_throttle_changes(solved_rule)
        source_events = record_throttle_changes(source)
        solved_rule.rule(states[0])
        source.rule(states[1])
        assert solved_events == source_events == [EVENT_THROTTLE_ON]
        assert governed(states[0]) == governed(states[1])

    @pytest.mark.parametrize("base", [PHONE_PROFILE, PI_PROFILE], ids=["phone-drop", "pi-pin"])
    def test_source_build_reads_the_table_and_each_field_once(self, monkeypatch, base):
        lookups, calls = [], []

        class CountingTable(dict):
            def __getitem__(self, kind):
                lookups.append(kind)
                solve = dict.__getitem__(self, kind)

                def counted(*args):
                    calls.append(kind)
                    return solve(*args)
                return counted

        monkeypatch.setattr(thermal, "_GOVERNORS", CountingTable(thermal._GOVERNORS))
        Profile, reads = counting(DeviceProfile)
        p = Profile(**{f.name: getattr(base, f.name) for f in dataclasses.fields(base)})
        reads.clear()
        HeatSource(p, lambda f: 8.0 * f / base.f_nominal)
        assert lookups == calls == [base.governor]
        # The rule and the bands share every profile constant they read.
        assert len(reads) == len(set(reads))

    def test_phone_drop_band(self):
        p = PHONE_PROFILE
        watts = {p.f_nominal: 6.0, p.f_throttled: 4.3, 2.5: 5.0}
        source = HeatSource(p, lambda f: watts[f])
        rate = p.dissipation / p.heat_capacity
        nominal_eq = p.ambient_temp + 6.0 / p.dissipation
        throttled_eq = p.ambient_temp + 4.3 / p.dissipation
        # Steady: at f_nominal short of the trip point, and at f_throttled,
        # throttled, above the release point.
        state = DeviceState(temp=50.0, freq=p.f_nominal)
        running = source.band(state)
        assert running == (rate, nominal_eq, p.t_throttle, p.t_throttle)
        state.temp = math.nextafter(p.t_throttle, -math.inf)
        assert source.band(state) is running
        state.temp, state.freq, state.throttled = 70.0, p.f_throttled, True
        held = source.band(state)
        assert held == (rate, throttled_eq, p.t_resume, p.t_resume)
        state.temp = 90.0
        assert source.band(state) is held
        # Not steady: past the threshold (due at once), on it, or on a
        # clock or throttle flag that does not match the band.
        state.temp = p.t_resume - 1.0
        assert source.band(state) == (rate, throttled_eq, state.temp, None)
        state.temp = p.t_resume
        assert source.band(state) == (rate, throttled_eq, p.t_resume, None)
        state = DeviceState(temp=p.t_throttle, freq=p.f_nominal)
        assert source.band(state) == (rate, nominal_eq, p.t_throttle, None)
        state = DeviceState(temp=50.0, freq=p.f_throttled)
        assert source.band(state) == (rate, throttled_eq, p.t_throttle, None)
        state = DeviceState(temp=70.0, freq=p.f_nominal, throttled=True)
        assert source.band(state) == (rate, nominal_eq, p.t_resume, None)
        state = DeviceState(temp=50.0, freq=2.5)
        assert source.band(state) == (rate, p.ambient_temp + 5.0 / p.dissipation,
                                      p.t_throttle, None)

    def test_pi_pin_band(self):
        p = PI_PROFILE
        source = HeatSource(p, lambda f: 8.0 * f / p.f_nominal)
        rate = p.dissipation / p.heat_capacity
        below_eq = p.ambient_temp + 8.0 / p.dissipation
        above_eq = p.ambient_temp + 8.0 * p.f_throttled / p.f_nominal / p.dissipation
        floor = p.t_throttle + (p.f_nominal - p.f_throttled) / p.pin_gain
        # Steady below the trip point at f_nominal, unthrottled.
        state = DeviceState(temp=40.0, freq=p.f_nominal)
        running = source.band(state)
        assert running == (rate, below_eq, p.t_throttle, p.t_throttle)
        state.temp = math.nextafter(p.t_throttle, -math.inf)
        assert source.band(state) is running
        # Not steady above the floor, even at f_throttled, throttled.
        state = DeviceState(temp=floor + 1.0, freq=p.f_throttled, throttled=True)
        assert source.band(state) == (rate, above_eq, floor, None)
        state.temp = floor + 30.0
        assert source.band(state) == (rate, above_eq, floor, None)
        # The pinned band is never steady: its clock follows the temperature.
        state = DeviceState(temp=p.t_throttle + 0.5, freq=p.f_nominal)
        pinned_rate, pinned_eq, edge, steady = source.band(state)
        assert pinned_rate > rate and p.t_throttle < pinned_eq and edge is None
        assert steady is None
        state.freq, state.throttled = p.f_throttled, True
        assert source.band(state)[3] is None
        # Nor a band whose state's clock or throttle flag does not match it.
        for freq, throttled in [(p.f_throttled, True), (p.f_nominal, True), (1.0, False)]:
            state = DeviceState(temp=40.0, freq=freq, throttled=throttled)
            assert source.band(state) == (rate, below_eq, p.t_throttle, None)
        for freq, throttled in [(p.f_nominal, False), (p.f_throttled, False), (1.0, True)]:
            state = DeviceState(temp=floor + 1.0, freq=freq, throttled=throttled)
            assert source.band(state) == (rate, above_eq, floor, None)

class TestRuleCalledWhereItActs:
    """``advance`` runs a source's governor rule only where it can act, and
    at the end of every step above pi-pin's frequency floor. The controller
    keeps both benchmark workloads short of the trip point, so their runs
    call no rule at all; where the phone-drop governor acts, every call
    raises an event; above the pi-pin floor, which no suite's readings
    reach, every call leaves the state as it is."""

    @staticmethod
    def rule_calls(monkeypatch, scenario):
        """(trace, [event of each rule call]) of a run whose heat sources
        count their rule calls. A call's event is the throttle change
        ``record_throttle_changes`` records for it, or None."""
        calls, changes = [], []
        heat_sources = harness._heat_sources

        def counted(rule):
            def rule_counted(state):
                before = len(changes)
                rule(state)
                calls.append(changes[before] if len(changes) > before else None)
            return rule_counted

        def counting_sources(scenario):
            sources = heat_sources(scenario)
            for source in sources:
                record_throttle_changes(source, changes)
                source.rule = counted(source.rule)
            return sources

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_heat_sources", counting_sources)
            trace = run_scenario(scenario)
        return trace, calls

    def test_phone_hour_calls_no_rule(self, monkeypatch):
        scenario = build_scenario({"suite": "slimmable-resnet50-phone", "seed": 0,
                                   "duration": 3600.0, "controller": "default"})
        trace, calls = self.rule_calls(monkeypatch, scenario)
        # A rule call after every band step made 13,528 calls here.
        assert len(trace) == 8620 and calls == []

    def test_pi_sweep_cell_calls_no_rule(self, monkeypatch):
        cell = pi_sweep_scenario(temp_threshold=75.0, grad_threshold=-0.01)
        cell = dataclasses.replace(cell, seed=cell_seed(0, 75.0, -0.01),
                                   stop_after_small_shifts=3)
        trace, calls = self.rule_calls(monkeypatch, cell)
        # A rule call after every band step made 430 calls here.
        assert sum(r.event == EVENT_SHIFT_SMALL for r in trace) == 3 and calls == []

    def test_baseline_hour_calls_only_to_act(self, monkeypatch):
        scenario = build_scenario({"suite": "slimmable-resnet50-phone", "seed": 0,
                                   "duration": 3600.0})
        trace, calls = self.rule_calls(monkeypatch, scenario)
        # The device trips once and its throttled equilibrium lies above the
        # release point: one call, where a call after every band step made
        # 12,342 calls that raised the same one event.
        assert calls == [EVENT_THROTTLE_ON]
        assert sum(r.event == EVENT_THROTTLE_ON for r in trace) == 1
        assert [record_bits(r) for r in trace] == [record_bits(r)
                                                   for r in run_scenario(scenario)]

    def test_saturated_pi_pin_calls_above_floor_change_nothing(self):
        p = PI_PROFILE
        floor = p.t_throttle + (p.f_nominal - p.f_throttled) / p.pin_gain
        hot = HeatSource(p, lambda f: 20.0 * f / p.f_nominal)
        cool = HeatSource(p, lambda f: 2.0 * f / p.f_nominal)
        # Saturated: the pinned equilibrium lies above the floor.
        assert hot.band(DeviceState(temp=p.t_throttle + 1.0, freq=p.f_nominal))[1] > floor
        above, changes = [], []
        for source in (hot, cool):
            record_throttle_changes(source, changes)

            def watched(state, rule=source.rule):
                before, recorded = state_bits(state), len(changes)
                rule(state)
                if state.temp > floor:
                    event = changes[recorded] if len(changes) > recorded else None
                    above.append((before, event, state_bits(state)))
            source.rule = watched
        # Heat past the floor, then cool back below it.
        state = DeviceState(temp=p.ambient_temp, freq=p.f_nominal)
        for source in (hot, cool):
            for _ in range(2000):
                advance(state, source, 1.1)
        assert state.temp < p.t_throttle and len(above) > 1000
        assert all(event is None and after == before for before, event, after in above)


ENUMS = frozenset(("Mode", "Decision", "GovernorKind", "Platform"))


def enum_reads_in_loops(source):
    """``(line, text)`` of each ``<enum>.<member>`` read in the body of a
    ``for`` or ``while`` loop of ``source``, one of ``ENUMS`` each."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, (ast.For, ast.While)):
            for node in (n for stmt in loop.body for n in ast.walk(stmt)):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name) and node.value.id in ENUMS):
                    found.add((node.lineno, ast.unparse(node)))
    return sorted(found)


class TestEnumMembersBoundOnce:
    """A member read through its enum class costs far more than a
    module-level name, so no loop in the package reads one."""

    def test_no_loop_in_the_package_reads_a_member(self):
        package = Path(thermoshift.__file__).parent
        found = [f"{path.name}:{line}: {text}" for path in sorted(package.glob("*.py"))
                 for line, text in enum_reads_in_loops(path.read_text())]
        assert found == []

    def test_the_check_finds_reads_in_loop_bodies_only(self):
        source = (
            "_LARGE = Mode.LARGE\n"
            "for r in trace:\n"
            "    if r.mode is Mode.LARGE:\n"
            "        n += 1\n"
            "else:\n"
            "    last = Decision.STAY\n"
            "while Platform.PI:\n"
            "    make(lambda: GovernorKind.PI_PIN, mode=_LARGE, kind=Other.X)\n"
            "    Mode.LARGE = None\n"
        )
        assert enum_reads_in_loops(source) == [(3, "Mode.LARGE"), (8, "GovernorKind.PI_PIN")]


def trace_vocabulary(source):
    """``(line, text)`` of each trace event string (``harness._EVENTS``) in
    ``source``, and of each ``return`` with a value in its ``advance`` or
    in the ``rule`` of its ``_drop`` or ``_pin``; ``(0, ...)`` if any of
    these three functions is missing, so a rename cannot pass unchecked."""
    tree = ast.parse(source)
    found = [(node.lineno, repr(node.value)) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in harness._EVENTS]
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    checked = [f for f in functions if f.name == "advance"]
    checked += [rule for f in functions if f.name in ("_drop", "_pin")
                for rule in f.body if isinstance(rule, ast.FunctionDef) and rule.name == "rule"]
    if len(checked) != 3:
        found.append((0, f"{len(checked)} of advance, _drop's rule and _pin's rule found"))
    found += [(node.lineno, ast.unparse(node)) for f in checked for node in ast.walk(f)
              if isinstance(node, ast.Return) and node.value is not None]
    return sorted(found)


class TestTraceVocabularyInHarness:
    """The trace's event names live in ``harness``. ``thermal`` integrates
    the device state only: ``advance`` and the governor rules leave their
    trips on the state and return nothing."""

    def test_thermal_holds_no_event_and_returns_no_events(self):
        path = Path(thermal.__file__)
        assert [f"{path.name}:{line}: {text}"
                for line, text in trace_vocabulary(path.read_text())] == []

    def test_the_check_finds_event_strings_and_returned_values(self):
        source = (
            'ON = "throttle_on"\n'
            'label = "throttle_on_time"\n'
            "def advance(state, source, dt):\n"
            "    if dt:\n"
            "        return\n"
            "    return []\n"
            "def _drop(profile, power):\n"
            "    def band(state):\n"
            "        return 1\n"
            "    def rule(state):\n"
            "        return None\n"
            "    return band, rule, 0.0\n"
            "def _pin(profile, power):\n"
            "    def rule(state):\n"
            "        return 'none'\n"
            "    return None, rule, 0.0\n"
            "def rule(state):\n"
            "    return 'shift_to_small'\n"
        )
        assert trace_vocabulary(source) == [
            (1, "'throttle_on'"), (6, "return []"), (11, "return None"), (15, "'none'"),
            (15, "return 'none'"), (18, "'shift_to_small'")]
        assert trace_vocabulary("def advance(state, source, dt):\n    pass\n") == [
            (0, "1 of advance, _drop's rule and _pin's rule found")]


def suite_hour(suite_name, seed, baseline):
    config = {"suite": suite_name, "seed": seed, "duration": 3600.0}
    if not baseline:
        config["controller"] = "default"
    return run_scenario(build_scenario(config))


def live_replay():
    """``live_run`` over the seed-0 phone hour: freq, latency and idle are blank."""
    scenario = phone_scenario(duration=3600.0, seed=0)
    return live_run(ReplaySource.from_trace(run_scenario(scenario)), scenario.controller,
                    period=0.25, sleep=lambda s: None, clock=fake_clock())


def pinned_hours():
    """Two hours of the pi-sweep device with no controller: freq sags row by row."""
    return run_scenario(dataclasses.replace(pi_sweep_scenario(), controller=None,
                                            duration=7200.0))


EVENTS = tuple(harness._EVENTS)


def hand_built(finite):
    """Records that hold signed zeros, int and bool values and every pattern of
    blank optional columns, with nan and infinities unless ``finite``; each
    tail comes back with the other zero sign, and the whole list twice."""
    rng = random.Random(25)
    optional = [None, 0.0, -0.0, 0, False, 1, True, 2.86, -1.5, 1e-300]
    required = [0.0, -0.0, 0, 3, 72.5, -40.25, 1e300]
    if not finite:
        optional += [math.nan, math.inf, -math.inf]
        required += [math.nan, -math.inf]
    records = []
    for i, blanks in enumerate(itertools.product((False, True), repeat=5)):
        for _ in range(8):
            avg, grad, freq, latency, idle = (None if blank else rng.choice(optional[1:])
                                              for blank in blanks)
            records.append(TraceRecord(rng.choice(required), rng.choice(required), avg, grad,
                                       freq, rng.choice(list(Mode)), latency, idle,
                                       EVENTS[i % 5], rng.choice(required[:4])))
    for _ in range(400):
        records.append(TraceRecord(*(rng.choice(required) for _ in range(2)),
                                   *(rng.choice(optional) for _ in range(3)),
                                   rng.choice(list(Mode)), rng.choice(optional),
                                   rng.choice(optional), rng.choice(EVENTS),
                                   rng.choice(required)))
    flipped = [dataclasses.replace(r, **{name: -value for name in ("freq", "inference_latency",
                                                                  "idle", "overhead")
                                         if (value := getattr(r, name)) == 0.0
                                         and type(value) is float})
               for r in records]
    return Trace(records + flipped + records)


def twin(value):
    """A distinct object equal to ``value`` that may format otherwise: a zero
    of the other sign, a new nan or infinity, an int for a bool and the
    other way round, a float for any other int. None has no twin."""
    if value is None:
        return None
    if type(value) is bool:
        return int(value)
    if type(value) is int:
        return bool(value) if value in (0, 1) else float(value)
    return -value if value == 0 else value + 0.0  # a new float object, nan and inf included


def with_neighbours():
    """Each record of ``hand_built(finite=False)``, then a copy that holds
    its very tail objects, then one whose ``freq``, ``inference_latency``
    and ``idle`` are their twins."""
    records = []
    for r in hand_built(finite=False):
        records += [r, dataclasses.replace(r),
                    dataclasses.replace(r, **{name: twin(getattr(r, name))
                                              for name in ("freq", "inference_latency", "idle")})]
    return Trace(records)


CORPUS = {
    **{f"{name}-{seed}-{'baseline' if baseline else 'controller'}":
       (lambda name=name, seed=seed, baseline=baseline: suite_hour(name, seed, baseline))
       for name in SUITE_NAMES for seed in (0, 8675309) for baseline in (False, True)},
    "live-replay": live_replay,
    "pinned-2h": pinned_hours,
    "hand-built-finite": lambda: hand_built(finite=True),
    "hand-built": lambda: hand_built(finite=False),
    "hand-built-neighbours": with_neighbours,
}
NOT_FINITE = {"hand-built", "hand-built-neighbours"}  # whose parse is refused


def parse_outcome(parse, path, *lines):
    """The bits of every record ``parse`` gives, or the message it raises."""
    try:
        return [record_bits(r) for r in parse(path, *lines)]
    except TraceFormatError as exc:
        return str(exc)


def reference_parse(path):
    with open(path) as fh:
        return reference_parse_lines(path, fh)


class TestTraceCsvLockstep:
    """``emit_trace`` formats each distinct tail once and ``parse_trace``
    converts each distinct tail text once; both equal the ten-column
    reference forms byte for byte and bit for bit."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_bytes_and_records_equal_the_reference(self, tmp_path, name):
        trace = CORPUS[name]()
        path = tmp_path / "t.csv"
        emit_trace(trace, path)
        with open(path, newline="") as fh:
            assert fh.read() == reference_csv_text(trace)
        outcome = parse_outcome(parse_trace, path)
        assert outcome == parse_outcome(reference_parse, path)
        assert isinstance(outcome, str) if name in NOT_FINITE else len(outcome) == len(trace)

    def test_each_row_before_and_after_its_tail_is_seen(self, tmp_path):
        """Every hand-built row, non-finite ones included, read as the first
        row and again after a finite row with the same tail text (freq to
        event), gives the reference's records or message."""
        path = tmp_path / "t.csv"
        emit_trace(hand_built(finite=False), path)
        header, *rows = path.read_text().splitlines(keepends=True)
        cached = 0  # rows read after a good row with their tail
        for row in dict.fromkeys(rows):
            seen = ",".join(["1", "50", "", "", *row.split(",")[4:9], "0\n"])
            for lines in ([header, row], [header, seen, row]):
                outcome = parse_outcome(harness._parse_lines, path, lines)
                assert outcome == parse_outcome(reference_parse_lines, path, lines)
            cached += isinstance(parse_outcome(harness._parse_lines, path, [header, seen]), list)
        assert 100 < cached < len(set(rows))

    def test_hand_built_corpus_covers_the_cases(self):
        trace = hand_built(finite=False)
        values = [getattr(r, name) for r in trace
                  for name in ("freq", "inference_latency", "idle", "overhead")]
        assert {math.copysign(1.0, v) for v in values if v == 0.0 and type(v) is float} == {
            -1.0, 1.0}
        assert any(v != v for v in values)
        assert {type(v) for v in values} >= {float, int, bool, type(None)}
        blanks = {tuple(getattr(r, name) is None for name in ("avg_temp", "grad", "freq",
                                                              "inference_latency", "idle"))
                  for r in trace}
        assert len(blanks) == 32

    def test_neighbours_share_tail_objects_or_only_equal_values(self):
        """``with_neighbours`` puts rows whose tail fields are the very
        objects of the row before next to rows whose fields are only equal
        to them across a zero's sign, a nan object and a type."""
        trace = with_neighbours()
        tail = ("freq", "mode", "inference_latency", "idle", "event")
        same = twins = 0
        kinds = set()
        for before, r in zip(trace, trace[1:]):
            pairs = [(getattr(before, name), getattr(r, name)) for name in tail]
            if all(a is b for a, b in pairs):
                same += 1
            elif all(a == b or a != a and b != b for a, b in pairs):
                twins += 1
                for a, b in pairs:
                    if a is not b:
                        kinds.add("type" if type(a) is not type(b) else
                                  "nan" if a != a else
                                  "sign" if math.copysign(1.0, a) != math.copysign(1.0, b) else
                                  "object")
        assert same >= len(trace) // 3
        assert twins > len(trace) // 6
        assert kinds >= {"type", "nan", "sign"}
