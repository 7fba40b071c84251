"""Pins for ideas that live in one place: the controller's filter reset,
``Trace`` as a list, ``Summary.to_dict``, the shift event names and the
live loop's pacing sleep."""

import dataclasses
import itertools
import random

import pytest

from conftest import phone_scenario

from thermoshift.analysis import Summary, summarize
from thermoshift.controller import ControllerConfig, Decision, ShiftController, TemperatureSample
from thermoshift.errors import SensorReadError, SourceExhausted
from thermoshift.harness import (
    EVENT_SHIFT_LARGE,
    EVENT_SHIFT_SMALL,
    Trace,
    emit_trace,
    parse_trace,
    run_scenario,
)
from thermoshift.sensors import ReplaySource, live_run

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
