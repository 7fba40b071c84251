from dataclasses import fields, replace

import pytest

from thermoshift import Scenario
from thermoshift.config import build_scenario
from thermoshift.suites import PHONE_PROFILE, PI_PROFILE, SUITES


def phone_scenario(duration=900.0, seed=1, baseline=False, **overrides):
    suite = SUITES["slimmable-resnet50-phone"]
    scenario = Scenario(
        profile=PHONE_PROFILE,
        large=suite.large,
        small=suite.small,
        controller=None if baseline else suite.controller,
        pacing=suite.pacing,
        duration=duration,
        seed=seed,
        platform=suite.platform,
    )
    return replace(scenario, **overrides) if overrides else scenario


def pi_scenario(duration=900.0, seed=1, baseline=False, **overrides):
    suite = SUITES["slimmable-resnet50-pi"]
    scenario = Scenario(
        profile=PI_PROFILE,
        large=suite.large,
        small=suite.small,
        controller=None if baseline else suite.controller,
        pacing=suite.pacing,
        duration=duration,
        seed=seed,
        platform=suite.platform,
    )
    return replace(scenario, **overrides) if overrides else scenario


# The calibrated pi-pin device of the benchmark's ``pi-sweep`` workload.
PI_SWEEP_TARGETS = {"governor": "pi-pin", "trip_temp": 78.0, "time_to_throttle": 600.0,
                    "small_equilibrium": 60.0, "f_nominal": 1.5, "f_throttled": 0.6,
                    "dissipation": 0.10}


def pi_sweep_scenario(seed=0, **controller):
    """A 1800 s cell of the pi-sweep workload; keywords override controller fields."""
    scenario = build_scenario({"suite": "slimmable-resnet50-pi", "duration": 1800.0,
                               "seed": seed, "controller": "default",
                               "device": {"calibration": PI_SWEEP_TARGETS}})
    return replace(scenario, controller=replace(scenario.controller, **controller))


def trip_point(scenario):
    """``scenario`` with its shift trip at the device's governor trip point,
    where shift rows and throttles coincide."""
    return replace(scenario, controller=replace(
        scenario.controller, temp_threshold=scenario.profile.t_throttle))


def record_bits(record):
    """Every field of a TraceRecord, floats as their hex text (so -0.0 != 0.0,
    and nan == nan)."""
    return [(type(v), v.hex() if isinstance(v, float) else v)
            for v in (getattr(record, f.name) for f in fields(record))]


def controller_bits(ctl):
    """Every attribute of a ShiftController, floats as their exact bits (so -0.0 != 0.0)."""
    return {k: (type(v), v.hex() if isinstance(v, float) else v) for k, v in vars(ctl).items()}


def state_bits(state):
    """A DeviceState's fields, floats as their hex text."""
    return (state.temp.hex(), state.freq.hex(), state.throttled, state.sim_time.hex(),
            state.trips)


@pytest.fixture
def phone_suite():
    return SUITES["slimmable-resnet50-phone"]


@pytest.fixture
def pi_suite():
    return SUITES["slimmable-resnet50-pi"]
