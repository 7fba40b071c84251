"""Metamorphic relations of the closed loop: exact symmetries of the
model that any correct simulator keeps, checked end to end on every
suite, with the controller off, on, and on with its shift trip at the
governor's (``trip-point``: there the Pi suites' shifting runs raise
governor events too).

* Translation: adding D C to the ambient, both governor thresholds and
  the shift threshold moves every ``cpu_temp`` by D, up to rounding, and
  leaves every event and mode as it was.
* Scale: multiplying dissipation, heat capacity and every power by a
  power of two changes no bit of any temperature, event or mode (each
  band's rate and equilibrium are quotients of two scaled numbers).
* Prefix: a run cut at half the duration is the first rows of the full
  run.
"""

import math
from dataclasses import replace

import pytest

from conftest import trip_point

from thermoshift.config import build_scenario
from thermoshift.harness import run_scenario
from thermoshift.suites import SUITE_NAMES

HOUR_S = 3600.0
SHIFT_C = 5.0
SCALE = 2.0
# Translation keeps each cpu_temp within this many ulps of the base
# temperature plus SHIFT_C; the largest error seen is 18 ulps (2.6e-13 C,
# the phone hour with the controller off).
TRANSLATION_ULPS = 32


def hour(suite_name, controller, duration=HOUR_S):
    cfg = {"suite": suite_name, "seed": 0, "duration": duration}
    if controller != "baseline":
        cfg["controller"] = "default"
    scenario = build_scenario(cfg)
    return trip_point(scenario) if controller == "trip-point" else scenario


def translated(scenario, d):
    p = scenario.profile
    profile = replace(p, ambient_temp=p.ambient_temp + d, t_throttle=p.t_throttle + d,
                      t_resume=p.t_resume + d)
    controller = scenario.controller
    if controller is not None:
        controller = replace(controller, temp_threshold=controller.temp_threshold + d)
    return replace(scenario, profile=profile, controller=controller)


def scaled(scenario, c):
    p = scenario.profile
    profile = replace(p, dissipation=p.dissipation * c, heat_capacity=p.heat_capacity * c,
                      idle_power=p.idle_power * c)
    return replace(scenario, profile=profile,
                   large=replace(scenario.large, power_nominal=scenario.large.power_nominal * c),
                   small=replace(scenario.small, power_nominal=scenario.small.power_nominal * c))


@pytest.mark.parametrize("controller", ["baseline", "controller", "trip-point"])
@pytest.mark.parametrize("suite_name", SUITE_NAMES)
class TestMetamorphicRelations:
    def test_translation_moves_every_temperature(self, suite_name, controller):
        scenario = hour(suite_name, controller)
        base, moved = run_scenario(scenario), run_scenario(translated(scenario, SHIFT_C))
        assert len(moved) == len(base)
        for b, m in zip(base, moved):
            assert (m.event, m.mode) == (b.event, b.mode)
            assert abs(m.cpu_temp - (b.cpu_temp + SHIFT_C)) <= TRANSLATION_ULPS * math.ulp(m.cpu_temp)

    def test_scale_changes_no_temperature(self, suite_name, controller):
        scenario = hour(suite_name, controller)
        base, big = run_scenario(scenario), run_scenario(scaled(scenario, SCALE))
        assert [r.cpu_temp.hex() for r in big] == [r.cpu_temp.hex() for r in base]
        assert big == base  # events, modes and every other field too

    def test_half_run_is_a_prefix(self, suite_name, controller):
        full = run_scenario(hour(suite_name, controller))
        half = run_scenario(hour(suite_name, controller, duration=HOUR_S / 2))
        assert half == full[:len(half)]
        assert len(half) < len(full)
