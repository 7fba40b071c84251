"""Golden digests of written outputs: a change that should leave every
trace and grid byte-identical must keep these sha256 values.

Summary JSON is left out: ``avg_latency`` is a ``sum()``, which rounds
differently from Python 3.12 on.
"""

import hashlib
import itertools

import pytest

from conftest import trip_point

from thermoshift.analysis import ablation_grid
from thermoshift.config import build_scenario
from thermoshift.harness import emit_trace, run_scenario
from thermoshift.sensors import ReplaySource, live_run

# The pi-pin device that ``device.calibration`` builds for the pi-sweep
# benchmark workload and the CI ablate check.
PIN_CALIBRATION = {
    "governor": "pi-pin",
    "trip_temp": 78.0,
    "time_to_throttle": 600.0,
    "small_equilibrium": 60.0,
    "f_nominal": 1.5,
    "f_throttled": 0.6,
    "dissipation": 0.10,
}
PIN_TEMPS = (79.0, 77.0, 75.0, 73.0)
PIN_GRADS = (-0.005, -0.01, -0.02, -0.04)
PIN_CELL_S = 1800.0

PHONE_HOUR_SHA256 = {
    0: "df473678475137f9ee88b37331c9e07615949c2cf66a6a7e32744a0780958e97",
    8675309: "235258152df2d255393b870dde28b07de1fdb63e04d7d8655e07c83f230dc520",
}
# Controller off: the governor throttles 9,711 of the phone hour's 12,341
# rows and 2,443 of the pi hour's 2,950 (seed 0), so these pin the
# throttled trajectory that the golden phone hour above never reaches.
BASELINE_HOUR_SHA256 = {
    ("slimmable-resnet50-phone", 0):
        "7a42f68f4178effc495ce591030ae2571a7a7e4998d3ad93c0e898097d3d749b",
    ("slimmable-resnet50-phone", 8675309):
        "68a2f3b4c05b00ae36da2bf573863c78e9970606e333282adf40dd7ee0f9dc8a",
    ("slimmable-resnet50-pi", 0):
        "a7916f2275e399c2edcd541ebb1f654ec63dc07d709a6f6297b5f51070cc7867",
    ("slimmable-resnet50-pi", 8675309):
        "2ca2967c51667cfb8873d1807e5b864d3647eeb430288bda9db33bcbe791ff36",
}
# ``live_run`` replaying the golden phone hour's readings through the
# suite controller: one row per poll, with blank freq, latency and idle.
LIVE_REPLAY_SHA256 = {
    0: "ba4d19657bd8b00bfe1640f1236998c83e5aa2ae04911561ee86abb387c54845",
    8675309: "8a3f2fa3e71850843260e031c573e149c69070e64693cba67c03334ff677e917",
}
# The phone hour with each opt-in controller mode on, at the suite's
# thresholds: no default config turns either mode on.
OPT_IN_HOUR_SHA256 = {
    ("per_second", 0): "b2dc672a775ec47914fa600df0d153b84cc8b9edccf64ccb9df3ee0da0b19563",
    ("per_second", 8675309): "a52546bdf5cd52807776d95f9460a96ed63b1fd89cf03ad7ddeb5aa4f9479f1c",
    ("literal_init", 0): "1ac27d54d907a40d53a953c5ea65a7be602f7e8a471764e97b8bf0a394817cd9",
    ("literal_init", 8675309): "7d3a5aaa2c0691e1d093d138783af5073588ee7c8e5aa7b678ab7c5e5c0e8005",
}
# Each pi suite's 1800 s run with its shift trip at the device's trip
# point: governor events wait behind shift rows (41 throttle_on rows for
# slimmable-resnet50-pi, 21 for dynabert-pi, seed 0). The CI CLI check
# pins the first digest on its trip.csv.
TRIP_POINT_SHA256 = {
    ("slimmable-resnet50-pi", 0):
        "b620d5d897a1f7d8610f8c9bed895b373fc1f6b9671fe4a30cfda50bb29f84ab",
    ("slimmable-resnet50-pi", 8675309):
        "a7780edc034940c05b0b630c6de6a592c3cb8b4c754041c690bed601dae362e3",
    ("dynabert-pi", 0):
        "d414f58dfc5e2217b457c543b65bc76ddb602e4a8c579f45fe2557047ebd6c94",
    ("dynabert-pi", 8675309):
        "7422ad4c8ba53dcec2d040438e23f123d08916f14b8ccbaa624df8749e677e7f",
}
PIN_GRID_SHA256 = {
    0: "423e0652c638c27cdfa7c4b23353978c3fc08792d53b950a5d78d84fd6894042",
    8675309: "a3e3dc4175ba8028fc8e088dc3795078e8e0c04cefcf2886b0c770e20503ed37",
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(PHONE_HOUR_SHA256))
def test_phone_hour_trace(tmp_path, seed):
    scenario = build_scenario({"suite": "slimmable-resnet50-phone", "seed": seed,
                               "controller": "default", "duration": 3600.0})
    out = tmp_path / "trace.csv"
    emit_trace(run_scenario(scenario), out)
    assert sha256_of(out) == PHONE_HOUR_SHA256[seed]


@pytest.mark.parametrize("mode, seed", sorted(OPT_IN_HOUR_SHA256))
def test_opt_in_mode_hour_trace(tmp_path, mode, seed):
    scenario = build_scenario({"suite": "slimmable-resnet50-phone", "seed": seed,
                               "duration": 3600.0,
                               "controller": {"temp_threshold": 73.0, "grad_threshold": -0.07,
                                              mode: True}})
    out = tmp_path / "trace.csv"
    emit_trace(run_scenario(scenario), out)
    assert sha256_of(out) == OPT_IN_HOUR_SHA256[mode, seed]


@pytest.mark.parametrize("seed", sorted(LIVE_REPLAY_SHA256))
def test_live_replay_trace(tmp_path, seed):
    scenario = build_scenario({"suite": "slimmable-resnet50-phone", "seed": seed,
                               "controller": "default", "duration": 3600.0})
    ticks = itertools.count()
    live = live_run(ReplaySource.from_trace(run_scenario(scenario)), scenario.controller,
                    period=0.25, sleep=lambda s: None, clock=lambda: float(next(ticks)))
    out = tmp_path / "live.csv"
    emit_trace(live, out)
    assert sha256_of(out) == LIVE_REPLAY_SHA256[seed]


@pytest.mark.parametrize("suite, seed", sorted(BASELINE_HOUR_SHA256))
def test_baseline_hour_trace(tmp_path, suite, seed):
    scenario = build_scenario({"suite": suite, "seed": seed, "duration": 3600.0})
    out = tmp_path / "trace.csv"
    emit_trace(run_scenario(scenario), out)
    assert sha256_of(out) == BASELINE_HOUR_SHA256[suite, seed]


@pytest.mark.parametrize("suite, seed", sorted(TRIP_POINT_SHA256))
def test_trip_point_trace(tmp_path, suite, seed):
    scenario = trip_point(build_scenario({"suite": suite, "seed": seed,
                                          "controller": "default", "duration": 1800.0}))
    out = tmp_path / "trace.csv"
    emit_trace(run_scenario(scenario), out)
    assert sha256_of(out) == TRIP_POINT_SHA256[suite, seed]


@pytest.mark.parametrize("seed", sorted(PIN_GRID_SHA256))
def test_pi_pin_grid(tmp_path, seed):
    scenario = build_scenario({"suite": "slimmable-resnet50-pi", "seed": seed,
                               "controller": "default", "duration": PIN_CELL_S,
                               "device": {"calibration": PIN_CALIBRATION}})
    out = tmp_path / "grid.csv"
    ablation_grid(scenario, PIN_TEMPS, PIN_GRADS, duration=PIN_CELL_S).to_csv(out)
    assert sha256_of(out) == PIN_GRID_SHA256[seed]
