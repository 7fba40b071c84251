"""Golden digests of written outputs: a change that should leave every
trace and grid byte-identical must keep these sha256 values.

Summary JSON is left out: ``avg_latency`` is a ``sum()``, which rounds
differently from Python 3.12 on.
"""

import hashlib

import pytest

from thermoshift.analysis import ablation_grid
from thermoshift.config import build_scenario
from thermoshift.harness import emit_trace, run_scenario

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


@pytest.mark.parametrize("seed", sorted(PIN_GRID_SHA256))
def test_pi_pin_grid(tmp_path, seed):
    scenario = build_scenario({"suite": "slimmable-resnet50-pi", "seed": seed,
                               "controller": "default", "duration": PIN_CELL_S,
                               "device": {"calibration": PIN_CALIBRATION}})
    out = tmp_path / "grid.csv"
    ablation_grid(scenario, PIN_TEMPS, PIN_GRADS, duration=PIN_CELL_S).to_csv(out)
    assert sha256_of(out) == PIN_GRID_SHA256[seed]
