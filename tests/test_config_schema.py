"""The config schema comes from the dataclass fields: round trips, exact
problem lists (the loader's and each dataclass's own), oversized numbers
and a problem order that does not depend on the hash seed."""

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import thermoshift
from thermoshift import config
from thermoshift.cli import main
from thermoshift.config import build_scenario, load_scenario
from thermoshift.controller import ControllerConfig
from thermoshift.errors import ConfigFileError, ScenarioError, ThermoshiftError
from thermoshift.suites import PHONE_PROFILE, PROFILES, SUITES
from thermoshift.thermal import CalibrationTargets, DeviceProfile, GovernorKind, calibrate_profile
from thermoshift.workload import ModelVariant, PacingPolicy

SUITE = "slimmable-resnet50-phone"
BIG = {"name": "big", "base_latency": 0.4, "power_nominal": 7.0, "accuracy": 0.8}
LITTLE = {"name": "little", "base_latency": 0.1, "power_nominal": 4.0, "accuracy": 0.6}
PROFILE = {"heat_capacity": 30.0, "dissipation": 0.2, "ambient_temp": 20.0, "f_nominal": 2.0,
           "f_throttled": 1.0, "t_throttle": 75.0, "t_resume": 70.0}
GOVERNORS = "['phone-drop', 'pi-pin']"
# A 401-digit integer: valid JSON, too large for a float.
HUGE = 10 ** 400


def base(**overrides):
    cfg = {"suite": SUITE, "duration": 900}
    cfg.update(overrides)
    return cfg


def inline(large, small, **overrides):
    cfg = {"suite": {"large": large, "small": small}, "platform": "phone", "duration": 900}
    cfg.update(overrides)
    return cfg


def as_json(obj):
    """A dataclass as a config object: enums by value, tuples as lists.

    A None field is left out: absent means the dataclass default, and
    the schema takes numbers only.
    """
    data = json.loads(json.dumps(asdict(obj), default=lambda member: member.value))
    return {key: value for key, value in data.items() if value is not None}


def problems_of(cfg):
    with pytest.raises(ConfigFileError) as err:
        build_scenario(cfg)
    return err.value.problems


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_builtin_profile(self, name):
        scenario = build_scenario(base(device={"profile": as_json(PROFILES[name])}))
        assert scenario.profile == PROFILES[name]

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite_variants_controller_and_pacing(self, name):
        suite = SUITES[name]
        scenario = build_scenario({
            "suite": {"large": as_json(suite.large), "small": as_json(suite.small)},
            "platform": suite.platform.value,
            "duration": 60,
            "controller": as_json(suite.controller),
            "pacing": as_json(suite.pacing),
        })
        assert scenario.large == suite.large
        assert scenario.small == suite.small
        assert scenario.controller == suite.controller
        assert scenario.pacing == suite.pacing

    @pytest.mark.parametrize("targets", [
        CalibrationTargets(),
        replace(CalibrationTargets(), ambient=20.0, trip_temp=80.0, temp_threshold=75.0,
                time_to_throttle=500.0, time_window=(200.0, 800.0), small_equilibrium=60.0,
                governor=GovernorKind.PI_PIN, f_nominal=1.5, f_throttled=0.6,
                resume_temp=74.0, dissipation=0.1, latency_rise=0.05, sticky_margin=2.0,
                large_power=6.0, small_power=4.0),
    ], ids=["defaults", "every-field-set"])
    def test_calibration_targets(self, monkeypatch, targets):
        seen = []

        def calibrate(built):
            seen.append(built)
            return SimpleNamespace(profile=PHONE_PROFILE)

        monkeypatch.setattr(config, "calibrate_profile", calibrate)
        build_scenario(base(device={"calibration": as_json(targets)}))
        assert seen == [targets]

    def test_calibration_nulls_are_the_defaults(self, monkeypatch, tmp_path):
        # asdict keeps the None of the float | None fields: they load as JSON null.
        data = json.loads(json.dumps(asdict(CalibrationTargets()),
                                     default=lambda member: member.value))
        assert [key for key, value in data.items() if value is None] == [
            "resume_temp", "large_power", "small_power"]
        seen = []

        def calibrate(built):
            seen.append(built)
            return calibrate_profile(built)

        monkeypatch.setattr(config, "calibrate_profile", calibrate)
        path = tmp_path / "nulls.json"
        path.write_text(json.dumps(base(device={"calibration": data})))
        assert '"large_power": null' in path.read_text()
        with_nulls = load_scenario(str(path)).profile
        assert seen == [CalibrationTargets()]
        assert with_nulls == build_scenario(base(device={"calibration": {}})).profile


# Each row is a config and its exact problem list. Where a row differs
# from the hand-kept key sets this schema replaced, the comment says how.
EXACT_PROBLEMS = [
    ("top-level", {"suite": SUITE, "zeta": 1, "alpha": 2},
     ["alpha: unknown key", "zeta: unknown key", "duration: missing required key"]),
    ("missing-suite", {"duration": 900},
     ["suite: missing required key",
      "platform: required when the suite is not a built-in name"]),
    ("suite-wrong-type", base(suite=5),
     ["suite: expected a name or an object, got 5",
      "platform: required when the suite is not a built-in name"]),
    ("suite-unknown-key-small-missing",
     {"suite": {"large": BIG, "medium": 1}, "platform": "pi", "duration": 900},
     ["suite.medium: unknown key", "suite.small: missing required key"]),
    ("variant-not-an-object", inline([1], LITTLE), ["suite.large: expected an object"]),
    # Was "suite.large.name: expected a string".
    ("variant-missing-name", inline({k: v for k, v in BIG.items() if k != "name"}, LITTLE),
     ["suite.large.name: missing required key"]),
    # A non-string name no longer hides the other problems.
    ("variant-name-and-number", inline({**BIG, "name": 7, "base_latency": "x"}, LITTLE),
     ["suite.large.name: expected a string",
      "suite.large.base_latency: expected a number, got 'x'"]),
    ("variant-missing-numbers", inline({"name": "big", "shift_mean": "1"}, LITTLE),
     ["suite.large.base_latency: missing required key",
      "suite.large.power_nominal: missing required key",
      "suite.large.accuracy: missing required key",
      "suite.large.shift_mean: expected a number, got '1'"]),
    ("variant-unknown-key-and-range", inline({**BIG, "accuracy": 2, "colour": "red"}, LITTLE),
     ["suite.large.colour: unknown key",
      "suite.large: variant 'big': accuracy must be in [0, 1], got 2"]),
    # Was one "suite.large: variant 'big': ...; ..." line.
    ("variant-two-ranges", inline({**BIG, "base_latency": 0, "accuracy": 2}, LITTLE),
     ["suite.large: variant 'big': base_latency must be > 0, got 0",
      "suite.large: variant 'big': accuracy must be in [0, 1], got 2"]),
    ("variant-boolean", inline(BIG, {**LITTLE, "power_nominal": True}),
     ["suite.small.power_nominal: expected a number, got True"]),
    # Was 'platform: expected "phone" or "pi", got \'tv\'' (the governor wording now).
    ("platform", {"suite": {"large": BIG, "small": LITTLE}, "platform": "tv", "duration": 900},
     ["platform: expected one of ['phone', 'pi'], got 'tv'",
      "platform: required when the suite is not a built-in name"]),
    # A built-in suite keeps its own platform, which is not also missing.
    ("platform-with-builtin-suite", base(platform="tv"),
     ["platform: expected one of ['phone', 'pi'], got 'tv'"]),
    ("duration-string", base(duration="1h"), ["duration: expected a number, got '1h'"]),
    ("duration-zero", base(duration=0), ["duration: must be > 0, got 0"]),
    ("duration-minus-inf", base(duration=-math.inf), ["duration: must be > 0, got -inf"]),
    ("duration-inf", base(duration=math.inf), ["duration: must be finite, got inf"]),
    ("duration-nan", base(duration=math.nan), ["duration: must be finite, got nan"]),
    ("seed-and-flags", base(seed=True, weight_sharing="yes", logging_overhead=0),
     ["seed: expected an integer, got True", "weight_sharing: expected a boolean",
      "logging_overhead: expected a boolean"]),
    ("device-not-an-object", base(device="phone"), ["device: expected an object"]),
    ("device-two-modes", base(device={"builtin": "pi", "profile": PROFILE, "x": 1}),
     ["device.x: unknown key",
      "device: give exactly one of builtin / profile / calibration"]),
    ("builtin-unknown", base(device={"builtin": "laptop"}),
     ["device.builtin: unknown profile 'laptop'; choose from phone, pi"]),
    # Was "device.builtin: unhashable type: 'list'".
    ("builtin-not-a-string", base(device={"builtin": [1]}),
     ["device.builtin: expected a name, got [1]"]),
    ("profile-not-an-object", base(device={"profile": 3}),
     ["device.profile: expected an object"]),
    # Field order, not hash order; a present but bad key is not also
    # listed as missing.
    ("profile-three-strings", base(device={"profile": {
        **PROFILE, "heat_capacity": "a", "dissipation": "b", "ambient_temp": "c"}}),
     ["device.profile.heat_capacity: expected a number, got 'a'",
      "device.profile.dissipation: expected a number, got 'b'",
      "device.profile.ambient_temp: expected a number, got 'c'"]),
    # Was one "device.profile: missing required keys: ..." line.
    ("profile-missing-keys", base(device={"profile": {"heat_capacity": 30.0, "t_resume": 70.0}}),
     ["device.profile.dissipation: missing required key",
      "device.profile.ambient_temp: missing required key",
      "device.profile.f_nominal: missing required key",
      "device.profile.f_throttled: missing required key",
      "device.profile.t_throttle: missing required key"]),
    ("profile-governor", base(device={"profile": {**PROFILE, "governor": "turbo"}}),
     [f"device.profile.governor: expected one of {GOVERNORS}, got 'turbo'"]),
    ("profile-range", base(device={"profile": {**PROFILE, "f_throttled": 3.0}}),
     ["device.profile: need 0 < f_throttled < f_nominal, got 3.0 / 2.0"]),
    # Was one "device.profile: ...; ..." line.
    ("profile-two-ranges", base(device={"profile": {**PROFILE, "heat_capacity": -1,
                                                    "idle_power": -1}}),
     ["device.profile: heat_capacity must be > 0, got -1",
      "device.profile: idle_power must be >= 0, got -1"]),
    ("profile-unknown-key-and-range",
     base(device={"profile": {**PROFILE, "t_resume": 80.0, "fan": True}}),
     ["device.profile.fan: unknown key",
      "device.profile: t_resume must sit below t_throttle, got 80.0 / 75.0"]),
    # A bad value keeps the profile from being built, so the given
    # pin_gain is no longer also reported as "pi-pin governor needs
    # pin_gain > 0".
    ("profile-bad-pin-gain",
     base(device={"profile": {**PROFILE, "governor": "pi-pin", "pin_gain": "x"}}),
     ["device.profile.pin_gain: expected a number, got 'x'"]),
    ("calibration-not-an-object", base(device={"calibration": None}),
     ["device.calibration: expected an object"]),
    # Was "device.calibration.governor: bad value 'turbo'".
    ("calibration-governor", base(device={"calibration": {"governor": "turbo"}}),
     [f"device.calibration.governor: expected one of {GOVERNORS}, got 'turbo'"]),
    # Field order, not hash order (and the governor wording above).
    ("calibration-several", base(device={"calibration": {
        "time_window": [1], "trip_temp": "hot", "ambient": None, "governor": 1,
        "large_power": False}}),
     ["device.calibration.ambient: expected a number, got None",
      "device.calibration.trip_temp: expected a number, got 'hot'",
      "device.calibration.time_window: expected [low, high]",
      f"device.calibration.governor: expected one of {GOVERNORS}, got 1",
      "device.calibration.large_power: expected a number, got False"]),
    # Was one "device.calibration: ...; ..." line.
    ("calibration-two-non-finite",
     base(device={"calibration": {"ambient": math.nan, "trip_temp": math.inf}}),
     ["device.calibration: ambient must be finite, got nan",
      "device.calibration: trip_temp must be finite, got inf"]),
    ("calibration-unknown-key", base(device={"calibration": {"trip": 77}}),
     ["device.calibration.trip: unknown key"]),
    # Each section is checked on its own values, so an earlier problem
    # hides no later one.
    ("calibration-after-a-problem",
     base(zeta=1, device={"calibration": {"large_power": 5.0, "small_power": 6.0}}),
     ["zeta: unknown key",
      "device.calibration: small-model power 6.00 W is not below large-model power 5.00 W"]),
    ("calibration-infeasible", base(device={"calibration": {"large_power": 5.0,
                                                           "small_power": 6.0}}),
     ["device.calibration: small-model power 6.00 W is not below large-model power 5.00 W"]),
    ("controller-string", base(controller="fast"),
     ['controller: expected an object, "default", or omit for baseline']),
    ("controller-default-inline", inline(BIG, LITTLE, controller="default"),
     ['controller: "default" needs a built-in suite']),
    ("controller-thresholds-required", base(controller={"temp_smoothing": 0.9}),
     ["controller.temp_threshold: missing required key",
      "controller.grad_threshold: missing required key"]),
    ("controller-bad-values", base(controller={"temp_threshold": "73", "grad_threshold": -0.07,
                                               "per_second": 1, "literal_init": "no"}),
     ["controller.temp_threshold: expected a number, got '73'",
      "controller.per_second: expected a boolean",
      "controller.literal_init: expected a boolean"]),
    ("controller-range", base(controller={"temp_threshold": 73, "grad_threshold": -0.07,
                                          "temp_smoothing": 1.5}),
     ["controller: temp_smoothing must be in (0, 1), got 1.5"]),
    # Was one "controller: ...; ..." line.
    ("controller-two-ranges", base(controller={"temp_threshold": 73, "grad_threshold": -0.07,
                                               "temp_smoothing": 1.5, "grad_smoothing": 1.5}),
     ["controller: temp_smoothing must be in (0, 1), got 1.5",
      "controller: grad_smoothing must be in (0, 1), got 1.5"]),
    ("controller-after-a-problem",
     base(duration=0, controller={"temp_threshold": 73, "grad_threshold": -0.07,
                                  "temp_smoothing": 1.5}),
     ["duration: must be > 0, got 0",
      "controller: temp_smoothing must be in (0, 1), got 1.5"]),
    ("pacing-not-an-object", base(pacing=[1]), ["pacing: expected an object"]),
    # Was 'expected a number, "large", or null, got ...': "large" is
    # read before the fields are checked.
    ("pacing-target", base(pacing={"target_period": "small", "gap": 1}),
     ["pacing.gap: unknown key",
      "pacing.target_period: expected a number, got 'small'"]),
    ("pacing-range", base(pacing={"latency_multiplier": 0.5}),
     ["pacing: latency_multiplier must be >= 1, got 0.5"]),
    # Was one "pacing: ...; ..." line.
    ("pacing-both-ranges", base(pacing={"target_period": -1, "latency_multiplier": 0.5}),
     ["pacing: latency_multiplier must be >= 1, got 0.5",
      "pacing: target_period must be > 0, got -1"]),
    ("pacing-multiplier-string", base(pacing={"latency_multiplier": "2"}),
     ["pacing.latency_multiplier: expected a number, got '2'"]),
    # Field order, as in every other section (was the other way round).
    ("pacing-two-types", base(pacing={"latency_multiplier": "2", "target_period": "x"}),
     ["pacing.target_period: expected a number, got 'x'",
      "pacing.latency_multiplier: expected a number, got '2'"]),
    # "large" is set from a built policy, so a bad multiplier is no longer
    # reported twice (was also "target_period must be > 0, got 0.0").
    ("pacing-large-and-range", base(pacing={"target_period": "large",
                                            "latency_multiplier": 0}),
     ["pacing: latency_multiplier must be >= 1, got 0"]),
    ("pacing-after-a-problem", base(duration=0, pacing={"latency_multiplier": 0.5}),
     ["duration: must be > 0, got 0", "pacing: latency_multiplier must be >= 1, got 0.5"]),
    # The platform picks only the default profile; a given one is checked.
    ("profile-without-platform",
     {"suite": {"large": BIG, "small": LITTLE}, "duration": 900,
      "device": {"profile": {**PROFILE, "f_throttled": 3.0}}},
     ["platform: required when the suite is not a built-in name",
      "device.profile: need 0 < f_throttled < f_nominal, got 3.0 / 2.0"]),
    ("every-section-bad",
     base(duration=0, device={"calibration": {"dissipation": 0, "large_power": 5}},
          controller={"temp_threshold": 73, "grad_threshold": -0.07, "temp_smoothing": 1.5},
          pacing={"latency_multiplier": 0.5}),
     ["duration: must be > 0, got 0",
      "device.calibration: dissipation must be > 0 W/C, got 0",
      "controller: temp_smoothing must be in (0, 1), got 1.5",
      "pacing: latency_multiplier must be >= 1, got 0.5"]),
]


@pytest.mark.parametrize("cfg, problems",
                         [pytest.param(cfg, problems, id=name)
                          for name, cfg, problems in EXACT_PROBLEMS])
def test_exact_problems(cfg, problems):
    assert problems_of(cfg) == problems


# Each dataclass built directly with two problems: the error lists them,
# and its text joins them with "; ". Only the variant's text moved: each
# of its problems now carries the "variant '<name>': " prefix.
DATACLASS_PROBLEMS = [
    ("variant", lambda: ModelVariant(**{**BIG, "base_latency": 0, "accuracy": 2}),
     ["variant 'big': base_latency must be > 0, got 0",
      "variant 'big': accuracy must be in [0, 1], got 2"]),
    ("profile", lambda: DeviceProfile(**{**PROFILE, "heat_capacity": -1, "idle_power": -1}),
     ["heat_capacity must be > 0, got -1", "idle_power must be >= 0, got -1"]),
    ("calibration", lambda: CalibrationTargets(ambient=math.nan, trip_temp=math.inf),
     ["ambient must be finite, got nan", "trip_temp must be finite, got inf"]),
    ("pacing", lambda: PacingPolicy(target_period=-1, latency_multiplier=0.5),
     ["latency_multiplier must be >= 1, got 0.5", "target_period must be > 0, got -1"]),
    ("controller", lambda: ControllerConfig(temp_smoothing=1.5, grad_smoothing=1.5),
     ["temp_smoothing must be in (0, 1), got 1.5", "grad_smoothing must be in (0, 1), got 1.5"]),
]


class TestErrorProblems:
    @pytest.mark.parametrize("build, problems",
                             [pytest.param(build, problems, id=name)
                              for name, build, problems in DATACLASS_PROBLEMS])
    def test_dataclass_lists_its_problems(self, build, problems):
        with pytest.raises(ThermoshiftError) as err:
            build()
        assert err.value.problems == problems
        assert str(err.value) == "; ".join(problems)

    @pytest.mark.parametrize("cls", [ThermoshiftError, ScenarioError, ConfigFileError])
    def test_one_message_is_a_plain_exception(self, cls):
        exc = cls("duration: must be > 0, got 0")
        assert exc.args == ("duration: must be > 0, got 0",)
        assert str(exc) == "duration: must be > 0, got 0"
        assert repr(exc) == f"{cls.__name__}('duration: must be > 0, got 0')"
        assert exc.problems == ["duration: must be > 0, got 0"]

    def test_config_file_error_has_no_prefix(self):
        exc = ConfigFileError("zeta: unknown key", "duration: missing required key")
        assert str(exc) == "zeta: unknown key; duration: missing required key"


# One config per kind of key, each with HUGE where the key names it.
OVERSIZED = {
    "duration": base(duration=HUGE),
    "device.profile.heat_capacity": base(device={"profile": {**PROFILE, "heat_capacity": HUGE}}),
    "device.calibration.large_power": base(device={"calibration": {"large_power": HUGE}}),
    "device.calibration.time_window": base(device={"calibration": {"time_window": [300, HUGE]}}),
    "controller.temp_threshold": base(controller={"temp_threshold": HUGE,
                                                  "grad_threshold": -0.07}),
    "pacing.target_period": base(pacing={"target_period": HUGE}),
    "suite.small.accuracy": inline(BIG, {**LITTLE, "accuracy": HUGE}),
}


class TestOversizedIntegers:
    @pytest.mark.parametrize("key", list(OVERSIZED))
    def test_rejected_by_key(self, key):
        assert problems_of(OVERSIZED[key]) == [f"{key}: integer too large for a float"]

    def test_cli_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"suite": "%s", "duration": 1%s}' % (SUITE, "0" * 400))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
        assert "duration: integer too large for a float" in capsys.readouterr().err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python parses integers of any length")
    def test_over_the_digit_limit_is_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        digits = sys.get_int_max_str_digits() + 1
        path.write_text('{"suite": "%s", "duration": 1%s}' % (SUITE, "0" * (digits - 1)))
        with pytest.raises(ConfigFileError) as err:
            load_scenario(str(path))
        [problem] = err.value.problems
        assert problem.startswith(f"{path}: not valid JSON: ")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2


def test_problem_order_ignores_hash_seed():
    cfg = base(device={"profile": {**PROFILE, "heat_capacity": "a", "dissipation": "b",
                                   "ambient_temp": "c"}})
    script = ("import json, sys\n"
              "from thermoshift.config import build_scenario\n"
              "from thermoshift.errors import ConfigFileError\n"
              "try:\n"
              "    build_scenario(json.loads(sys.argv[1]))\n"
              "except ConfigFileError as exc:\n"
              "    print(json.dumps(exc.problems))\n")
    src = str(Path(thermoshift.__file__).resolve().parents[1])
    lists = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, json.dumps(cfg)],
                              capture_output=True, text=True, timeout=60, env=env, check=True)
        lists.append(json.loads(done.stdout))
    assert lists[0] == lists[1] == problems_of(cfg)
    assert [p.split(":")[0] for p in lists[0]] == [
        "device.profile.heat_capacity", "device.profile.dissipation", "device.profile.ambient_temp"]
