"""Scenario config files: JSON schema, strict validation, scenario build.

Unknown keys are rejected and every offending key, in every section, is
reported in one pass. Units are fixed per field (seconds, watts, GHz,
degrees C), and the loaded scenario is fully deterministic given its
seed. The keys and value types of the variant, profile, calibration,
controller and pacing objects are the fields of their dataclasses.

Schema sketch::

    {
      "suite": "slimmable-resnet50-phone",           // or {"large": {...}, "small": {...}}
      "duration": 3600,                              // seconds, required
      "seed": 0,
      "platform": "phone",                           // required for inline suites
      "device": {"builtin": "phone"},                // or {"profile": {...}} or {"calibration": {...}}
      "controller": "default",                       // or {...} or absent for a baseline
      "pacing": {"target_period": "large", "latency_multiplier": 1.0},
      "weight_sharing": false,
      "logging_overhead": true
    }
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from typing import get_type_hints

from .controller import ControllerConfig
from .errors import ConfigFileError, ScenarioError, ThermoshiftError
from .harness import Scenario
from .suites import default_profile, get_profile, get_suite
from .thermal import CalibrationTargets, DeviceProfile, GovernorKind, calibrate_profile
from .workload import ModelVariant, PacingPolicy, Platform

_TOP_KEYS = {"suite", "duration", "seed", "platform", "device", "controller", "pacing",
             "weight_sharing", "logging_overhead"}


def _check_keys(section, data, allowed, problems):
    for key in sorted(set(data) - set(allowed)):
        problems.append(f"{section}.{key}: unknown key" if section else f"{key}: unknown key")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# A value check returns the value to build with, or None after appending
# a problem that names ``key``.

def _number(key, value, problems, expected="a number"):
    if not _is_number(value):
        problems.append(f"{key}: expected {expected}, got {value!r}")
        return None
    try:
        float(value)
    except OverflowError:  # an integer literal past the float range
        problems.append(f"{key}: integer too large for a float")
        return None
    return value


def _instance(kind, expected):
    def check(key, value, problems):
        if isinstance(value, kind):
            return value
        problems.append(f"{key}: expected {expected}")
        return None
    return check


def _governor(key, value, problems):
    try:
        return GovernorKind(value)
    except ValueError:
        problems.append(f"{key}: expected one of {[g.value for g in GovernorKind]}, got {value!r}")
        return None


def _window(key, value, problems):
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))):
        problems.append(f"{key}: expected [low, high]")
        return None
    ends = [_number(key, end, problems) for end in value]
    return None if None in ends else (float(ends[0]), float(ends[1]))


def _optional_number(key, value, problems):
    # null is the dataclass default of a float | None field
    return None if value is None else _number(key, value, problems)


_CHECKS = {
    float: _number, float | None: _optional_number, GovernorKind: _governor,
    bool: _instance(bool, "a boolean"), str: _instance(str, "a string"),
    tuple[float, float]: _window,
}


def _schema(cls):
    """{field name: (value check, required)} of a dataclass, in field order."""
    hints = get_type_hints(cls)
    return {f.name: (_CHECKS[hints[f.name]],
                     f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


# Built at import: a field type missing from _CHECKS fails the import.
_SCHEMAS = {cls: _schema(cls) for cls in (
    ModelVariant, DeviceProfile, CalibrationTargets, ControllerConfig, PacingPolicy)}


def _section(section, data, cls, problems, required=(), then=None):
    """Check the config object ``data`` against the fields of ``cls`` and build one.

    Reports unknown keys, then in field order every bad value and every
    missing required key (a field without a default, or one named in
    ``required``). ``cls`` is built, and passed to ``then`` if given,
    whenever none of its own values was bad or missing, whatever other
    sections reported; a ThermoshiftError raised there becomes
    ``"<section>: <message>"``. Returns None if nothing was built.
    """
    if not isinstance(data, dict):
        problems.append(f"{section}: expected an object")
        return None
    schema = _SCHEMAS[cls]
    _check_keys(section, data, schema, problems)
    clean = len(problems)
    kwargs = {}
    for key, (check, needed) in schema.items():
        if key in data:
            kwargs[key] = check(f"{section}.{key}", data[key], problems)
        elif needed or key in required:
            problems.append(f"{section}.{key}: missing required key")
    if len(problems) > clean:
        return None
    try:
        built = cls(**kwargs)
        return then(built) if then else built
    except ThermoshiftError as exc:
        problems.append(f"{section}: {exc}")
        return None


def _device(data, platform, problems):
    if data is None:
        return default_profile(platform)
    if not isinstance(data, dict):
        problems.append("device: expected an object")
        return None
    modes = [k for k in ("builtin", "profile", "calibration") if k in data]
    _check_keys("device", data, {"builtin", "profile", "calibration"}, problems)
    if len(modes) != 1:
        problems.append("device: give exactly one of builtin / profile / calibration")
        return None
    if modes[0] == "builtin":
        name = data["builtin"]
        if not isinstance(name, str):
            problems.append(f"device.builtin: expected a name, got {name!r}")
            return None
        try:
            return get_profile(name)
        except ValueError as exc:
            problems.append(f"device.builtin: {exc}")
            return None
    if modes[0] == "profile":
        return _section("device.profile", data["profile"], DeviceProfile, problems)
    return _section("device.calibration", data["calibration"], CalibrationTargets, problems,
                    then=lambda targets: calibrate_profile(targets).profile)


def _controller(data, suite_default, problems):
    if data is None:
        return None
    if data == "default":
        if suite_default is None:
            problems.append('controller: "default" needs a built-in suite')
        return suite_default
    if not isinstance(data, dict):
        problems.append('controller: expected an object, "default", or omit for baseline')
        return None
    # The dataclass defaults the thresholds; a config file must set them.
    return _section("controller", data, ControllerConfig, problems,
                    required=("temp_threshold", "grad_threshold"))


def _pacing(data, large, default, problems):
    if data is None:
        return default
    if not isinstance(data, dict):
        problems.append("pacing: expected an object")
        return None
    _check_keys("pacing", data, _SCHEMAS[PacingPolicy], problems)
    clean = len(problems)
    multiplier = _number("pacing.latency_multiplier",
                         data.get("latency_multiplier", default.latency_multiplier), problems)
    target = data.get("target_period")
    if target == "large":
        target = None if None in (large, multiplier) else large.base_latency * multiplier
    elif target is not None:
        target = _number("pacing.target_period", target, problems,
                         expected='a number, "large", or null')
    if len(problems) > clean:
        return None
    try:
        return PacingPolicy(target_period=target, latency_multiplier=multiplier)
    except ScenarioError as exc:
        problems.append(f"pacing: {exc}")
        return None


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigFileError([f"cannot read {path}: {exc}"]) from exc
    except ValueError as exc:  # JSONDecodeError, or an integer over the str-digits limit
        raise ConfigFileError([f"{path}: not valid JSON: {exc}"]) from exc


def build_scenario(cfg: dict) -> Scenario:
    """Validate a parsed config dict and build the Scenario.

    Raises ConfigFileError carrying every problem found, not just the
    first one.
    """
    problems: list[str] = []
    if not isinstance(cfg, dict):
        raise ConfigFileError(["top level: expected a JSON object"])
    _check_keys("", cfg, _TOP_KEYS, problems)

    suite = None
    large = small = None
    platform = None
    if "suite" not in cfg:
        problems.append("suite: missing required key")
    elif isinstance(cfg["suite"], str):
        try:
            suite = get_suite(cfg["suite"])
            large, small, platform = suite.large, suite.small, suite.platform
        except ValueError as exc:
            problems.append(f"suite: {exc}")
    elif isinstance(cfg["suite"], dict):
        _check_keys("suite", cfg["suite"], ("large", "small"), problems)
        variants = {}
        for key in ("large", "small"):
            if key in cfg["suite"]:
                variants[key] = _section(f"suite.{key}", cfg["suite"][key], ModelVariant, problems)
            else:
                problems.append(f"suite.{key}: missing required key")
        large, small = variants.get("large"), variants.get("small")
    else:
        problems.append(f"suite: expected a name or an object, got {cfg['suite']!r}")

    if "platform" in cfg:
        if cfg["platform"] in ("phone", "pi"):
            platform = Platform(cfg["platform"])
        else:
            problems.append(f'platform: expected "phone" or "pi", got {cfg["platform"]!r}')
    if platform is None:
        problems.append("platform: required when the suite is not a built-in name")

    duration = None
    if "duration" not in cfg:
        problems.append("duration: missing required key")
    else:
        duration = _number("duration", cfg["duration"], problems)
    if duration is not None and duration <= 0:
        problems.append(f"duration: must be > 0, got {duration}")

    seed = cfg.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        problems.append(f"seed: expected an integer, got {seed!r}")
        seed = 0

    for key in ("weight_sharing", "logging_overhead"):
        if key in cfg and not isinstance(cfg[key], bool):
            problems.append(f"{key}: expected a boolean")

    profile = _device(cfg.get("device"), platform, problems)
    controller = _controller(cfg.get("controller"),
                             suite.controller if suite else None, problems)
    pacing = _pacing(cfg.get("pacing"), large, suite.pacing if suite else PacingPolicy(),
                     problems)

    if problems:
        raise ConfigFileError(problems)

    scenario = Scenario(
        profile=profile,
        large=large,
        small=small,
        controller=controller,
        pacing=pacing,
        duration=float(duration),
        seed=seed,
        platform=platform,
        weight_shared=bool(cfg.get("weight_sharing", False)),
        logging_enabled=bool(cfg.get("logging_overhead", True)),
    )
    try:
        scenario.validate()
    except ScenarioError as exc:
        raise ConfigFileError([str(exc)]) from exc
    return scenario


def load_scenario(path) -> Scenario:
    return build_scenario(load_config(path))
