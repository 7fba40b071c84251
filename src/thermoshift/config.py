"""Scenario config files: JSON schema, strict validation, scenario build.

Unknown keys are rejected (every offending key is reported in one pass),
units are fixed per field (seconds, watts, GHz, degrees C), and the
loaded scenario is fully deterministic given its seed.

Schema sketch::

    {
      "suite": "slimmable-resnet50-phone"            // or {"large": {...}, "small": {...}}
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

from .controller import ControllerConfig
from .errors import (
    CalibrationError,
    ConfigError,
    ConfigFileError,
    ProfileError,
    ScenarioError,
)
from .harness import Scenario
from .suites import default_profile, get_profile, get_suite
from .thermal import CalibrationTargets, DeviceProfile, GovernorKind, calibrate_profile
from .workload import ModelVariant, PacingPolicy, Platform

_TOP_KEYS = {
    "suite", "duration", "seed", "platform", "device", "controller",
    "pacing", "weight_sharing", "logging_overhead",
}
_VARIANT_KEYS = {"name", "base_latency", "power_nominal", "accuracy", "shift_mean", "shift_std"}
_CONTROLLER_KEYS = {
    "temp_smoothing", "grad_smoothing", "temp_threshold", "grad_threshold",
    "per_second", "literal_init",
}
_PACING_KEYS = {"target_period", "latency_multiplier"}
_PROFILE_KEYS = {
    "heat_capacity", "dissipation", "ambient_temp", "f_nominal", "f_throttled",
    "t_throttle", "t_resume", "governor", "pin_gain", "idle_power",
}
_CALIBRATION_KEYS = {
    "ambient", "trip_temp", "temp_threshold", "time_to_throttle", "time_window",
    "small_equilibrium", "governor", "f_nominal", "f_throttled", "resume_temp",
    "dissipation", "latency_rise", "sticky_margin", "large_power", "small_power",
}


def _check_keys(section, data, allowed, problems):
    for key in sorted(set(data) - allowed):
        problems.append(f"{section}.{key}: unknown key" if section else f"{key}: unknown key")


def _number(section, data, key, problems, required=False, default=None):
    if key not in data:
        if required:
            problems.append(f"{section}.{key}: missing required key" if section
                            else f"{key}: missing required key")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{section}.{key}: expected a number, got {value!r}" if section
                        else f"{key}: expected a number, got {value!r}")
        return default
    return value


def _variant(section, data, problems):
    if not isinstance(data, dict):
        problems.append(f"{section}: expected an object")
        return None
    _check_keys(section, data, _VARIANT_KEYS, problems)
    name = data.get("name")
    if not isinstance(name, str):
        problems.append(f"{section}.name: expected a string")
        return None
    kwargs = {"name": name}
    for key in ("base_latency", "power_nominal", "accuracy"):
        kwargs[key] = _number(section, data, key, problems, required=True)
    for key in ("shift_mean", "shift_std"):
        kwargs[key] = _number(section, data, key, problems, default=0.0)
    if any(v is None for v in kwargs.values()):
        return None
    try:
        return ModelVariant(**kwargs)
    except ScenarioError as exc:
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
        try:
            return get_profile(data["builtin"])
        except (ValueError, TypeError) as exc:
            problems.append(f"device.builtin: {exc}")
            return None
    if modes[0] == "profile":
        section = data["profile"]
        if not isinstance(section, dict):
            problems.append("device.profile: expected an object")
            return None
        _check_keys("device.profile", section, _PROFILE_KEYS, problems)
        kwargs = {}
        for key in _PROFILE_KEYS - {"governor"}:
            if key in section:
                value = _number("device.profile", section, key, problems)
                if value is not None:
                    kwargs[key] = value
        if "governor" in section:
            try:
                kwargs["governor"] = GovernorKind(section["governor"])
            except ValueError:
                problems.append(
                    f"device.profile.governor: expected one of "
                    f"{[g.value for g in GovernorKind]}, got {section['governor']!r}"
                )
        missing = {"heat_capacity", "dissipation", "ambient_temp", "f_nominal",
                   "f_throttled", "t_throttle", "t_resume"} - set(kwargs)
        if missing:
            problems.append("device.profile: missing required keys: " + ", ".join(sorted(missing)))
            return None
        try:
            return DeviceProfile(**kwargs)
        except ProfileError as exc:
            problems.append(f"device.profile: {exc}")
            return None
    section = data["calibration"]
    if not isinstance(section, dict):
        problems.append("device.calibration: expected an object")
        return None
    _check_keys("device.calibration", section, _CALIBRATION_KEYS, problems)
    kwargs = {}
    for key in _CALIBRATION_KEYS - {"governor", "time_window"}:
        if key in section:
            value = _number("device.calibration", section, key, problems)
            if value is not None:
                kwargs[key] = value
    if "governor" in section:
        try:
            kwargs["governor"] = GovernorKind(section["governor"])
        except ValueError:
            problems.append(f"device.calibration.governor: bad value {section['governor']!r}")
    if "time_window" in section:
        window = section["time_window"]
        if (isinstance(window, list) and len(window) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in window)):
            kwargs["time_window"] = (float(window[0]), float(window[1]))
        else:
            problems.append("device.calibration.time_window: expected [low, high]")
    if problems:
        return None
    try:
        return calibrate_profile(CalibrationTargets(**kwargs)).profile
    except CalibrationError as exc:
        problems.append(f"device.calibration: {exc}")
        return None


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
    _check_keys("controller", data, _CONTROLLER_KEYS, problems)
    kwargs = {}
    for key in ("temp_smoothing", "grad_smoothing"):
        value = _number("controller", data, key, problems)
        if value is not None:
            kwargs[key] = value
    for key in ("temp_threshold", "grad_threshold"):
        value = _number("controller", data, key, problems, required=True)
        if value is not None:
            kwargs[key] = value
    for key in ("per_second", "literal_init"):
        if key in data:
            if not isinstance(data[key], bool):
                problems.append(f"controller.{key}: expected a boolean")
            else:
                kwargs[key] = data[key]
    if problems:
        return None
    try:
        return ControllerConfig(**kwargs)
    except ConfigError as exc:
        problems.append(f"controller: {exc}")
        return None


def _pacing(data, large, suite_default, multiplier_default, problems):
    if data is None:
        return suite_default if suite_default is not None else PacingPolicy()
    if not isinstance(data, dict):
        problems.append("pacing: expected an object")
        return None
    _check_keys("pacing", data, _PACING_KEYS, problems)
    multiplier = _number("pacing", data, "latency_multiplier", problems,
                         default=multiplier_default)
    target = data.get("target_period")
    if target == "large":
        target = large.base_latency * multiplier if large is not None else None
    elif target is not None and (isinstance(target, bool) or not isinstance(target, (int, float))):
        problems.append(f'pacing.target_period: expected a number, "large", or null, got {target!r}')
        target = None
    if problems:
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
    except json.JSONDecodeError as exc:
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
        extra = set(cfg["suite"]) - {"large", "small"}
        for key in sorted(extra):
            problems.append(f"suite.{key}: unknown key")
        if "large" in cfg["suite"]:
            large = _variant("suite.large", cfg["suite"]["large"], problems)
        else:
            problems.append("suite.large: missing required key")
        if "small" in cfg["suite"]:
            small = _variant("suite.small", cfg["suite"]["small"], problems)
        else:
            problems.append("suite.small: missing required key")
    else:
        problems.append(f"suite: expected a name or an object, got {cfg['suite']!r}")

    if "platform" in cfg:
        if cfg["platform"] in ("phone", "pi"):
            platform = Platform(cfg["platform"])
        else:
            problems.append(f'platform: expected "phone" or "pi", got {cfg["platform"]!r}')
    if platform is None:
        problems.append("platform: required when the suite is not a built-in name")

    duration = _number("", cfg, "duration", problems, required=True)
    if duration is not None and duration <= 0:
        problems.append(f"duration: must be > 0, got {duration}")

    seed = cfg.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        problems.append(f"seed: expected an integer, got {seed!r}")
        seed = 0

    for key in ("weight_sharing", "logging_overhead"):
        if key in cfg and not isinstance(cfg[key], bool):
            problems.append(f"{key}: expected a boolean")

    profile = None
    if platform is not None:
        profile = _device(cfg.get("device"), platform, problems)
    controller = _controller(cfg.get("controller"),
                             suite.controller if suite else None, problems)
    pacing = _pacing(cfg.get("pacing"), large,
                     suite.pacing if suite else None,
                     suite.pacing.latency_multiplier if suite else 1.0,
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
