"""Built-in model suites and device profiles.

The device profiles are desk-scale calibrations: the large model pushes
the simulated SoC over its trip point in roughly ten minutes from a cold
start, the small model's equilibrium sits well under the shift threshold,
and the phone's post-throttle equilibrium stays inside the hysteresis
band so a tripped baseline stays hot and slow. Suite latency/accuracy
constants come from on-device measurements of the packaged model pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .controller import ControllerConfig
from .thermal import DeviceProfile, GovernorKind
from .workload import ModelVariant, PacingPolicy, Platform

PHONE_PROFILE = DeviceProfile(
    heat_capacity=24.3,    # J/C -> ~200 s thermal time constant
    dissipation=0.12,      # W/C
    ambient_temp=22.0,
    f_nominal=2.86,        # GHz, big-core clock
    f_throttled=2.05,      # GHz; 1.40x latency once tripped
    t_throttle=77.0,
    t_resume=60.0,         # wide band: a tripped phone stays throttled
    governor=GovernorKind.PHONE_DROP,
    pin_gain=0.0,
    idle_power=1.0,
)

PI_PROFILE = DeviceProfile(
    heat_capacity=20.1,
    dissipation=0.10,
    ambient_temp=22.0,
    f_nominal=1.50,
    f_throttled=0.60,      # floor; the pin never gets near it
    t_throttle=78.0,
    t_resume=73.0,         # unused by pi-pin
    governor=GovernorKind.PI_PIN,
    pin_gain=0.14,         # GHz shed per deg C above trip -> ~4.5% latency rise
    idle_power=1.0,
)

PROFILES = {
    "phone": PHONE_PROFILE,
    "pi": PI_PROFILE,
}


@dataclass(frozen=True)
class Suite:
    """A large/small weight-shared pair plus its default run settings."""

    name: str
    platform: Platform
    large: ModelVariant
    small: ModelVariant
    controller: ControllerConfig
    pacing: PacingPolicy


SUITES = {
    "slimmable-resnet50-phone": Suite(
        name="slimmable-resnet50-phone",
        platform=Platform.PHONE,
        large=ModelVariant("resnet50-1.0x", base_latency=0.205, power_nominal=6.96,
                           accuracy=0.768, shift_mean=1.000, shift_std=0.252),
        small=ModelVariant("resnet50-0.25x", base_latency=0.107, power_nominal=5.28,
                           accuracy=0.638, shift_mean=0.997, shift_std=0.321),
        controller=ControllerConfig(temp_threshold=73.0, grad_threshold=-0.07),
        pacing=PacingPolicy(target_period=0.205),
    ),
    "dynabert-phone": Suite(
        name="dynabert-phone",
        platform=Platform.PHONE,
        large=ModelVariant("bert-d0.5-w0.5", base_latency=0.155, power_nominal=7.10,
                           accuracy=0.900, shift_mean=0.885, shift_std=0.066),
        # Small-model latency/accuracy back-solved from the paced run's
        # averages under inference-count weighting.
        small=ModelVariant("bert-d0.25-w0.5", base_latency=0.108, power_nominal=5.50,
                           accuracy=0.823, shift_mean=0.826, shift_std=0.016),
        controller=ControllerConfig(temp_threshold=65.0, grad_threshold=-0.008),
        # Run everything 1.4x slower so the pair reaches a workable
        # operating temperature; pad to the slowed large-model period.
        pacing=PacingPolicy(target_period=0.217, latency_multiplier=1.4),
    ),
    "slimmable-resnet50-pi": Suite(
        name="slimmable-resnet50-pi",
        platform=Platform.PI,
        large=ModelVariant("resnet50-1.0x", base_latency=1.10, power_nominal=5.90,
                           accuracy=0.768, shift_mean=0.887, shift_std=0.070),
        small=ModelVariant("resnet50-0.25x", base_latency=0.35, power_nominal=3.80,
                           accuracy=0.638, shift_mean=0.143, shift_std=0.006),
        controller=ControllerConfig(temp_threshold=77.0, grad_threshold=-0.02),
        pacing=PacingPolicy(target_period=1.10),
    ),
    "dynabert-pi": Suite(
        name="dynabert-pi",
        platform=Platform.PI,
        large=ModelVariant("bert-d0.5-w1.0", base_latency=2.20, power_nominal=5.90,
                           accuracy=0.908, shift_mean=1.527, shift_std=0.423),
        small=ModelVariant("bert-d0.5-w0.25", base_latency=0.70, power_nominal=3.50,
                           accuracy=0.856, shift_mean=0.810, shift_std=0.218),
        controller=ControllerConfig(temp_threshold=77.0, grad_threshold=-0.012),
        pacing=PacingPolicy(target_period=2.20),
    ),
}

SUITE_NAMES = tuple(sorted(SUITES))


def _lookup(table, kind, name):
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown {kind} {name!r}; choose from {', '.join(sorted(table))}") from None


def get_suite(name: str) -> Suite:
    return _lookup(SUITES, "suite", name)


def get_profile(name: str) -> DeviceProfile:
    return _lookup(PROFILES, "profile", name)


def default_profile(platform: Platform) -> DeviceProfile:
    return PROFILES[platform.value]
