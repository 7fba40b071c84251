"""Inference-loop model: variants, latency scaling, pacing, and overheads.

Latency follows a fixed-cycle-count model (latency scales with 1/f), and
dynamic power scales linearly with frequency at constant voltage. Idle
time is injected after each inference to pad the iteration out to a
target period, which keeps the comparison between variants at equal
throughput.

The logging and model-load stalls are normal draws clamped at zero:
``LOGGING_OVERHEAD`` holds each platform's logging mean and std, each
``ModelVariant`` its own load stall's, and ``run_scenario`` takes every
deviate from one ``normal_stream``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import cos, log, sin, sqrt, tau

from .errors import ScenarioError, non_finite_fields


class Platform(enum.Enum):
    PHONE = "phone"
    PI = "pi"


# Mean/std seconds spent writing one log row, measured per platform.
LOGGING_OVERHEAD = {
    Platform.PHONE: (0.023, 0.004),
    Platform.PI: (0.080, 0.014),
}


@dataclass(frozen=True)
class ModelVariant:
    """One member of a weight-shared model pair."""

    name: str
    base_latency: float      # s per inference at f_nominal
    power_nominal: float     # W while computing at f_nominal
    accuracy: float          # published top-1 / task accuracy, in [0, 1]
    shift_mean: float = 0.0  # s, mean stall to load this variant in
    shift_std: float = 0.0   # s, spread of that stall

    def __post_init__(self):
        problems = non_finite_fields(self)
        if problems:
            raise ScenarioError(*(f"variant {self.name!r}: {p}" for p in problems))
        if self.base_latency <= 0:
            problems.append(f"base_latency must be > 0, got {self.base_latency}")
        if not (0.0 <= self.accuracy <= 1.0):
            problems.append(f"accuracy must be in [0, 1], got {self.accuracy}")
        if self.shift_mean < 0 or self.shift_std < 0:
            problems.append("shift overhead mean/std must be >= 0")
        if self.power_nominal <= 0:
            problems.append(f"power_nominal must be > 0, got {self.power_nominal}")
        if problems:
            raise ScenarioError(*(f"variant {self.name!r}: {p}" for p in problems))


@dataclass(frozen=True)
class PacingPolicy:
    """Iteration pacing: pad to a fixed period, optionally slow the model."""

    target_period: float | None = None  # s; None disables idle injection
    latency_multiplier: float = 1.0     # uniform slowdown applied to compute time

    def __post_init__(self):
        problems = non_finite_fields(self)
        if problems:
            raise ScenarioError(*problems)
        if self.latency_multiplier < 1.0:
            problems.append(f"latency_multiplier must be >= 1, got {self.latency_multiplier}")
        if self.target_period is not None and self.target_period <= 0:
            problems.append(f"target_period must be > 0, got {self.target_period}")
        if problems:
            raise ScenarioError(*problems)


def inference_latency(variant, freq, profile, multiplier=1.0):
    """Compute seconds for one inference at the given clock frequency."""
    if freq <= 0:
        raise ValueError(f"freq must be > 0, got {freq}")
    return variant.base_latency * (profile.f_nominal / freq) * multiplier


def iteration_time(variant, freq, profile, pacing: PacingPolicy):
    """(compute, idle) seconds for one paced iteration."""
    compute = inference_latency(variant, freq, profile, pacing.latency_multiplier)
    if pacing.target_period is None:
        return compute, 0.0
    return compute, max(0.0, pacing.target_period - compute)


def power_draw(variant, freq, profile):
    """Watts drawn while the variant computes at the given frequency."""
    if freq <= 0:
        raise ValueError(f"freq must be > 0, got {freq}")
    return variant.power_nominal * freq / profile.f_nominal


def normal_stream(random):
    """Standard normal deviates drawn from ``random()``, two per Box–Muller pair.

    The float operations of ``random.Random.gauss``, in the same order, so
    ``mu + z * sigma`` for successive ``z`` equals successive
    ``Random(seed).gauss(mu, sigma)`` calls bit for bit when ``random`` is
    that generator's bound ``random``. Unlike ``gauss``, the cached second
    deviate lives in the stream, not in the generator, so mix no other
    ``gauss`` calls into a generator a stream draws from.
    """
    while True:
        x2pi = random() * tau
        g2rad = sqrt(-2.0 * log(1.0 - random()))
        yield cos(x2pi) * g2rad
        yield sin(x2pi) * g2rad
