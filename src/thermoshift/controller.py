"""Shift controller: decides when to swap between the large and small model.

Raw CPU temperature is smoothed with an exponential moving average, the
slope of the smoothed signal is estimated per sample and smoothed with a
second EMA, and a two-state machine drives the shifts:

* in LARGE mode, a raw reading above ``temp_threshold`` shifts to SMALL;
* in SMALL mode, a smoothed slope above ``grad_threshold`` (the cooling
  rate has flattened out; thresholds are negative) shifts back to LARGE
  once a sample since the shift has cooled: that is the warm-up guard.

Every shift clears both filters and the cooling flag, by the same
``reset_filters`` that seeds them at construction.

``ShiftController.observe_reading(time_s, celsius)`` runs on every
poll or simulated row, so it takes plain numbers and does the whole
update in one pass on locals. A finite float at or above absolute zero
is accepted by one test, a type check and one chained comparison; every
other value takes the full checks, which word each refusal as a
``SampleError``. It reads nothing from the frozen
``ControllerConfig``: the constructor binds the coefficients, their
complements ``1 - coeff``, the thresholds and the flags once.
``observe(sample)`` is the same update for a ``TemperatureSample`` (what
the temperature sources return) and only unpacks it. The reference
forms of the two filters, which read the config, live in
``tests/oracles.py``: ``observe_reading`` must match them bit for bit,
in the same float operations and order (a complement bound once is the
same float computed every time), and a lockstep test compares the two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import inf, isfinite

from .errors import ConfigError, SampleError

ABSOLUTE_ZERO_C = -273.15


class Mode(enum.Enum):
    LARGE = "LARGE"
    SMALL = "SMALL"


class Decision(enum.Enum):
    STAY = "none"  # each value is the trace event of the row the decision is made on
    SHIFT_TO_SMALL = "shift_to_small"
    SHIFT_TO_LARGE = "shift_to_large"


# Module-level names for the members ``observe`` reads on every sample.
_LARGE, _SMALL = Mode.LARGE, Mode.SMALL
_STAY, _TO_SMALL, _TO_LARGE = Decision.STAY, Decision.SHIFT_TO_SMALL, Decision.SHIFT_TO_LARGE


@dataclass(frozen=True, slots=True)
class TemperatureSample:
    """One timestamped CPU temperature reading."""

    time_s: float
    celsius: float


@dataclass(frozen=True)
class ControllerConfig:
    temp_smoothing: float = 0.995  # EMA coefficient for temperature, in (0, 1)
    grad_smoothing: float = 0.99   # EMA coefficient for the slope, in (0, 1)
    temp_threshold: float = 73.0   # deg C; LARGE -> SMALL on a raw reading above this
    grad_threshold: float = -0.07  # deg C per sample; SMALL -> LARGE on smoothed slope above this
    per_second: bool = False       # scale the raw slope by sample spacing (deg C per second)
    literal_init: bool = False     # zero-seed the average; release without a cooling sample

    def __post_init__(self):
        problems = []
        for name in ("temp_smoothing", "grad_smoothing"):
            coeff = getattr(self, name)
            if not (isinstance(coeff, (int, float)) and 0.0 < coeff < 1.0):
                problems.append(f"{name} must be in (0, 1), got {coeff!r}")
        for name in ("temp_threshold", "grad_threshold"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and isfinite(value)):
                problems.append(f"{name} must be finite, got {value!r}")
        if problems:
            raise ConfigError(*problems)


class ShiftController:
    """Two-state shift controller fed one temperature sample per inference.

    The instance owns its filter state; it is cheap, deterministic, and
    must not be shared between concurrent observers.
    """

    def __init__(self, config: ControllerConfig):
        self.config = config
        # What observe_reading and reset_filters read, bound once: the
        # config is frozen, and the complements are the very floats
        # ``1.0 - coeff`` that the reference filters compute every step.
        self._temp_keep = config.temp_smoothing
        self._temp_take = 1.0 - config.temp_smoothing
        self._grad_keep = config.grad_smoothing
        self._grad_take = 1.0 - config.grad_smoothing
        self._temp_threshold = config.temp_threshold
        self._grad_threshold = config.grad_threshold
        self._per_second = config.per_second
        self._literal_init = config.literal_init
        self.mode = Mode.LARGE
        # Telemetry: the most recent post-update filter values. These
        # survive the reset that follows a shift so the triggering values
        # can be logged.
        self.last_avg_temp: float | None = None
        self.last_grad: float | None = None
        self.reset_filters()

    def reset_filters(self) -> None:
        """Clear the smoothing state and the cooling flag; the mode is kept.

        ``literal_init`` seeds the average with 0, otherwise the next
        sample seeds it, with raw slope 0. ``__init__`` calls this too.
        """
        self.grad = 0.0
        self._saw_cooling = False
        self._last_time: float | None = None
        self.avg_temp: float | None = 0.0 if self._literal_init else None

    def observe(self, sample: TemperatureSample) -> Decision:
        """Consume one temperature sample: ``observe_reading`` of its fields."""
        return self.observe_reading(sample.time_s, sample.celsius)

    def observe_reading(self, time_s: float, celsius: float) -> Decision:
        """Consume one reading taken at ``time_s`` and return the shift decision.

        Update order: smooth the temperature, update the slope, then
        evaluate the mode transitions (the LARGE -> SMALL trigger compares
        the raw reading, not the smoothed one). A finite float at or above
        absolute zero is accepted by one test. Every other value takes the
        full checks, which still accept an int, a bool or a float subclass
        in that range and word every refusal: a non-number, nan, an
        infinity, an int too large for a float or a reading below absolute
        zero raises SampleError with no state change.
        """
        if not (type(celsius) is float and ABSOLUTE_ZERO_C <= celsius < inf):
            try:
                finite = isinstance(celsius, (int, float)) and isfinite(celsius)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise SampleError(f"non-finite temperature reading: {celsius!r}")
            if celsius < ABSOLUTE_ZERO_C:
                raise SampleError(f"temperature below absolute zero: {celsius} C")

        # The temperature EMA, then the raw slope and its EMA, on the bound coefficients.
        avg = self.avg_temp
        if avg is None:
            new_avg = float(celsius)  # first sample after a reset seeds the filter
            raw = 0.0
        else:
            new_avg = self._temp_keep * avg + self._temp_take * celsius
            raw = new_avg - avg
            if self._per_second and self._last_time is not None:
                dt = time_s - self._last_time
                if dt > 0.0:
                    raw /= dt
        grad = self._grad_keep * self.grad + self._grad_take * raw
        self.last_avg_temp = new_avg
        self.last_grad = grad

        # A shift resets every filter attribute, so only STAY writes them.
        saw_cooling = raw < 0.0 or self._saw_cooling
        if self.mode is _LARGE:
            if celsius > self._temp_threshold:
                self.mode = _SMALL
                self.reset_filters()
                return _TO_SMALL
        # The warm-up guard, which literal_init drops: grad restarts at 0, above any threshold.
        elif grad > self._grad_threshold and (self._literal_init or saw_cooling):
            self.mode = _LARGE
            self.reset_filters()
            return _TO_LARGE
        self.avg_temp = new_avg
        self.grad = grad
        self._saw_cooling = saw_cooling
        self._last_time = time_s
        return _STAY
