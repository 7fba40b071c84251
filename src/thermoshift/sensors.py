"""Pluggable temperature sources and the live polling loop.

A temperature source is anything with ``read_now() -> TemperatureSample``.
Three implementations ship: a Linux sysfs thermal-zone reader, a CSV
replay source, and a wrapper around the thermal simulator. The live loop
only observes and signals shifts; it never touches frequencies.
"""

from __future__ import annotations

import time

from .controller import ControllerConfig, Decision, ShiftController, TemperatureSample
from .errors import LiveRunError, SampleError, SensorReadError, SourceExhausted
from .harness import Trace, TraceRecord, pick_event, parse_trace
from .thermal import DeviceProfile, DeviceState, HeatSource, advance

DEFAULT_MAX_CONSECUTIVE_ERRORS = 5


def read_sysfs_temp(path) -> float:
    """Read a Linux thermal-zone file: ASCII millidegrees -> degrees C."""
    try:
        with open(path) as fh:
            text = fh.read().strip()
    except OSError as exc:
        raise SensorReadError(f"cannot read {path}: {exc}") from exc
    try:
        return int(text) / 1000.0
    except ValueError:
        raise SensorReadError(f"{path}: expected integer millidegrees, got {text!r}") from None


class SysfsSource:
    """Polls one thermal-zone file (e.g. /sys/class/thermal/thermal_zone0/temp)."""

    def __init__(self, path, clock=time.monotonic):
        self.path = path
        self._clock = clock

    def read_now(self) -> TemperatureSample:
        return TemperatureSample(time_s=self._clock(), celsius=read_sysfs_temp(self.path))


class ReplaySource:
    """Feeds back the cpu_temp column of a recorded trace, in order."""

    def __init__(self, samples):
        self._samples = list(samples)
        self._next = 0

    @classmethod
    def from_trace(cls, trace):
        return cls(TemperatureSample(r.sim_time, r.cpu_temp) for r in trace)

    @classmethod
    def from_csv(cls, path):
        return cls.from_trace(parse_trace(path))

    def read_now(self) -> TemperatureSample:
        if self._next >= len(self._samples):
            raise SourceExhausted(f"replay finished after {len(self._samples)} samples")
        sample = self._samples[self._next]
        self._next += 1
        return sample


class SimulatedSource:
    """Advances a thermal model by a fixed interval per read.

    Each read is one ``advance`` at constant power, so it is exact: the
    temperature relaxes toward ``ambient + power / dissipation`` with time
    constant ``heat_capacity / dissipation``. The profile's governor still
    runs on ``state`` but cannot change the power.
    """

    def __init__(self, profile: DeviceProfile, power: float, dt: float, start_temp=None):
        if power < 0:
            raise ValueError(f"power must be >= 0, got {power}")
        self.profile = profile
        self.dt = dt
        self.heat = HeatSource(profile, lambda freq: power)
        self.state = DeviceState(
            temp=profile.ambient_temp if start_temp is None else start_temp,
            freq=profile.f_nominal,
        )

    def read_now(self) -> TemperatureSample:
        advance(self.state, self.profile, self.heat, self.dt)
        return TemperatureSample(time_s=self.state.sim_time, celsius=self.state.temp)


def live_run(source, config: ControllerConfig, period: float,
             on_shift=None, duration: float | None = None,
             max_errors: int = DEFAULT_MAX_CONSECUTIVE_ERRORS,
             sleep=time.sleep, clock=time.monotonic) -> Trace:
    """Poll a source, drive the controller, and log one row per reading.

    ``on_shift(decision, sample)`` runs on the polling loop and must be
    non-blocking; hand long work off elsewhere. Read errors leave the
    controller untouched; ``max_errors`` consecutive failures abort with a
    diagnostic. Stops at ``duration`` seconds of wall clock, on source
    exhaustion, or on an interrupt, returning what was collected.
    """
    if period <= 0:
        raise LiveRunError(f"period must be > 0, got {period}")
    controller = ShiftController(config)
    trace = Trace()
    consecutive = 0
    started = clock()
    try:
        while True:
            if duration is not None and clock() - started >= duration:
                break
            loop_began = clock()
            try:
                sample = source.read_now()
                decision = controller.observe(sample)
            except SourceExhausted:
                break
            except (SensorReadError, SampleError) as exc:
                consecutive += 1
                if consecutive >= max_errors:
                    raise LiveRunError(
                        f"aborting after {consecutive} consecutive read errors; last: {exc}"
                    ) from exc
                sleep(max(0.0, period - (clock() - loop_began)))
                continue
            consecutive = 0
            trace.append(TraceRecord(
                sample.time_s,
                sample.celsius,
                controller.last_avg_temp,
                controller.last_grad,
                None,
                controller.mode,
                None,
                None,
                pick_event(decision, ()),
            ))
            if decision is not Decision.STAY and on_shift is not None:
                on_shift(decision, sample)
            sleep(max(0.0, period - (clock() - loop_began)))
    except KeyboardInterrupt:
        pass
    return trace
