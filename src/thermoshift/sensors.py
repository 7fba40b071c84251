"""Pluggable temperature sources and the live polling loop.

A temperature source is anything with ``read_now() -> TemperatureSample``.
Three implementations ship: a Linux sysfs thermal-zone reader, a CSV
replay source, and a wrapper around the thermal simulator. The live loop
only observes and signals shifts; it never touches frequencies.
"""

from __future__ import annotations

import math
import time
from itertools import chain

from .controller import ControllerConfig, Decision, ShiftController, TemperatureSample
from .errors import LiveRunError, SampleError, SensorReadError, SourceExhausted
from .harness import Trace, TraceRecord
from .thermal import DeviceProfile, DeviceState, HeatSource, advance

MAX_CONSECUTIVE_ERRORS = 5


def read_sysfs_temp(path) -> float:
    """Read a Linux thermal-zone file: ASCII millidegrees -> degrees C.

    A file that cannot be read, or whose text is not an integer that fits
    a float, raises SensorReadError naming the path.
    """
    try:
        with open(path) as fh:
            text = fh.read().strip()
    except OSError as exc:
        raise SensorReadError(f"cannot read '{path}': {exc}") from exc
    try:
        return int(text) / 1000.0
    except ValueError:
        raise SensorReadError(f"{path}: expected integer millidegrees, got {text!r}") from None
    except OverflowError:
        raise SensorReadError(f"{path}: integer millidegrees too large for a float, "
                              f"{len(text)} characters") from None


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
        samples = list(samples)
        n = len(samples)

        def exhausted():
            raise SourceExhausted(f"replay finished after {n} samples")

        # ``read_now() -> TemperatureSample`` is one C-level step of an
        # iterator over the samples and then ``exhausted``: a callable
        # iterator and ``chain`` both keep an iterator that raised, so every
        # read after the last sample raises SourceExhausted again.
        self.read_now = chain(samples, iter(exhausted, None)).__next__

    @classmethod
    def from_trace(cls, trace):
        return cls(TemperatureSample(r.sim_time, r.cpu_temp) for r in trace)


class SimulatedSource:
    """Advances a thermal model by a fixed interval per read.

    Each read is one ``advance`` at constant power, so it is exact: the
    temperature relaxes toward ``ambient + power / dissipation`` with time
    constant ``heat_capacity / dissipation``. The profile's governor still
    runs on ``state`` but cannot change the power. ``power`` must be
    finite and >= 0 and ``dt`` finite and > 0; both are checked here, not
    at the first read.
    """

    def __init__(self, profile: DeviceProfile, power: float, dt: float):
        if not math.isfinite(power):
            raise ValueError(f"power must be finite, got {power}")
        if power < 0:
            raise ValueError(f"power must be >= 0, got {power}")
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        self.dt = dt
        self.heat = HeatSource(profile, lambda freq: power)
        self.state = DeviceState(temp=profile.ambient_temp, freq=profile.f_nominal)

    def read_now(self) -> TemperatureSample:
        advance(self.state, self.heat, self.dt)
        return TemperatureSample(time_s=self.state.sim_time, celsius=self.state.temp)


def live_run(source, config: ControllerConfig, period: float,
             on_shift=None, duration: float | None = None,
             sleep=time.sleep, clock=time.monotonic) -> Trace:
    """Poll a source, drive the controller, and log one row per reading.

    ``on_shift(decision, sample)`` runs on the polling loop and must be
    non-blocking; hand long work off elsewhere. Read errors leave the
    controller untouched; ``MAX_CONSECUTIVE_ERRORS`` consecutive failures
    abort with a diagnostic. Stops at ``duration`` seconds of wall clock
    (``None`` or ``inf``: never), on source exhaustion, or on an
    interrupt, returning what was collected. ``period`` must be finite
    and > 0 and ``duration`` must not be NaN or negative; both are
    checked before the first poll. Each poll reads ``clock`` twice.
    """
    if not math.isfinite(period):
        raise LiveRunError(f"period must be finite, got {period}")
    if period <= 0:
        raise LiveRunError(f"period must be > 0, got {period}")
    if duration is not None and not duration >= 0:
        raise LiveRunError(f"duration must be >= 0 (inf: until interrupted), got {duration}")
    if duration is None:
        duration = math.inf
    controller = ShiftController(config)
    trace = Trace()
    # Bound after the controller exists, so wrappers set on the class or the
    # source beforehand still see every call.
    read_now, observe, append = source.read_now, controller.observe, trace.append
    stay = Decision.STAY
    consecutive = 0
    started = clock()
    try:
        while True:
            loop_began = clock()
            if loop_began - started >= duration:
                break
            try:
                sample = read_now()
                decision = observe(sample)
            except SourceExhausted:
                break
            except (SensorReadError, SampleError) as exc:
                consecutive += 1
                if consecutive >= MAX_CONSECUTIVE_ERRORS:
                    raise LiveRunError(
                        f"aborting after {consecutive} consecutive read errors; last: {exc}"
                    ) from exc
            else:
                consecutive = 0
                # No governor runs here, so the decision alone is the event.
                append(TraceRecord(
                    sample.time_s,
                    sample.celsius,
                    controller.last_avg_temp,
                    controller.last_grad,
                    None,
                    controller.mode,
                    None,
                    None,
                    decision._value_,
                ))
                if decision is not stay and on_shift is not None:
                    on_shift(decision, sample)
            # One pacing sleep per poll, after a reading or a read error;
            # the same value as max(0.0, pause) without the builtin call.
            pause = period - (clock() - loop_began)
            sleep(pause if pause > 0.0 else 0.0)
    except KeyboardInterrupt:
        pass
    return trace
