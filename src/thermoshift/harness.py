"""Closed-loop scenario runner and the trace CSV format.

One iteration of the loop simulates: compute at the active model's power,
injected idle time, the logging stall, a temperature reading, the shift
decision, and (on a shift) the model-load stall. The thermal model is
solved exactly with the governor acting continuously, so throttling can
land mid-iteration.

``run_scenario`` reads everything that is fixed for a run once, before
its loop: the scenario's fields, one ``thermal.HeatSource`` per power
curve (its band closure and the profile's governor rule), each
variant's ``(compute, idle)`` at the two fixed frequency levels, the
logging draw's mean and std, and one ``workload.normal_stream`` that both
the logging and the model-load stall draws take their deviates from.
Each row then does only the work that varies: the ``advance`` calls, the
draws, the controller's update and the record. The controller gets the
reading as two plain numbers through its bound ``observe_reading``; no
``TemperatureSample`` is built per row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, product
from math import isfinite

from .controller import ControllerConfig, Decision, Mode, ShiftController
from .errors import ScenarioError, TraceFormatError, non_finite_fields, write_text
from .thermal import (
    EVENT_THROTTLE_OFF,
    EVENT_THROTTLE_ON,
    DeviceProfile,
    DeviceState,
    HeatSource,
    advance,
)
from .workload import (
    LOGGING_OVERHEAD,
    ModelVariant,
    PacingPolicy,
    Platform,
    inference_latency,
    iteration_time,
    normal_stream,
    power_draw,
)

EVENT_NONE = Decision.STAY.value
EVENT_SHIFT_SMALL = Decision.SHIFT_TO_SMALL.value
EVENT_SHIFT_LARGE = Decision.SHIFT_TO_LARGE.value

CSV_HEADER = "sim_time,cpu_temp,avg_temp,grad,freq,mode,inference_latency,idle,event,overhead"

# Each event name mapped to itself: ``parse_trace`` gives every row these
# string objects, not a fresh copy per row.
_EVENTS = {event: event for event in (
    EVENT_NONE, EVENT_SHIFT_SMALL, EVENT_SHIFT_LARGE, EVENT_THROTTLE_ON, EVENT_THROTTLE_OFF)}


@dataclass(slots=True)
class TraceRecord:
    """One per-inference log row. Optional fields are blank in the CSV.

    Fields are in CSV column order, then ``log_time``, so rows can be
    built positionally.
    """

    sim_time: float
    cpu_temp: float
    avg_temp: float | None = None
    grad: float | None = None
    freq: float | None = None
    mode: Mode = Mode.LARGE
    inference_latency: float | None = None
    idle: float | None = None
    event: str = EVENT_NONE
    overhead: float = 0.0
    log_time: float = 0.0  # carried in memory only; not a CSV column


class Trace(list):
    """An ordered list of TraceRecords."""

    @property
    def records(self):
        """The trace itself: ``shuffle(trace.records)`` shuffles the trace."""
        return self

    def events(self, kind: str):
        return [r for r in self if r.event == kind]


def _row_format(blanks) -> str:
    # "%.0s" prints any value, None included, as nothing: a blank column.
    avg, grad, freq, latency, idle = ("%.0s" if blank else "%.6g" for blank in blanks)
    return f"%.6g,%.6g,{avg},{grad},{freq},%s,{latency},{idle},%s,%.6g\n"


# One row format per pattern of blank optional columns, keyed by which of
# avg_temp, grad, freq, inference_latency and idle are None.
_ROW_FORMATS = {blanks: _row_format(blanks) for blanks in product((False, True), repeat=5)}

_ROWS_PER_BLOCK = 1024  # rows that emit_trace formats, joins and writes at a time


def _csv_blocks(trace):
    """The trace's CSV text: the header line, then one string per ``_ROWS_PER_BLOCK`` rows."""
    yield CSV_HEADER + "\n"
    rows = iter(trace)
    while True:
        lines = []
        for r in islice(rows, _ROWS_PER_BLOCK):
            avg, grad, freq, latency, idle = (
                r.avg_temp, r.grad, r.freq, r.inference_latency, r.idle)
            row_format = _ROW_FORMATS[
                avg is None, grad is None, freq is None, latency is None, idle is None]
            # ``_name_`` is the member's plain instance attribute; ``.name`` is
            # an enum property, a Python-level call on every row.
            lines.append(row_format % (r.sim_time, r.cpu_temp, avg, grad, freq, r.mode._name_,
                                       latency, idle, r.event, r.overhead))
        if not lines:
            return
        yield "".join(lines)


def emit_trace(trace: Trace, path) -> None:
    """Write the trace as CSV: fixed header, floats at 6 significant digits.

    Rows are formatted and written ``_ROWS_PER_BLOCK`` at a time, so the
    writer holds one block of text, never the whole file. A record that
    cannot be formatted raises after the blocks before it were written,
    leaving a partial file behind.
    """
    write_text(path, _csv_blocks(trace), "trace", TraceFormatError)


_MODES = {mode.name: mode for mode in Mode}

# ``overhead`` is 0 on every row but a shift's, and each shift draws its own
# value: the zeros share one float, the rest convert as they come.
_NO_OVERHEAD = frozenset(("", "0"))


class _Floats(dict):
    """Column text -> finite float, one float object per distinct text.

    A repeated text is one C-level subscript and yields the object made
    the first time. Keyed by text, not by value, so ``"-0"`` and ``"0"``
    stay distinct. Text that ``float`` refuses raises its usual
    ``ValueError``, and so does text that it reads as nan or infinite
    (``nan``, ``inf``, ``1e999``), which is not stored.
    """

    __slots__ = ()

    def __missing__(self, text):
        value = float(text)
        if not isfinite(value):
            raise ValueError(f"{text!r} is not finite")
        self[text] = value
        return value


def parse_trace(path) -> Trace:
    """Read a trace CSV produced by emit_trace (or a live run).

    Blank lines are skipped; errors name the file and line as ``path:line``.
    A number that is not finite (``nan``, ``inf``, ``infinity``, in any
    case or sign, or a decimal too large for a float, such as ``1e999``)
    is refused: ``path:line: <column> must be finite, got <text>``.
    Within a row the first bad column from the left is reported, whether
    it does not parse or is not finite.
    The columns that repeat from row to row (``freq``,
    ``inference_latency``, ``idle``) share one float object per distinct
    text, every zero ``overhead`` is one float, and ``event`` is the
    module's own string, so a parsed trace holds little more than one run
    of ``run_scenario``.

    A file is parsed in one pass, line by line, without holding its text.
    After a header or row error, or a byte that does not decode, it is
    decoded again in one piece, so a bad byte anywhere is reported first,
    at its offset in the file rather than in the decoder's chunk. A file
    that cannot seek back, such as a pipe, is read whole first.
    """
    try:
        with open(path) as fh:
            if not fh.seekable():
                return _parse_lines(path, fh.read().split("\n"))
            try:
                return _parse_lines(path, fh)
            except (TraceFormatError, UnicodeDecodeError):
                fh.seek(0)
                fh.read()  # raises at the file's first bad byte, if it has one
                raise
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"cannot read trace from {path}: {exc}") from exc


_COLUMNS = CSV_HEADER.split(",")
_MAY_BE_BLANK = frozenset(("avg_temp", "grad", "freq", "inference_latency", "idle", "overhead"))


def _row_problem(fields) -> str | None:
    """What is wrong with a row's ten column texts, or None: the first
    column from the left that is not a float, not finite or not a mode,
    else an unknown event. Every row error but a wrong column count is
    worded here."""
    for name, text in zip(_COLUMNS, fields):
        if name == "mode":
            if text not in _MODES:
                return repr(text)  # the KeyError's text
        elif name != "event" and (text or name not in _MAY_BE_BLANK):
            try:
                value = float(text)
            except ValueError as exc:
                return str(exc)
            if not isfinite(value):
                return f"{name} must be finite, got {text}"
    if fields[8] not in _EVENTS:
        return f"unknown event {fields[8]!r}"
    return None


def _parse_lines(path, lines) -> Trace:
    """Parse the header and rows of ``lines``; each may end in ``"\\n"``.

    Each row is converted first and judged by its values: ``_Floats``
    refuses a shared column that is not finite, and one ``isfinite`` of
    the sum of the other floats checks the rest. A row that fails to
    convert or check takes its message from ``_row_problem``, which finds
    nothing when finite values only overflow the sum; that row is kept.
    """
    lines = iter(lines)
    if next(lines, "").rstrip("\n") != CSV_HEADER:
        raise TraceFormatError(f"{path}: missing or wrong header (want {CSV_HEADER!r})")
    repeated = _Floats({"": None})  # freq, inference_latency and idle: blank is None
    trace = Trace()
    append = trace.append
    for n, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split(",")
        try:
            sim_time, cpu_temp, avg, grad, freq, mode, latency, idle, event, overhead = fields
        except ValueError:
            raise TraceFormatError(
                f"{path}:{n}: expected 10 columns, got {len(fields)}") from None
        try:
            record = TraceRecord(
                float(sim_time),
                float(cpu_temp),
                float(avg) if avg else None,
                float(grad) if grad else None,
                repeated[freq],
                _MODES[mode],
                repeated[latency],
                repeated[idle],
                _EVENTS[event],
                0.0 if overhead in _NO_OVERHEAD else float(overhead),
            )
        except (ValueError, KeyError):
            record = None
        if record is None or not isfinite(record.sim_time + record.cpu_temp + record.overhead
                                          + (record.avg_temp or 0.0) + (record.grad or 0.0)):
            problem = _row_problem(fields)
            if problem:
                raise TraceFormatError(f"{path}:{n}: {problem}")
        append(record)
    return trace


@dataclass(frozen=True)
class Scenario:
    """Everything needed for one deterministic closed-loop run.

    ``stop_after_small_shifts``, when set, ends the run early: right after
    the row that makes that many shifts to SMALL, or at ``duration`` if
    that comes first. The stopped trace is an exact prefix of the full
    run's. Leave it unset for anything that reads the whole run.
    """

    profile: DeviceProfile
    large: ModelVariant
    small: ModelVariant
    controller: ControllerConfig | None  # None -> baseline, large model only
    pacing: PacingPolicy = PacingPolicy()
    duration: float = 3600.0
    seed: int = 0
    platform: Platform = Platform.PHONE
    weight_shared: bool = False   # true weight sharing: shifts cost nothing
    logging_enabled: bool = True
    stop_after_small_shifts: int | None = None

    def validate(self):
        problems = non_finite_fields(self)
        if problems:
            raise ScenarioError("; ".join(problems))
        if self.duration <= 0:
            problems.append(f"duration must be > 0, got {self.duration}")
        stop = self.stop_after_small_shifts
        if stop is not None and (type(stop) is not int or stop < 1):
            problems.append(
                f"stop_after_small_shifts must be a whole number >= 1 or None, got {stop!r}")
        profile = self.profile
        watts = max(self.large.power_nominal, self.small.power_nominal, profile.idle_power)
        if not isfinite(profile.ambient_temp + watts / profile.dissipation):
            problems.append(f"dissipation {profile.dissipation} W/C is too small for {watts} W: "
                            f"the equilibrium temperature is not finite")
        if self.large.base_latency < self.small.base_latency:
            problems.append(
                f"large variant ({self.large.base_latency}s) must not be faster than "
                f"small ({self.small.base_latency}s)"
            )
        # The large model is the slowest variant, and f_throttled its lowest clock.
        throttled = inference_latency(self.large, profile.f_throttled, profile,
                                      self.pacing.latency_multiplier)
        if not isfinite(throttled):
            problems.append(f"f_throttled {profile.f_throttled} GHz is too small: the large "
                            f"model's latency there, {throttled} s, is not finite")
        if self.pacing.target_period is not None:
            slowest = self.large.base_latency * self.pacing.latency_multiplier
            if self.pacing.target_period < slowest - 1e-12:
                problems.append(
                    f"pacing target_period {self.pacing.target_period}s is shorter than the "
                    f"large model's nominal latency {slowest:.6g}s"
                )
        if problems:
            raise ScenarioError("; ".join(problems))


def _heat_sources(scenario):
    """The ``HeatSource`` of the large model, the small model and injected idle."""
    profile, large, small = scenario.profile, scenario.large, scenario.small
    return (HeatSource(profile, lambda f: power_draw(large, f, profile)),
            HeatSource(profile, lambda f: power_draw(small, f, profile)),
            HeatSource(profile, lambda f: profile.idle_power))


def hottest_reading(scenario) -> float:
    """An upper bound on every ``cpu_temp`` that ``run_scenario`` can log.

    A run starts at ambient and heats only under its three heat sources,
    none of which carries the device above its ``hottest``; no simulation
    is needed. Raises ProfileError if a source's equilibria are not finite.
    """
    return max(scenario.profile.ambient_temp, *(s.hottest for s in _heat_sources(scenario)))


def pick_event(decision: Decision, governor_events) -> str:
    """The row's event: a shift decision wins over governor events.

    ``run_scenario`` shows a shift row's governor events on the next row
    that raises none of its own.
    """
    if decision is Decision.STAY:
        if EVENT_THROTTLE_ON in governor_events:
            return EVENT_THROTTLE_ON
        if EVENT_THROTTLE_OFF in governor_events:
            return EVENT_THROTTLE_OFF
    return decision._value_  # the plain attribute behind ``.value``


def run_scenario(scenario: Scenario) -> Trace:
    """Run the closed loop until sim_time reaches the scenario duration.

    With ``scenario.stop_after_small_shifts`` set to n, the run ends
    sooner: right after the row that makes the n-th shift to SMALL. That
    row's model-load stall has already run, so the stopped trace is an
    exact prefix of the full run's.

    Deterministic: the only randomness (logging and model-load stalls)
    comes from a generator seeded with scenario.seed. Both draws take
    their deviates from one ``normal_stream`` over that generator, which
    repeats ``Random.gauss``; each is clamped at zero as
    ``logging_overhead`` and ``shift_overhead`` clamp theirs, and weight
    sharing takes no stall draw.

    Everything that does not change from row to row is read once per run:
    the scenario's fields, a ``HeatSource`` per power curve (band
    closure and governor rule), each variant's ``(compute, idle)`` at
    ``f_nominal`` and ``f_throttled``, the platform's logging mean and
    std, the normal stream's bound ``__next__``, and the controller's
    bound ``observe_reading``. At any other frequency (pi-pin's
    continuous sag) the loop repeats ``iteration_time``'s float
    operations inline; those values are not kept.

    A shift decision names its row's event. The governor events that row
    raised show on the next row that raises none of its own (nor in the
    model-load stall before it), so a throttle that starts on a shift row
    is not lost.
    """
    scenario.validate()
    profile = scenario.profile
    duration, pacing, weight_shared = scenario.duration, scenario.pacing, scenario.weight_shared
    stop = scenario.stop_after_small_shifts
    small_shifts_left = -1 if stop is None else stop  # counts down; from -1 it never hits 0
    large, small = scenario.large, scenario.small
    normal = normal_stream(random.Random(scenario.seed).random).__next__
    logging_enabled = scenario.logging_enabled
    if logging_enabled:
        log_mean, log_std = LOGGING_OVERHEAD[scenario.platform]
    device = DeviceState(temp=profile.ambient_temp, freq=profile.f_nominal)
    controller = ShiftController(scenario.controller) if scenario.controller else None
    observe = controller.observe_reading if controller else None
    # One heat source per power curve, with its governor bands solved once.
    large_heat, small_heat, idle_heat = _heat_sources(scenario)
    f_nominal = profile.f_nominal
    latency_multiplier, target_period = pacing.latency_multiplier, pacing.target_period
    levels = (f_nominal, profile.f_throttled)
    large_times = {f: iteration_time(large, f, profile, pacing) for f in levels}
    small_times = {f: iteration_time(small, f, profile, pacing) for f in levels}
    variant, heat, times = large, large_heat, large_times
    mode = Mode.LARGE
    stay, to_small = Decision.STAY, Decision.SHIFT_TO_SMALL
    trace = Trace()
    append = trace.append
    carried_events: list[str] = []  # governor events raised after the previous row was sampled
    swallowed = None  # governor events of the last shift row, not shown yet

    while device.sim_time < duration and small_shifts_left != 0:
        freq = device.freq
        hit = times.get(freq)
        if hit is None:
            # pi-pin's continuous sag: iteration_time's float operations, inline.
            compute = variant.base_latency * (f_nominal / freq) * latency_multiplier
            if target_period is None:
                idle = 0.0
            else:
                idle = target_period - compute
                if not idle > 0.0:  # max(0.0, idle) without the builtin call
                    idle = 0.0
        else:
            compute, idle = hit

        events = advance(device, heat, compute)
        if carried_events:
            events[:0] = carried_events
            carried_events = []
        if idle > 0.0:
            events += advance(device, idle_heat, idle)
        log_dt = log_mean + normal() * log_std if logging_enabled else 0.0
        if log_dt > 0.0:
            events += advance(device, heat, log_dt)
        else:
            log_dt = 0.0  # the draw is clamped at zero

        cpu_temp = device.temp
        freq_now = device.freq
        avg = grad = None
        decision = stay
        if observe is not None:
            decision = observe(device.sim_time, cpu_temp)
            avg = controller.last_avg_temp
            grad = controller.last_grad
            mode = controller.mode

        overhead = 0.0
        if decision is stay:
            if events or swallowed:
                # The row's own events, and the load stall's before it, come
                # first; a shift row's show only on a row that raises none.
                event = pick_event(stay, events or swallowed)
                swallowed = None
            else:
                event = EVENT_NONE
        else:
            event = decision._value_
            if events:
                swallowed = events
            if decision is to_small:
                variant, heat, times = small, small_heat, small_times
                small_shifts_left -= 1
            else:
                variant, heat, times = large, large_heat, large_times
            if not weight_shared:
                overhead = variant.shift_mean + normal() * variant.shift_std
                if overhead > 0.0:
                    # Loading the incoming model is compute; events raised here
                    # belong to the next row (this one is already sampled).
                    carried_events = advance(device, heat, overhead)
                else:
                    overhead = 0.0  # the draw is clamped at zero

        append(TraceRecord(
            device.sim_time,
            cpu_temp,
            avg,
            grad,
            freq_now,
            mode,
            compute,
            idle,
            event,
            overhead,
            log_dt,
        ))
    return trace
