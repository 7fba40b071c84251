"""Closed-loop scenario runner and the trace CSV format.

One iteration of the loop simulates: compute at the active model's power,
injected idle time, the logging stall, a temperature reading, the shift
decision, and (on a shift) the model-load stall. The thermal model is
solved exactly with the governor acting continuously, so throttling can
land mid-iteration. ``run_scenario`` reads what is fixed for a run once,
before its loop; its docstring lists what that is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, product
from math import copysign, isfinite

from .controller import ControllerConfig, Decision, Mode, ShiftController
from .errors import ScenarioError, TraceFormatError, write_text
from .thermal import DeviceProfile, DeviceState, HeatSource, advance
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
EVENT_THROTTLE_ON = "throttle_on"
EVENT_THROTTLE_OFF = "throttle_off"

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


def _formats(template, blanks):
    # "%.0s" prints any value, None included, as nothing: a blank column.
    return template.format(*("%.0s" if blank else "%.6g" for blank in blanks))


# The formats of a row's "head" (sim_time to grad, then the tail text and
# the overhead), keyed by which of avg_temp and grad are None, and of its
# "tail" (freq to event), keyed by which of freq, inference_latency and
# idle are None.
_HEAD_FORMATS = {blanks: _formats("%.6g,%.6g,{},{},%s%.6g\n", blanks)
                 for blanks in product((False, True), repeat=2)}
_TAIL_FORMATS = {blanks: _formats("{},%s,{},{},%s,", blanks)
                 for blanks in product((False, True), repeat=3)}

_ROWS_PER_BLOCK = 1024  # rows that emit_trace formats, joins and writes at a time
_TAILS_HELD = 256  # distinct tails that one emit_trace or parse_trace call keeps


def _csv_blocks(trace):
    """The trace's CSV text: the header line, then one string per ``_ROWS_PER_BLOCK`` rows.

    A row whose tail fields are the very objects of the row before it
    reuses that row's tail text: an object formats the same every time,
    nan and either zero included. Any other row looks its tail up by
    value, and ``-0.0 == 0.0``, so the key also holds a zero ``idle``'s
    sign, and a tail with a nan, or with a zero ``freq`` or
    ``inference_latency``, is never kept in the table.
    """
    yield CSV_HEADER + "\n"
    tails = {}
    both = _HEAD_FORMATS[False, False]
    rows = iter(trace)
    # The tail fields of the row before; no record holds this mode, so the
    # first row takes the table path. One name a statement below: a tuple
    # assignment of five names builds and unpacks a tuple on every row.
    last_freq = last_latency = last_idle = last_event = None
    last_mode = object()
    while True:
        lines = []
        append = lines.append
        for r in islice(rows, _ROWS_PER_BLOCK):
            freq = r.freq
            mode = r.mode
            latency = r.inference_latency
            idle = r.idle
            event = r.event
            if not (freq is last_freq and mode is last_mode and latency is last_latency
                    and idle is last_idle and event is last_event):
                # ``_name_`` is the member's plain instance attribute; ``.name`` is
                # an enum property, a Python-level call.
                key = (freq, mode._name_, latency, idle, event, idle == 0 and copysign(1.0, idle))
                tail = tails.get(key)
                if tail is None:
                    tail = _TAIL_FORMATS[freq is None, latency is None, idle is None] % key[:5]
                    # No nan (None == None; nan != nan), and no zero freq or latency,
                    # whose sign the key does not hold.
                    if freq == freq != 0 and latency == latency != 0 and idle == idle:
                        if len(tails) >= _TAILS_HELD:
                            tails.clear()
                        tails[key] = tail
                last_freq = freq
                last_mode = mode
                last_latency = latency
                last_idle = idle
                last_event = event
            avg, grad = r.avg_temp, r.grad
            head = both if avg is not None and grad is not None else _HEAD_FORMATS[
                avg is None, grad is None]
            append(head % (r.sim_time, r.cpu_temp, avg, grad, tail, r.overhead))
        if not lines:
            return
        yield "".join(lines)


def emit_trace(trace: Trace, path) -> None:
    """Write the trace as CSV: fixed header, floats at 6 significant digits.

    Rows are formatted and written ``_ROWS_PER_BLOCK`` at a time, so the
    writer holds one block of text, never the whole file. A row's tail,
    ``freq``, ``mode``, ``inference_latency``, ``idle`` and ``event``, is
    reused from the row before when it holds the very same objects, and
    otherwise formatted once per distinct value and call, and reused from
    a table of at most ``_TAILS_HELD`` texts, emptied when full, so a
    trace whose tails never repeat holds no more than that. The other
    five columns are formatted on every row: each shift draws its own
    ``overhead``.
    A record that cannot be formatted raises after the blocks before it
    were written, leaving a partial file behind.
    """
    write_text(path, _csv_blocks(trace), "trace", TraceFormatError)


_MODES = {mode.name: mode for mode in Mode}

# ``overhead`` is 0 on every row but a shift's, and each shift draws its own
# value: the zeros share one float, the rest convert as they come. A row's
# last column may still end in its newline.
_NO_OVERHEAD = frozenset(("", "0", "\n", "0\n"))


def parse_trace(path) -> Trace:
    """Read a trace CSV produced by emit_trace (or a live run).

    Blank lines are skipped; errors name the file and line as ``path:line``.
    A number that is not finite (``nan``, ``inf``, ``infinity``, in any
    case or sign, or a decimal too large for a float, such as ``1e999``)
    is refused: ``path:line: <column> must be finite, got <text>``.
    Within a row the first bad column from the left is reported, whether
    it does not parse or is not finite.
    A row's tail text (``freq`` to ``event``) is converted and checked
    once, and the rows that repeat it share its ``freq``,
    ``inference_latency`` and ``idle`` float objects. Every zero
    ``overhead`` is one float and ``event`` is the module's own string,
    so a parsed trace holds little more than one run of ``run_scenario``.

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
        raise TraceFormatError(f"cannot read trace from '{path}': {exc}") from exc


def _parse_lines(path, lines) -> Trace:
    """Parse the header and rows of ``lines``; each may end in ``"\\n"``.

    A row is split at its first four commas and its last one. The text
    between them, its tail, maps to the values of a row that held that
    very text and passed every check, so only the other five columns
    convert, and one ``isfinite`` of their sum checks them. A tail not
    seen yet is converted and checked here, then kept in a table of at
    most ``_TAILS_HELD`` texts, emptied when full, so a trace whose tails
    never repeat holds no more than that. Any row this refuses, a blank
    line included, goes to ``_checked_row``, which words every row error.
    """
    lines = iter(lines)
    if next(lines, "").rstrip("\n") != CSV_HEADER:
        raise TraceFormatError(f"{path}: missing or wrong header (want {CSV_HEADER!r})")
    tails = {}  # tail text -> (freq, mode, inference_latency, idle, event)
    get = tails.get
    trace = Trace()
    append = trace.append
    for n, line in enumerate(lines, start=2):
        try:
            sim_time, cpu_temp, avg, grad, tail = line.split(",", 4)
            tail, _, overhead = tail.rpartition(",")
            values = get(tail)
            if values is None:
                freq, mode, latency, idle, event = tail.split(",")
                freq = float(freq) if freq else None
                latency = float(latency) if latency else None
                idle = float(idle) if idle else None
                if not isfinite((freq or 0.0) + (latency or 0.0) + (idle or 0.0)):
                    raise ValueError(tail)  # worded by ``_checked_row``
                if len(tails) >= _TAILS_HELD:
                    tails.clear()
                values = tails[tail] = (freq, _MODES[mode], latency, idle, _EVENTS[event])
            # Unpacked, not starred: a star call takes CPython's slow call path.
            freq, mode, latency, idle, event = values
            record = TraceRecord(
                float(sim_time),
                float(cpu_temp),
                float(avg) if avg else None,
                float(grad) if grad else None,
                freq,
                mode,
                latency,
                idle,
                event,
                0.0 if overhead in _NO_OVERHEAD else float(overhead),
            )
        except (ValueError, KeyError):
            record = None
        if record is None or not isfinite(record.sim_time + record.cpu_temp + record.overhead
                                          + (record.avg_temp or 0.0) + (record.grad or 0.0)):
            record = _checked_row(path, n, line)
            if record is None:
                continue
        append(record)
    return trace


_COLUMNS = CSV_HEADER.split(",")
_BLANKS = {**dict.fromkeys(("avg_temp", "grad", "freq", "inference_latency", "idle")),
           "overhead": 0.0}  # what each column that may be blank reads as


def _checked_row(path, n, line) -> TraceRecord | None:
    """The record of line ``n``, or None for a blank line; the one judge of a row.

    The row is converted column by column from the left. The first that
    is not a float, not finite or not a mode raises, then an unknown
    event, so every row error is worded here. A row of finite values
    whose sum overflows, which ``_parse_lines`` refuses, passes.
    """
    line = line.rstrip("\n")
    if not line:
        return None
    fields = line.split(",")
    if len(fields) != 10:
        raise TraceFormatError(f"{path}:{n}: expected 10 columns, got {len(fields)}")
    values = []
    try:
        for name, text in zip(_COLUMNS, fields):
            if name == "mode":
                values.append(_MODES[text])  # an unknown mode's message is its repr
            elif name == "event":
                values.append(None)  # judged after every other column
            elif not text and name in _BLANKS:
                values.append(_BLANKS[name])
            elif isfinite(value := float(text)):
                values.append(value)
            else:
                raise ValueError(f"{name} must be finite, got {text}")
    except (ValueError, KeyError) as exc:
        raise TraceFormatError(f"{path}:{n}: {exc}") from None
    values[8] = _EVENTS.get(fields[8])
    if values[8] is None:
        raise TraceFormatError(f"{path}:{n}: unknown event {fields[8]!r}")
    return TraceRecord(*values)


def duration_problems(duration) -> list[str]:
    """The one rule for a run's duration: no problem if it is finite and
    > 0, else one message, which names the key as the config loader does."""
    if duration <= 0:
        return [f"duration: must be > 0, got {duration}"]
    if not isfinite(duration):
        return [f"duration: must be finite, got {duration}"]
    return []


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
        problems = duration_problems(self.duration)
        stop = self.stop_after_small_shifts
        if stop is not None and (type(stop) is not int or stop < 1):
            problems.append(
                f"stop_after_small_shifts: must be a whole number >= 1 or None, got {stop!r}")
        profile = self.profile
        watts = max(self.large.power_nominal, self.small.power_nominal, profile.idle_power)
        if not isfinite(profile.ambient_temp + watts / profile.dissipation):
            problems.append(f"device: dissipation {profile.dissipation} W/C is too small for "
                            f"{watts} W: the equilibrium temperature is not finite")
        if self.large.base_latency < self.small.base_latency:
            problems.append(
                f"suite: large variant ({self.large.base_latency}s) must not be faster than "
                f"small ({self.small.base_latency}s)"
            )
        # The large model is the slowest variant, and f_throttled its lowest clock.
        throttled = inference_latency(self.large, profile.f_throttled, profile,
                                      self.pacing.latency_multiplier)
        if not isfinite(throttled):
            problems.append(f"device: f_throttled {profile.f_throttled} GHz is too small: the "
                            f"large model's latency there, {throttled} s, is not finite")
        if self.pacing.target_period is not None:
            slowest = self.large.base_latency * self.pacing.latency_multiplier
            if self.pacing.target_period < slowest - 1e-12:
                problems.append(
                    f"pacing.target_period: {self.pacing.target_period}s is shorter than the "
                    f"large model's nominal latency {slowest:.6g}s"
                )
        if problems:
            raise ScenarioError(*problems)


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


def run_scenario(scenario: Scenario) -> Trace:
    """Run the closed loop until sim_time reaches the scenario duration.

    With ``scenario.stop_after_small_shifts`` set to n, the run ends
    sooner: right after the row that makes the n-th shift to SMALL. That
    row's model-load stall has already run, so the stopped trace is an
    exact prefix of the full run's.

    Deterministic: the only randomness (logging and model-load stalls)
    comes from a generator seeded with scenario.seed. Both draws take
    their deviates from one ``normal_stream`` over that generator, which
    repeats ``Random.gauss``; each is clamped at zero, and weight sharing
    takes no stall draw.

    Everything that does not change from row to row is read once per run:
    the scenario's fields, a ``HeatSource`` per power curve (band
    closure and governor rule), each variant's ``(compute, idle)`` at
    ``f_nominal`` and ``f_throttled``, the platform's logging mean and
    std, the normal stream's bound ``__next__``, and the controller's
    bound ``observe_reading``, which takes the reading as two plain
    numbers, so no ``TemperatureSample`` is built per row. A row's
    ``(compute, idle)`` is read again only when ``device.freq`` is not the
    very object it was last read at, or the row before shifted the
    variant; a frequency between the two levels (pi-pin's sag) is a new
    object per governor step and takes ``iteration_time``. The
    controller's mode is read only on a shift row.

    A row with idle time takes three ``advance`` calls: compute, idle and
    logging. Without idle, compute and logging run back to back at the
    running model's power, and ``advance`` solves each band exactly, so
    one call over their sum is the same step up to rounding.

    Governor events are read from the device's ``trips`` and ``throttled``
    and wait until a row that stays shows them: ``throttle_on`` if
    ``trips`` has moved since the last row that stayed, else
    ``throttle_off`` if ``throttled`` went from True to False since then; a
    shift row shows its decision and leaves them waiting.
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
    levels = (profile.f_nominal, profile.f_throttled)
    large_times = {f: iteration_time(large, f, profile, pacing) for f in levels}
    small_times = {f: iteration_time(small, f, profile, pacing) for f in levels}
    variant, heat, times = large, large_heat, large_times
    # The clock object ``(compute, idle)`` was last read at; a shift clears it.
    read_at = None
    mode = Mode.LARGE
    stay, to_small = Decision.STAY, Decision.SHIFT_TO_SMALL
    trace = Trace()
    append = trace.append
    # ``trips`` and ``throttled`` as the last row that stayed saw them.
    shown_trips, shown_throttled = 0, False

    while device.sim_time < duration and small_shifts_left != 0:
        freq = device.freq
        if freq is not read_at:
            # A frequency between the two levels (pi-pin's sag) misses the table.
            compute, idle = times.get(freq) or iteration_time(variant, freq, profile, pacing)
            read_at = freq
        log_dt = log_mean + normal() * log_std if logging_enabled else 0.0
        if not log_dt > 0.0:
            log_dt = 0.0  # the draw is clamped at zero
        if idle > 0.0:
            advance(device, heat, compute)
            advance(device, idle_heat, idle)
            if log_dt > 0.0:
                advance(device, heat, log_dt)
        else:
            # Logging follows compute at the same power: one exact step.
            advance(device, heat, compute + log_dt)

        cpu_temp = device.temp
        freq_now = device.freq
        avg = grad = None
        decision = stay
        if observe is not None:
            decision = observe(device.sim_time, cpu_temp)
            avg = controller.last_avg_temp
            grad = controller.last_grad

        overhead = 0.0
        if decision is stay:
            # A release follows each trip, so with no trip since the last row
            # that stayed, ``throttled`` can only have gone from True to False.
            if device.trips != shown_trips:
                event = EVENT_THROTTLE_ON
                shown_trips, shown_throttled = device.trips, device.throttled
            elif shown_throttled and not device.throttled:
                event = EVENT_THROTTLE_OFF
                shown_throttled = False
            else:
                event = EVENT_NONE
        else:
            event = decision._value_
            mode = controller.mode  # only a shift changes it
            read_at = None
            if decision is to_small:
                variant, heat, times = small, small_heat, small_times
                small_shifts_left -= 1
            else:
                variant, heat, times = large, large_heat, large_times
            if not weight_shared:
                overhead = variant.shift_mean + normal() * variant.shift_std
                if overhead > 0.0:
                    # Loading the incoming model is compute; this row is
                    # already sampled, so its events wait for a later row.
                    advance(device, heat, overhead)
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
