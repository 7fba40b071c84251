"""Reference forms the lean program code is checked against.

Each is the plain form of an idea that ``src/`` holds once, in a faster
shape: the integrator (``advance`` skips the governor rule where a step
ends inside a steady band), the controller's two filters
(``observe_reading`` inlines them), the warm-up rule as first written
(``observe_reading`` keeps only its cooling flag), the run's random draws
(``run_scenario`` takes them from one ``normal_stream``), the row-event
pick from a list of governor events (``run_scenario`` reads the device's
``trips`` and ``throttled`` instead), the whole controller update,
the whole row loop, the stable-cycle accuracy's scan for shifts to
SMALL (``stable_iteration_accuracy`` finds only the starts it reads, by
``list.index``), and the trace CSV's row formatting and row parsing
(``emit_trace`` and ``parse_trace`` handle each distinct tail once). The
row parse has its own judge, ``row_problem``, which words a row's error
without the program's ``_checked_row``, so the two are checked against
each other. No program path calls them; the lockstep tests require the
lean code to equal them bit for bit. Tests import this module as they
import ``conftest``; it holds no tests.
"""

import copy
import random
import weakref
from itertools import product
from math import exp, inf, isfinite, log

from thermoshift.analysis import STABLE_CYCLES, summarize
from thermoshift.controller import (
    Decision,
    Mode,
    ShiftController,
    TemperatureSample,
)
from thermoshift.errors import AnalysisError, TraceFormatError
from thermoshift.harness import (
    CSV_HEADER,
    EVENT_NONE,
    EVENT_SHIFT_LARGE,
    EVENT_SHIFT_SMALL,
    EVENT_THROTTLE_OFF,
    EVENT_THROTTLE_ON,
    Trace,
    TraceRecord,
)
from thermoshift.thermal import DeviceState, HeatSource, advance
from thermoshift.workload import LOGGING_OVERHEAD, Platform, iteration_time, power_draw


def ema_update(prev: float, value: float, coeff: float) -> float:
    """One exponential-moving-average step: coeff*prev + (1 - coeff)*value."""
    return coeff * prev + (1.0 - coeff) * value


# The warm-up rule as first written: a release to LARGE needs this many
# samples since the last reset, and a cooling sample among them. The slope
# EMA restarts at zero, which already exceeds any negative grad_threshold,
# so an unguarded check would bounce straight back on the first sample of
# every SMALL phase.
WARMUP_MIN_SAMPLES = 2


class ReferenceMemory:
    """What the reference forms keep of their own beside a controller:
    the previous smoothed temperature and the samples since the last
    reset. It lives outside ``vars(ctl)``, so ``controller_bits`` of a
    controller the reference stepped shows only what the program keeps."""

    __slots__ = ("prev_avg_temp", "samples_since_reset")

    def __init__(self, config):
        self.prev_avg_temp = 0.0 if config.literal_init else None
        self.samples_since_reset = 0


_MEMORY = weakref.WeakKeyDictionary()


def reference_memory(ctl) -> ReferenceMemory:
    """The reference's memory for ``ctl``, as after a reset when first asked.
    ``reference_observe`` clears it on each shift; a reset made outside the
    reference forms is not seen."""
    memory = _MEMORY.get(ctl)
    if memory is None:
        memory = _MEMORY[ctl] = ReferenceMemory(ctl.config)
    return memory


def _reference_reset(ctl) -> None:
    ctl.reset_filters()
    _MEMORY[ctl] = ReferenceMemory(ctl.config)


def estimate_derivative(ctl, new_avg: float, dt: float | None = None) -> float:
    """Fold one smoothed temperature into ``ctl``'s slope estimate.

    The raw slope is the change of the smoothed temperature since the
    previous sample (defined as 0 when no previous sample exists since
    the last reset). Returns the EMA-smoothed slope and advances the
    previous value, which ``reference_memory(ctl)`` remembers.
    """
    memory = reference_memory(ctl)
    if memory.prev_avg_temp is None:
        raw = 0.0
    else:
        raw = new_avg - memory.prev_avg_temp
        if ctl.config.per_second and dt is not None and dt > 0.0:
            raw /= dt
    memory.prev_avg_temp = new_avg
    if raw < 0.0:
        ctl._saw_cooling = True
    ctl.grad = ema_update(ctl.grad, raw, ctl.config.grad_smoothing)
    return ctl.grad


def reference_observe(ctl, sample):
    """``observe`` stepped by hand with the reference filter forms and the
    warm-up rule as first written: ``WARMUP_MIN_SAMPLES`` samples since the
    reset, one of them cooling."""
    t = sample.celsius
    cfg = ctl.config
    memory = reference_memory(ctl)
    dt = None if ctl._last_time is None else sample.time_s - ctl._last_time
    if ctl.avg_temp is None:
        new_avg = float(t)
    else:
        new_avg = ema_update(ctl.avg_temp, t, cfg.temp_smoothing)
    ctl.avg_temp = new_avg
    estimate_derivative(ctl, new_avg, dt)
    memory.samples_since_reset += 1
    ctl._last_time = sample.time_s
    ctl.last_avg_temp = new_avg
    ctl.last_grad = ctl.grad
    if ctl.mode is Mode.LARGE and t > cfg.temp_threshold:
        ctl.mode = Mode.SMALL
        _reference_reset(ctl)
        return Decision.SHIFT_TO_SMALL
    if (ctl.mode is Mode.SMALL and ctl.grad > cfg.grad_threshold
            and (cfg.literal_init or (memory.samples_since_reset >= WARMUP_MIN_SAMPLES
                                      and ctl._saw_cooling))):
        ctl.mode = Mode.LARGE
        _reference_reset(ctl)
        return Decision.SHIFT_TO_LARGE
    return Decision.STAY


def shift_overhead(variant, rng, weight_shared=False):
    """Seconds stalled loading ``variant`` in during a shift.

    Draws from a normal with the variant's measured mean/std, clamped at
    zero. With true weight sharing there is nothing to load, so the stall
    is zero and no random draw is consumed.
    """
    if weight_shared:
        return 0.0
    return max(0.0, rng.gauss(variant.shift_mean, variant.shift_std))


def logging_overhead(platform: Platform, rng, enabled=True):
    """Seconds spent writing the per-inference log row, clamped at zero."""
    if not enabled:
        return 0.0
    mean, std = LOGGING_OVERHEAD[platform]
    return max(0.0, rng.gauss(mean, std))


def pick_event(decision: Decision, governor_events) -> str:
    """The row's event: a shift decision wins over governor events, and
    ``throttle_on`` over ``throttle_off``."""
    if decision is Decision.STAY:
        if EVENT_THROTTLE_ON in governor_events:
            return EVENT_THROTTLE_ON
        if EVENT_THROTTLE_OFF in governor_events:
            return EVENT_THROTTLE_OFF
    return decision.value


def record_throttle_changes(source, events=None) -> list[str]:
    """Wrap ``source.rule`` in place so that each call also records the
    change of ``throttled`` it makes: ``throttle_on`` where it turns True,
    ``throttle_off`` where it turns False. Returns the list the records
    go to, ``events`` if one is given, so sources can share a list.

    These are the governor events as the rules once returned them, read
    from ``throttled`` alone, without ``trips``."""
    rule = source.rule
    if events is None:
        events = []

    def recording_rule(state):
        was_throttled = state.throttled
        rule(state)
        if state.throttled != was_throttled:
            events.append(EVENT_THROTTLE_ON if state.throttled else EVENT_THROTTLE_OFF)

    source.rule = recording_rule
    return events


def reference_advance(state, source, dt) -> list[str]:
    """``advance`` as it stood before steady bands: it reads only the
    first three band constants and runs the governor rule after every
    band step, also where the step ends strictly inside a band on which
    the rule cannot act. Returns the governor events of the step, in
    order, as ``record_throttle_changes`` records them on a copy of
    ``source``."""
    if not 0.0 < dt < inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    source = copy.copy(source)
    events = record_throttle_changes(source)
    left = dt
    while left > 0.0:
        rate, t_eq, edge = source.band(state)[:3]
        temp = state.temp
        end = t_eq + (temp - t_eq) * exp(-rate * left)
        if edge is None or edge == t_eq or (edge - temp) * (end - edge) < 0.0:
            state.temp = end
            left = 0.0
        else:
            state.temp = edge
            left -= log((t_eq - temp) / (t_eq - edge)) / rate
        source.rule(state)
    state.sim_time += dt
    return events


def reference_run(scenario, split=False):
    """The row loop as it stood before per-run lookups: every row calls
    ``iteration_time``, ``logging_overhead`` and ``pick_event`` and reads
    the scenario. Kept as the oracle the lean loop in ``run_scenario``
    must equal. Governor events, recorded by ``record_throttle_changes``
    on each of the run's sources, wait in one list until a row that stays
    picks its event from them; a shift row leaves them waiting.

    A row with no idle advances once over compute plus logging, as
    ``run_scenario`` does. ``split=True`` advances over each on its own,
    as the loop did before that merge: the exact solver makes the two
    differ only by rounding."""
    scenario.validate()
    profile = scenario.profile
    rng = random.Random(scenario.seed)
    device = DeviceState(temp=profile.ambient_temp, freq=profile.f_nominal)
    controller = ShiftController(scenario.controller) if scenario.controller else None
    # One heat source per power curve, with its governor bands solved once.
    large_heat = HeatSource(profile, lambda f: power_draw(scenario.large, f, profile))
    small_heat = HeatSource(profile, lambda f: power_draw(scenario.small, f, profile))
    idle_heat = HeatSource(profile, lambda f: profile.idle_power)
    variant, heat = scenario.large, large_heat
    trace = Trace()
    pending: list[str] = []  # governor events that no row has shown yet
    for source in (large_heat, small_heat, idle_heat):
        record_throttle_changes(source, pending)

    while device.sim_time < scenario.duration:
        compute, idle = iteration_time(variant, device.freq, profile, scenario.pacing)

        log_dt = logging_overhead(scenario.platform, rng, scenario.logging_enabled)
        if idle > 0.0 or split:
            advance(device, heat, compute)
            if idle > 0.0:
                advance(device, idle_heat, idle)
            if log_dt > 0.0:
                advance(device, heat, log_dt)
        else:
            advance(device, heat, compute + log_dt)

        cpu_temp = device.temp
        freq_now = device.freq
        avg = grad = None
        decision = Decision.STAY
        if controller is not None:
            decision = controller.observe(TemperatureSample(device.sim_time, cpu_temp))
            avg = controller.last_avg_temp
            grad = controller.last_grad

        overhead = 0.0
        event = pick_event(decision, pending)
        if decision is Decision.STAY:
            pending.clear()
        else:
            if decision is Decision.SHIFT_TO_SMALL:
                variant, heat = scenario.small, small_heat
            else:
                variant, heat = scenario.large, large_heat
            overhead = shift_overhead(variant, rng, scenario.weight_shared)
            if overhead > 0.0:
                # Loading the incoming model is compute; this row is
                # already sampled, so its events wait for a later row.
                advance(device, heat, overhead)

        trace.append(TraceRecord(
            device.sim_time,
            cpu_temp,
            avg,
            grad,
            freq_now,
            controller.mode if controller else Mode.LARGE,
            compute,
            idle,
            event,
            overhead,
            log_dt,
        ))
    return trace


def reference_stable_iteration_accuracy(trace, large, small) -> float:
    """``stable_iteration_accuracy`` as first written: a comprehension
    lists the index of every shift-to-small row of the trace."""
    starts = [i for i, r in enumerate(trace) if r.event == EVENT_SHIFT_SMALL]
    complete = max(0, len(starts) - 1)
    if complete < STABLE_CYCLES:
        raise AnalysisError(
            f"need {STABLE_CYCLES} complete shift cycles, found {complete}"
        )
    return summarize(trace[starts[0]:starts[STABLE_CYCLES]], large, small).est_accuracy


def _row_format(blanks) -> str:
    # "%.0s" prints any value, None included, as nothing: a blank column.
    avg, grad, freq, latency, idle = ("%.0s" if blank else "%.6g" for blank in blanks)
    return f"%.6g,%.6g,{avg},{grad},{freq},%s,{latency},{idle},%s,%.6g\n"


# One row format per pattern of blank optional columns, keyed by which of
# avg_temp, grad, freq, inference_latency and idle are None.
_ROW_FORMATS = {blanks: _row_format(blanks) for blanks in product((False, True), repeat=5)}


def reference_csv_text(trace) -> str:
    """The text ``emit_trace`` writes, as it was formed before the tail
    table: every row is one ``%`` over all ten columns."""
    lines = [CSV_HEADER + "\n"]
    for r in trace:
        avg, grad, freq, latency, idle = r.avg_temp, r.grad, r.freq, r.inference_latency, r.idle
        row_format = _ROW_FORMATS[
            avg is None, grad is None, freq is None, latency is None, idle is None]
        lines.append(row_format % (r.sim_time, r.cpu_temp, avg, grad, freq, r.mode._name_,
                                   latency, idle, r.event, r.overhead))
    return "".join(lines)


_COLUMNS = CSV_HEADER.split(",")
_MAY_BE_BLANK = frozenset(("avg_temp", "grad", "freq", "inference_latency", "idle", "overhead"))
_EVENTS = frozenset((EVENT_NONE, EVENT_SHIFT_SMALL, EVENT_SHIFT_LARGE, EVENT_THROTTLE_ON,
                     EVENT_THROTTLE_OFF))


def row_problem(fields) -> str | None:
    """What is wrong with a row's ten column texts, or None: the first
    column from the left that is not a float, not finite or not a mode,
    else an unknown event, worded as ``parse_trace`` words it."""
    for name, text in zip(_COLUMNS, fields):
        if name == "mode":
            if text not in Mode.__members__:
                return repr(text)
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


def finite_float(text):
    """``float(text)``, or None for a blank text; a text that is not
    finite raises ``ValueError``."""
    value = float(text) if text else None
    if value is not None and not isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def reference_parse_lines(path, lines) -> Trace:
    """``parse_trace``'s parse of ``lines``, as it was before the tail table:
    every row is split into its ten columns and judged by ``row_problem``,
    then converted. A row the judge passes but the conversion refuses
    raises ``ValueError``, not a message."""
    lines = iter(lines)
    if next(lines, "").rstrip("\n") != CSV_HEADER:
        raise TraceFormatError(f"{path}: missing or wrong header (want {CSV_HEADER!r})")
    trace = Trace()
    for n, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 10:
            raise TraceFormatError(f"{path}:{n}: expected 10 columns, got {len(fields)}")
        problem = row_problem(fields)
        if problem:
            raise TraceFormatError(f"{path}:{n}: {problem}")
        sim_time, cpu_temp, avg, grad, freq, mode, latency, idle, event, overhead = fields
        trace.append(TraceRecord(
            finite_float(sim_time),
            finite_float(cpu_temp),
            finite_float(avg),
            finite_float(grad),
            finite_float(freq),
            Mode[mode],
            finite_float(latency),
            finite_float(idle),
            event,
            finite_float(overhead) if overhead else 0.0,
        ))
    return trace
