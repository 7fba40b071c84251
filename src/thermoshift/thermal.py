"""Lumped thermal model of a device SoC plus its throttling governor.

Temperature follows newtonian heating/cooling,

    C * dT/dt = P - k * (T - T_ambient)

``advance``, the one integrator, solves it exactly: on every governor band
the right-hand side is linear in T, so the temperature relaxes
exponentially and the time to the next governor threshold is one
logarithm. Each governor kind has one solver. It reads the profile's
trip and release points, frequency levels and gain once, solves the
band constants (rates, equilibria, band edges) of one power curve, and
returns a band closure and a rule closure over them, which ``advance``
calls without reading the profile again. A ``HeatSource`` is the one way
into the model: ``advance(state, source, dt)`` takes nothing else.
``_GOVERNORS`` maps each governor kind to its solver, and ``HeatSource``
alone reads it, so the kind is dispatched in one place.

The rule changes the clock only at a threshold (phone-drop) or inside
the band where its clock follows the temperature (pi-pin). So a band
closure also marks the steady bands, where the rule provably leaves the
state as it is, and ``advance`` runs the rule at every band edge it
stops on but skips it where a step ends strictly inside a steady band:
a run that the controller keeps short of the trip point calls no rule.
Each solver's docstring names its steady bands, beside the rule.

A rule records what it did on the state and returns nothing: it sets
``throttled``, and adds 1 to ``trips`` each time ``throttled`` turns
True. A trace's governor events are read from these two fields (see
``run_scenario``).

The same band constants bound every temperature a source can carry the
device to: a solver also returns ``hottest``, the highest temperature
``advance`` reaches under that source from any state at or below it.
``advance`` computes ``t_eq + (T - t_eq) * exp(...)``, which rounds to at
most ``t_eq`` when heating, and stops exactly on band edges, so the
bound is never passed.

Calibration runs no simulation. Below the trip point the model is
linear, so the time the large model takes to reach the trip point from
ambient, and with it the heat capacity, has a closed form, and so has a
pi-pin gain. A pi-pin device's pinned temperature is its large-model
source's ``hottest``.

Two governor styles are modeled:

* ``phone-drop``: a hard two-level frequency drop at the trip temperature
  with a hysteresis release well below it;
* ``pi-pin``: proportional shedding that holds the temperature pinned
  just above the trip point while frequency sags a few percent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import exp, inf, isfinite, log  # module-level names for the band loops

from .errors import CalibrationError, ProfileError, non_finite_fields


class GovernorKind(enum.Enum):
    PHONE_DROP = "phone-drop"
    PI_PIN = "pi-pin"


# Bound once: every profile check and calibration read it, and a member
# read through its enum class costs far more.
_PI_PIN = GovernorKind.PI_PIN


@dataclass(frozen=True)
class DeviceProfile:
    heat_capacity: float        # J per deg C
    dissipation: float          # W per deg C
    ambient_temp: float         # deg C
    f_nominal: float            # GHz
    f_throttled: float          # GHz, throttled level / pi-pin floor
    t_throttle: float           # deg C, governor trip point
    t_resume: float             # deg C, phone-drop release (below t_throttle)
    governor: GovernorKind = GovernorKind.PHONE_DROP
    pin_gain: float = 0.0       # GHz shed per deg C above trip (pi-pin only)
    idle_power: float = 1.0     # W drawn during injected idle time

    def __post_init__(self):
        problems = non_finite_fields(self)
        if problems:
            raise ProfileError(*problems)
        if self.heat_capacity <= 0:
            problems.append(f"heat_capacity must be > 0, got {self.heat_capacity}")
        if self.dissipation <= 0:
            problems.append(f"dissipation must be > 0, got {self.dissipation}")
        elif self.heat_capacity > 0 and not 0.0 < self.dissipation / self.heat_capacity < inf:
            # advance's relaxation rate: 0 never relaxes, inf never ends a band.
            problems.append(f"dissipation / heat_capacity must be finite and > 0, got "
                            f"{self.dissipation} / {self.heat_capacity}")
        if not (0 < self.f_throttled < self.f_nominal):
            problems.append(
                f"need 0 < f_throttled < f_nominal, got {self.f_throttled} / {self.f_nominal}"
            )
        if not self.t_resume < self.t_throttle:
            problems.append(
                f"t_resume must sit below t_throttle, got {self.t_resume} / {self.t_throttle}"
            )
        if self.governor is _PI_PIN and self.pin_gain <= 0:
            problems.append("pi-pin governor needs pin_gain > 0")
        if self.idle_power < 0:
            problems.append(f"idle_power must be >= 0, got {self.idle_power}")
        if problems:
            raise ProfileError(*problems)


@dataclass
class DeviceState:
    temp: float
    freq: float
    throttled: bool = False
    sim_time: float = 0.0
    trips: int = 0  # times a governor rule turned ``throttled`` True


class HeatSource:
    """Input power as a function of frequency, with the governor rule and
    bands of one profile solved once: what ``advance`` runs on.

    ``power_of_freq`` maps a frequency to input power and must be affine
    in frequency. A source holds two closures over constants read from
    the profile once, when it is built: ``rule(state)``, the profile's
    governor rule, and ``band(state) -> (rate, t_eq, edge, steady)``,
    giving the relaxation rate (1/s), the equilibrium, the threshold
    ahead of the temperature (None if none) and ``steady``: None, or the
    bound of a steady band, on which the rule leaves the state as it is
    wherever the temperature lies strictly on the state's side of the
    bound. The governor's solver names which bands are steady. Every
    other band, and a state on or past a threshold or off its band's
    clock or throttle flag, gets None. A steady band's edge is None or its
    bound, and the band is one tuple, built once per source and returned
    as is. One call to the governor's solver builds the rule, the bands
    and ``hottest`` together. Build one source per power curve and run,
    and pass it to every ``advance`` call of that run. A source keeps the
    constants it was built with, so a profile changed later (by
    ``dataclasses.replace``) needs a new source.

    ``hottest`` is the highest temperature ``advance`` can carry a state
    at or below it to under this source. Building a source whose
    equilibria are not finite (a dissipation too small for its power, or
    a pi-pin gain that sheds an infinite power) raises ProfileError.
    """

    __slots__ = ("band", "rule", "hottest")

    def __init__(self, profile, power_of_freq):
        solve = _GOVERNORS[profile.governor]
        self.band, self.rule, self.hottest = solve(profile, power_of_freq)


def advance(state, source, dt) -> None:
    """Advance dt seconds exactly under ``source``, a ``HeatSource``, with
    its governor acting continuously.

    On each governor band the temperature relaxes in closed form; where
    it reaches the band's threshold it is set to the threshold exactly
    and the source's governor rule runs there, so a mid-interval
    frequency drop also lowers the heat flowing in. Where the interval
    ends, the rule runs once more, unless the temperature ends strictly
    inside a steady band, where the rule cannot act. The rule records
    what it did on the state: it sets ``throttled``, and adds 1 to
    ``trips`` where ``throttled`` turns True.
    """
    if not 0.0 < dt < inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    band = source.band  # ``source.rule`` is read only where a step reaches it
    left = dt
    while left > 0.0:
        rate, t_eq, edge, steady = band(state)
        temp = state.temp
        end = t_eq + (temp - t_eq) * exp(-rate * left)
        # A steady band starts strictly on one side of its bound, which is
        # its edge if it has one ahead: an end on that side too (not on the
        # bound) ends the interval with nothing for the rule to do.
        if steady is not None and (end - steady) * (temp - steady) > 0.0:
            state.temp = end
            break
        if edge is None or edge == t_eq or (edge - temp) * (end - edge) < 0.0:
            state.temp = end
            left = 0.0
        else:
            state.temp = edge
            left -= log((t_eq - temp) / (t_eq - edge)) / rate
        source.rule(state)
    state.sim_time += dt


def _finite_equilibria(*equilibria):
    """Refuse band equilibria that are not finite: ``advance`` cannot relax toward them."""
    for t_eq in equilibria:
        if not isfinite(t_eq):
            raise ProfileError(
                f"band equilibria must be finite, got {', '.join(map(str, equilibria))} C")


def _drop(profile, power_of_freq):
    """Phone-drop: a hard two-level drop at the trip point, with hysteresis.

    The rule drops the clock to ``f_throttled`` at the trip point and
    restores ``f_nominal`` at the release point. The power is constant at
    the current level until the next threshold, and two bands are steady:
    at f_nominal, unthrottled, short of the trip point, and at
    f_throttled, throttled, above the release point.

    Returns ``(band, rule, hottest)``: unthrottled, the temperature stops
    at the trip point or its equilibrium, whichever is lower; throttled,
    it goes no higher than the throttled equilibrium.
    """
    k, amb = profile.dissipation, profile.ambient_temp
    rate = k / profile.heat_capacity
    f_nominal, f_throttled = profile.f_nominal, profile.f_throttled
    t_throttle, t_resume = profile.t_throttle, profile.t_resume
    nominal_eq = amb + power_of_freq(f_nominal) / k
    throttled_eq = amb + power_of_freq(f_throttled) / k
    _finite_equilibria(nominal_eq, throttled_eq)
    running = (rate, nominal_eq, t_throttle, t_throttle)
    held = (rate, throttled_eq, t_resume, t_resume)

    def band(state):
        freq, temp = state.freq, state.temp
        if state.throttled:
            edge = t_resume
            due = temp <= edge
            if freq == f_throttled and not due:
                return held
        else:
            edge = t_throttle
            due = temp >= edge
            if freq == f_nominal and not due:
                return running
        if freq == f_nominal:
            t_eq = nominal_eq
        elif freq == f_throttled:
            t_eq = throttled_eq
        else:
            t_eq = amb + power_of_freq(freq) / k
        # A state already past its threshold trips the governor at once.
        return rate, t_eq, temp if due else edge, None

    def rule(state):
        if not state.throttled and state.temp >= t_throttle:
            state.freq = f_throttled
            state.throttled = True
            state.trips += 1
        elif state.throttled and state.temp <= t_resume:
            state.freq = f_nominal
            state.throttled = False

    return band, rule, max(min(nominal_eq, t_throttle), throttled_eq)


def _pin(profile, power_of_freq):
    """Pi-pin: the rule sheds ``pin_gain`` GHz per degree above the trip
    point, down to the ``f_throttled`` floor.

    So the power is nominal below the trip point, throttled above the
    frequency floor, and affine in T in between, shedding
    ``pin_gain * dP/df`` watts per degree. Only the band below the trip
    point, at f_nominal, unthrottled, is steady.

    Returns ``(band, rule, hottest)``: the nominal equilibrium if the
    pinned one does not lie above the trip point (so a state at the trip
    point takes the nominal band), else the pinned one if it stays below
    the frequency floor, else the throttled one (or the floor, where it
    stops).
    """
    c, k, amb = profile.heat_capacity, profile.dissipation, profile.ambient_temp
    trip, gain = profile.t_throttle, profile.pin_gain
    f_nominal, f_throttled = profile.f_nominal, profile.f_throttled
    unthrottled = f_nominal - 1e-12  # the lowest frequency that is not throttled
    p_nom = power_of_freq(f_nominal)
    p_thr = power_of_freq(f_throttled)
    if p_thr > p_nom:
        raise ValueError(f"power must not fall as frequency rises, got {p_nom} W at "
                         f"f_nominal and {p_thr} W at f_throttled")
    span = f_nominal - f_throttled
    shed = gain * (p_nom - p_thr) / span
    floor = trip + span / gain
    free_rate, below_eq, above_eq = k / c, amb + p_nom / k, amb + p_thr / k
    pinned_eq = (p_nom + shed * trip + k * amb) / (k + shed)
    _finite_equilibria(below_eq, above_eq, pinned_eq)
    pinned_edge = trip if pinned_eq < trip else floor if pinned_eq > floor else None
    pinned = ((k + shed) / c, pinned_eq, pinned_edge, None)
    below_edge = trip if below_eq > trip else None
    above = (free_rate, above_eq, floor if above_eq < floor else None, None)
    running = (free_rate, below_eq, below_edge, trip)

    def band(state):
        # The band the temperature is in or, on a band edge, moving into. An
        # edge counts as ahead only when the temperature is strictly short
        # of it, so every crossing makes progress. Only a state on its
        # band's clock level and throttle flag takes the steady form.
        temp = state.temp
        if temp < trip:
            if state.freq == f_nominal and not state.throttled:
                return running
            return free_rate, below_eq, below_edge, None
        if temp == trip and pinned_eq <= trip:
            return free_rate, below_eq, None, None
        if temp > floor:
            return above
        if temp == floor and pinned_eq >= floor:
            return free_rate, above_eq, None, None
        return pinned

    def rule(state):
        excess = state.temp - trip
        if excess > 0.0:
            freq = f_nominal - gain * excess
            if freq < f_throttled:
                freq = f_throttled
        else:
            freq = f_nominal
        state.freq = freq
        if freq < unthrottled:
            if not state.throttled:
                state.throttled = True
                state.trips += 1
        else:
            state.throttled = False

    hottest = (below_eq if pinned_eq <= trip else pinned_eq if pinned_eq <= floor
               else max(floor, above_eq))
    return band, rule, hottest


# Each governor kind's solver, ``solve(profile, power_of_freq) -> (band,
# rule, hottest)``; the one dispatch on the kind.
_GOVERNORS = {
    GovernorKind.PHONE_DROP: _drop,
    GovernorKind.PI_PIN: _pin,
}


@dataclass(frozen=True)
class CalibrationTargets:
    """Desk-scale behavior the calibrated device must reproduce."""

    ambient: float = 22.0
    trip_temp: float = 77.0
    temp_threshold: float = 73.0      # shift trip the small model must sit well below
    time_to_throttle: float = 600.0   # s, large model alone from an ambient start
    time_window: tuple[float, float] = (300.0, 900.0)
    small_equilibrium: float = 66.0   # deg C, small model running flat out
    governor: GovernorKind = GovernorKind.PHONE_DROP
    f_nominal: float = 2.86
    f_throttled: float = 2.05
    resume_temp: float | None = None  # phone-drop release; default trip - 5
    dissipation: float = 0.12         # W per deg C held fixed; capacity is solved
    latency_rise: float = 0.045       # pi-pin: fractional latency rise at the pin
    sticky_margin: float = 3.0        # phone-drop: throttled equilibrium this far above resume
    large_power: float | None = None  # W; overrides the derived large-model draw
    small_power: float | None = None  # W; overrides the draw implied by small_equilibrium

    def __post_init__(self):
        problems = non_finite_fields(self)
        if not all(math.isfinite(end) for end in self.time_window):
            problems.append(f"time_window must be finite, got {self.time_window}")
        if problems:
            raise CalibrationError(*problems)


@dataclass(frozen=True)
class CalibrationResult:
    profile: DeviceProfile
    large_power: float
    small_power: float
    time_to_throttle: float
    small_equilibrium: float
    pinned_temp: float | None = None
    latency_rise: float | None = None


def calibrate_profile(targets: CalibrationTargets) -> CalibrationResult:
    """Solve device constants so the simulated device matches the targets.

    The heat capacity is solved in closed form. Below the trip point the
    large model heats the device toward its equilibrium T_eq with time
    constant C/k, so it reaches the trip point from ambient after
    (C/k) * ln((T_eq - T_amb) / (T_eq - T_trip)) seconds; setting that to
    ``time_to_throttle`` gives C. The pi-pin gain is closed-form too: the
    rule's clock f_nominal - gain * (T - T_trip) must be the pinned clock
    f* = f_nominal / (1 + latency_rise) at T* = T_amb + P_large(f*) / k,
    the large model's equilibrium on f*. That profile's large-model source
    gives the pinned temperature, as ``hottest``, and its rule the pinned
    clock there. Raises CalibrationError for infeasible targets (a
    dissipation that is not positive, small model unable to cool the
    device, small power above large power or below zero, a time to
    throttle that is not positive, outside its window or too short or long
    for a heat capacity in (0, inf), a trip point the large model cannot
    cross or ambient already reaches; where the phone-drop large-model
    power is derived from their ratio, an ``f_nominal`` or ``f_throttled``
    that is not > 0, an ``f_throttled`` not below ``f_nominal``, or one so
    small that the ratio rounds to 0; and for a pi-pin device, a
    ``latency_rise`` outside (0, f_nominal / f_throttled - 1], a
    ``large_power`` whose T* is not above the trip point, or a pinned
    temperature more than 1 C above it).
    """
    k = targets.dissipation
    amb = targets.ambient
    if k <= 0:
        raise CalibrationError(f"dissipation must be > 0 W/C, got {k}")

    resume = targets.resume_temp if targets.resume_temp is not None else targets.trip_temp - 5.0
    if targets.large_power is not None:
        large_power = targets.large_power
        eq_large = amb + large_power / k
    elif targets.governor is GovernorKind.PHONE_DROP:
        # Size the large model's steady state so the post-throttle
        # equilibrium (power scales with frequency) stays inside the
        # hysteresis band: once tripped, the device stays hot and slow.
        for key in ("f_nominal", "f_throttled"):
            if not getattr(targets, key) > 0:
                raise CalibrationError(f"{key} must be > 0 GHz, got {getattr(targets, key)}")
        if targets.f_throttled >= targets.f_nominal:
            raise CalibrationError(f"f_throttled {targets.f_throttled} GHz must sit below "
                                   f"f_nominal {targets.f_nominal} GHz")
        ratio = targets.f_throttled / targets.f_nominal
        if not ratio > 0:
            raise CalibrationError(f"f_throttled {targets.f_throttled} GHz is too small: its "
                                   f"ratio to f_nominal {targets.f_nominal} GHz rounds to 0")
        eq_large = amb + (resume + targets.sticky_margin - amb) / ratio
        large_power = k * (eq_large - amb)
    else:
        # Headroom chosen so the requested latency rise leaves the pinned
        # temperature within 1 C of the trip point.
        eq_large = amb + (targets.trip_temp + 0.5 - amb) * (1.0 + targets.latency_rise)
        large_power = k * (eq_large - amb)

    if targets.small_power is not None:
        small_power = targets.small_power
        small_eq = amb + small_power / k
    else:
        small_eq = targets.small_equilibrium
        small_power = k * (small_eq - amb)

    if small_power >= large_power:
        raise CalibrationError(
            f"small-model power {small_power:.2f} W is not below large-model power "
            f"{large_power:.2f} W"
        )
    if small_eq >= targets.trip_temp:
        raise CalibrationError(
            f"small-model equilibrium {small_eq} C is not below "
            f"the trip point {targets.trip_temp} C"
        )
    if small_eq > targets.temp_threshold - 2.0:
        raise CalibrationError(
            f"small-model equilibrium {small_eq} C must sit at least "
            f"2 C below the shift threshold {targets.temp_threshold} C"
        )
    if targets.time_to_throttle <= 0:
        raise CalibrationError(f"time_to_throttle must be > 0 s, got {targets.time_to_throttle}")
    lo_t, hi_t = targets.time_window
    if not (lo_t <= targets.time_to_throttle <= hi_t):
        raise CalibrationError(
            f"time_to_throttle {targets.time_to_throttle} s outside window {targets.time_window}"
        )
    if eq_large <= targets.trip_temp + 0.5:
        raise CalibrationError(
            f"large-model equilibrium {eq_large:.1f} C cannot cross trip {targets.trip_temp} C"
        )
    if amb >= targets.trip_temp:
        raise CalibrationError(
            f"ambient {amb} C must sit below the trip point {targets.trip_temp} C"
        )
    if small_power < 0:
        if targets.small_power is not None:
            raise CalibrationError(f"small_power must be >= 0 W, got {small_power}")
        raise CalibrationError(
            f"small_equilibrium {small_eq} C is below ambient {amb} C, "
            f"so the small model would draw {small_power:.2f} W"
        )

    crossing_log = math.log((eq_large - amb) / (eq_large - targets.trip_temp))
    # A log that rounds to 0 (a large-model equilibrium far above the trip
    # point) means an unbounded capacity.
    capacity = k * targets.time_to_throttle / crossing_log if crossing_log else math.inf
    if not 0.0 < capacity < math.inf:
        raise CalibrationError(
            f"time_to_throttle {targets.time_to_throttle} s gives a heat capacity of "
            f"{capacity} J/C, outside (0, inf)"
        )
    # A pi-pin device takes its governor once the gain is solved.
    solved = dict(
        heat_capacity=capacity,
        dissipation=k,
        ambient_temp=amb,
        f_nominal=targets.f_nominal,
        f_throttled=targets.f_throttled,
        t_throttle=targets.trip_temp,
        t_resume=resume,
    )
    profile = DeviceProfile(**solved)
    pinned_temp = None
    rise = None
    if targets.governor is _PI_PIN:
        f_nom, f_floor, trip = targets.f_nominal, targets.f_throttled, targets.trip_temp
        f_pin = f_nom / (1.0 + targets.latency_rise)
        if not f_floor <= f_pin < f_nom:
            raise CalibrationError(
                f"latency_rise {targets.latency_rise} is out of reach: the f_throttled floor "
                f"{f_floor} GHz allows (0, {f_nom / f_floor - 1.0}]")
        t_pin = amb + large_power * f_pin / f_nom / k
        if t_pin <= trip:
            raise CalibrationError(
                f"large_power {large_power} W settles at {t_pin:.2f} C on the pinned clock, "
                f"not above trip {trip} C: no pin gain gives the latency_rise")
        gain = (f_nom - f_pin) / (t_pin - trip)
        profile = DeviceProfile(**solved, governor=_PI_PIN, pin_gain=gain)
        source = HeatSource(profile, lambda f: large_power * f / f_nom)
        state = DeviceState(temp=source.hottest, freq=f_nom)
        source.rule(state)
        pinned_temp, rise = state.temp, f_nom / state.freq - 1.0
        if abs(pinned_temp - trip) > 1.0:
            raise CalibrationError(
                f"pinned equilibrium {pinned_temp:.2f} C is more than 1 C above trip "
                f"{trip} C; raise latency_rise or lower large_power"
            )

    return CalibrationResult(
        profile=profile,
        large_power=large_power,
        small_power=small_power,
        time_to_throttle=targets.time_to_throttle,
        small_equilibrium=small_eq,
        pinned_temp=pinned_temp,
        latency_rise=rise,
    )
