import math
import random
import threading

import pytest

from thermoshift.errors import CalibrationError, ProfileError
from thermoshift.thermal import (
    EVENT_THROTTLE_OFF,
    EVENT_THROTTLE_ON,
    CalibrationTargets,
    DeviceProfile,
    DeviceState,
    GovernorKind,
    HeatSource,
    advance,
    calibrate_profile,
)


def profile(C=50.0, k=0.25, ambient=22.0, governor=GovernorKind.PHONE_DROP,
            t_throttle=77.0, t_resume=72.0, f_nominal=2.86, f_throttled=2.0, pin_gain=0.0):
    return DeviceProfile(
        heat_capacity=C, dissipation=k, ambient_temp=ambient,
        f_nominal=f_nominal, f_throttled=f_throttled,
        t_throttle=t_throttle, t_resume=t_resume,
        governor=governor, pin_gain=pin_gain,
    )


def governor(p):
    """The governor rule of profile ``p``, as a ``HeatSource`` holds it."""
    return HeatSource(p, lambda f: 0.0).rule


def closed_form(t, ambient, C, k, power, start):
    t_eq = ambient + power / k
    return t_eq + (start - t_eq) * math.exp(-k * t / C)


class TestPhoneDropGovernor:
    def test_trips_at_threshold(self):
        p = profile()
        state = DeviceState(temp=77.2, freq=p.f_nominal)
        assert governor(p)(state) == EVENT_THROTTLE_ON
        assert state.freq == p.f_throttled
        assert state.throttled

    def test_hysteresis_release(self):
        p = profile(t_resume=72.0)
        state = DeviceState(temp=70.0, freq=p.f_throttled, throttled=True)
        assert governor(p)(state) == EVENT_THROTTLE_OFF
        assert state.freq == p.f_nominal
        assert not state.throttled

    def test_inside_band_no_transition(self):
        p = profile(t_resume=72.0)
        state = DeviceState(temp=74.0, freq=p.f_throttled, throttled=True)
        assert governor(p)(state) is None
        assert state.throttled
        state2 = DeviceState(temp=74.0, freq=p.f_nominal, throttled=False)
        assert governor(p)(state2) is None
        assert not state2.throttled

    def test_two_level_frequency_and_crossing_only_transitions(self):
        # force the temperature across the band repeatedly; the frequency
        # must only ever take the two configured values
        p = profile(C=20.0, k=0.25, t_throttle=77.0, t_resume=72.0)
        state = DeviceState(temp=22.0, freq=p.f_nominal)
        freqs = set()
        transitions = []
        for cycle in range(3):
            for power, seconds in ((16.0, 800.0), (0.5, 800.0)):
                source = HeatSource(p, lambda f: power)
                elapsed = 0.0
                while elapsed < seconds:
                    events = advance(state, source, 0.1)
                    elapsed += 0.1
                    transitions.extend((e, state.temp) for e in events)
                    freqs.add(state.freq)
        assert freqs == {p.f_nominal, p.f_throttled}
        assert len(transitions) == 6  # one on + one off per cycle, no chatter
        for event, temp in transitions:
            if event == EVENT_THROTTLE_ON:
                assert temp == pytest.approx(77.0, abs=0.2)
            else:
                assert temp == pytest.approx(72.0, abs=0.2)


class TestPiPinGovernor:
    def pin_profile(self, pin_gain=0.14):
        return profile(C=20.1, k=0.10, governor=GovernorKind.PI_PIN,
                       t_throttle=78.0, t_resume=73.0,
                       f_nominal=1.5, f_throttled=0.6, pin_gain=pin_gain)

    def test_zero_excess_keeps_nominal(self):
        p = self.pin_profile()
        state = DeviceState(temp=78.0, freq=1.2)
        governor(p)(state)
        assert state.freq == p.f_nominal
        assert not state.throttled

    def test_proportional_shed(self):
        p = self.pin_profile(pin_gain=0.2)
        state = DeviceState(temp=80.0, freq=p.f_nominal)
        assert governor(p)(state) == EVENT_THROTTLE_ON
        assert state.freq == pytest.approx(1.5 - 0.2 * 2.0)

    def test_clamped_at_floor(self):
        p = self.pin_profile(pin_gain=1.0)
        state = DeviceState(temp=90.0, freq=p.f_nominal)
        governor(p)(state)
        assert state.freq == p.f_throttled

    def test_pins_within_one_degree_with_stable_freq(self):
        p = self.pin_profile()
        state = DeviceState(temp=p.ambient_temp, freq=p.f_nominal)
        power = 5.9  # equilibrium 81 C without the governor
        source = HeatSource(p, lambda f: power * f / p.f_nominal)
        while state.sim_time < 4000.0:
            advance(state, source, 1.0)
        temps, freqs = [], []
        for _ in range(600):
            advance(state, source, 1.0)
            temps.append(state.temp)
            freqs.append(state.freq)
        assert all(abs(t - 78.0) <= 1.0 for t in temps)
        assert (max(freqs) - min(freqs)) / max(freqs) < 0.01


class TestProfileValidation:
    def test_rejects_bad_constants(self):
        with pytest.raises(ProfileError):
            profile(C=-1.0)
        with pytest.raises(ProfileError):
            profile(k=0.0)
        with pytest.raises(ProfileError):
            profile(f_throttled=3.5)  # above nominal
        with pytest.raises(ProfileError):
            profile(t_resume=80.0)  # above trip

    def test_pipin_needs_gain(self):
        with pytest.raises(ProfileError):
            profile(governor=GovernorKind.PI_PIN, pin_gain=0.0)


class TestCalibration:
    def test_phone_targets_verified_by_forward_sim(self):
        targets = CalibrationTargets(ambient=22.0, trip_temp=77.0, temp_threshold=73.0,
                                     time_to_throttle=600.0, small_equilibrium=66.0)
        result = calibrate_profile(targets)
        p = result.profile
        assert 300.0 <= result.time_to_throttle <= 900.0
        # independent forward check of the crossing
        state = DeviceState(temp=22.0, freq=p.f_nominal)
        source = HeatSource(p, lambda f: result.large_power)
        while state.temp < 77.0:
            advance(state, source, 0.5)
        assert state.sim_time == pytest.approx(600.0, rel=0.02)
        # small model settles at least 2 C under the shift threshold
        assert p.ambient_temp + result.small_power / p.dissipation <= 73.0 - 2.0

    def test_small_equilibrium_above_trip_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_profile(CalibrationTargets(small_equilibrium=78.5))

    def test_small_power_not_below_large_rejected(self):
        with pytest.raises(CalibrationError, match="not below large-model power"):
            calibrate_profile(CalibrationTargets(small_power=8.0, large_power=6.0))

    def test_explicit_powers_feed_equilibrium_checks(self):
        result = calibrate_profile(CalibrationTargets(large_power=8.0, small_power=5.0))
        assert result.small_equilibrium == pytest.approx(22.0 + 5.0 / 0.12)

    @pytest.mark.parametrize("dissipation, powers", [
        (0.0, {"large_power": 5.0}), (0.0, {"small_power": 5.0}), (0.0, {}), (-0.1, {}),
    ], ids=["zero-with-large-power", "zero-with-small-power", "zero", "negative"])
    def test_non_positive_dissipation_rejected_by_name(self, dissipation, powers):
        with pytest.raises(CalibrationError,
                           match=rf"^dissipation must be > 0 W/C, got {dissipation}$"):
            calibrate_profile(CalibrationTargets(dissipation=dissipation, **powers))

    def test_negative_small_power_rejected_by_name(self):
        with pytest.raises(CalibrationError, match=r"^small_power must be >= 0 W, got -3.0$"):
            calibrate_profile(CalibrationTargets(small_power=-3.0))

    def test_small_equilibrium_below_ambient_rejected_by_name(self):
        with pytest.raises(CalibrationError,
                           match=r"^small_equilibrium 10.0 C is below ambient 22.0 C, "
                                 r"so the small model would draw -1.44 W$"):
            calibrate_profile(CalibrationTargets(small_equilibrium=10.0))

    @pytest.mark.parametrize("targets", [
        CalibrationTargets(small_power=0.0), CalibrationTargets(small_equilibrium=22.0),
    ], ids=["small-power", "small-equilibrium-at-ambient"])
    def test_zero_small_power_accepted(self, targets):
        assert calibrate_profile(targets).small_power == 0.0

    @pytest.mark.parametrize("key", ["f_nominal", "f_throttled"])
    def test_zero_frequency_rejected_by_name(self, key):
        with pytest.raises(CalibrationError, match=rf"^{key} must be > 0 GHz, got 0.0$"):
            calibrate_profile(CalibrationTargets(**{key: 0.0}))

    def test_throttled_level_not_below_nominal_rejected(self):
        with pytest.raises(CalibrationError,
                           match=r"^f_throttled 3.0 GHz must sit below f_nominal 2.86 GHz$"):
            calibrate_profile(CalibrationTargets(f_throttled=3.0))

    def test_time_target_outside_window_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_profile(CalibrationTargets(time_to_throttle=1200.0))

    def test_pipin_gain_found_by_bisection(self):
        targets = CalibrationTargets(
            trip_temp=78.0, temp_threshold=77.0, governor=GovernorKind.PI_PIN,
            f_nominal=1.5, f_throttled=0.6, dissipation=0.10,
            latency_rise=0.045, small_equilibrium=60.0)
        result = calibrate_profile(targets)
        assert result.latency_rise == pytest.approx(0.045, abs=0.005)
        assert abs(result.pinned_temp - 78.0) <= 1.0
        assert 0.02 <= result.latency_rise <= 0.10


PI_PIN_TARGETS = CalibrationTargets(
    governor=GovernorKind.PI_PIN, trip_temp=78.0, time_to_throttle=600.0,
    small_equilibrium=60.0, f_nominal=1.5, f_throttled=0.6, dissipation=0.10)


class TestClosedFormCapacity:
    """The solved heat capacity puts the large model's crossing exactly on
    ``time_to_throttle``, measured by ``advance``."""

    @staticmethod
    def heated(result, seconds):
        p = result.profile
        state = DeviceState(temp=p.ambient_temp, freq=p.f_nominal)
        advance(state, HeatSource(p, lambda f: result.large_power * f / p.f_nominal), seconds)
        return state

    @pytest.mark.parametrize("targets", [
        CalibrationTargets(),
        PI_PIN_TARGETS,
        CalibrationTargets(large_power=8.0, small_power=5.0),
        CalibrationTargets(time_to_throttle=1.0, time_window=(0.0, 900.0)),
    ], ids=["phone-drop-defaults", "pi-pin", "explicit-large-power", "one-second"])
    def test_trip_reached_at_target(self, targets):
        result = calibrate_profile(targets)
        t = targets.time_to_throttle
        assert result.time_to_throttle == t
        assert self.heated(result, t).temp == pytest.approx(targets.trip_temp, rel=1e-9)
        early = self.heated(result, t * (1.0 - 1e-9))
        assert early.temp < targets.trip_temp and not early.throttled
        assert self.heated(result, t * (1.0 + 1e-9)).throttled

    @pytest.mark.parametrize("t", [0.0, -5.0])
    def test_non_positive_time_rejected_by_name(self, t):
        with pytest.raises(CalibrationError, match=r"time_to_throttle must be > 0"):
            calibrate_profile(CalibrationTargets(time_to_throttle=t, time_window=(-10.0, 900.0)))

    @pytest.mark.parametrize("targets", [
        CalibrationTargets(time_to_throttle=5e-324, time_window=(0.0, 900.0)),
        CalibrationTargets(large_power=1e302),
    ], ids=["underflow-to-zero", "log-rounds-to-zero"])
    def test_capacity_outside_range_rejected_by_name(self, targets):
        with pytest.raises(CalibrationError,
                           match=r"^time_to_throttle \S+ s gives a heat capacity of "
                                 r"(0\.0|inf) J/C, outside \(0, inf\)$"):
            calibrate_profile(targets)

    def test_ambient_at_trip_rejected(self):
        targets = CalibrationTargets(ambient=77.0, large_power=8.0, small_power=-2.0,
                                     governor=GovernorKind.PI_PIN)
        with pytest.raises(CalibrationError, match="ambient 77.0 C must sit below"):
            calibrate_profile(targets)


class TestExactAdvance:
    """``advance`` follows the closed-form solution on every governor band."""

    def pin_profile(self):
        return profile(C=20.1, k=0.10, governor=GovernorKind.PI_PIN,
                       t_throttle=78.0, t_resume=73.0,
                       f_nominal=1.5, f_throttled=0.6, pin_gain=0.14)

    @pytest.mark.parametrize("kind", ["phone-drop", "pi-pin"])
    def test_step_size_independence(self, kind):
        if kind == "phone-drop":
            # 15 W nominal: T_eq 82 C, trip crossed at ~497 s from 22 C; the
            # throttled T_eq 63.96 C brings it back to resume at ~594 s
            p, start, power = profile(C=50.0, k=0.25), 22.0, 15.0
            expected = [EVENT_THROTTLE_ON, EVENT_THROTTLE_OFF]
        else:
            # 5.9 W nominal: T_eq 81 C, trip crossed at ~391 s from 60 C, then pinned
            p, start, power = self.pin_profile(), 60.0, 5.9
            expected = [EVENT_THROTTLE_ON]
        source = HeatSource(p, lambda f: power * f / p.f_nominal)
        whole = DeviceState(temp=start, freq=p.f_nominal)
        whole_events = advance(whole, source, 600.0)
        steps = DeviceState(temp=start, freq=p.f_nominal)
        step_events = []
        for _ in range(6000):
            step_events += advance(steps, source, 0.1)
        assert whole_events == step_events == expected
        assert steps.temp == pytest.approx(whole.temp, abs=1e-9)
        assert steps.freq == pytest.approx(whole.freq, abs=1e-9)
        assert steps.throttled == whole.throttled
        assert steps.sim_time == pytest.approx(whole.sim_time, abs=1e-9)

    def test_phone_drop_crossing_is_two_segment_closed_form(self):
        # 18 W nominal: T_eq 94 C; throttled 12.59 W: T_eq 72.35 C, above resume
        p = profile(C=50.0, k=0.25, f_nominal=2.86, f_throttled=2.0)
        power_of_freq = lambda f: 18.0 * f / p.f_nominal
        state = DeviceState(temp=22.0, freq=p.f_nominal)
        assert advance(state, HeatSource(p, power_of_freq), 400.0) == [EVENT_THROTTLE_ON]
        tau = 50.0 / 0.25
        t_eq = 22.0 + 18.0 / 0.25
        crossing = tau * math.log((t_eq - 22.0) / (t_eq - 77.0))
        assert 0.0 < crossing < 400.0
        expected = closed_form(400.0 - crossing, 22.0, 50.0, 0.25, power_of_freq(2.0), 77.0)
        assert state.temp == pytest.approx(expected, abs=1e-9)
        assert state.freq == p.f_throttled and state.throttled
        assert state.sim_time == 400.0

    def test_pi_pin_lands_on_analytic_pinned_temperature(self):
        p = self.pin_profile()
        p_nom = 5.9
        power_of_freq = lambda f: p_nom * f / p.f_nominal
        # k (T - T_amb) = P(f(T)) with f(T) = f_nom - gain (T - trip): linear in T
        shed = p_nom * p.pin_gain / p.f_nominal
        pinned = (p.dissipation * p.ambient_temp + p_nom + shed * p.t_throttle) / (
            p.dissipation + shed)
        assert p.t_throttle < pinned < p.t_throttle + (p.f_nominal - p.f_throttled) / p.pin_gain
        state = DeviceState(temp=p.ambient_temp, freq=p.f_nominal)
        tau = p.heat_capacity / p.dissipation
        assert advance(state, HeatSource(p, power_of_freq), 20.0 * tau) == [EVENT_THROTTLE_ON]
        assert state.temp == pytest.approx(pinned, abs=1e-9)
        freq = p.f_nominal - p.pin_gain * (pinned - p.t_throttle)
        assert state.freq == pytest.approx(freq, abs=1e-9)
        assert p.dissipation * (state.temp - p.ambient_temp) == pytest.approx(
            power_of_freq(state.freq), abs=1e-9)

    def test_several_crossings_in_one_call(self):
        # 15 W nominal: T_eq 82 C above trip; throttled 10.49 W: T_eq 63.96 C
        # below resume, so the device cycles between 72 and 77 C.
        p = profile(C=50.0, k=0.25, f_nominal=2.86, f_throttled=2.0)
        power_of_freq = lambda f: 15.0 * f / p.f_nominal
        hot = 22.0 + 15.0 / 0.25
        cool = 22.0 + power_of_freq(2.0) / 0.25
        tau = 50.0 / 0.25
        first_on = tau * math.log((hot - 22.0) / (hot - 77.0))
        cool_s = tau * math.log((cool - 77.0) / (cool - 72.0))
        heat_s = tau * math.log((hot - 72.0) / (hot - 77.0))
        expected, t = [], first_on
        while t < 3000.0:
            expected.append(EVENT_THROTTLE_ON)
            t += cool_s
            if t >= 3000.0:
                break
            expected.append(EVENT_THROTTLE_OFF)
            t += heat_s
        state = DeviceState(temp=22.0, freq=p.f_nominal)
        events = advance(state, HeatSource(p, power_of_freq), 3000.0)
        assert len(events) >= 4
        assert events == expected
        assert 72.0 <= state.temp <= 77.0

    @pytest.mark.parametrize("power", [3.0, 5.9, 20.0, 0.0])
    @pytest.mark.parametrize("edge", ["trip", "floor"])
    def test_pi_pin_from_a_band_edge(self, edge, power):
        # 0 W settles at ambient, 3 W below the trip point, 5.9 W pins, 20 W
        # settles above the frequency floor; a start exactly on a band edge
        # must move into the band the heat flow points to, however the
        # interval is split.
        p = self.pin_profile()
        floor = p.t_throttle + (p.f_nominal - p.f_throttled) / p.pin_gain
        start = p.t_throttle if edge == "trip" else floor
        source = HeatSource(p, lambda f: power * f / p.f_nominal)
        whole = DeviceState(temp=start, freq=p.f_nominal)
        advance(whole, source, 20000.0)
        steps = DeviceState(temp=start, freq=p.f_nominal)
        for _ in range(200):
            advance(steps, source, 100.0)
        assert steps.temp == pytest.approx(whole.temp, abs=1e-9)
        assert steps.freq == pytest.approx(whole.freq, abs=1e-9)
        settled = {0.0: 22.0, 3.0: 22.0 + 30.0,
                   20.0: 22.0 + 20.0 * p.f_throttled / p.f_nominal / 0.1}
        if power in settled:
            assert whole.temp == pytest.approx(settled[power], abs=1e-6)
        else:
            assert p.t_throttle < whole.temp < floor

    def test_pi_pin_heating_onto_an_equilibrium_at_the_trip_point_ends(self):
        # Nominal power puts the free equilibrium one rounding step above the
        # trip point, and the pinned equilibrium rounds to just below it. A
        # band choice that disagreed with the crossing test would stop at the
        # trip point with zero time left to spend and never return; the
        # thread bounds that failure.
        p = profile(C=20.0, k=0.22162096354476996, ambient=29.535609754411492,
                    governor=GovernorKind.PI_PIN, t_throttle=81.77557804339546,
                    t_resume=76.0, f_nominal=1.5, f_throttled=0.6,
                    pin_gain=0.5512479436442783)
        source = HeatSource(p, lambda f: 11.577472107752858 * f / p.f_nominal)
        state = DeviceState(temp=p.t_throttle - 1.0, freq=p.f_nominal)
        worker = threading.Thread(target=advance, args=(state, source, 5000.0), daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert state.sim_time == 5000.0
        assert state.temp == pytest.approx(p.t_throttle, abs=1e-9)

    def test_state_past_trip_throttles_at_once(self):
        p = profile(C=50.0, k=0.25)
        state = DeviceState(temp=80.0, freq=p.f_nominal)
        power_of_freq = lambda f: 15.0 * f / p.f_nominal
        assert advance(state, HeatSource(p, power_of_freq), 10.0) == [EVENT_THROTTLE_ON]
        expected = closed_form(10.0, 22.0, 50.0, 0.25, power_of_freq(p.f_throttled), 80.0)
        assert state.temp == pytest.approx(expected, abs=1e-9)

    def test_equilibrium_matches_power_over_dissipation(self):
        # 5 W into 0.25 W/C from 22 C settles at 42 C
        p = profile(C=50.0, k=0.25)
        state = DeviceState(temp=22.0, freq=p.f_nominal)
        advance(state, HeatSource(p, lambda f: 5.0), 3000.0)
        assert state.temp == pytest.approx(42.0, abs=0.1)
        assert p.ambient_temp + 5.0 / p.dissipation == pytest.approx(42.0)

    def test_zero_power_stays_at_ambient(self):
        p = profile()
        state = DeviceState(temp=p.ambient_temp, freq=p.f_nominal)
        advance(state, HeatSource(p, lambda f: 0.0), 500.0)
        assert state.temp == pytest.approx(p.ambient_temp, abs=1e-9)

    def test_crossing_time_matches_closed_form(self):
        # 15 W held: T_eq = 82; crossing 77 C at tau*ln(60/5) = 497.0 s
        p = profile(C=50.0, k=0.25)
        state = DeviceState(temp=22.0, freq=p.f_nominal)
        source = HeatSource(p, lambda f: 15.0)
        expected = (50.0 / 0.25) * math.log((82.0 - 22.0) / (82.0 - 77.0))
        crossed = None
        step = 0.1
        while state.sim_time < 1000.0:
            if advance(state, source, step) == [EVENT_THROTTLE_ON]:
                crossed = state.sim_time
                break
        assert crossed == pytest.approx(expected, rel=0.01)

    def test_trajectory_matches_closed_form_within_1pct(self):
        # the trip point is out of reach, so 15 W heats along one band
        p = profile(C=50.0, k=0.25, t_throttle=1e6, t_resume=999999.0)
        state = DeviceState(temp=22.0, freq=p.f_nominal)
        source = HeatSource(p, lambda f: 15.0)
        for _ in range(120):
            advance(state, source, 5.0)
            exact = closed_form(state.sim_time, 22.0, 50.0, 0.25, 15.0, 22.0)
            assert abs(state.temp - exact) <= 0.01 * abs(exact - 22.0) + 1e-9

    def test_energy_balance_over_an_interval(self):
        # C * (T(h) - T(0)) == P*h - k * integral of (T - T_amb), the
        # integral taken by Simpson's rule over the trajectory advance steps
        p = profile(C=37.5, k=0.31)
        state = DeviceState(temp=48.0, freq=p.f_nominal)
        source = HeatSource(p, lambda f: 9.0)
        n, h = 200, 20.0
        temps = [state.temp]
        for _ in range(n):
            advance(state, source, h / n)
            temps.append(state.temp)
        excess = [t - p.ambient_temp for t in temps]
        integral = (h / n / 3.0) * (excess[0] + excess[-1] + 4.0 * sum(excess[1:-1:2])
                                    + 2.0 * sum(excess[2:-1:2]))
        lhs = p.heat_capacity * (temps[-1] - temps[0])
        rhs = 9.0 * h - p.dissipation * integral
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_in_power(self):
        rng = random.Random(5)
        p = profile()
        for _ in range(50):
            lo = rng.uniform(0.0, 10.0)
            hi = lo + rng.uniform(0.1, 10.0)
            a = DeviceState(temp=30.0, freq=p.f_nominal)
            b = DeviceState(temp=30.0, freq=p.f_nominal)
            cool, hot = HeatSource(p, lambda f: lo), HeatSource(p, lambda f: hi)
            for _ in range(40):
                advance(a, cool, 2.0)
                advance(b, hot, 2.0)
                assert b.temp > a.temp

    @pytest.mark.parametrize("dt", [0.0, -5.0])
    def test_rejects_nonpositive_dt(self, dt):
        p = profile()
        state = DeviceState(temp=30.0, freq=p.f_nominal)
        with pytest.raises(ValueError, match="> 0"):
            advance(state, HeatSource(p, lambda f: 5.0), dt)


class TestNonFinite:
    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_advance_rejects_non_finite_dt(self, dt):
        p = profile()
        state = DeviceState(temp=30.0, freq=p.f_nominal)
        with pytest.raises(ValueError, match="finite"):
            advance(state, HeatSource(p, lambda f: 5.0), dt)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kwarg, field", [
        ("C", "heat_capacity"), ("k", "dissipation"), ("ambient", "ambient_temp"),
        ("t_throttle", "t_throttle"), ("f_nominal", "f_nominal")])
    def test_profile_rejects_non_finite_constants(self, kwarg, field, value):
        with pytest.raises(ProfileError, match=f"{field} must be finite"):
            profile(**{kwarg: value})


class TestHeatSource:
    """A ``HeatSource`` reused across ``advance`` calls gives bit for bit
    what a source built afresh for each call gives."""

    def pin_profile(self):
        return profile(C=20.1, k=0.10, governor=GovernorKind.PI_PIN,
                       t_throttle=78.0, t_resume=73.0,
                       f_nominal=1.5, f_throttled=0.6, pin_gain=0.14)

    def run_both(self, p, power_of_freq, start, dts, freq=None, throttled=False):
        """Advance a state on a source built per call and one on a reused
        source through dts."""
        reused = HeatSource(p, power_of_freq)
        ends = []
        for source_for in (lambda: HeatSource(p, power_of_freq), lambda: reused):
            state = DeviceState(temp=start, freq=p.f_nominal if freq is None else freq,
                                throttled=throttled)
            events = []
            for dt in dts:
                events += advance(state, source_for(), dt)
            ends.append((state.temp, state.freq, state.throttled, state.sim_time, events))
        return ends

    @pytest.mark.parametrize("dts", [[3000.0], [0.205] * 3000, [7.0, 0.1, 993.0, 2000.0]])
    @pytest.mark.parametrize("start, throttled", [
        (22.0, False),   # several crossings in one call
        (77.0, False),   # on the trip edge
        (72.0, True),    # on the resume edge, throttled
        (80.0, False),   # already past the trip point
    ])
    def test_phone_drop_matches_per_call_source(self, start, throttled, dts):
        p = profile(C=50.0, k=0.25, f_nominal=2.86, f_throttled=2.0)
        freq = p.f_throttled if throttled else p.f_nominal
        per_call, reused = self.run_both(p, lambda f: 15.0 * f / p.f_nominal, start, dts,
                                         freq=freq, throttled=throttled)
        assert reused == per_call
        assert len(per_call[4]) >= 2

    @pytest.mark.parametrize("throttled, start, power", [
        (False, 60.0, 18.0),  # 15.7 W at 2.5 GHz: T_eq 84.9 C, trips
        (True, 75.0, 10.0),   # 8.7 W at 2.5 GHz: T_eq 57.0 C, resumes
    ])
    def test_phone_drop_start_at_neither_level(self, throttled, start, power):
        # 2.5 GHz is neither f_nominal nor f_throttled: the source must read
        # the power curve there instead of using a stored level.
        p = profile(C=50.0, k=0.25, f_nominal=2.86, f_throttled=2.0)
        per_call, reused = self.run_both(p, lambda f: power * f / p.f_nominal, start,
                                         [1.0, 50.0, 3000.0], freq=2.5, throttled=throttled)
        assert reused == per_call
        assert per_call[4]

    @pytest.mark.parametrize("power", [3.0, 5.9, 20.0])
    @pytest.mark.parametrize("start", ["ambient", "trip", "floor"])
    @pytest.mark.parametrize("dts", [[20000.0], [1.1] * 500, [100.0] * 200])
    def test_pi_pin_matches_per_call_source(self, start, power, dts):
        p = self.pin_profile()
        floor = p.t_throttle + (p.f_nominal - p.f_throttled) / p.pin_gain
        temp = {"ambient": p.ambient_temp, "trip": p.t_throttle, "floor": floor}[start]
        per_call, reused = self.run_both(p, lambda f: power * f / p.f_nominal, temp, dts)
        assert reused == per_call

    def test_pi_pin_idle_curve_matches_per_call_source(self):
        # A curve flat in frequency (idle power) has no shedding band.
        p = self.pin_profile()
        per_call, reused = self.run_both(p, lambda f: 1.0, 85.0, [0.5] * 100 + [500.0])
        assert reused == per_call

    @pytest.mark.parametrize("kind, watts", [
        ("phone-drop", 15.0),  # nominal equilibrium 82 C: trips at 77 C
        ("phone-drop", 11.0),  # 66 C: never trips
        ("pi-pin", 3.0),       # 52 C: never reaches the trip point
        ("pi-pin", 5.9),       # pinned just above the trip point
        ("pi-pin", 20.0),      # past the frequency floor
        ("pi-pin", None),      # the pinned equilibrium rounds to the trip point
    ])
    def test_hottest_bounds_every_temperature(self, kind, watts):
        if kind == "phone-drop":
            p = profile(C=50.0, k=0.25, f_nominal=2.86, f_throttled=2.0)
        elif watts is not None:
            p = self.pin_profile()
        else:
            # A nominal equilibrium 1e-9 C above the trip point and a huge
            # gain: the state sits at the trip point and keeps heating.
            p = profile(C=2.0, k=0.1, governor=GovernorKind.PI_PIN, t_throttle=78.0,
                        f_nominal=1.5, f_throttled=0.6, pin_gain=1e6)
            watts = 0.1 * (78.0 + 1e-9 - 22.0)
        source = HeatSource(p, lambda f: watts * f / p.f_nominal)
        state = DeviceState(temp=p.ambient_temp, freq=p.f_nominal)
        hottest = p.ambient_temp
        for _ in range(3000):
            advance(state, source, 1.0)
            hottest = max(hottest, state.temp)
        assert hottest <= source.hottest
        if p.pin_gain == 1e6:
            assert hottest > p.t_throttle

    def test_pi_pin_source_rejects_power_falling_with_frequency(self):
        with pytest.raises(ValueError, match="must not fall"):
            HeatSource(self.pin_profile(), lambda f: 10.0 - f)


class TestOneBandExact:
    """Within one governor band ``advance`` is the textbook relaxation,
    ``T_eq + (T0 - T_eq) * exp(-rate * dt)``, to the last bit, whether the
    caller passes a ``HeatSource`` built for the call or a reused one."""

    def relax(self, t_eq, rate, start, dt):
        return t_eq + (start - t_eq) * math.exp(-rate * dt)

    def both(self, p, power_of_freq, start, freq, throttled, dt):
        reused = HeatSource(p, power_of_freq)
        temps = []
        for source in (HeatSource(p, power_of_freq), reused, reused):
            state = DeviceState(temp=start, freq=freq, throttled=throttled)
            assert advance(state, source, dt) == []
            assert state.throttled == throttled
            temps.append(state.temp)
        return temps

    @pytest.mark.parametrize("level, start, throttled", [
        ("nominal", 30.0, False), ("throttled", 76.0, True),
        ("between", 30.0, False), ("between", 76.0, True)])
    def test_phone_drop_level(self, level, start, throttled):
        p = profile(C=50.0, k=0.12, f_nominal=2.86, f_throttled=2.0)
        freq = {"nominal": p.f_nominal, "throttled": p.f_throttled, "between": 2.5}[level]
        power_of_freq = lambda f: 15.0 * f / p.f_nominal
        t_eq = p.ambient_temp + power_of_freq(freq) / p.dissipation
        expected = self.relax(t_eq, p.dissipation / p.heat_capacity, start, 20.0)
        assert self.both(p, power_of_freq, start, freq, throttled, 20.0) == [expected] * 3

    @pytest.mark.parametrize("band", ["below", "pinned", "above"])
    def test_pi_pin_band(self, band):
        p = profile(C=20.1, k=0.10, governor=GovernorKind.PI_PIN, t_throttle=78.0,
                    t_resume=73.0, f_nominal=1.5, f_throttled=0.6, pin_gain=0.14)
        c, k, amb, trip = p.heat_capacity, p.dissipation, p.ambient_temp, p.t_throttle
        power_of_freq = lambda f: 5.9 * f / p.f_nominal
        p_nom, p_thr = power_of_freq(p.f_nominal), power_of_freq(p.f_throttled)
        span = p.f_nominal - p.f_throttled
        shed = p.pin_gain * (p_nom - p_thr) / span
        floor = trip + span / p.pin_gain
        if band == "below":
            start, rate, t_eq = 40.0, k / c, amb + p_nom / k
        elif band == "pinned":
            start, rate = trip + 0.5, (k + shed) / c
            t_eq = (p_nom + shed * trip + k * amb) / (k + shed)
        else:
            start, rate, t_eq = floor + 30.0, k / c, amb + p_thr / k
        expected = self.relax(t_eq, rate, start, 2.0)
        state = DeviceState(temp=start, freq=p.f_nominal)
        governor(p)(state)
        temps = self.both(p, power_of_freq, start, state.freq, state.throttled, 2.0)
        assert temps == [expected] * 3


class TestPinGovernorRule:
    """The branch form of the pi-pin rule equals the clamp form bit for bit."""

    @staticmethod
    def clamp_rule(p, temp):
        return min(p.f_nominal,
                   max(p.f_throttled, p.f_nominal - p.pin_gain * max(0.0, temp - p.t_throttle)))

    @pytest.mark.parametrize("gain", [0.14, 0.5512479436442783, 3.0])
    def test_matches_clamp_rule(self, gain):
        p = profile(C=20.1, k=0.10, governor=GovernorKind.PI_PIN, t_throttle=78.0,
                    t_resume=73.0, f_nominal=1.5, f_throttled=0.6, pin_gain=gain)
        trip = p.t_throttle
        floor = trip + (p.f_nominal - p.f_throttled) / gain
        temps = [22.0, trip - 1.0, floor + 1.0, 200.0, -40.0]
        for edge in (trip, floor):
            temps += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        temps += [trip - 2.0 + i * (floor - trip + 4.0) / 997 for i in range(998)]
        rule = governor(p)
        for temp in temps:
            state = DeviceState(temp=temp, freq=p.f_nominal)
            rule(state)
            expected = self.clamp_rule(p, temp)
            assert state.freq == expected, temp
            assert state.throttled == (expected < p.f_nominal - 1e-12), temp


class TestCalibrationTargetsFinite:
    @pytest.mark.parametrize("field", ["ambient", "dissipation", "large_power", "small_power",
                                       "latency_rise"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_named(self, field, value):
        with pytest.raises(CalibrationError, match=f"^{field} must be finite, got {value}$"):
            CalibrationTargets(**{field: value})

    @pytest.mark.parametrize("window", [(math.nan, 900.0), (300.0, math.inf),
                                        (-math.inf, 900.0)])
    def test_non_finite_window_named(self, window):
        with pytest.raises(CalibrationError, match="^time_window must be finite"):
            CalibrationTargets(time_window=window)

    def test_every_problem_reported(self):
        with pytest.raises(CalibrationError) as err:
            CalibrationTargets(ambient=math.nan, time_window=(0.0, math.inf))
        assert str(err.value) == ("ambient must be finite, got nan; "
                                  "time_window must be finite, got (0.0, inf)")
