import itertools
import math

import pytest

from conftest import phone_scenario, pi_scenario

from thermoshift.controller import (
    ControllerConfig,
    Decision,
    ShiftController,
    TemperatureSample,
)
from thermoshift.errors import LiveRunError, SensorReadError, SourceExhausted
from thermoshift.harness import (
    EVENT_SHIFT_LARGE,
    EVENT_SHIFT_SMALL,
    emit_trace,
    parse_trace,
    run_scenario,
)
from thermoshift.sensors import (
    ReplaySource,
    SimulatedSource,
    SysfsSource,
    live_run,
    read_sysfs_temp,
)
from thermoshift.suites import PHONE_PROFILE, PI_PROFILE, get_suite

NOSLEEP = lambda s: None


def fake_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


def decisions_of(trace):
    mapping = {EVENT_SHIFT_SMALL: Decision.SHIFT_TO_SMALL,
               EVENT_SHIFT_LARGE: Decision.SHIFT_TO_LARGE}
    return [mapping.get(r.event, Decision.STAY) for r in trace]


class TestReadSysfs:
    def test_millidegrees(self, tmp_path):
        zone = tmp_path / "temp"
        zone.write_text("73000\n")
        assert read_sysfs_temp(zone) == pytest.approx(73.0)

    def test_no_trailing_newline(self, tmp_path):
        zone = tmp_path / "temp"
        zone.write_text("45500")
        assert read_sysfs_temp(zone) == pytest.approx(45.5)

    def test_garbage_rejected(self, tmp_path):
        zone = tmp_path / "temp"
        zone.write_text("abc")
        with pytest.raises(SensorReadError):
            read_sysfs_temp(zone)

    def test_integer_too_large_for_a_float_rejected(self, tmp_path):
        zone = tmp_path / "temp"
        zone.write_text("1" + "0" * 399 + "\n")
        with pytest.raises(SensorReadError, match="too large for a float") as info:
            read_sysfs_temp(zone)
        assert str(zone) in str(info.value)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SensorReadError):
            read_sysfs_temp(tmp_path / "nope")

    def test_sysfs_source_samples(self, tmp_path):
        zone = tmp_path / "temp"
        zone.write_text("51250\n")
        source = SysfsSource(zone, clock=fake_clock())
        sample = source.read_now()
        assert sample.celsius == pytest.approx(51.25)


class TestReplaySource:
    def test_replays_in_order_then_exhausts(self):
        src = ReplaySource([TemperatureSample(0.0, 50.0), TemperatureSample(1.0, 51.0)])
        assert src.read_now().celsius == 50.0
        assert src.read_now().celsius == 51.0
        with pytest.raises(SourceExhausted):
            src.read_now()

    def test_every_read_after_the_end_raises_with_the_same_count(self):
        src = ReplaySource([TemperatureSample(0.0, 50.0), TemperatureSample(1.0, 51.0)])
        src.read_now()
        src.read_now()
        for _ in range(3):
            with pytest.raises(SourceExhausted, match=r"^replay finished after 2 samples$"):
                src.read_now()

    def test_empty_replay_raises_on_the_first_read(self):
        with pytest.raises(SourceExhausted, match=r"^replay finished after 0 samples$"):
            ReplaySource([]).read_now()

    def test_a_generator_is_consumed_once(self):
        pulled = []

        def samples():
            for i in range(3):
                pulled.append(i)
                yield TemperatureSample(float(i), 50.0 + i)

        gen = samples()
        src = ReplaySource(gen)
        assert [src.read_now().celsius for _ in range(3)] == [50.0, 51.0, 52.0]
        with pytest.raises(SourceExhausted, match=r"after 3 samples$"):
            src.read_now()
        assert pulled == [0, 1, 2]
        assert next(gen, None) is None

    def test_from_trace_reuses_the_record_floats(self):
        trace = run_scenario(phone_scenario(duration=60.0))
        src = ReplaySource.from_trace(trace)
        for record in trace:
            sample = src.read_now()
            assert sample.time_s is record.sim_time and sample.celsius is record.cpu_temp
        with pytest.raises(SourceExhausted):
            src.read_now()

    def test_from_csv(self, tmp_path):
        trace = run_scenario(phone_scenario(duration=120.0, baseline=True))
        path = tmp_path / "t.csv"
        emit_trace(trace, path)
        src = ReplaySource.from_trace(parse_trace(path))
        first = src.read_now()
        assert first.celsius == pytest.approx(trace[0].cpu_temp, rel=1e-5)


class TestSimulatedSource:
    def test_advances_toward_equilibrium(self):
        src = SimulatedSource(PHONE_PROFILE, power=6.0, dt=5.0)
        temps = [src.read_now().celsius for _ in range(200)]
        assert temps[0] > PHONE_PROFILE.ambient_temp
        assert temps[-1] == pytest.approx(22.0 + 6.0 / 0.12, abs=2.0)
        assert all(a <= b + 1e-9 for a, b in zip(temps, temps[1:]))

    @pytest.mark.parametrize("platform_profile, suite", [
        (PHONE_PROFILE, "slimmable-resnet50-phone"), (PI_PROFILE, "slimmable-resnet50-pi")])
    def test_matches_closed_form(self, platform_profile, suite):
        power = get_suite(suite).large.power_nominal
        src = SimulatedSource(platform_profile, power, dt=1.0)
        k, c = platform_profile.dissipation, platform_profile.heat_capacity
        for _ in range(1200):
            s = src.read_now()
            exact = platform_profile.ambient_temp + power / k * (1.0 - math.exp(-k * s.time_s / c))
            assert s.celsius == pytest.approx(exact, abs=1e-9)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="power must be >= 0"):
            SimulatedSource(PHONE_PROFILE, power=-1.0, dt=1.0)

    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(ValueError, match="power must be finite"):
            SimulatedSource(PHONE_PROFILE, power=power, dt=1.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, math.nan])
    def test_bad_dt_rejected_at_construction(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            SimulatedSource(PHONE_PROFILE, power=6.0, dt=dt)


class TestLiveRun:
    CFG = ControllerConfig(temp_threshold=73.0, grad_threshold=-0.07)

    def test_steady_below_threshold_no_shifts(self):
        src = ReplaySource([TemperatureSample(float(i), 60.0) for i in range(50)])
        trace = live_run(src, self.CFG, period=0.25, sleep=NOSLEEP, clock=fake_clock())
        assert len(trace) == 50
        assert all(r.event == "none" for r in trace)
        assert all(r.freq is None and r.inference_latency is None for r in trace)

    def test_always_erroring_source_aborts_after_limit(self):
        class Broken:
            calls = 0
            def read_now(self):
                self.calls += 1
                raise SensorReadError("dead sensor")
        src = Broken()
        with pytest.raises(LiveRunError, match="5 consecutive"):
            live_run(src, self.CFG, period=0.25, sleep=NOSLEEP, clock=fake_clock())
        assert src.calls == 5

    def test_int_past_float_range_counts_as_read_error(self):
        samples = [TemperatureSample(float(i), celsius)
                   for i, celsius in enumerate([60.0, 10 ** 400, 61.0, 62.0])]
        trace = live_run(ReplaySource(samples), self.CFG, period=0.25,
                         sleep=NOSLEEP, clock=fake_clock())
        direct = ShiftController(self.CFG)
        for sample in samples[:1] + samples[2:]:
            direct.observe(sample)
        assert [r.cpu_temp for r in trace] == [60.0, 61.0, 62.0]
        assert (trace[-1].avg_temp, trace[-1].grad) == (direct.avg_temp, direct.grad)

    def test_read_errors_do_not_touch_controller_state(self):
        temps = [60.0, 61.0, 62.0, 63.0, 64.0]

        class Flaky:
            def __init__(self):
                self.idx = 0
                self.fail_next = False
            def read_now(self):
                self.fail_next = not self.fail_next
                if self.fail_next:
                    raise SensorReadError("blip")
                sample = TemperatureSample(float(self.idx), temps[self.idx])
                self.idx += 1
                if self.idx >= len(temps):
                    raise SourceExhausted("done")
                return sample

        trace = live_run(Flaky(), self.CFG, period=0.25, sleep=NOSLEEP, clock=fake_clock())
        direct = ShiftController(self.CFG)
        for i, temp in enumerate(temps[:len(trace)]):
            direct.observe(TemperatureSample(float(i), temp))
        assert trace[-1].avg_temp == pytest.approx(direct.avg_temp)
        assert trace[-1].grad == pytest.approx(direct.grad)

    def test_on_shift_callback_and_replay_equivalence(self, tmp_path):
        recorded = run_scenario(phone_scenario(duration=900.0))
        src = ReplaySource.from_trace(recorded)
        seen = []
        trace = live_run(src, self.CFG, period=0.25,
                         on_shift=lambda d, s: seen.append(d),
                         sleep=NOSLEEP, clock=fake_clock())
        direct = ShiftController(self.CFG)
        expected = [direct.observe(TemperatureSample(r.sim_time, r.cpu_temp))
                    for r in recorded]
        assert decisions_of(trace) == expected
        assert seen == [d for d in expected if d is not Decision.STAY]
        assert len(seen) > 0

    def test_duration_stop(self):
        src = ReplaySource([TemperatureSample(float(i), 60.0) for i in range(1000)])
        trace = live_run(src, self.CFG, period=1.0, duration=10.0,
                         sleep=NOSLEEP, clock=fake_clock())
        assert 0 < len(trace) < 1000

    def test_interrupt_returns_partial_trace(self):
        class Interrupting:
            def __init__(self):
                self.n = 0
            def read_now(self):
                self.n += 1
                if self.n > 3:
                    raise KeyboardInterrupt
                return TemperatureSample(float(self.n), 60.0)
        trace = live_run(Interrupting(), self.CFG, period=0.25,
                         sleep=NOSLEEP, clock=fake_clock())
        assert len(trace) == 3

    def test_bad_period_rejected(self):
        with pytest.raises(LiveRunError):
            live_run(ReplaySource([]), self.CFG, period=0.0, sleep=NOSLEEP)


class TestReplayEquivalenceAcrossGovernors:
    def test_pi_trace_replay(self):
        recorded = run_scenario(pi_scenario(duration=1500.0))
        cfg = ControllerConfig(temp_threshold=77.0, grad_threshold=-0.02)
        trace = live_run(ReplaySource.from_trace(recorded), cfg, period=0.25,
                         sleep=NOSLEEP, clock=fake_clock())
        direct = ShiftController(cfg)
        expected = [direct.observe(TemperatureSample(r.sim_time, r.cpu_temp))
                    for r in recorded]
        assert decisions_of(trace) == expected
