"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

Hardware traces are not reproducible at desk scale, so every criterion is
checked against the calibrated simulator, closed-form oracles, or
independent arithmetic.
"""

import functools
import math
import random
import time

import pytest

from conftest import phone_scenario, pi_scenario
from oracles import ema_update

from thermoshift.analysis import ablation_grid, summarize
from thermoshift.controller import (
    ControllerConfig,
    Decision,
    Mode,
    ShiftController,
    TemperatureSample,
)
from thermoshift.harness import (
    EVENT_SHIFT_LARGE,
    EVENT_SHIFT_SMALL,
    EVENT_THROTTLE_ON,
    Trace,
    TraceRecord,
    emit_trace,
    parse_trace,
    run_scenario,
)
from thermoshift.sensors import ReplaySource, live_run
from thermoshift.suites import PHONE_PROFILE, SUITES
from thermoshift.thermal import (
    DeviceProfile,
    DeviceState,
    GovernorKind,
    HeatSource,
    advance,
)


def report(number, description):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS: {description}")
            return result
        return wrapper
    return decorator


@pytest.fixture(scope="module")
def baseline_hour():
    started = time.monotonic()
    trace = run_scenario(phone_scenario(duration=3600.0, seed=0, baseline=True))
    return trace, time.monotonic() - started


@pytest.fixture(scope="module")
def shifting_hour():
    started = time.monotonic()
    trace = run_scenario(phone_scenario(duration=3600.0, seed=0))
    return trace, time.monotonic() - started


@pytest.fixture(scope="module")
def pi_hour():
    return run_scenario(pi_scenario(duration=3600.0, seed=0, baseline=True))


@report(1, "baseline run throttles and post-throttle latency rises >= 1.3x")
def test_01_throttling_phenomenology(baseline_hour):
    trace, wall = baseline_hour
    ons = [r for r in trace if r.event == EVENT_THROTTLE_ON]
    assert len(ons) >= 1, "no throttle_on event in a 3600 s large-only run"
    t_on = ons[0].sim_time
    pre = [r.inference_latency for r in trace if r.sim_time < t_on]
    post = [r.inference_latency for r in trace if r.sim_time >= t_on]
    assert pre and post
    ratio = (sum(post) / len(post)) / (sum(pre) / len(pre))
    assert ratio >= 1.3, f"post/pre latency ratio {ratio:.3f} < 1.3"
    assert wall < 10.0, f"runtime {wall:.1f}s exceeds 10s"


@report(2, "shifting at trip-4 C prevents throttling for a simulated hour")
def test_02_prevention(shifting_hour, phone_suite):
    trace, wall = shifting_hour
    cfg = phone_suite.controller
    assert cfg.temp_threshold == PHONE_PROFILE.t_throttle - 4.0
    assert (cfg.grad_threshold, cfg.temp_smoothing, cfg.grad_smoothing) == (-0.07, 0.995, 0.99)
    summary = summarize(trace, phone_suite.large, phone_suite.small)
    assert summary.n_throttle_events == 0, f"{summary.n_throttle_events} throttle events"
    assert summary.max_temp < PHONE_PROFILE.t_throttle, f"max temp {summary.max_temp:.2f}"
    assert summary.n_shifts > 0
    assert wall < 10.0, f"runtime {wall:.1f}s exceeds 10s"


@report(3, "summary arithmetic inverts to the published averages")
def test_03_summary_arithmetic_oracle(phone_suite):
    records = []
    for i in range(1000):
        mode = Mode.LARGE if i < 438 else Mode.SMALL
        latency = 0.205 if mode is Mode.LARGE else 0.107
        records.append(TraceRecord(sim_time=0.25 * (i + 1), cpu_temp=60.0, freq=2.86,
                                   mode=mode, inference_latency=latency, idle=0.0))
    summary = summarize(Trace(records), phone_suite.large, phone_suite.small)
    assert abs(summary.est_accuracy - 0.695) <= 0.001
    assert abs(summary.avg_latency - 0.150) <= 0.001


@report(4, "4x4 threshold grid: accuracy non-increasing as the trip lowers")
def test_04_ablation_trend(phone_suite):
    started = time.monotonic()
    base = phone_scenario(duration=1800.0, seed=0, weight_shared=True)
    grid = ablation_grid(base, [75.0, 73.0, 70.0, 65.0],
                         [-0.005, -0.01, -0.07, -0.10], duration=1800.0)
    wall = time.monotonic() - started
    for gi, g in enumerate(grid.grad_thresholds):
        row = grid.values[gi]
        assert all(v is not None for v in row), f"row {g}: {grid.notes[gi]}"
        for ti in range(len(row) - 1):
            assert row[ti] >= row[ti + 1] - 1e-12, (
                f"row g={g}: accuracy rose from t={grid.temp_thresholds[ti]} "
                f"({row[ti]:.4f}) to t={grid.temp_thresholds[ti + 1]} ({row[ti + 1]:.4f})"
            )
    # permissive-trip corner beats the conservative one
    assert grid.cell(-0.10, 75.0) > grid.cell(-0.005, 65.0)
    assert wall < 60.0, f"grid runtime {wall:.1f}s exceeds 60s"


@report(5, "pi-style governor pins at the trip point with a 2-10% latency rise")
def test_05_pi_pin(pi_hour, pi_suite):
    trace = pi_hour
    tail = trace[-max(1, len(trace) // 10):]
    trip = 78.0
    for r in tail:
        assert abs(r.cpu_temp - trip) <= 1.0, f"temp {r.cpu_temp:.2f} drifted off the pin"
    rise = (sum(r.inference_latency for r in tail) / len(tail)) / pi_suite.large.base_latency - 1.0
    assert 0.02 <= rise <= 0.10, f"equilibrium latency rise {rise:.3f} outside [0.02, 0.10]"


def _random_walk(rng, n):
    temp = rng.uniform(30.0, 76.0)
    out = []
    for _ in range(n):
        temp += rng.uniform(-0.8, 0.9)
        out.append(temp)
    return out


def _oracle_decisions(temps, cfg):
    mode, avg, prev, grad, since, cooled = "L", None, None, 0.0, 0, False
    out = []
    for t in temps:
        avg = t if avg is None else cfg.temp_smoothing * avg + (1 - cfg.temp_smoothing) * t
        raw = 0.0 if prev is None else avg - prev
        prev = avg
        cooled = cooled or raw < 0
        grad = cfg.grad_smoothing * grad + (1 - cfg.grad_smoothing) * raw
        since += 1
        if mode == "L" and t > cfg.temp_threshold:
            mode, avg, prev, grad, since, cooled = "S", None, None, 0.0, 0, False
            out.append(Decision.SHIFT_TO_SMALL)
        elif mode == "S" and grad > cfg.grad_threshold and since >= 2 and cooled:
            mode, avg, prev, grad, since, cooled = "L", None, None, 0.0, 0, False
            out.append(Decision.SHIFT_TO_LARGE)
        else:
            out.append(Decision.STAY)
    return out


@report(6, "controller properties hold over 1000 randomized sequences")
def test_06_controller_properties():
    # EMA fixed point: geometric convergence bound, 1000 random cases
    rng = random.Random(101)
    for _ in range(1000):
        coeff = rng.uniform(0.05, 0.995)
        c = rng.uniform(-20.0, 90.0)
        avg = rng.uniform(-20.0, 90.0)
        gap = abs(avg - c)
        n = rng.randint(1, 200)
        for _ in range(n):
            avg = ema_update(avg, c, coeff)
        assert abs(avg - c) <= coeff ** n * gap + 1e-9

    # ramp response: slope estimate within 1% of the true slope
    ctl = ShiftController(ControllerConfig(
        temp_smoothing=0.95, grad_smoothing=0.99,
        temp_threshold=1e9, grad_threshold=-1e9))
    r = 0.05
    for i in range(1001):
        ctl.observe(TemperatureSample(float(i), 20.0 + r * i))
    assert abs(ctl.grad - r) < 0.01 * r

    # alternation + trigger exactness + determinism, 1000 random sequences
    rng = random.Random(202)
    for _ in range(1000):
        cfg = ControllerConfig(
            temp_threshold=rng.uniform(50.0, 75.0),
            grad_threshold=-rng.uniform(0.001, 0.2),
        )
        temps = _random_walk(rng, 200)
        ctl = ShiftController(cfg)
        got = [ctl.observe(TemperatureSample(float(i), t)) for i, t in enumerate(temps)]
        shifts = [d for d in got if d is not Decision.STAY]
        for i, d in enumerate(shifts):
            assert d is (Decision.SHIFT_TO_SMALL if i % 2 == 0 else Decision.SHIFT_TO_LARGE)
        for t, d in zip(temps, got):
            if d is Decision.SHIFT_TO_SMALL:
                assert t > cfg.temp_threshold
        assert got == _oracle_decisions(temps, cfg)
        ctl2 = ShiftController(cfg)
        again = [ctl2.observe(TemperatureSample(float(i), t)) for i, t in enumerate(temps)]
        assert again == got


@report(7, "simulated trajectories match the closed-form exponential")
def test_07_thermal_oracle():
    cases = [
        (50.0, 0.25, 22.0, 15.0),
        (24.3, 0.12, 22.0, 6.96),
        (20.1, 0.10, 22.0, 5.90),
        (80.0, 0.40, 18.0, 30.0),
    ]
    for C, k, ambient, power in cases:
        profile = DeviceProfile(
            heat_capacity=C, dissipation=k, ambient_temp=ambient,
            f_nominal=2.0, f_throttled=1.0, t_throttle=1e6, t_resume=1e6 - 5,
        )
        t_eq = ambient + power / k
        state = DeviceState(temp=ambient, freq=2.0)
        heat = HeatSource(profile, lambda f: power)
        for _ in range(200):
            advance(state, heat, 5.0)
            exact = t_eq + (ambient - t_eq) * math.exp(-k * state.sim_time / C)
            assert abs(state.temp - exact) <= 0.01 * abs(exact - ambient) + 1e-9
        advance(state, heat, 12.0 * C / k)
        assert abs(state.temp - t_eq) <= 0.1
    # the worked example: 5 W into 0.25 W/C from 22 C settles at 42 C
    profile = DeviceProfile(heat_capacity=50.0, dissipation=0.25, ambient_temp=22.0,
                            f_nominal=2.0, f_throttled=1.0, t_throttle=1e6, t_resume=999999.0)
    state = DeviceState(temp=22.0, freq=2.0)
    advance(state, HeatSource(profile, lambda f: 5.0), 4000.0)
    assert abs(state.temp - 42.0) <= 0.1


@report(8, "wall-time conservation and byte-identical replays")
def test_08_conservation_and_determinism(tmp_path, baseline_hour, shifting_hour, pi_hour):
    for trace in (baseline_hour[0], shifting_hour[0], pi_hour):
        total = sum(r.inference_latency + r.idle + r.overhead + r.log_time for r in trace)
        assert abs(trace[-1].sim_time - total) < 0.1  # one sub-step of slack
    scenario = phone_scenario(duration=900.0, seed=11)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_trace(run_scenario(scenario), a)
    emit_trace(run_scenario(scenario), b)
    assert a.read_bytes() == b.read_bytes()


@report(9, "replaying recorded traces reproduces the decision sequence exactly")
def test_09_replay_equivalence(tmp_path):
    runs = []
    for seed in (0, 1, 2):
        runs.append((phone_scenario(duration=900.0, seed=seed),
                     SUITES["slimmable-resnet50-phone"].controller))
    for seed in (0, 1):
        runs.append((phone_scenario(duration=900.0, seed=seed, baseline=True),
                     SUITES["slimmable-resnet50-phone"].controller))
    for seed in (0, 1, 2):
        runs.append((pi_scenario(duration=1200.0, seed=seed),
                     SUITES["slimmable-resnet50-pi"].controller))
    for seed in (0, 1):
        runs.append((pi_scenario(duration=1200.0, seed=seed, baseline=True),
                     SUITES["slimmable-resnet50-pi"].controller))
    governors = {run[0].profile.governor for run in runs}
    assert governors == {GovernorKind.PHONE_DROP, GovernorKind.PI_PIN}
    assert len(runs) >= 10

    shifts_seen = 0
    for i, (scenario, cfg) in enumerate(runs):
        path = tmp_path / f"run{i}.csv"
        emit_trace(run_scenario(scenario), path)
        recorded = parse_trace(path)
        direct = ShiftController(cfg)
        expected = [direct.observe(TemperatureSample(r.sim_time, r.cpu_temp))
                    for r in recorded]
        live = live_run(ReplaySource.from_trace(recorded), cfg, period=0.25,
                        sleep=lambda s: None)
        mapping = {EVENT_SHIFT_SMALL: Decision.SHIFT_TO_SMALL,
                   EVENT_SHIFT_LARGE: Decision.SHIFT_TO_LARGE}
        got = [mapping.get(r.event, Decision.STAY) for r in live]
        assert got == expected, f"run {i}: decision sequences diverge"
        shifts_seen += sum(d is not Decision.STAY for d in expected)
    assert shifts_seen > 0
