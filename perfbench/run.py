#!/usr/bin/env python3
"""Benchmark for thermoshift: host cost and modelled outcome, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload phone-run --seed 0 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists and which layer
metric should move which end-to-end metric):

* ``phone-run``   -- ``thermoshift run`` + ``summarize`` on the phone suite;
* ``pi-sweep``    -- pi-pin calibration in set-up, then a 4x4 ``ablate`` grid;
* ``live-replay`` -- ``live_run`` polling a replayed phone trace.

Every workload is a closed loop in one process and one thread: each
operation starts after the previous one returns. ``--trace 0`` measures
the end-to-end metrics with no instrumentation; ``--trace 1`` wraps the
layer entry points, records spans and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Any failed output
check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
import benchlib as bl  # noqa: E402

SETUP_MIN_REPS = 3       # timed set-ups before the first operation
SETUP_SHARE = 0.1        # later set-ups may take this share of the operations' time
REFERENCE_LOOP_S = 0.005  # host times are scaled to a host where reference_loop takes this
REFERENCE_REPS = 3
MIN_OPS = 3
LIVE_PERIOD_S = 1.0      # requested poll period; the recorded sleep is period - service
SIM_HOUR = 3600.0
SYSFS_READS = 2000

PHONE_SUITE = "slimmable-resnet50-phone"
PI_SUITE = "slimmable-resnet50-pi"
# Pi-class device asked for through calibration, so set-up runs the
# calibration bisections (pure thermal work).
PI_TARGETS = {
    "governor": "pi-pin",
    "trip_temp": 78.0,
    "time_to_throttle": 600.0,
    "small_equilibrium": 60.0,
    "f_nominal": 1.5,
    "f_throttled": 0.6,
    "dissipation": 0.10,
}
# 79 C sits above the pinned temperature (~78.5 C): that column never shifts.
SWEEP_TEMPS = (79.0, 77.0, 75.0, 73.0)
SWEEP_GRADS = (-0.005, -0.01, -0.02, -0.04)
SWEEP_CELL_S = 1800.0
TIME_TO_THROTTLE_TOL = 0.01   # share of the target
CONSERVATION_TOL_S = 1e-6


class ProgramMissing(Exception):
    pass


def import_program():
    """Import thermoshift from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "thermoshift" / "__init__.py").is_file():
        raise ProgramMissing(f"no thermoshift package under {src}")
    sys.path.insert(0, str(src))
    try:
        import thermoshift
        from thermoshift import analysis, config, controller, harness, sensors, suites, thermal
    except ImportError as exc:
        raise ProgramMissing(f"cannot import thermoshift: {exc}") from exc
    if Path(thermoshift.__file__).resolve().parent != (src / "thermoshift").resolve():
        raise ProgramMissing(f"thermoshift imported from {thermoshift.__file__}, not {src}")
    return SimpleNamespace(analysis=analysis, config=config, controller=controller,
                           harness=harness, sensors=sensors, suites=suites, thermal=thermal)


def load_spec() -> dict:
    """BENCHMARK.json names every metric and unit this script reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not (bl.valid_metric_name(metric["name"]) and bl.valid_unit(metric["unit"])):
                raise ValueError(f"bad metric name or unit in BENCHMARK.json: {metric}")
    return spec


# --------------------------------------------------------------- trace facts

def trace_stats(trace, f_nominal=None) -> dict:
    """Modelled outcome of one trace: where the simulated time went, shifts, dwell."""
    stats = {"rows": len(trace), "compute_s": 0.0, "idle_s": 0.0, "log_s": 0.0,
             "stall_s": 0.0, "throttled_s": 0.0, "shifts": 0, "sim_s": 0.0,
             "small_runs": []}
    run = 0
    for r in trace:
        compute = r.inference_latency or 0.0
        idle = r.idle or 0.0
        row_s = compute + idle + r.log_time + r.overhead
        stats["compute_s"] += compute
        stats["idle_s"] += idle
        stats["log_s"] += r.log_time
        stats["stall_s"] += r.overhead
        if f_nominal is not None and r.freq is not None and r.freq < f_nominal - 1e-12:
            stats["throttled_s"] += row_s
        if r.event in ("shift_to_small", "shift_to_large"):
            stats["shifts"] += 1
        if r.mode.name == "SMALL":
            run += 1
        elif run:
            stats["small_runs"].append(run)
            run = 0
    if run:
        stats["small_runs"].append(run)
    if len(trace):
        stats["sim_s"] = trace[-1].sim_time
    return stats


def merge_stats(parts) -> dict:
    total = trace_stats([])
    for part in parts:
        for key, value in part.items():
            total[key] = total[key] + value
    return total


def conservation_problem(trace) -> str | None:
    """Running sum of each row's compute + idle + log + stall must equal its sim_time.

    A shift row's sim_time is taken after its model-load stall, so the
    stall belongs to the row that shifted.
    """
    t = 0.0
    for n, r in enumerate(trace):
        t += r.inference_latency or 0.0
        t += r.idle or 0.0
        t += r.log_time
        t += r.overhead
        if abs(t - r.sim_time) > CONSERVATION_TOL_S * max(1.0, t):
            return f"row {n}: compute+idle+log+stall = {t!r} but sim_time = {r.sim_time!r}"
    return None


@contextlib.contextmanager
def patched(owner, attr, make):
    """Temporarily replace owner.attr by make(original)."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----------------------------------------------------------------- workloads

class Workload:
    """One closed-loop workload: inputs from a seed, set-up, one operation, checks."""

    name = ""

    def __init__(self, ts, seed: int, workdir: Path):
        self.ts = ts
        self.seed = seed
        self.workdir = workdir
        self.reference = None   # output of the warm-up operation

    def write_config(self, filename, cfg) -> Path:
        path = self.workdir / filename
        path.write_text(json.dumps(cfg, indent=2))
        return path

    # Subclasses define: make_inputs, setup, op, rows, op_problems,
    # sim_metrics, setup_wraps and op_wraps.
    def prepare(self, state, tracer=None):
        """Untimed per-operation preparation; the result is op's argument."""
        return state

    def checks(self, state):
        """One-off output checks: (name, problem or None) pairs."""
        return ()

    def traced_op(self, arg):
        """Run op; return its result and the traces it produced."""
        result = self.op(arg)
        return result, [result.trace]

    def warm_up(self, state):
        """Run the discarded warm-up operation; remember its output."""
        self.reference = self.op(self.prepare(state))
        return self.reference

    def csv_bytes(self) -> int:
        return 0

    def valid_cell_ratio(self, result) -> float:
        return 0.0

    def poll_summary(self):
        return None


class PhoneRun(Workload):
    name = "phone-run"

    def make_inputs(self):
        self.config_path = self.write_config("phone.json", {
            "suite": PHONE_SUITE, "duration": SIM_HOUR, "seed": self.seed,
            "controller": "default", "device": {"builtin": "phone"},
        })
        self.csv_path = self.workdir / "phone.csv"

    def setup(self):
        return self.ts.config.load_scenario(self.config_path)

    def op(self, scenario):
        h = self.ts.harness
        trace = h.run_scenario(scenario)
        h.emit_trace(trace, self.csv_path)
        parsed = h.parse_trace(self.csv_path)
        summary = self.ts.analysis.summarize(parsed, scenario.large, scenario.small)
        return SimpleNamespace(trace=trace, parsed=parsed, summary=summary)

    def warm_up(self, state):
        super().warm_up(state)
        self.digest = file_digest(self.csv_path)
        return self.reference

    def rows(self, result):
        return len(result.trace)

    def op_problems(self, result):
        problems = []
        self._csv_bytes = self.csv_path.stat().st_size
        if file_digest(self.csv_path) != self.digest:
            problems.append("same seed gave a different trace CSV")
        if len(result.parsed) != len(result.trace):
            problems.append(f"parsed {len(result.parsed)} rows of {len(result.trace)}")
        return problems

    def checks(self, scenario):
        ref = self.reference
        h, a = self.ts.harness, self.ts.analysis
        again = self.workdir / "phone-roundtrip.csv"
        h.emit_trace(ref.parsed, again)
        yield "emit_parse_roundtrip", (
            None if file_digest(again) == self.digest
            else "emit(parse(csv)) differs from csv")
        direct = a.summarize(ref.trace, scenario.large, scenario.small)
        same = all(getattr(direct, k) == getattr(ref.summary, k)
                   for k in ("est_accuracy", "n_large", "n_small", "n_shifts",
                             "n_throttle_events"))
        yield "summary_roundtrip", None if same else "summary of parsed trace differs"
        yield "time_conservation", conservation_problem(ref.trace)

    def sim_metrics(self, scenario, result):
        stats = trace_stats(result.trace, scenario.profile.f_nominal)
        return {
            "rows_per_op": stats["rows"],
            "shifts_per_op": stats["shifts"],
            "est_accuracy": result.summary.est_accuracy,
            "inferences_per_sim_h": stats["rows"] / (stats["sim_s"] / SIM_HOUR),
            "throttled_s": stats["throttled_s"],
            "stall_share": stats["stall_s"] / stats["sim_s"],
        }

    def setup_wraps(self):
        return [(self.ts.config, "load_scenario", "config.load")]

    def op_wraps(self):
        return common_op_wraps(self.ts) + [
            (self.ts.harness, "run_scenario", "harness.run_scenario"),
            (self.ts.harness, "emit_trace", "harness.emit"),
            (self.ts.harness, "parse_trace", "harness.parse"),
            (self.ts.analysis, "summarize", "analysis.summarize"),
        ]

    def csv_bytes(self):
        return self._csv_bytes


class PiSweep(Workload):
    name = "pi-sweep"

    def make_inputs(self):
        self.config_path = self.write_config("pi.json", {
            "suite": PI_SUITE, "duration": SWEEP_CELL_S, "seed": self.seed,
            "controller": "default", "device": {"calibration": PI_TARGETS},
        })

    def setup(self):
        return self.ts.config.load_scenario(self.config_path)

    def op(self, scenario):
        return self.ts.analysis.ablation_grid(scenario, SWEEP_TEMPS, SWEEP_GRADS,
                                              duration=SWEEP_CELL_S)

    @contextlib.contextmanager
    def collect_cells(self, sink):
        """Hand the trace of every grid cell to sink(trace)."""
        def make(run):
            def run_and_collect(scenario):
                trace = run(scenario)
                sink(trace)
                return trace
            return run_and_collect
        with patched(self.ts.analysis, "run_scenario", make):
            yield

    def warm_up(self, state):
        # Rows are not visible in the grid; count them on the discarded
        # warm-up only, so timed operations run unhooked.
        parts = []
        with self.collect_cells(lambda trace: parts.append(len(trace))):
            self.reference = self.op(self.prepare(state))
        self._rows = sum(parts)
        return self.reference

    def rows(self, result):
        return self._rows

    def op_problems(self, result):
        if result.values != self.reference.values:
            return ["same seed gave a different ablation grid"]
        return []

    def checks(self, scenario):
        th = self.ts.thermal
        targets = dict(PI_TARGETS, governor=th.GovernorKind(PI_TARGETS["governor"]))
        calibration = th.calibrate_profile(th.CalibrationTargets(**targets))
        yield "calibration_matches_config", (
            None if calibration.profile == scenario.profile
            else "config-built device differs from calibrate_profile's")
        p = calibration.profile
        tau = p.heat_capacity / p.dissipation
        t_eq = p.ambient_temp + calibration.large_power / p.dissipation
        crossing = tau * math.log((t_eq - p.ambient_temp) / (t_eq - p.t_throttle))
        target = PI_TARGETS["time_to_throttle"]
        yield "time_to_throttle", (
            None if abs(crossing - target) <= TIME_TO_THROTTLE_TOL * target
            else f"closed-form crossing {crossing:.2f} s misses target {target} s")
        yield "time_conservation", conservation_problem(self.ts.harness.run_scenario(scenario))
        valid = [v for row in self.reference.values for v in row if v is not None]
        yield "some_valid_cells", None if valid else "no grid cell completed two cycles"

    def sim_metrics(self, scenario, result):
        valid = [v for row in result.values for v in row if v is not None]
        return {"est_accuracy": sum(valid) / len(valid) if valid else float("nan")}

    def valid_cell_ratio(self, result):
        cells = [v for row in result.values for v in row]
        return sum(v is not None for v in cells) / len(cells)

    def setup_wraps(self):
        return [
            (self.ts.config, "load_scenario", "config.load"),
            (self.ts.config, "calibrate_profile", "thermal.calibrate"),
            (self.ts.thermal, "thermal_step", "thermal.step"),
        ]

    def op_wraps(self):
        return common_op_wraps(self.ts) + [
            (self.ts.analysis, "ablation_grid", "analysis.ablation_grid"),
            (self.ts.analysis, "run_scenario", "harness.run_scenario"),
        ]

    def traced_op(self, arg):
        traces = []
        with self.collect_cells(traces.append):
            result = self.op(arg)
        return result, traces


class LiveReplay(Workload):
    name = "live-replay"

    def make_inputs(self):
        cfg = {"suite": PHONE_SUITE, "duration": SIM_HOUR, "seed": self.seed,
               "controller": "default", "device": {"builtin": "phone"}}
        self.config_path = self.write_config("live.json", cfg)
        self.csv_path = self.workdir / "replay.csv"
        h = self.ts.harness
        h.emit_trace(h.run_scenario(self.ts.config.build_scenario(cfg)), self.csv_path)
        self.p50s, self.tails, self.samples = [], [], 0

    def setup(self):
        scenario = self.ts.config.load_scenario(self.config_path)
        trace = self.ts.harness.parse_trace(self.csv_path)
        return SimpleNamespace(scenario=scenario, trace=trace)

    def prepare(self, state, tracer=None):
        source = self.ts.sensors.ReplaySource.from_trace(state.trace)
        if tracer is not None:
            source.read_now = tracer.wrapped(source.read_now, "sensors.read_now")
        return SimpleNamespace(config=state.scenario.controller, source=source)

    def op(self, arg):
        sleeps = []
        trace = self.ts.sensors.live_run(arg.source, arg.config, period=LIVE_PERIOD_S,
                                         sleep=sleeps.append, clock=time.perf_counter)
        return SimpleNamespace(trace=trace, sleeps=sleeps)

    def warm_up(self, state):
        # The offline replay every live decision is checked against.
        c = self.ts.controller
        ctl = c.ShiftController(state.scenario.controller)
        self.expected = []
        for r in state.trace:
            decision = ctl.observe(c.TemperatureSample(r.sim_time, r.cpu_temp))
            event = "none" if decision is c.Decision.STAY else decision.value
            self.expected.append((event, ctl.mode.name))
        return super().warm_up(state)

    def rows(self, result):
        return len(result.trace)

    def op_problems(self, result):
        got = [(r.event, r.mode.name) for r in result.trace]
        problems = []
        if got != self.expected:
            problems.append("live decisions differ from the offline controller replay")
        if len(result.sleeps) != len(result.trace):
            problems.append(f"{len(result.sleeps)} sleeps for {len(result.trace)} polls")
        service_us = [(LIVE_PERIOD_S - s) * 1e6 for s in result.sleeps]
        tail = bl.tail_percentile(len(service_us))
        if tail is None:
            problems.append(f"only {len(service_us)} polls: too few for a median")
        else:
            self.p50s.append(bl.percentile(service_us, 50))
            self.tails.append((tail, bl.percentile(service_us, tail)))
            self.samples = len(service_us)
        return problems

    def sim_metrics(self, state, result):
        s = state.scenario
        summary = self.ts.analysis.summarize(result.trace, s.large, s.small)
        return {"est_accuracy": summary.est_accuracy}

    def poll_summary(self):
        if not self.tails:
            return None
        label = self.tails[-1][0]
        return {"poll_us_p50": bl.median(self.p50s),
                f"poll_us_p{label}": bl.median([v for _, v in self.tails]),
                "samples_per_op": self.samples, "ops": len(self.p50s)}

    def setup_wraps(self):
        return [
            (self.ts.config, "load_scenario", "config.load"),
            (self.ts.harness, "parse_trace", "harness.parse"),
        ]

    def op_wraps(self):
        return [
            (self.ts.controller.ShiftController, "observe", "controller.observe"),
            (self.ts.sensors, "live_run", "sensors.live_run"),
        ]



def common_op_wraps(ts):
    """Layer entry points inside run_scenario, at the names its loop looks up."""
    h = ts.harness
    return [
        (h, "advance", "thermal.advance"),
        (ts.thermal, "governor_step", "thermal.governor"),
        (h, "iteration_time", "workload.draw"),
        (h, "power_draw", "workload.draw"),
        (h, "logging_overhead", "workload.draw"),
        (h, "shift_overhead", "workload.draw"),
        (ts.controller.ShiftController, "observe", "controller.observe"),
    ]


WORKLOADS = {w.name: w for w in (PhoneRun, PiSweep, LiveReplay)}


# ----------------------------------------------------------------- measuring

def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def reference_loop():
    """Fixed pure-Python work that never touches the program: a yardstick of host speed."""
    acc = {}
    x = 0.5
    for i in range(20000):
        x = x * 0.999 + (i % 7) * 0.001
        acc[i & 63] = acc.get(i & 63, 0.0) + x
    return acc


def reference_s() -> float:
    """Median of a few reference loops: one loop alone is as noisy as the host."""
    return bl.median([timed(reference_loop)[1] for _ in range(REFERENCE_REPS)])


def measure(wl, seconds, tally):
    """Time set-ups and operations in one closed loop.

    The first set-up and the first operation are discarded warm-ups.
    Further set-ups are interleaved with the operations, up to
    SETUP_SHARE of their time, so both sample the same stretch of machine
    state; an expensive set-up is simply timed SETUP_MIN_REPS times.
    Every timing is paired with the reference loop timed around it.
    Returns (state, rows, setups, ops) with setups and ops as lists of
    (seconds, reference seconds).
    """
    state = wl.setup()
    reference_loop()
    setups = []
    for _ in range(SETUP_MIN_REPS):
        before = reference_s()
        dt = timed(wl.setup)[1]
        setups.append((dt, (before + reference_s()) / 2))
    wl.warm_up(state)
    tally.attempted += 1
    rows = wl.rows(wl.reference)
    ops = []
    setup_spent, op_spent = sum(dt for dt, _ in setups), 0.0
    ref = reference_s()
    deadline = time.perf_counter() + seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        while setup_spent < SETUP_SHARE * op_spent:
            dt = timed(wl.setup)[1]
            setups.append((dt, ref))
            setup_spent += dt
        arg = wl.prepare(state)
        gc.collect()
        result, dt = timed(wl.op, arg)
        ref_after = reference_s()
        ops.append((dt, (ref + ref_after) / 2))
        ref = ref_after
        op_spent += dt
        tally.attempted += 1
        problems = wl.op_problems(result)
        if problems:
            tally.fail(f"operation {len(ops)}: " + "; ".join(problems))
    return state, rows, setups, ops


def scaled(pairs) -> float:
    """Median time rescaled to a host on which reference_loop takes REFERENCE_LOOP_S."""
    return bl.median([dt / ref for dt, ref in pairs]) * REFERENCE_LOOP_S


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message):
        self.failures.append(message)
        print(f"FAILED: {message}")

    def check(self, name, problem):
        self.attempted += 1
        if problem is not None:
            self.fail(f"check {name}: {problem}")


def max_integrator_error(ts) -> float:
    """Largest deviation of the simulated temperature from the closed form.

    Constant power on each built-in profile (no governor in the path), one
    read per second for 1200 s, compared with
    T(t) = T_amb + P/k * (1 - exp(-k t / C)).
    """
    worst = 0.0
    for profile, suite in ((ts.suites.PHONE_PROFILE, PHONE_SUITE),
                           (ts.suites.PI_PROFILE, PI_SUITE)):
        power = ts.suites.get_suite(suite).large.power_nominal
        source = ts.sensors.SimulatedSource(profile, power, 1.0)
        k, c, amb = profile.dissipation, profile.heat_capacity, profile.ambient_temp
        for _ in range(1200):
            s = source.read_now()
            exact = amb + power / k * (1.0 - math.exp(-k * s.time_s / c))
            worst = max(worst, abs(s.celsius - exact))
    return worst


def sysfs_read_us(ts, workdir) -> tuple[float, str | None]:
    """Median microseconds per read_sysfs_temp of a millidegree file we write."""
    path = workdir / "zone_temp"
    path.write_text("48250\n")
    times = []
    for _ in range(SYSFS_READS):
        t0 = time.perf_counter()
        value = ts.sensors.read_sysfs_temp(path)
        times.append(time.perf_counter() - t0)
    problem = None if value == 48.25 else f"read {value!r} from 48250 millidegrees"
    return bl.median(times) * 1e6, problem


def layer_metrics(wl, setup_tracer, op_tracer, result, parts) -> dict:
    """Per-layer metrics of one traced operation (plus the traced set-up)."""
    setup = bl.aggregate(setup_tracer)
    op = bl.aggregate(op_tracer)

    def get(agg, name, field):
        return agg.get(name, {}).get(field, 0)

    names = op_tracer.names
    grid_ids = {i for i, n in enumerate(names) if n == "analysis.ablation_grid"}
    cells = sum(
        1 for i, nid in enumerate(op_tracer.name_id)
        if names[nid] == "harness.run_scenario" and op_tracer.parent[i] >= 0
        and op_tracer.name_id[op_tracer.parent[i]] in grid_ids)
    read_calls = get(op, "sensors.read_now", "calls")
    read_raised = [kind for i, kind in op_tracer.raised.items()
                   if names[op_tracer.name_id[i]] == "sensors.read_now"]
    observe_calls = get(op, "controller.observe", "calls")
    stats = merge_stats(parts)
    return {
        "thermal.advance_calls": get(op, "thermal.advance", "calls"),
        "thermal.advance_self_s": get(op, "thermal.advance", "self_s"),
        "thermal.governor_calls": get(op, "thermal.governor", "calls"),
        "thermal.governor_self_s": get(op, "thermal.governor", "self_s"),
        "thermal.calibrate_s": get(setup, "thermal.calibrate", "total_s"),
        "thermal.step_calls": get(setup, "thermal.step", "calls"),
        "controller.observe_calls": observe_calls,
        "controller.observe_us": (get(op, "controller.observe", "self_s") / observe_calls * 1e6
                                  if observe_calls else 0.0),
        "controller.shifts_per_sim_h": (stats["shifts"] / (stats["sim_s"] / SIM_HOUR)
                                        if stats["sim_s"] else 0.0),
        "controller.small_dwell_rows_p50": (bl.median(stats["small_runs"])
                                            if stats["small_runs"] else 0),
        "workload.draw_calls": get(op, "workload.draw", "calls"),
        "workload.draw_self_s": get(op, "workload.draw", "self_s"),
        "workload.compute_s": stats["compute_s"],
        "workload.idle_s": stats["idle_s"],
        "workload.log_s": stats["log_s"],
        "workload.stall_s": stats["stall_s"],
        "harness.rows": stats["rows"],
        "harness.loop_self_s": get(op, "harness.run_scenario", "self_s"),
        "harness.emit_s": get(op, "harness.emit", "total_s"),
        "harness.parse_s": get(op, "harness.parse", "total_s"),
        "harness.csv_bytes": wl.csv_bytes(),
        "analysis.summarize_s": get(op, "analysis.summarize", "total_s"),
        "analysis.cells": cells,
        "analysis.valid_cell_ratio": wl.valid_cell_ratio(result),
        "sensors.polls": read_calls - len(read_raised),
        "sensors.read_now_us": (get(op, "sensors.read_now", "self_s") / read_calls * 1e6
                                if read_calls else 0.0),
        "sensors.read_errors": sum(kind != "SourceExhausted" for kind in read_raised),
        "config.load_s": get(setup, "config.load", "self_s"),
    }


# ------------------------------------------------------------------ stamping

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(args, counts) -> dict:
    clock = time.get_clock_info("perf_counter")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": git_commit() or "unknown (not a git checkout)",
        "src_sha256_16": source_digest(),
        "timer": f"time.perf_counter ({clock.implementation}, resolution {clock.resolution} s)",
        "host_time_scaling": f"median(time / adjacent reference_loop time) x {REFERENCE_LOOP_S} s",
        "memory": "resource.getrusage(RUSAGE_SELF).ru_maxrss",
        "runs": counts,
    }


# ---------------------------------------------------------------------- main

E2E_UNITS = {  # every end-to-end metric: unit, and host or sim
    "setup_s": ("s", "host"), "wall_s": ("s", "host"), "host_us_per_row": ("us", "host"),
    "peak_rss_mb": ("MiB", "host"), "failed_ratio": ("ratio", "-"),
    "poll_us_p50": ("us", "host"), "poll_us_p99": ("us", "host"),
    "est_accuracy": ("ratio", "sim"), "inferences_per_sim_h": ("1/h", "sim"),
    "throttled_s": ("sim_s", "sim"), "stall_share": ("ratio", "sim"),
    "rows_per_op": ("count", "sim"), "shifts_per_op": ("count", "sim"),
}


def report(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        unit, kind = units.get(name, ("", ""))
        shown = "n/a" if value is None else repr(value)
        print(f"  {name:<34} {shown:>24} {unit:<6} {kind}")


def run(args, ts, spec, workdir) -> int:
    wl = WORKLOADS[args.workload](ts, args.seed, workdir)
    tally = Tally()
    wl.make_inputs()
    budget = args.seconds / 2 if args.trace else args.seconds
    state, rows, setups, ops = measure(wl, budget, tally)
    for name, problem in wl.checks(state):
        tally.check(name, problem)
    counts = {"setup_reps": len(setups), "warmup_discarded": 1, "timed_ops": len(ops)}
    wall = scaled(ops)
    raw_wall = bl.median([dt for dt, _ in ops])
    e2e = {
        "setup_s": scaled(setups),
        "wall_s": wall,
        "host_us_per_row": wall / rows * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "est_accuracy": None, "inferences_per_sim_h": None, "throttled_s": None,
        "stall_share": None, "poll_us_p50": None, "poll_us_p99": None,
    }
    e2e.update(wl.sim_metrics(state, wl.reference))
    raw = {"setup_s_raw": bl.median([dt for dt, _ in setups]), "wall_s_raw": raw_wall,
           "reference_loop_s": bl.median([r for _, r in ops])}
    polls = wl.poll_summary()
    if polls:
        e2e.update({k: v for k, v in polls.items() if k.startswith("poll_us_")})
        print(f"poll samples: {polls['samples_per_op']} per operation x {polls['ops']} operations")

    metrics_out = {}
    if args.trace:
        layer, traced_wall = traced_phase(args, wl, tally, workdir)
        counts["traced_ops"] = len(traced_wall)
        layer["trace.overhead_s"] = bl.median(traced_wall) - raw_wall
        print(f"tracing overhead: {layer['trace.overhead_s']!r} s per operation "
              f"(traced {bl.median(traced_wall)!r} s vs untraced {raw_wall!r} s, raw)")
        report("per-layer metrics (per operation; config/calibrate/step from set-up):",
               layer, {m["name"]: (m["unit"], "") for m in spec["per_layer"]})
        wanted = spec["per_layer"]
        source = layer
    else:
        wanted = spec["end_to_end"]
        source = e2e

    attempted = max(tally.attempted, 1)
    e2e["failed_ratio"] = len(tally.failures) / attempted
    report(f"end-to-end metrics, {args.workload} seed {args.seed} "
           f"(host = cost of simulating; sim = modelled outcome):", e2e, E2E_UNITS)
    report(f"unscaled host times (the host times above are scaled to a host on which "
           f"the reference loop takes {REFERENCE_LOOP_S} s):", raw,
           {k: ("s", "host") for k in raw})
    for metric in wanted:
        value = source.get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"metric {metric['name']} has no finite value: {value!r}")
        metrics_out[metric["name"]] = {"value": value, "unit": metric["unit"]}

    info = stamp(args, counts)
    print("stamp: " + json.dumps(info, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": info, "end_to_end": e2e, "unscaled": raw, "metrics": metrics_out,
                    "failures": tally.failures}, indent=2, sort_keys=True))
    print(json.dumps({"correct": not tally.failures, "attempted": attempted,
                      "failed": len(tally.failures), "metrics": metrics_out}))
    return 1 if tally.failures else 0


def traced_phase(args, wl, tally, workdir):
    """Traced set-up and operations; every wrapped name is restored after."""
    ts = wl.ts
    originals = {(id(o), a): getattr(o, a) for o, a, _ in wl.setup_wraps() + wl.op_wraps()
                 if hasattr(o, a)}
    setup_tracer, op_tracer = bl.Tracer(), bl.Tracer()
    try:
        for owner, attr, name in wl.setup_wraps():
            setup_tracer.wrap(owner, attr, name)
        with setup_tracer.span("setup"):
            state = wl.setup()
    finally:
        setup_tracer.restore()
    per_op, walls = [], []
    try:
        for owner, attr, name in wl.op_wraps():
            op_tracer.wrap(owner, attr, name)
        deadline = time.perf_counter() + args.seconds / 2
        while not walls or time.perf_counter() < deadline:
            op_tracer.reset()
            arg = wl.prepare(state, op_tracer)
            gc.collect()
            t0 = time.perf_counter()
            with op_tracer.span("op"):
                result, traces = wl.traced_op(arg)
            walls.append(time.perf_counter() - t0)
            tally.attempted += 1
            problems = wl.op_problems(result)
            if problems:
                tally.fail("traced operation: " + "; ".join(problems))
            parts = [trace_stats(trace) for trace in traces]
            del traces
            per_op.append(layer_metrics(wl, setup_tracer, op_tracer, result, parts))
    finally:
        op_tracer.restore()
    moved = [a for o, a, _ in wl.setup_wraps() + wl.op_wraps()
             if (id(o), a) in originals and getattr(o, a) is not originals[(id(o), a)]]
    tally.check("wrappers_restored", f"still wrapped: {moved}" if moved else None)

    OUT_DIR.mkdir(exist_ok=True)
    setup_tracer.write(OUT_DIR / f"spans-{wl.name}-setup.csv.gz")
    op_tracer.write(OUT_DIR / f"spans-{wl.name}-op.csv.gz")

    layer = {name: bl.median([m[name] for m in per_op]) for name in per_op[0]}
    layer["thermal.max_abs_err_C"] = max_integrator_error(ts)
    layer["sensors.read_sysfs_us"], problem = sysfs_read_us(ts, workdir)
    tally.check("sysfs_read_value", problem)
    return layer, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the program sees only the inputs made from it")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time for the operations (set-up is extra)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: wrap layer entry points and report per-layer metrics")
    args = parser.parse_args(argv)
    try:
        ts = import_program()
        spec = load_spec()
    except (ProgramMissing, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT_DIR))
    try:
        return run(args, ts, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
