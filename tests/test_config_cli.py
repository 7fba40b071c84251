import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import thermoshift
from thermoshift import cli
from thermoshift.cli import main
from thermoshift.config import build_scenario, load_scenario
from thermoshift.controller import ShiftController, TemperatureSample
from thermoshift.errors import ConfigFileError
from thermoshift.harness import Trace, TraceRecord, emit_trace, parse_trace, run_scenario
from thermoshift.sensors import ReplaySource, live_run
from thermoshift.suites import get_suite
from thermoshift.thermal import GovernorKind
from thermoshift.workload import PacingPolicy, Platform


def base_config(**overrides):
    cfg = {
        "suite": "slimmable-resnet50-phone",
        "duration": 900,
        "seed": 3,
        "controller": "default",
    }
    cfg.update(overrides)
    return cfg


# The phone suite's "default" controller, spelled out, in literal_init mode.
LITERAL = {"temp_threshold": 73.0, "grad_threshold": -0.07, "literal_init": True}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigSchema:
    def test_builtin_suite_builds(self):
        scenario = build_scenario(base_config())
        assert scenario.platform is Platform.PHONE
        assert scenario.controller.temp_threshold == 73.0
        assert scenario.pacing.target_period == 0.205
        assert scenario.profile.governor is GovernorKind.PHONE_DROP

    def test_missing_duration_named(self):
        cfg = base_config()
        del cfg["duration"]
        with pytest.raises(ConfigFileError) as err:
            build_scenario(cfg)
        assert any("duration" in p for p in err.value.problems)

    def test_unknown_keys_all_listed(self):
        cfg = base_config(bogus=1, wrong=2)
        cfg["controller"] = {"temp_threshold": 73, "grad_threshold": -0.07, "alpha": 0.995}
        with pytest.raises(ConfigFileError) as err:
            build_scenario(cfg)
        text = " ".join(err.value.problems)
        assert "bogus" in text and "wrong" in text and "controller.alpha" in text

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigFileError) as err:
            build_scenario(base_config(suite="resnet-9000"))
        assert any("resnet-9000" in p for p in err.value.problems)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigFileError) as err:
            build_scenario(base_config(duration=0))
        assert any("duration" in p for p in err.value.problems)

    def test_inline_suite_needs_platform(self):
        cfg = {
            "suite": {
                "large": {"name": "big", "base_latency": 0.4, "power_nominal": 7.0,
                          "accuracy": 0.8},
                "small": {"name": "little", "base_latency": 0.1, "power_nominal": 4.0,
                          "accuracy": 0.6},
            },
            "duration": 600,
        }
        with pytest.raises(ConfigFileError) as err:
            build_scenario(cfg)
        assert any("platform" in p for p in err.value.problems)
        cfg["platform"] = "phone"
        scenario = build_scenario(cfg)
        assert scenario.controller is None  # baseline without a controller section
        assert scenario.large.name == "big"

    def test_named_builtin_device(self):
        scenario = build_scenario(base_config(device={"builtin": "pi"}))
        assert scenario.profile.governor is GovernorKind.PI_PIN

    def test_inline_device_profile(self):
        device = {"profile": {
            "heat_capacity": 30.0, "dissipation": 0.2, "ambient_temp": 20.0,
            "f_nominal": 2.0, "f_throttled": 1.0, "t_throttle": 75.0, "t_resume": 70.0,
            "governor": "phone-drop",
        }}
        scenario = build_scenario(base_config(device=device))
        assert scenario.profile.heat_capacity == 30.0

    def test_device_calibration(self):
        device = {"calibration": {"trip_temp": 77.0, "time_to_throttle": 450.0,
                                  "small_equilibrium": 64.0}}
        scenario = build_scenario(base_config(device=device))
        assert scenario.profile.t_throttle == 77.0

    def test_device_calibration_large_power(self):
        calibration = {"trip_temp": 77.0, "time_to_throttle": 450.0,
                       "small_equilibrium": 64.0}
        default = build_scenario(base_config(device={"calibration": calibration}))
        calibration["large_power"] = 8.0
        scenario = build_scenario(base_config(device={"calibration": calibration}))
        assert scenario.profile.t_throttle == 77.0
        assert scenario.profile.heat_capacity != default.profile.heat_capacity

    def test_device_calibration_small_power(self):
        calibration = {"trip_temp": 77.0, "time_to_throttle": 450.0,
                       "small_equilibrium": 64.0, "small_power": 4.0}
        scenario = build_scenario(base_config(device={"calibration": calibration}))
        assert scenario.profile.t_throttle == 77.0

    def test_device_calibration_power_not_below_large_rejected(self):
        calibration = {"large_power": 5.0, "small_power": 6.0}
        with pytest.raises(ConfigFileError) as info:
            build_scenario(base_config(device={"calibration": calibration}))
        assert "device.calibration: small-model power 6.00 W" in str(info.value)

    def test_device_calibration_power_must_be_a_number(self):
        with pytest.raises(ConfigFileError) as info:
            build_scenario(base_config(device={"calibration": {"large_power": "8"}}))
        assert "device.calibration.large_power: expected a number, got '8'" in str(info.value)

    def test_controller_literal_and_pacing_options(self):
        cfg = base_config(
            controller={"temp_threshold": 73, "grad_threshold": -0.07,
                        "literal_init": True},
            pacing={"target_period": "large", "latency_multiplier": 1.4},
        )
        scenario = build_scenario(cfg)
        assert scenario.controller.literal_init
        assert scenario.pacing.target_period == pytest.approx(0.205 * 1.4)

    @pytest.mark.parametrize("pacing", [{}, {"target_period": "large"}])
    def test_omitted_pacing_key_is_the_policy_default(self, pacing):
        # dynabert-phone's own policy slows the model by 1.4; a pacing
        # object reads each omitted key as PacingPolicy's default instead.
        suite = get_suite("dynabert-phone")
        assert suite.pacing.latency_multiplier == 1.4
        scenario = build_scenario(base_config(suite="dynabert-phone", pacing=pacing))
        target = suite.large.base_latency if pacing else None
        assert scenario.pacing == PacingPolicy(target_period=target, latency_multiplier=1.0)

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigFileError):
            load_scenario(str(path))


class TestCliRun:
    def test_run_writes_trace_and_summary(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "trace.csv")
        assert main(["run", "--config", cfg_path, "--out", out]) == 0
        trace = parse_trace(out)
        assert len(trace) > 1000
        summary = json.loads(Path(out + ".summary.json").read_text())
        assert summary["n_throttle_events"] == 0
        assert summary["n_shifts"] > 0

    def test_baseline_flag_throttles(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(duration=1200))
        out = str(tmp_path / "trace.csv")
        assert main(["run", "--config", cfg_path, "--out", out, "--baseline"]) == 0
        summary = json.loads(Path(out + ".summary.json").read_text())
        assert summary["n_throttle_events"] >= 1
        assert summary["n_shifts"] == 0

    def test_true_weight_sharing_flag(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "trace.csv")
        assert main(["run", "--config", cfg_path, "--out", out,
                     "--true-weight-sharing"]) == 0
        assert all(r.overhead == 0.0 for r in parse_trace(out))

    def test_literal_init_with_baseline_runs_the_baseline(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(duration=300, controller=LITERAL))
        plain_cfg = write_config(tmp_path, base_config(duration=300), "plain.json")
        out, plain = str(tmp_path / "both.csv"), str(tmp_path / "baseline.csv")
        assert main(["run", "--config", cfg_path, "--out", out, "--baseline"]) == 0
        assert main(["run", "--config", plain_cfg, "--out", plain, "--baseline"]) == 0
        assert all(record.avg_temp is None for record in parse_trace(out))
        assert Path(out).read_bytes() == Path(plain).read_bytes()

    def test_literal_init_runs_the_zero_seeded_controller(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(controller=LITERAL))
        plain_cfg = write_config(tmp_path, base_config(), "plain.json")
        out, plain = str(tmp_path / "literal.csv"), str(tmp_path / "plain.csv")
        assert main(["run", "--config", cfg_path, "--out", out]) == 0
        assert main(["run", "--config", plain_cfg, "--out", plain]) == 0
        scenario = load_scenario(plain_cfg)
        literal = replace(scenario, controller=replace(scenario.controller, literal_init=True))
        assert load_scenario(cfg_path) == literal
        expected = str(tmp_path / "expected.csv")
        emit_trace(run_scenario(literal), expected)
        assert Path(out).read_bytes() == Path(expected).read_bytes()
        assert Path(out).read_bytes() != Path(plain).read_bytes()

    def test_config_errors_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(bogus=True))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err

    def test_each_problem_of_an_object_is_its_own_line(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(controller={
            "temp_threshold": 73, "grad_threshold": -0.07,
            "temp_smoothing": 1.5, "grad_smoothing": 1.5}))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == (
            "config errors:\n"
            "  - controller: temp_smoothing must be in (0, 1), got 1.5\n"
            "  - controller: grad_smoothing must be in (0, 1), got 1.5\n")

    def test_controller_that_can_never_shift_is_noted(self, tmp_path, capsys):
        # 77.0 C is the built-in phone's trip point, its hottest reading.
        cfg_path = write_config(tmp_path, base_config(
            controller={"temp_threshold": 77, "grad_threshold": -0.07}))
        out = str(tmp_path / "trace.csv")
        capsys.readouterr()
        assert main(["run", "--config", cfg_path, "--out", out]) == 0
        err = capsys.readouterr().err
        assert err.startswith("note: controller.temp_threshold 77 C is at or above 77.0 C")
        assert err.count("\n") == 1
        summary = json.loads(Path(out + ".summary.json").read_text())
        assert summary["n_shifts"] == 0
        assert main(["run", "--config", cfg_path, "--out", out, "--baseline"]) == 0
        assert capsys.readouterr().err == ""

    def test_quick_start_config_gets_no_note(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(duration=3600, seed=0))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "t.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["run", "--config", cfg_path, "--out", out1])
        main(["run", "--config", cfg_path, "--out", out2])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        assert Path(out1 + ".summary.json").read_text() == Path(out2 + ".summary.json").read_text()


class TestCliAblate:
    def test_single_cell_and_idempotence(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(duration=1800, weight_sharing=True))
        out = str(tmp_path / "grid.csv")
        assert main(["ablate", "--config", cfg_path, "--tlims", "73",
                     "--glims=-0.07", "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 2
        first = Path(out).read_bytes()
        main(["ablate", "--config", cfg_path, "--tlims", "73",
              "--glims=-0.07", "--out", out])
        assert Path(out).read_bytes() == first

    def test_insufficient_cycles_cell(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "grid.csv")
        assert main(["ablate", "--config", cfg_path, "--tlims", "73",
                     "--glims=-0.07", "--out", out, "--duration", "60"]) == 0
        assert "insufficient-cycles" in Path(out).read_text()

    def test_four_by_four_dimensions(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "grid.csv")
        assert main(["ablate", "--config", cfg_path, "--tlims", "75,73,70,65",
                     "--glims=-0.005,-0.01,-0.07,-0.10", "--out", out,
                     "--duration", "60"]) == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 5  # header + one row per derivative threshold
        assert all(len(line.split(",")) == 5 for line in lines)

    def test_baseline_config_rejected(self, tmp_path):
        cfg = base_config()
        del cfg["controller"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["ablate", "--config", cfg_path, "--tlims", "73",
                     "--glims=-0.07", "--out", str(tmp_path / "g.csv")]) == 2


class TestCliSummarizePlot:
    def make_trace(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = str(tmp_path / "trace.csv")
        main(["run", "--config", cfg_path, "--out", out])
        return out

    def test_summarize_prints_json(self, tmp_path, capsys):
        out = self.make_trace(tmp_path)
        capsys.readouterr()  # drop the run command's output
        assert main(["summarize", "--trace", out,
                     "--suite", "slimmable-resnet50-phone"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert 0.638 <= data["est_accuracy"] <= 0.768

    def test_summarize_all_large_trace(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(duration=300))
        out = str(tmp_path / "base.csv")
        main(["run", "--config", cfg_path, "--out", out, "--baseline"])
        capsys.readouterr()
        assert main(["summarize", "--trace", out,
                     "--suite", "slimmable-resnet50-phone"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["est_accuracy"] == pytest.approx(0.768)
        assert data["n_small"] == 0

    def test_summarize_latencies_whose_sum_overflows(self, tmp_path, capsys):
        # Each latency is finite, so parse_trace accepts them, but their
        # plain sum is inf, which json.dumps would print as Infinity.
        out = tmp_path / "big.csv"
        emit_trace(Trace([TraceRecord(0.0, 40.0, inference_latency=1e308),
                          TraceRecord(1.0, 41.0, inference_latency=1.5e308)]), out)
        assert main(["summarize", "--trace", str(out),
                     "--suite", "slimmable-resnet50-phone"]) == 0
        data = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert data["avg_latency"] == 1.25e308

    def test_plot_with_overlay(self, tmp_path):
        out = self.make_trace(tmp_path)
        cfg_path = write_config(tmp_path, base_config(duration=600))
        base_out = str(tmp_path / "base.csv")
        main(["run", "--config", cfg_path, "--out", base_out, "--baseline"])
        prefix = str(tmp_path / "fig")
        assert main(["plot", "--trace", out, "--overlay", base_out,
                     "--out", prefix, "--tlim", "73", "--t-throttle", "77"]) == 0
        svg = Path(prefix + "_temperature.svg").read_text()
        assert svg.count("<polyline") == 2
        main(["plot", "--trace", out, "--overlay", base_out,
              "--out", prefix, "--tlim", "73", "--t-throttle", "77"])
        assert Path(prefix + "_temperature.svg").read_text() == svg

    def test_missing_trace_errors(self, tmp_path):
        assert main(["summarize", "--trace", str(tmp_path / "nope.csv"),
                     "--suite", "slimmable-resnet50-phone"]) == 1


class TestCliLive:
    """``live --config`` runs the config's controller, read by the same
    loader as ``run``, on a thermal zone."""

    def live(self, tmp_path, zone, *flags, cfg=None):
        cfg_path = write_config(tmp_path, base_config() if cfg is None else cfg, "live.json")
        return main(["live", "--zone", str(zone), "--config", cfg_path, *flags])

    def test_live_reads_zone(self, tmp_path, capsys):
        zone = tmp_path / "temp"
        zone.write_text("60000\n")
        out = str(tmp_path / "live.csv")
        assert self.live(tmp_path, zone, "--period", "0.01", "--duration", "0.05",
                         "--out", out) == 0
        trace = parse_trace(out)
        assert len(trace) >= 1
        assert all(r.event == "none" for r in trace)

    def test_live_prints_each_shift(self, tmp_path, capsys):
        zone = tmp_path / "temp"
        zone.write_text("80000\n")
        assert self.live(tmp_path, zone, "--period", "0.01", "--duration", "0.05") == 0
        assert "shift_to_small at 80.00 C" in capsys.readouterr().out

    def test_live_missing_zone_errors(self, tmp_path, capsys):
        zone = tmp_path / "nope"
        assert self.live(tmp_path, zone) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read '{zone}': ")

    def test_live_refuses_first_reading_before_polling(self, tmp_path, capsys, monkeypatch):
        # The controller's own check refuses the fail-fast reading, so a
        # zone below absolute zero is not polled MAX_CONSECUTIVE_ERRORS times.
        zone = tmp_path / "temp"
        zone.write_text("-300000\n")
        polled = []
        monkeypatch.setattr(cli, "live_run", lambda *args, **kwargs: polled.append(args))
        assert self.live(tmp_path, zone, "--period", "5") == 1
        assert capsys.readouterr().err == "error: temperature below absolute zero: -300.0 C\n"
        assert polled == []

    def test_baseline_config_refused_before_the_zone_is_read(self, tmp_path, capsys,
                                                             monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the zone was read for a config with no controller")

        monkeypatch.setattr(cli, "SysfsSource", refuse)
        monkeypatch.setattr(cli, "live_run", refuse)
        cfg = base_config()
        del cfg["controller"]
        assert self.live(tmp_path, "unused", cfg=cfg) == 2
        assert capsys.readouterr().err == (
            "config errors:\n"
            "  - controller: live needs a controller section in the config\n")

    @pytest.mark.parametrize("mode", ["per_second", "literal_init"])
    def test_hands_live_run_the_configs_controller(self, tmp_path, monkeypatch, mode):
        zone = tmp_path / "temp"
        zone.write_text("60000\n")
        handed = []
        monkeypatch.setattr(cli, "live_run", lambda source, config, **kwargs: (
            handed.append(config) or Trace()))
        cfg = base_config(controller={"temp_threshold": 70.5, "grad_threshold": -0.02,
                                      "temp_smoothing": 0.9, "grad_smoothing": 0.5,
                                      mode: True})
        assert self.live(tmp_path, zone, cfg=cfg) == 0
        assert handed == [load_scenario(str(tmp_path / "live.json")).controller]
        assert getattr(handed[0], mode)

    def test_replayed_readings_shift_as_the_configs_controller(self, tmp_path, monkeypatch):
        # A 60-80 C swing with a 20 s period, read every 0.25 s, fed to live
        # through its zone reader: the first read is the fail-fast check,
        # then live_run polls every reading, unpaced. At this threshold the
        # per-second slope releases later than the per-sample one would.
        samples = [TemperatureSample(0.25 * i, 70.0 + 10.0 * math.sin(2 * math.pi * i / 80))
                   for i in range(240)]
        cfg = base_config(controller={"temp_threshold": 73.0, "grad_threshold": -1e-4,
                                      "per_second": True})
        monkeypatch.setattr(cli, "SysfsSource", lambda zone: ReplaySource(samples[:1] + samples))
        monkeypatch.setattr(cli, "live_run", lambda *args, **kwargs: live_run(
            *args, sleep=lambda seconds: None, **kwargs))
        out = str(tmp_path / "live.csv")
        assert self.live(tmp_path, "unused", "--out", out, cfg=cfg) == 0

        def decisions(config):
            controller = ShiftController(config)
            return [controller.observe(sample).value for sample in samples]

        config = build_scenario(cfg).controller
        assert [record.event for record in parse_trace(out)] == decisions(config)
        assert decisions(config) != decisions(replace(config, per_second=False))


class TestCliParser:
    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("run", "ablate", "summarize", "plot", "live"):
            assert cmd in out

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", "x", "--out", "y", "--frobnicate"])
        assert exc.value.code == 2


class TestNonFiniteConfig:
    """Python's json accepts NaN and Infinity; they are rejected up front, by key."""

    @pytest.mark.parametrize("literal", ["Infinity", "NaN", "-Infinity"])
    def test_non_finite_duration_named(self, tmp_path, literal):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()).replace('"duration": 900',
                                                          f'"duration": {literal}'))
        with pytest.raises(ConfigFileError) as err:
            load_scenario(str(path))
        assert any("duration" in p for p in err.value.problems)

    def test_run_with_infinite_duration_fails_fast(self, tmp_path):
        # Without the check this run never ends; the subprocess timeout turns
        # a regression into a failure instead of a hang.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(duration=math.inf)))
        src = str(Path(thermoshift.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "thermoshift.cli", "run", "--config", str(path),
             "--out", str(tmp_path / "t.csv")],
            capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 2
        assert "duration: must be finite" in done.stderr + done.stdout

    def test_nan_heat_capacity_named(self):
        device = {"profile": {
            "heat_capacity": math.nan, "dissipation": 0.2, "ambient_temp": 20.0,
            "f_nominal": 2.0, "f_throttled": 1.0, "t_throttle": 75.0, "t_resume": 70.0,
        }}
        with pytest.raises(ConfigFileError) as err:
            build_scenario(base_config(device=device))
        assert any("heat_capacity must be finite" in p for p in err.value.problems)

    @pytest.mark.parametrize("key, value, shown", [
        ("large_power", math.inf, "inf"),
        ("small_power", -math.inf, "-inf"),
        ("dissipation", math.nan, "nan"),
        ("trip_temp", math.nan, "nan"),
        ("time_to_throttle", math.inf, "inf"),
    ])
    def test_non_finite_calibration_number_named(self, key, value, shown):
        with pytest.raises(ConfigFileError) as err:
            build_scenario(base_config(device={"calibration": {key: value}}))
        assert err.value.problems == [f"device.calibration: {key} must be finite, got {shown}"]

    @pytest.mark.parametrize("window", [[math.nan, 900.0], [300.0, math.inf]])
    def test_non_finite_calibration_window_named(self, window):
        with pytest.raises(ConfigFileError) as err:
            build_scenario(base_config(device={"calibration": {"time_window": window}}))
        assert err.value.problems == [
            f"device.calibration: time_window must be finite, got {tuple(window)}"]

    def test_non_finite_calibration_from_json_literal(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"suite": "slimmable-resnet50-phone", "duration": 900, '
                        '"device": {"calibration": {"large_power": Infinity}}}')
        with pytest.raises(ConfigFileError) as err:
            load_scenario(str(path))
        assert err.value.problems == ["device.calibration: large_power must be finite, got inf"]


class TestCalibrationWindowType:
    @pytest.mark.parametrize("window", [[True, 900], [300, False]])
    def test_boolean_window_end_rejected(self, window):
        with pytest.raises(ConfigFileError) as err:
            build_scenario(base_config(device={"calibration": {"time_window": window}}))
        assert err.value.problems == ["device.calibration.time_window: expected [low, high]"]

    def test_integer_window_accepted(self):
        scenario = build_scenario(base_config(
            device={"calibration": {"time_to_throttle": 450, "time_window": [300, 900]}}))
        assert scenario.profile.heat_capacity > 0
