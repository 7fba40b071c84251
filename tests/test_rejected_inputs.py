"""Inputs that must be refused with a message, not a traceback or a hang:
non-finite live pacing, bad live controller fields, bad ablate flags, a
config that ablate, summarize or plot cannot run from, an
undecodable trace file, a trace holding nan, unwritable output paths
(refused before any work starts), empty optional paths, and the profile,
calibration, workload, analysis and config checks that no run in the
other test files reaches."""

import json
import math

import pytest

from conftest import phone_scenario, pi_scenario

from thermoshift import cli
from thermoshift.analysis import ablation_grid
from thermoshift.cli import main
from thermoshift.config import build_scenario, load_config
from thermoshift.controller import ControllerConfig, TemperatureSample
from thermoshift.errors import (
    AnalysisError,
    CalibrationError,
    ConfigFileError,
    LiveRunError,
    ProfileError,
    ScenarioError,
    ThermoshiftError,
    check_writable,
    write_text,
)
from thermoshift.harness import emit_trace, run_scenario
from thermoshift.sensors import live_run
from thermoshift.suites import PHONE_PROFILE, get_suite
from thermoshift.thermal import (
    CalibrationTargets,
    DeviceProfile,
    GovernorKind,
    calibrate_profile,
)
from thermoshift.workload import ModelVariant, power_draw

QUICK = {"suite": "slimmable-resnet50-phone", "seed": 0, "controller": "default",
         "duration": 60}


class Counting:
    """A source that counts its reads and runs out after ``n``."""

    def __init__(self, n=3):
        self.reads = 0
        self.n = n

    def read_now(self):
        self.reads += 1
        if self.reads > self.n:
            raise KeyboardInterrupt
        return TemperatureSample(float(self.reads), 60.0)


def no_sleep(seconds):
    pass


class TestLivePacingArguments:
    @pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_period_rejected_before_any_read(self, period):
        source = Counting()
        with pytest.raises(LiveRunError, match="period"):
            live_run(source, ControllerConfig(), period=period, sleep=no_sleep)
        assert source.reads == 0

    @pytest.mark.parametrize("duration", [math.nan, -1.0, -math.inf])
    def test_bad_duration_rejected_before_any_read(self, duration):
        source = Counting()
        with pytest.raises(LiveRunError, match="duration"):
            live_run(source, ControllerConfig(), period=0.25, duration=duration,
                     sleep=no_sleep)
        assert source.reads == 0

    @pytest.mark.parametrize("duration", [math.inf, None])
    def test_unbounded_duration_runs_until_interrupted(self, duration):
        source = Counting(n=4)
        trace = live_run(source, ControllerConfig(), period=0.25, duration=duration,
                         sleep=no_sleep)
        assert len(trace) == 4

    def test_zero_duration_reads_nothing(self):
        source = Counting()
        assert len(live_run(source, ControllerConfig(), period=0.25, duration=0.0,
                            sleep=no_sleep)) == 0
        assert source.reads == 0

    @pytest.mark.parametrize("flag,value", [("--period", "nan"), ("--period", "inf"),
                                            ("--duration", "nan")])
    def test_cli_exits_1_naming_the_argument(self, tmp_path, capsys, flag, value):
        zone = tmp_path / "temp"
        zone.write_text("60000\n")
        config = tmp_path / "quick.json"
        config.write_text(json.dumps(QUICK))
        args = ["live", "--zone", str(zone), "--config", str(config),
                "--period", "0.01", "--duration", "0.05"]
        args[args.index(flag) + 1] = value
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag.lstrip("-") in err


def quick_config(tmp_path, **overrides):
    """The quick-start config, with ``overrides``, written to a file."""
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(dict(QUICK, **overrides)))
    return str(path)


class TestUnknownSuite:
    def test_summarize_exits_2_naming_the_key(self, tmp_path, capsys):
        assert main(["summarize", "--trace", str(tmp_path / "t.csv"),
                     "--config", quick_config(tmp_path, suite="nope")]) == 2
        assert "  - suite: unknown suite 'nope'" in capsys.readouterr().err


class TestUnwritableOutputs:
    def ablate(self, tmp_path, out):
        return main(["ablate", "--config", quick_config(tmp_path), "--tlims", "73",
                     "--glims=-0.07", "--out", out])

    def test_ablate_grid_in_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "g.csv")
        assert self.ablate(tmp_path, out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write grid to '{out}': ")

    def test_ablate_table_path_is_a_directory(self, tmp_path, capsys):
        out = str(tmp_path / "g.csv")
        (tmp_path / "g.csv.txt").mkdir()
        assert self.ablate(tmp_path, out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write table to '{out}.txt': ")

    def test_run_summary_path_is_a_directory(self, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        (tmp_path / "run.csv.summary.json").mkdir()
        assert main(["run", "--config", quick_config(tmp_path), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write summary to '{out}.summary.json': ")

    def test_run_trace_in_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "run.csv")
        assert main(["run", "--config", quick_config(tmp_path), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write trace to '{out}': ")

    def test_plot_in_missing_directory(self, tmp_path, capsys):
        trace = str(tmp_path / "run.csv")
        assert main(["run", "--config", quick_config(tmp_path), "--out", trace]) == 0
        prefix = str(tmp_path / "missing" / "p")
        assert main(["plot", "--trace", trace, "--out", prefix,
                     "--config", quick_config(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot write chart to '{prefix}_temperature.svg': " in err


class TestOutputsCheckedUpFront:
    """Every output path is checked before any simulation or polling starts,
    so a bad path costs no work and leaves no other output behind."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the output paths were checked")

        for name in ("load_scenario", "run_scenario", "ablation_grid", "SysfsSource",
                     "live_run"):
            monkeypatch.setattr(cli, name, refuse)

    def command(self, kind, out):
        if kind == "run":
            return ["run", "--config", "unused.json", "--out", out]
        if kind == "ablate":
            return ["ablate", "--config", "unused.json", "--tlims", "75,73,70,65",
                    "--glims=-0.07,-0.1,-0.15,-0.2", "--out", out]
        return ["live", "--zone", "unused", "--config", "unused.json",
                "--duration", "1", "--out", out]

    @pytest.mark.parametrize("kind,what", [("run", "trace"), ("ablate", "grid"),
                                           ("live", "trace")])
    def test_output_in_missing_directory(self, tmp_path, capsys, kind, what):
        out = str(tmp_path / "missing" / "o.csv")
        assert main(self.command(kind, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {what} to '{out}': ")

    @pytest.mark.parametrize("kind,suffix,what", [("run", ".summary.json", "summary"),
                                                  ("ablate", ".txt", "table")])
    def test_second_output_is_a_directory(self, tmp_path, capsys, kind, suffix, what):
        out = tmp_path / "o.csv"
        (tmp_path / ("o.csv" + suffix)).mkdir()
        assert main(self.command(kind, str(out))) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {what} to '{out}{suffix}': ")
        assert not out.exists()

    def test_existing_output_is_left_as_it_was(self, tmp_path):
        out = tmp_path / "o.csv"
        out.write_text("earlier run\n")
        (tmp_path / "o.csv.summary.json").mkdir()
        assert main(self.command("run", str(out))) == 1
        assert out.read_text() == "earlier run\n"


class TestEmptyOptionalPaths:
    """An empty ``live --out`` or ``plot --overlay`` is a path that cannot be
    opened, refused like any other, not an option left out."""

    def test_live_out_refused_before_the_first_poll(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the zone was polled before --out was checked")

        monkeypatch.setattr(cli, "SysfsSource", refuse)
        monkeypatch.setattr(cli, "live_run", refuse)
        assert main(["live", "--zone", "unused", "--config", "unused.json",
                     "--duration", "1", "--out", ""]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write trace to '': ")

    def test_plot_overlay_refused(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        emit_trace(run_scenario(phone_scenario(duration=60.0)), trace)
        assert main(["plot", "--trace", str(trace), "--overlay", "",
                     "--out", str(tmp_path / "p"), "--config", quick_config(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read trace from '': ")
        assert not list(tmp_path.glob("p_*.svg"))


class TestCheckWritable:
    def test_directory_is_refused_like_write_text(self, tmp_path):
        with pytest.raises(ThermoshiftError) as checked:
            check_writable(tmp_path, "grid")
        with pytest.raises(ThermoshiftError) as written:
            write_text(tmp_path, "", "grid")
        assert str(checked.value) == str(written.value)


class TestAblateFlags:
    """Bad ``--tlims``/``--glims`` entries are refused by argparse (exit 2,
    naming the flag) before the config is even read."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the config was read before the flags were checked")

        monkeypatch.setattr(cli, "load_scenario", refuse)

    def ablate(self, tmp_path, **flags):
        args = {"--tlims": "73", "--glims": "-0.07"}
        args.update(flags)
        return ["ablate", "--config", "unused.json", "--out", str(tmp_path / "g.csv")] + [
            f"{flag}={value}" for flag, value in args.items()]

    @pytest.mark.parametrize("flag,value", [
        ("--tlims", "73,,70"), ("--tlims", "73,"), ("--tlims", ""), ("--tlims", "73,nan"),
        ("--tlims", "inf"), ("--glims", "-0.07,-inf"), ("--glims", "NaN"),
        ("--tlims", "73,abc"),
    ])
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(self.ablate(tmp_path, **{flag: value}))
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err


class TestAblateDuration:
    """Each cell runs the config's ``duration``, so a duration ``run``
    refuses is refused by ``ablate`` too (exit 2, one ``- duration`` line)
    before any cell runs."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a cell ran before the config was checked")

        monkeypatch.setattr(cli, "ablation_grid", refuse)

    @pytest.mark.parametrize("duration,problem", [
        (math.nan, "must be finite, got nan"), (0, "must be > 0, got 0"),
        (-5, "must be > 0, got -5"), (math.inf, "must be finite, got inf"),
        ("ten", "expected a number, got 'ten'"),
    ])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, duration, problem):
        out = tmp_path / "g.csv"
        assert main(["ablate", "--config", quick_config(tmp_path, duration=duration),
                     "--tlims", "73", "--glims=-0.07", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config errors:\n  - duration: {problem}\n"
        assert not out.exists()

    def test_library_default_is_the_scenarios_duration(self):
        scenario = phone_scenario(duration=60.0)
        grid = ablation_grid(scenario, [73.0], [-0.07])
        assert grid == ablation_grid(scenario, [73.0], [-0.07], duration=60.0)
        assert grid != ablation_grid(scenario, [73.0], [-0.07], duration=1800.0)


class TestLiveConfig:
    """``live --config`` refuses a bad controller field as ``run`` does (exit
    2, one ``- controller`` line naming the field) before the zone is
    opened."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the zone was opened before the config was checked")

        for name in ("SysfsSource", "live_run"):
            monkeypatch.setattr(cli, name, refuse)

    def live(self, tmp_path, **fields):
        controller = {"temp_threshold": 73, "grad_threshold": -0.07, **fields}
        path = tmp_path / "live.json"
        path.write_text(json.dumps({**QUICK, "controller": controller}))
        return ["live", "--zone", "unused", "--config", str(path), "--duration", "1"]

    @pytest.mark.parametrize("field,value", [
        ("temp_threshold", math.nan), ("temp_threshold", math.inf),
        ("temp_threshold", "hot"),
        ("grad_threshold", -math.inf), ("grad_threshold", math.nan),
        ("temp_smoothing", 1.5), ("temp_smoothing", 1), ("temp_smoothing", 0),
        ("temp_smoothing", math.nan),
        ("grad_smoothing", -0.5), ("grad_smoothing", math.inf), ("grad_smoothing", "x"),
    ])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, field, value):
        assert main(self.live(tmp_path, **{field: value})) == 2
        heading, *problems = capsys.readouterr().err.splitlines()
        assert heading == "config errors:" and len(problems) == 1
        # A value of the wrong type is named by its dotted key.
        assert problems[0].startswith((f"  - controller: {field} must be ",
                                       f"  - controller.{field}: expected a number"))


class TestPlotConfig:
    """``plot``'s reference lines are the config's ``temp_threshold`` and
    trip point, so a config that gives a bad one is refused as ``run``
    refuses it (exit 2, one line naming the section) before the trace is
    read or a chart is drawn."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the trace was read before the config was checked")

        for name in ("parse_trace", "emit_plots"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("section,value,problem", [
        ("controller", math.nan, "controller: temp_threshold must be finite, got nan"),
        ("controller", math.inf, "controller: temp_threshold must be finite, got inf"),
        ("controller", "hot", "controller.temp_threshold: expected a number, got 'hot'"),
        ("device", -math.inf, "device.profile: t_throttle must be finite, got -inf"),
        ("device", math.nan, "device.profile: t_throttle must be finite, got nan"),
        ("device", math.inf, "device.profile: t_throttle must be finite, got inf"),
    ])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, section, value, problem):
        if section == "controller":
            overrides = {"controller": {"temp_threshold": value, "grad_threshold": -0.07}}
        else:
            overrides = {"device": {"profile": dict(PHONE_FIELDS, t_throttle=value)}}
        assert main(["plot", "--trace", "unused.csv", "--out", "unused",
                     "--config", quick_config(tmp_path, **overrides)]) == 2
        assert capsys.readouterr().err == f"config errors:\n  - {problem}\n"


class TestUndecodableTrace:
    """A trace with a byte that is not UTF-8 ends in exit 1 naming the file
    and the byte's offset, not in a ``UnicodeDecodeError`` traceback."""

    @pytest.mark.parametrize("command", [["summarize"], ["plot", "--out", "unused"]])
    def test_exits_1_naming_the_path(self, tmp_path, capsys, command):
        path = tmp_path / "t.csv"
        path.write_bytes(b"sim_time\xff")
        assert main(command + ["--trace", str(path), "--config", quick_config(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read trace from '{path}': ")
        assert "can't decode byte 0xff in position 8" in err


class TestNonFiniteTrace:
    """A trace with nan in ``cpu_temp`` ends in exit 1 naming the file and
    line, with no summary printed and no chart written."""

    @pytest.mark.parametrize("command", [["summarize"], ["plot", "--out", "chart"]])
    def test_exits_1_naming_the_line(self, tmp_path, capsys, monkeypatch, command):
        path = tmp_path / "t.csv"
        emit_trace(run_scenario(phone_scenario(duration=60.0)), path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[5].split(",")
        fields[1] = "nan"
        lines[5] = ",".join(fields)
        path.write_text("".join(lines))
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--trace", str(path), "--config", quick_config(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {path}:6: cpu_temp must be finite, got nan\n"
        assert out == ""
        assert not list(tmp_path.glob("*.svg"))


class TestModelChecks:
    def test_negative_idle_power(self):
        with pytest.raises(ProfileError, match="idle_power must be >= 0, got -1.0"):
            DeviceProfile(heat_capacity=20.0, dissipation=0.1, ambient_temp=22.0,
                          f_nominal=2.0, f_throttled=1.0, t_throttle=77.0, t_resume=70.0,
                          idle_power=-1.0)

    def test_zero_nominal_power(self):
        with pytest.raises(ScenarioError, match="power_nominal must be > 0, got 0.0"):
            ModelVariant(name="dead", base_latency=0.1, power_nominal=0.0, accuracy=0.5)

    @pytest.mark.parametrize("freq", [0.0, -1.0])
    def test_power_draw_at_a_stopped_clock(self, freq):
        large = get_suite("slimmable-resnet50-phone").large
        with pytest.raises(ValueError, match=f"freq must be > 0, got {freq}"):
            power_draw(large, freq, PHONE_PROFILE)


PHONE_FIELDS = {"heat_capacity": 24.3, "dissipation": 0.12, "ambient_temp": 22.0,
                "f_nominal": 2.86, "f_throttled": 2.05, "t_throttle": 77.0, "t_resume": 60.0}
# shed = pin_gain * dP / df overflows: the pinned equilibrium is nan.
SHEDDING_PROFILE = dict(PHONE_FIELDS, heat_capacity=20.0, dissipation=0.1, f_nominal=1.5,
                        f_throttled=0.6, t_throttle=78.0, governor="pi-pin", pin_gain=1e308)


class TestValuesThatUnderflow:
    """Positive values so small that a quotient built from them rounds to 0
    or overflows; each used to crash or hang a run."""

    @pytest.mark.parametrize("device,needle", [
        # dissipation / heat_capacity rounds to 0: advance divided by the rate.
        ({"profile": dict(PHONE_FIELDS, dissipation=5e-324)},
         "device.profile: dissipation / heat_capacity must be finite and > 0"),
        # The rate overflows to inf: advance never finished a band.
        ({"profile": dict(PHONE_FIELDS, heat_capacity=5e-324)},
         "device.profile: dissipation / heat_capacity must be finite and > 0"),
        # A finite rate, but 6.96 W / dissipation overflows the equilibrium.
        ({"profile": dict(PHONE_FIELDS, heat_capacity=1e-300, dissipation=1e-309)},
         "device: dissipation 1e-309 W/C is too small for 6.96 W"),
        # f_throttled / f_nominal rounds to 0: calibration divided by it.
        ({"calibration": {"f_throttled": 5e-324}},
         "device.calibration: f_throttled 5e-324 GHz is too small"),
        # f_nominal / f_throttled overflows: once throttled, advance got an
        # infinite compute interval.
        ({"profile": dict(PHONE_FIELDS, heat_capacity=2.0, f_throttled=1e-320)},
         "device: f_throttled 1e-320 GHz is too small: the large model's latency there, inf s"),
        # The band solvers refuse the nan pinned equilibrium.
        ({"profile": SHEDDING_PROFILE}, "device: band equilibria must be finite, got"),
    ])
    def test_run_exits_2_naming_the_key(self, tmp_path, capsys, device, needle):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(dict(QUICK, device=device)))
        out = tmp_path / "t.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"  - {needle}" in capsys.readouterr().err
        assert not out.exists()

    def test_each_scenario_problem_on_its_own_line(self, tmp_path, capsys):
        # Two problems that only Scenario.validate sees, each a "- " line.
        profile = dict(PHONE_FIELDS, heat_capacity=2.0, f_throttled=1e-320)
        path = tmp_path / "two.json"
        path.write_text(json.dumps(dict(QUICK, device={"profile": profile},
                                        pacing={"target_period": 0.01})))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ", 1)[0] for line in lines[1:]] == [
            "  - device", "  - pacing.target_period"]

    def test_ablate_refuses_a_shedding_pin_gain(self, tmp_path, capsys):
        path = tmp_path / "shed.json"
        path.write_text(json.dumps(dict(QUICK, device={"profile": SHEDDING_PROFILE})))
        out = tmp_path / "grid.csv"
        command = ["ablate", "--config", str(path), "--tlims", "73", "--glims=-0.07",
                   "--out", str(out)]
        assert main(command) == 2
        assert "  - device: band equilibria must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_pin_gain_that_sheds_infinite_power(self):
        # shed = pin_gain * dP / df overflows, so the pinned equilibrium is
        # inf / inf; a baseline run used to log nan temperatures.
        profile = DeviceProfile(**dict(PHONE_FIELDS, heat_capacity=20.0, dissipation=0.1,
                                       f_nominal=1.5, f_throttled=0.6, t_throttle=78.0),
                                governor=GovernorKind.PI_PIN, pin_gain=1e308)
        with pytest.raises(ProfileError, match=r"band equilibria must be finite, got .*nan C"):
            run_scenario(pi_scenario(baseline=True, profile=profile))


PI_TARGETS = dict(governor=GovernorKind.PI_PIN, trip_temp=78.0, time_to_throttle=600.0,
                  small_equilibrium=60.0, f_nominal=1.5, f_throttled=0.6, dissipation=0.10)


class TestCalibrationChecks:
    def test_small_equilibrium_too_near_the_shift_threshold(self):
        with pytest.raises(CalibrationError, match="small-model equilibrium 72.0 C must sit "
                                                   "at least 2 C below the shift threshold 73.0"):
            calibrate_profile(CalibrationTargets(small_equilibrium=72.0, temp_threshold=73.0))

    def test_large_model_cannot_cross_the_trip_point(self):
        # 22 C + 6.5 W / 0.12 W/C = 76.2 C, short of 77 C + 0.5 C.
        with pytest.raises(CalibrationError,
                           match="large-model equilibrium 76.2 C cannot cross trip 77.0 C"):
            calibrate_profile(CalibrationTargets(large_power=6.5, small_equilibrium=60.0))

    def test_pinned_equilibrium_far_from_the_trip_point(self):
        # 10 W on the 4.5%-slower pinned clock settles near 118 C.
        with pytest.raises(CalibrationError, match=r"^pinned equilibrium 117.69 C is more than "
                                                   r"1 C above trip 78.0 C; raise latency_rise "
                                                   r"or lower large_power$"):
            calibrate_profile(CalibrationTargets(**PI_TARGETS, large_power=10.0))

    @pytest.mark.parametrize("targets", [dict(large_power=10.0, latency_rise=0.77),
                                         dict(large_power=5.9)])
    def test_the_advised_direction_is_accepted(self, targets):
        # The pinned temperature ambient + large_power / (k (1 + rise))
        # falls as the rise grows or the power drops.
        result = calibrate_profile(CalibrationTargets(**PI_TARGETS, **targets))
        assert 78.0 < result.pinned_temp <= 79.0
        assert result.latency_rise == pytest.approx(targets.get("latency_rise", 0.045))


class TestAnalysisChecks:
    @pytest.mark.parametrize("temps,grads", [([], [-0.07]), ([73.0], []), ([], [])])
    def test_empty_threshold_lists(self, temps, grads):
        with pytest.raises(AnalysisError, match="threshold lists must be non-empty"):
            ablation_grid(phone_scenario(duration=60.0), temps, grads)


class TestConfigFileChecks:
    def test_unreadable_config_path(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(ConfigFileError) as exc:
            load_config(path)
        assert exc.value.problems[0].startswith(f"cannot read '{path}': ")

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
        assert f"cannot read '{path}': " in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", "42", '"suite"', "null"])
    def test_top_level_not_an_object(self, tmp_path, text):
        with pytest.raises(ConfigFileError) as exc:
            build_scenario(json.loads(text))
        assert exc.value.problems == ["top level: expected a JSON object"]
