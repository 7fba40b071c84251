"""Inputs that must be refused with a message, not a traceback or a hang:
non-finite live pacing, an unknown suite and unwritable output paths,
the last refused before any work starts."""

import json
import math

import pytest

from thermoshift import cli
from thermoshift.cli import main
from thermoshift.controller import ControllerConfig, TemperatureSample
from thermoshift.errors import LiveRunError, ThermoshiftError, check_writable, write_text
from thermoshift.sensors import live_run

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
        args = ["live", "--zone", str(zone), "--tlim", "73", "--glim", "-0.07",
                "--period", "0.01", "--duration", "0.05"]
        args[args.index(flag) + 1] = value
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag.lstrip("-") in err


class TestUnknownSuite:
    def test_summarize_exits_2_naming_the_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["summarize", "--trace", str(tmp_path / "t.csv"), "--suite", "nope"])
        assert exc.value.code == 2
        assert "--suite" in capsys.readouterr().err


class TestUnwritableOutputs:
    def config(self, tmp_path):
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(QUICK))
        return str(path)

    def ablate(self, tmp_path, out):
        return main(["ablate", "--config", self.config(tmp_path), "--tlims", "73",
                     "--glims=-0.07", "--duration", "60", "--out", out])

    def test_ablate_grid_in_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "g.csv")
        assert self.ablate(tmp_path, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write grid to ") and out in err

    def test_ablate_table_path_is_a_directory(self, tmp_path, capsys):
        out = str(tmp_path / "g.csv")
        (tmp_path / "g.csv.txt").mkdir()
        assert self.ablate(tmp_path, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write table to ") and out + ".txt" in err

    def test_run_summary_path_is_a_directory(self, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        (tmp_path / "run.csv.summary.json").mkdir()
        assert main(["run", "--config", self.config(tmp_path), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write summary to ")
        assert out + ".summary.json" in err

    def test_run_trace_in_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "run.csv")
        assert main(["run", "--config", self.config(tmp_path), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write trace to ") and out in err

    def test_plot_in_missing_directory(self, tmp_path, capsys):
        trace = str(tmp_path / "run.csv")
        assert main(["run", "--config", self.config(tmp_path), "--out", trace]) == 0
        prefix = str(tmp_path / "missing" / "p")
        assert main(["plot", "--trace", trace, "--out", prefix]) == 1
        err = capsys.readouterr().err
        assert "error: cannot write chart to " + prefix + "_temperature.svg" in err


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
                    "--glims=-0.07,-0.1,-0.15,-0.2", "--duration", "360000", "--out", out]
        return ["live", "--zone", "unused", "--tlim", "73", "--glim", "-0.07",
                "--duration", "1", "--out", out]

    @pytest.mark.parametrize("kind,what", [("run", "trace"), ("ablate", "grid"),
                                           ("live", "trace")])
    def test_output_in_missing_directory(self, tmp_path, capsys, kind, what):
        out = str(tmp_path / "missing" / "o.csv")
        assert main(self.command(kind, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {what} to {out}: ")

    @pytest.mark.parametrize("kind,suffix,what", [("run", ".summary.json", "summary"),
                                                  ("ablate", ".txt", "table")])
    def test_second_output_is_a_directory(self, tmp_path, capsys, kind, suffix, what):
        out = tmp_path / "o.csv"
        (tmp_path / ("o.csv" + suffix)).mkdir()
        assert main(self.command(kind, str(out))) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {what} to {out}{suffix}: ")
        assert not out.exists()

    def test_existing_output_is_left_as_it_was(self, tmp_path):
        out = tmp_path / "o.csv"
        out.write_text("earlier run\n")
        (tmp_path / "o.csv.summary.json").mkdir()
        assert main(self.command("run", str(out))) == 1
        assert out.read_text() == "earlier run\n"


class TestCheckWritable:
    def test_directory_is_refused_like_write_text(self, tmp_path):
        with pytest.raises(ThermoshiftError) as checked:
            check_writable(tmp_path, "grid")
        with pytest.raises(ThermoshiftError) as written:
            write_text(tmp_path, "", "grid")
        assert str(checked.value) == str(written.value)
