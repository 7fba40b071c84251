import json
import re
from pathlib import Path

import pytest

from conftest import phone_scenario

from thermoshift.cli import main
from thermoshift.controller import ControllerConfig, TemperatureSample
from thermoshift.errors import AnalysisError
from thermoshift.harness import Trace, emit_trace, run_scenario
from thermoshift.plots import HEIGHT, WIDTH, axis_range, emit_plots
from thermoshift.sensors import ReplaySource, live_run


class TestAxisRange:
    def test_five_percent_margin(self):
        lo, hi = axis_range(0.0, 100.0)
        assert lo == pytest.approx(-5.0)
        assert hi == pytest.approx(105.0)

    def test_covers_data(self):
        lo, hi = axis_range(22.0, 77.0)
        assert lo < 22.0 and hi > 77.0

    def test_flat_series_gets_unit_span(self):
        lo, hi = axis_range(42.0, 42.0)
        assert lo == pytest.approx(41.95)
        assert hi == pytest.approx(42.05)

    def test_swapped_bounds_normalized(self):
        lo, hi = axis_range(10.0, 0.0)
        assert lo < hi


@pytest.fixture
def quick_config(tmp_path):
    """The quick-start config's path: the phone suite and its controller."""
    path = tmp_path / "quick.json"
    path.write_text(json.dumps({"suite": "slimmable-resnet50-phone", "seed": 0,
                                "controller": "default", "duration": 60}))
    return str(path)


@pytest.fixture(scope="module")
def short_trace():
    return run_scenario(phone_scenario(duration=600.0))


@pytest.fixture(scope="module")
def baseline_trace():
    return run_scenario(phone_scenario(duration=600.0, baseline=True))


class TestEmitPlots:
    def test_writes_three_svgs(self, short_trace, tmp_path):
        paths = emit_plots(short_trace, str(tmp_path / "run"))
        assert [p.rsplit("_", 1)[1] for p in paths] == \
            ["temperature.svg", "frequency.svg", "latency.svg"]
        for p in paths:
            text = Path(p).read_text()
            assert text.startswith("<svg")
            assert "<polyline" in text

    def test_polyline_points_inside_canvas(self, short_trace, tmp_path):
        paths = emit_plots(short_trace, str(tmp_path / "run"))
        for p in paths:
            text = Path(p).read_text()
            for match in re.finditer(r'points="([^"]+)"', text):
                for pair in match.group(1).split():
                    x, y = map(float, pair.split(","))
                    assert 0.0 <= x <= WIDTH
                    assert 0.0 <= y <= HEIGHT

    def test_overlay_adds_second_series(self, short_trace, baseline_trace, tmp_path):
        paths = emit_plots(short_trace, str(tmp_path / "both"), overlay=baseline_trace)
        temp_svg = Path(paths[0]).read_text()
        assert temp_svg.count("<polyline") == 2

    def test_reference_lines(self, short_trace, tmp_path):
        paths = emit_plots(short_trace, str(tmp_path / "refs"),
                           temp_threshold=73.0, trip_temp=77.0)
        temp_svg = Path(paths[0]).read_text()
        assert "shift threshold" in temp_svg
        assert "throttle trip" in temp_svg
        lat_svg = Path(paths[2]).read_text()
        assert "shift threshold" not in lat_svg

    def test_shift_markers_present(self, short_trace, tmp_path):
        paths = emit_plots(short_trace, str(tmp_path / "marks"))
        temp_svg = Path(paths[0]).read_text()
        assert 'stroke-dasharray="2,3"' in temp_svg

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(AnalysisError):
            emit_plots(Trace(), str(tmp_path / "x"))

    def test_empty_overlay_rejected(self, short_trace, tmp_path):
        with pytest.raises(AnalysisError, match="empty overlay"):
            emit_plots(short_trace, str(tmp_path / "x"), overlay=Trace())
        assert list(tmp_path.iterdir()) == []

    def test_cli_header_only_overlay_exits_1(self, short_trace, tmp_path, capsys, quick_config):
        run, overlay = tmp_path / "run.csv", tmp_path / "overlay.csv"
        emit_trace(short_trace, run)
        emit_trace(Trace(), overlay)
        assert main(["plot", "--trace", str(run), "--overlay", str(overlay),
                     "--out", str(tmp_path / "p"), "--config", quick_config]) == 1
        assert "overlay" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["overlay.csv", "quick.json",
                                                              "run.csv"]


class TestLiveTracePlot:
    """A live trace has blank frequency and latency columns: plotting it
    writes the temperature chart only."""

    @pytest.fixture
    def live_trace(self):
        samples = [TemperatureSample(float(i), 60.0 + 0.1 * i) for i in range(20)]
        return live_run(ReplaySource(samples), ControllerConfig(), period=0.25,
                        sleep=lambda s: None)

    def test_writes_only_the_temperature_chart(self, live_trace, tmp_path):
        paths = emit_plots(live_trace, str(tmp_path / "live"))
        assert paths == [str(tmp_path / "live_temperature.svg")]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["live_temperature.svg"]

    def test_cli_plot_exits_0(self, live_trace, tmp_path, capsys, quick_config):
        trace = tmp_path / "live.csv"
        emit_trace(live_trace, trace)
        assert main(["plot", "--trace", str(trace), "--out", str(tmp_path / "p"),
                     "--config", quick_config]) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / 'p'}_temperature.svg\n"
        assert not (tmp_path / "p_frequency.svg").exists()
        assert not (tmp_path / "p_latency.svg").exists()
