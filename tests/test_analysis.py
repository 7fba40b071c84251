import random
from dataclasses import replace

import pytest

from conftest import phone_scenario, pi_sweep_scenario
from oracles import reference_stable_iteration_accuracy

from thermoshift import analysis
from thermoshift.analysis import (
    ablation_grid,
    cell_seed,
    stable_iteration_accuracy,
    summarize,
)
from thermoshift.controller import Mode
from thermoshift.errors import AnalysisError
from thermoshift.harness import (
    EVENT_NONE,
    EVENT_SHIFT_LARGE,
    EVENT_SHIFT_SMALL,
    EVENT_THROTTLE_OFF,
    EVENT_THROTTLE_ON,
    Scenario,
    Trace,
    TraceRecord,
    hottest_reading,
    run_scenario,
)
from thermoshift.suites import SUITES, default_profile

LARGE = SUITES["slimmable-resnet50-phone"].large  # accuracy 0.768
SMALL = SUITES["slimmable-resnet50-phone"].small  # accuracy 0.638


def row(i, mode, latency, event=EVENT_NONE):
    return TraceRecord(sim_time=0.25 * (i + 1), cpu_temp=60.0, freq=2.86,
                       mode=mode, inference_latency=latency, idle=0.0, event=event)


def synthetic_trace(n_large, n_small, lat_large=0.205, lat_small=0.107):
    records = []
    i = 0
    for _ in range(n_large):
        records.append(row(i, Mode.LARGE, lat_large))
        i += 1
    for _ in range(n_small):
        records.append(row(i, Mode.SMALL, lat_small))
        i += 1
    return Trace(records)


def cycle_trace(phases):
    """phases: list of (mode, n_rows); shift events inserted at phase starts."""
    records = []
    i = 0
    prev = None
    for mode, n in phases:
        for j in range(n):
            event = EVENT_NONE
            if j == 0 and prev is not None and mode is not prev:
                event = EVENT_SHIFT_SMALL if mode is Mode.SMALL else EVENT_SHIFT_LARGE
            latency = 0.205 if mode is Mode.LARGE else 0.107
            records.append(row(i, mode, latency, event))
            i += 1
        prev = mode
    return Trace(records)


class TestSummarize:
    def test_all_large_degenerate_accuracy(self):
        summary = summarize(synthetic_trace(100, 0), LARGE, SMALL)
        assert summary.est_accuracy == pytest.approx(0.768)
        assert summary.n_large == 100 and summary.n_small == 0

    def test_mode_ratio_accuracy_and_latency(self):
        # 43.8% large at (0.205, 0.107): accuracy 0.695, latency 0.150
        summary = summarize(synthetic_trace(438, 562), LARGE, SMALL)
        assert summary.est_accuracy == pytest.approx(0.695, abs=0.001)
        assert summary.avg_latency == pytest.approx(0.150, abs=0.001)

    def test_empty_trace_rejected(self):
        with pytest.raises(AnalysisError):
            summarize(Trace(), LARGE, SMALL)

    def test_permutation_invariance(self):
        trace = synthetic_trace(438, 562)
        shuffled = Trace(list(trace))
        random.Random(4).shuffle(shuffled)
        a = summarize(trace, LARGE, SMALL)
        b = summarize(shuffled, LARGE, SMALL)
        assert a.est_accuracy == pytest.approx(b.est_accuracy)
        assert a.avg_latency == pytest.approx(b.avg_latency)

    def test_accuracy_is_convex_combination(self):
        rng = random.Random(8)
        for _ in range(50):
            n_l = rng.randint(0, 400)
            n_s = rng.randint(0, 400)
            if n_l + n_s == 0:
                continue
            acc = summarize(synthetic_trace(n_l, n_s), LARGE, SMALL).est_accuracy
            assert SMALL.accuracy - 1e-12 <= acc <= LARGE.accuracy + 1e-12

    def test_counts_shifts_and_throttles(self):
        trace = cycle_trace([(Mode.LARGE, 5), (Mode.SMALL, 5), (Mode.LARGE, 5)])
        summary = summarize(trace, LARGE, SMALL)
        assert summary.n_shifts == 2
        assert summary.n_throttle_events == 0


class TestStableIterationAccuracy:
    def two_cycle_trace(self):
        # warmup, then 2 cycles of (600 small, 400 large), then the closing shift
        return cycle_trace([
            (Mode.LARGE, 50),
            (Mode.SMALL, 600), (Mode.LARGE, 400),
            (Mode.SMALL, 600), (Mode.LARGE, 400),
            (Mode.SMALL, 10),
        ])

    def test_ratio_weighted_over_two_cycles(self):
        acc = stable_iteration_accuracy(self.two_cycle_trace(), LARGE, SMALL)
        assert acc == pytest.approx(0.4 * 0.768 + 0.6 * 0.638)
        assert acc == pytest.approx(0.690)

    def test_warmup_rows_excluded(self):
        # the 50-row all-large warmup must not inflate the ratio
        trace = self.two_cycle_trace()
        acc_with_more_warmup = stable_iteration_accuracy(
            cycle_trace([(Mode.LARGE, 5000),
                         (Mode.SMALL, 600), (Mode.LARGE, 400),
                         (Mode.SMALL, 600), (Mode.LARGE, 400),
                         (Mode.SMALL, 10)]), LARGE, SMALL)
        assert acc_with_more_warmup == pytest.approx(
            stable_iteration_accuracy(trace, LARGE, SMALL))

    def test_insufficient_cycles_error_names_count(self):
        trace = cycle_trace([(Mode.LARGE, 50), (Mode.SMALL, 600), (Mode.LARGE, 400),
                             (Mode.SMALL, 10)])
        with pytest.raises(AnalysisError, match="found 1"):
            stable_iteration_accuracy(trace, LARGE, SMALL)

    def test_no_shift_at_all(self):
        with pytest.raises(AnalysisError, match="found 0"):
            stable_iteration_accuracy(synthetic_trace(100, 0), LARGE, SMALL)


def event_trace(events):
    """One row per event; the mode follows the shifts, starting LARGE."""
    records = []
    mode = Mode.LARGE
    for i, event in enumerate(events):
        if event == EVENT_SHIFT_SMALL:
            mode = Mode.SMALL
        elif event == EVENT_SHIFT_LARGE:
            mode = Mode.LARGE
        records.append(row(i, mode, 0.205 if mode is Mode.LARGE else 0.107, event))
    return Trace(records)


def shift_cycles(n):
    """A warm-up, then ``n`` shifts to SMALL, each followed by a LARGE phase."""
    return [EVENT_NONE] * 3 + [EVENT_SHIFT_SMALL, EVENT_NONE, EVENT_NONE,
                               EVENT_SHIFT_LARGE, EVENT_NONE] * n


def outcome(accuracy, trace):
    """``accuracy``'s value for the trace, or the text of its AnalysisError."""
    try:
        return accuracy(trace, LARGE, SMALL)
    except AnalysisError as exc:
        return f"AnalysisError: {exc}"


S, L, ON, OFF, NONE = (EVENT_SHIFT_SMALL, EVENT_SHIFT_LARGE, EVENT_THROTTLE_ON,
                       EVENT_THROTTLE_OFF, EVENT_NONE)


class TestStableScanMatchesReference:
    """``stable_iteration_accuracy`` gives the value of the reference
    comprehension, or the same error text, on hand-built traces."""

    @pytest.mark.parametrize("events", [
        [],
        shift_cycles(1),
        shift_cycles(2),
        shift_cycles(3),
        shift_cycles(4),
        [S, NONE, L, NONE, S, NONE, L, NONE, S, NONE],
        [NONE, S, L, NONE, S, NONE, L, S],
        [NONE, ON, S, ON, NONE, L, OFF, S, L, ON, S, NONE, L, ON, S],
    ], ids=["empty", "1-shift", "2-shifts", "3-shifts", "4-shifts", "shift-first-row",
            "shift-last-row", "other-events-between"])
    def test_same_value_or_error(self, events):
        trace = event_trace(events)
        expected = outcome(reference_stable_iteration_accuracy, trace)
        assert outcome(stable_iteration_accuracy, trace) == expected
        assert isinstance(expected, float) == (events.count(S) > 2)  # a value iff 3 starts


class TestAblationGrid:
    def base(self, **kw):
        return phone_scenario(duration=1800.0, seed=0, weight_shared=True, **kw)

    def test_single_cell_matches_direct_run(self):
        base = self.base()
        grid = ablation_grid(base, [73.0], [-0.07], duration=1800.0)
        assert len(grid.values) == 1 and len(grid.values[0]) == 1
        from dataclasses import replace
        direct = replace(base, duration=1800.0, seed=cell_seed(base.seed, 73.0, -0.07))
        expected = stable_iteration_accuracy(run_scenario(direct), LARGE, SMALL)
        assert grid.values[0][0] == pytest.approx(expected)

    def test_four_by_four_shape(self):
        grid = ablation_grid(self.base(), [75.0, 73.0, 70.0, 65.0],
                             [-0.005, -0.01, -0.07, -0.10], duration=900.0)
        assert len(grid.values) == 4
        assert all(len(r) == 4 for r in grid.values)

    def test_cell_order_independent(self):
        tlims, glims = [73.0, 70.0], [-0.01, -0.07]
        a = ablation_grid(self.base(), tlims, glims, duration=900.0)
        b = ablation_grid(self.base(), list(reversed(tlims)), list(reversed(glims)),
                          duration=900.0)
        for g in glims:
            for t in tlims:
                assert a.cell(g, t) == pytest.approx(b.cell(g, t))

    def test_insufficient_cycles_recorded_not_fatal(self):
        grid = ablation_grid(self.base(), [73.0], [-0.07], duration=60.0)
        assert grid.values[0][0] is None
        assert "cycles" in grid.notes[0][0]

    def test_csv_and_table_render(self, tmp_path):
        grid = ablation_grid(self.base(), [73.0, 70.0], [-0.07], duration=900.0)
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("grad_threshold/temp_threshold,")
        assert len(lines) == 2
        table = grid.format_table()
        assert "grad \\ temp" in table

    def test_baseline_scenario_rejected(self):
        with pytest.raises(AnalysisError):
            ablation_grid(self.base(controller=None), [73.0], [-0.07])


def full_run_grid(base, temps, grads, duration):
    """``ablation_grid``'s values and notes, each cell run for its whole duration."""
    values, notes = [], []
    for g in grads:
        row, row_notes = [], []
        for t in temps:
            cell = replace(base, duration=duration, seed=cell_seed(base.seed, t, g),
                           controller=replace(base.controller, temp_threshold=t,
                                              grad_threshold=g))
            assert cell.stop_after_small_shifts is None
            try:
                row.append(stable_iteration_accuracy(run_scenario(cell), cell.large, cell.small))
                row_notes.append("")
            except AnalysisError as exc:
                row.append(None)
                row_notes.append(str(exc))
        values.append(row)
        notes.append(row_notes)
    return values, notes


# The benchmark's pi-sweep grid and acceptance test 04's phone grid.
GRIDS = {
    "pi-sweep": (pi_sweep_scenario, [79.0, 77.0, 75.0, 73.0], [-0.005, -0.01, -0.02, -0.04]),
    "test-04": (lambda seed: phone_scenario(duration=1800.0, seed=seed, weight_shared=True),
                [75.0, 73.0, 70.0, 65.0], [-0.005, -0.01, -0.07, -0.10]),
}


class TestGridStopsClosedCells:
    @pytest.mark.parametrize("seed", [0, 8675309])
    @pytest.mark.parametrize("name", GRIDS)
    def test_values_and_notes_equal_full_runs(self, name, seed):
        make, temps, grads = GRIDS[name]
        base = make(seed)
        grid = ablation_grid(base, temps, grads, duration=1800.0)
        assert (grid.values, grid.notes) == full_run_grid(base, temps, grads, 1800.0)

    def test_run_scenario_patched_with_one_argument(self, monkeypatch):
        make, temps, grads = GRIDS["pi-sweep"]
        base = make(0)
        unpatched = ablation_grid(base, temps, grads, duration=1800.0)
        ran = []

        def one_argument(scenario):
            ran.append(scenario.controller.temp_threshold)
            return run_scenario(scenario)

        monkeypatch.setattr(analysis, "run_scenario", one_argument)
        grid = ablation_grid(base, temps, grads, duration=1800.0)
        assert (grid.values, grid.notes) == (unpatched.values, unpatched.notes)
        # The 79 C column sits above the ~78.5 C pin: only the cells below it run.
        assert ran == [77.0, 75.0, 73.0] * len(grads)


class TestHottestReading:
    @pytest.mark.parametrize("weight_shared", [False, True])
    @pytest.mark.parametrize("controlled", [True, False])
    @pytest.mark.parametrize("seed", [0, 8675309])
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_no_reading_exceeds_the_bound(self, name, seed, controlled, weight_shared):
        suite = SUITES[name]
        scenario = Scenario(profile=default_profile(suite.platform), large=suite.large,
                            small=suite.small, controller=suite.controller if controlled else None,
                            pacing=suite.pacing, duration=3600.0, seed=seed,
                            platform=suite.platform, weight_shared=weight_shared)
        bound = hottest_reading(scenario)
        assert max(r.cpu_temp for r in run_scenario(scenario)) <= bound

    def test_pinned_baseline_reaches_the_bound(self):
        scenario = replace(pi_sweep_scenario(0), controller=None)
        bound = hottest_reading(scenario)
        assert 78.0 < bound < 79.0
        assert max(r.cpu_temp for r in run_scenario(scenario)) == pytest.approx(bound, abs=1e-9)

    def test_phone_cells_at_the_trip_point_are_not_run(self, monkeypatch):
        # The phone bound is its 77 C trip point: the throttled equilibrium
        # sits below it, so a 77 C threshold can never be passed.
        base = phone_scenario(duration=1800.0, seed=0, weight_shared=True)
        assert hottest_reading(base) == 77.0
        temps, grads = [77.0, 73.0], [-0.07, -0.10]
        expected = full_run_grid(base, temps, grads, 1800.0)
        ran = []

        def recording(scenario):
            ran.append(scenario.controller.temp_threshold)
            return run_scenario(scenario)

        monkeypatch.setattr(analysis, "run_scenario", recording)
        grid = ablation_grid(base, temps, grads, duration=1800.0)
        assert (grid.values, grid.notes) == expected
        assert grid.notes[0][0] == "need 2 complete shift cycles, found 0"
        assert ran == [73.0, 73.0]
