import gc
import itertools
import math
import os
import random
import threading
import tracemalloc
from dataclasses import replace

import pytest

from conftest import phone_scenario, pi_scenario, pi_sweep_scenario

from thermoshift import harness
from thermoshift.analysis import summarize
from thermoshift.config import build_scenario
from thermoshift.controller import Decision, Mode, ShiftController, TemperatureSample
from thermoshift.errors import ScenarioError
from thermoshift.errors import TraceFormatError
from thermoshift.harness import (
    CSV_HEADER,
    EVENT_NONE,
    EVENT_SHIFT_LARGE,
    EVENT_SHIFT_SMALL,
    Trace,
    TraceRecord,
    emit_trace,
    parse_trace,
    pick_event,
    run_scenario,
)
from thermoshift.sensors import ReplaySource, live_run
from thermoshift.suites import SUITE_NAMES, SUITES, default_profile
from thermoshift.thermal import (
    EVENT_THROTTLE_OFF,
    EVENT_THROTTLE_ON,
    DeviceState,
    HeatSource,
    advance,
)
from thermoshift.workload import (
    LOGGING_OVERHEAD,
    PacingPolicy,
    Platform,
    iteration_time,
    logging_overhead,
    power_draw,
    shift_overhead,
)


class TestScenarioValidation:
    def test_zero_duration_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario(phone_scenario(duration=0.0))

    def test_pacing_target_below_large_latency_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario(phone_scenario(pacing=PacingPolicy(target_period=0.1)))

    def test_large_faster_than_small_rejected(self, phone_suite):
        with pytest.raises(ScenarioError):
            run_scenario(phone_scenario(large=phone_suite.small, small=phone_suite.large,
                                        pacing=PacingPolicy()))


class TestBaselineRun:
    def test_throttles_and_slows_down(self):
        trace = run_scenario(phone_scenario(duration=1200.0, baseline=True))
        ons = [r for r in trace if r.event == EVENT_THROTTLE_ON]
        assert len(ons) >= 1
        t_on = ons[0].sim_time
        pre = [r.inference_latency for r in trace if r.sim_time < t_on]
        post = [r.inference_latency for r in trace if r.sim_time >= t_on]
        assert sum(post) / len(post) > 1.3 * (sum(pre) / len(pre))

    def test_mode_always_large(self):
        trace = run_scenario(phone_scenario(duration=300.0, baseline=True))
        assert all(r.mode is Mode.LARGE for r in trace)
        assert all(r.avg_temp is None and r.grad is None for r in trace)

    def test_times_strictly_increasing(self):
        trace = run_scenario(phone_scenario(duration=300.0, baseline=True))
        times = [r.sim_time for r in trace]
        assert all(a < b for a, b in zip(times, times[1:]))


class TestShiftingRun:
    def test_prevents_throttling(self):
        trace = run_scenario(phone_scenario(duration=1200.0))
        assert not trace.events(EVENT_THROTTLE_ON)
        assert max(r.cpu_temp for r in trace) < 77.0
        assert trace.events(EVENT_SHIFT_SMALL)

    def test_shift_rows_carry_new_mode(self):
        trace = run_scenario(phone_scenario(duration=1200.0))
        for r in trace:
            if r.event == EVENT_SHIFT_SMALL:
                assert r.mode is Mode.SMALL
            elif r.event == EVENT_SHIFT_LARGE:
                assert r.mode is Mode.LARGE

    def test_shift_rows_record_trigger_values(self, phone_suite):
        cfg = phone_suite.controller
        trace = run_scenario(phone_scenario(duration=1200.0))
        for r in trace:
            if r.event == EVENT_SHIFT_SMALL:
                assert r.cpu_temp > cfg.temp_threshold
            elif r.event == EVENT_SHIFT_LARGE:
                assert r.grad > cfg.grad_threshold

    def test_overhead_only_on_shift_rows(self):
        trace = run_scenario(phone_scenario(duration=900.0))
        shift_overheads = []
        for r in trace:
            if r.event in (EVENT_SHIFT_SMALL, EVENT_SHIFT_LARGE):
                shift_overheads.append(r.overhead)
            else:
                assert r.overhead == 0.0
        assert shift_overheads and max(shift_overheads) > 0.0
        assert all(o >= 0.0 for o in shift_overheads)

    def test_weight_shared_shifts_cost_nothing(self):
        trace = run_scenario(phone_scenario(duration=900.0, weight_shared=True))
        assert trace.events(EVENT_SHIFT_SMALL)
        assert all(r.overhead == 0.0 for r in trace)

    def test_literal_init_bounces_straight_back(self, phone_suite):
        # zero-seeded filters: the slope EMA spikes and SMALL mode lasts
        # exactly one row before shifting back
        from dataclasses import replace
        cfg = replace(phone_suite.controller, literal_init=True)
        trace = run_scenario(phone_scenario(duration=900.0, controller=cfg))
        events = [(i, r.event) for i, r in enumerate(trace) if r.event != "none"]
        small_lengths = {j - i for (i, a), (j, b) in zip(events, events[1:])
                         if a == EVENT_SHIFT_SMALL}
        assert small_lengths == {1}


class TestConservation:
    @pytest.mark.parametrize("factory,kwargs", [
        (phone_scenario, {"duration": 600.0}),
        (phone_scenario, {"duration": 600.0, "baseline": True}),
        (pi_scenario, {"duration": 600.0}),
        (pi_scenario, {"duration": 600.0, "baseline": True}),
    ])
    def test_wall_time_conservation(self, factory, kwargs):
        trace = run_scenario(factory(**kwargs))
        total = sum(r.inference_latency + r.idle + r.overhead + r.log_time for r in trace)
        assert abs(trace[-1].sim_time - total) < 0.1  # one sub-step


class TestDeterminism:
    def test_identical_seed_identical_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_trace(run_scenario(phone_scenario(duration=600.0, seed=5)), a)
        emit_trace(run_scenario(phone_scenario(duration=600.0, seed=5)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_trace(run_scenario(phone_scenario(duration=600.0, seed=5)), a)
        emit_trace(run_scenario(phone_scenario(duration=600.0, seed=6)), b)
        assert a.read_bytes() != b.read_bytes()


class TestTraceCsv:
    def make_trace(self):
        return Trace([
            TraceRecord(sim_time=0.25, cpu_temp=40.0, avg_temp=40.0, grad=0.0,
                        freq=2.86, mode=Mode.LARGE, inference_latency=0.205,
                        idle=0.0, event="none", overhead=0.0),
            TraceRecord(sim_time=0.5, cpu_temp=40.5, avg_temp=40.1, grad=0.001,
                        freq=2.86, mode=Mode.LARGE, inference_latency=0.205,
                        idle=0.0, event="none", overhead=0.0),
            TraceRecord(sim_time=1.8, cpu_temp=73.2, avg_temp=41.2, grad=0.02,
                        freq=2.86, mode=Mode.SMALL, inference_latency=0.107,
                        idle=0.098, event="shift_to_small", overhead=1.1),
        ])

    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_trace(self.make_trace(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_empty_trace_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_trace(Trace(), path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        original = self.make_trace()
        emit_trace(original, path)
        parsed = parse_trace(path)
        assert len(parsed) == len(original)
        for a, b in zip(original, parsed):
            assert b.sim_time == pytest.approx(a.sim_time, rel=1e-5)
            assert b.cpu_temp == pytest.approx(a.cpu_temp, rel=1e-5)
            assert b.grad == pytest.approx(a.grad, rel=1e-5)
            assert b.mode is a.mode
            assert b.event == a.event

    def test_blank_optional_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_trace(Trace([TraceRecord(sim_time=1.0, cpu_temp=50.0)]), path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[2] == "" and row[3] == "" and row[4] == ""
        parsed = parse_trace(path)
        assert parsed[0].avg_temp is None and parsed[0].freq is None

    def test_sim_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        trace = run_scenario(phone_scenario(duration=400.0))
        emit_trace(trace, path)
        parsed = parse_trace(path)
        assert len(parsed) == len(trace)
        assert [r.event for r in parsed] == [r.event for r in trace]
        for a, b in zip(trace, parsed):
            assert b.cpu_temp == pytest.approx(a.cpu_temp, rel=1e-5)

    def test_positional_record_matches_header_order(self):
        values = (1.0, 50.0, 49.0, -0.01, 2.86, Mode.SMALL, 0.107, 0.098,
                  "shift_to_small", 1.1, 0.02)
        record = TraceRecord(*values)
        columns = CSV_HEADER.split(",") + ["log_time"]
        assert [getattr(record, name) for name in columns] == list(values)

    def test_blank_body_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n\n1,50,,,,LARGE,,,none,0\n\n"
                        "2,51,,,,SMALL,,,shift_to_small,1.5\n\n")
        parsed = parse_trace(path)
        assert [r.sim_time for r in parsed] == [1.0, 2.0]
        assert [r.mode for r in parsed] == [Mode.LARGE, Mode.SMALL]
        assert parsed[1].overhead == 1.5

    def test_no_trailing_newline(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n1,50,,,,LARGE,,,none,0\n2,51,,,,LARGE,,,none,")
        parsed = parse_trace(path)
        assert [r.cpu_temp for r in parsed] == [50.0, 51.0]
        assert parsed[1].overhead == 0.0

    def test_phone_hour_emit_parse_emit_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_trace(run_scenario(phone_scenario(duration=3600.0, seed=0)), first)
        emit_trace(parse_trace(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_live_trace_emit_parse_emit_byte_identical(self, tmp_path, phone_suite):
        sim = run_scenario(phone_scenario(duration=900.0))
        ticks = itertools.count()
        live = live_run(ReplaySource.from_trace(sim), phone_suite.controller, period=0.25,
                        sleep=lambda s: None, clock=lambda: float(next(ticks)))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_trace(live, first)
        rows = first.read_text().splitlines()[1:]
        assert len(rows) == len(sim)
        assert all(row.split(",")[4] == row.split(",")[6] == row.split(",")[7] == ""
                   for row in rows)
        emit_trace(parse_trace(first), second)
        assert second.read_bytes() == first.read_bytes()


class TestParseTraceErrors:
    GOOD = "1,50,49,-0.01,2.86,LARGE,0.205,0,none,0"

    def parse_error(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(TraceFormatError) as info:
            parse_trace(path)
        return path, str(info.value)

    @pytest.mark.parametrize("text", ["time,temp\n" + GOOD + "\n", ""])
    def test_wrong_header(self, tmp_path, text):
        path, message = self.parse_error(tmp_path, text)
        assert message == f"{path}: missing or wrong header (want {CSV_HEADER!r})"

    @pytest.mark.parametrize("body,expected", [
        (GOOD + "\n\n1,50,49,LARGE,none\n", "4: expected 10 columns, got 5"),
        (GOOD + ",extra\n", "2: expected 10 columns, got 11"),
    ])
    def test_wrong_column_count(self, tmp_path, body, expected):
        path, message = self.parse_error(tmp_path, CSV_HEADER + "\n" + body)
        assert message == f"{path}:{expected}"

    @pytest.mark.parametrize("row,bad", [
        ("1,50,49,-0.01,fast,LARGE,0.205,0,none,0", "fast"),
        ("1,50,49,-0.01,2.86,LARGE,0.205,0,none,x", "x"),
        # the first bad column is reported, not the later bad mode and event
        ("1,hot,49,-0.01,2.86,MEDIUM,0.205,0,melt,0", "hot"),
    ])
    def test_bad_float(self, tmp_path, row, bad):
        path, message = self.parse_error(tmp_path, CSV_HEADER + "\n" + self.GOOD + "\n" + row)
        assert message == f"{path}:3: could not convert string to float: {bad!r}"

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        # Past the first 8 KiB, so the offset is the file's, not a chunk's.
        head = (CSV_HEADER + "\n" + (self.GOOD + "\n") * 300).encode()
        path = tmp_path / "t.csv"
        path.write_bytes(head + b"1,5\xff,,,,LARGE,,,none,0\n")
        with pytest.raises(TraceFormatError) as info:
            parse_trace(path)
        assert len(head) > 8192
        assert str(info.value) == (
            f"cannot read trace from {path}: 'utf-8' codec can't decode byte 0xff "
            f"in position {len(head) + 3}: invalid start byte")

    def test_unknown_mode(self, tmp_path):
        text = CSV_HEADER + "\n" + self.GOOD + "\n1,50,49,-0.01,2.86,MEDIUM,0.205,0,none,0\n"
        path, message = self.parse_error(tmp_path, text)
        assert message == f"{path}:3: 'MEDIUM'"

    def test_unknown_event(self, tmp_path):
        text = CSV_HEADER + "\n" + self.GOOD + "\n1,50,49,-0.01,2.86,LARGE,0.205,0,melt,0\n"
        path, message = self.parse_error(tmp_path, text)
        assert message == f"{path}:3: unknown event 'melt'"


GOOD_ROW = TestParseTraceErrors.GOOD + "\n"
BLOCK = harness._ROWS_PER_BLOCK


@pytest.fixture(scope="module")
def phone_hour_trace():
    """The seed-0 phone hour with the default controller (8,620 rows)."""
    return run_scenario(build_scenario({"suite": "slimmable-resnet50-phone", "seed": 0,
                                        "duration": 3600.0, "controller": "default"}))


def traced_memory(action):
    """``(result, bytes still allocated on return, peak bytes)`` of ``action()``."""
    gc.collect()
    tracemalloc.start()
    try:
        result = action()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


class TestTraceIoMemory:
    """Writing and reading a trace hold one block of it, never the whole file
    (the phone hour's CSV is 545 KB)."""

    def test_emit_peak(self, tmp_path, phone_hour_trace):
        _, _, peak = traced_memory(lambda: emit_trace(phone_hour_trace, tmp_path / "t.csv"))
        assert peak <= 512 * 1024

    def test_parse_peak_above_the_parsed_trace(self, tmp_path, phone_hour_trace):
        path = tmp_path / "t.csv"
        emit_trace(phone_hour_trace, path)
        parsed, held, peak = traced_memory(lambda: parse_trace(path))
        assert len(parsed) == len(phone_hour_trace)
        assert peak - held <= 128 * 1024


class TestStreamedTraceIo:
    """Blocked writing and line-by-line reading keep the bytes, records and
    error messages of writing and reading the file whole."""

    @pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
    def test_block_boundaries(self, tmp_path, phone_hour_trace, rows):
        full, part = tmp_path / "full.csv", tmp_path / "part.csv"
        emit_trace(phone_hour_trace, full)
        emit_trace(Trace(phone_hour_trace[:rows]), part)
        lines = full.read_text().splitlines(keepends=True)
        assert part.read_text() == "".join(lines[:rows + 1])

    def test_unformattable_record_leaves_the_earlier_blocks(self, tmp_path, phone_hour_trace):
        path = tmp_path / "t.csv"
        bad = replace(phone_hour_trace[0], sim_time="late")
        with pytest.raises(TypeError):
            emit_trace(Trace([*phone_hour_trace[:BLOCK], bad]), path)
        assert len(path.read_text().splitlines()) == 1 + BLOCK

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_other_line_ends_parse_to_the_same_records(self, tmp_path, phone_hour_trace,
                                                       newline):
        lf, other = tmp_path / "lf.csv", tmp_path / "other.csv"
        emit_trace(phone_hour_trace, lf)
        other.write_bytes(lf.read_bytes().replace(b"\n", newline))
        assert parse_trace(other) == parse_trace(lf)

    @pytest.mark.parametrize("good_rows", [300, 2000])
    def test_undecodable_byte_wins_over_an_earlier_bad_row(self, tmp_path, good_rows):
        # The bad float is on line 3; the bad byte lies past the decoder's
        # first 8 KiB chunk and, with 2000 rows, past the first 64 KiB read.
        head = (CSV_HEADER + "\n" + GOOD_ROW + "1,hot,49,-0.01,2.86,LARGE,0.205,0,none,0\n"
                + GOOD_ROW * good_rows).encode()
        path = tmp_path / "t.csv"
        path.write_bytes(head + b"1,5\xff,,,,LARGE,,,none,0\n")
        with pytest.raises(TraceFormatError) as info:
            parse_trace(path)
        assert len(head) > (8 if good_rows == 300 else 64) * 1024
        assert str(info.value) == (
            f"cannot read trace from {path}: 'utf-8' codec can't decode byte 0xff "
            f"in position {len(head) + 3}: invalid start byte")

    @pytest.mark.parametrize("head", [
        "time,temp\n" + GOOD_ROW * 2000,
        CSV_HEADER + "\n" + GOOD_ROW + "1,50,49,LARGE,none\n" + GOOD_ROW * 2000,
    ], ids=["wrong-header", "five-columns-on-line-3"])
    def test_undecodable_byte_wins_over_an_earlier_format_error(self, tmp_path, head):
        head = head.encode()
        path = tmp_path / "t.csv"
        path.write_bytes(head + b"1,5\xff,,,,LARGE,,,none,0\n")
        assert len(head) > 64 * 1024
        with pytest.raises(TraceFormatError) as info:
            parse_trace(path)
        assert str(info.value) == (
            f"cannot read trace from {path}: 'utf-8' codec can't decode byte 0xff "
            f"in position {len(head) + 3}: invalid start byte")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_undecodable_byte_in_a_pipe_wins_over_an_earlier_bad_row(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        head = (CSV_HEADER + "\n" + GOOD_ROW + "1,hot,49,-0.01,2.86,LARGE,0.205,0,none,0\n"
                + GOOD_ROW * 2000).encode()
        writer = threading.Thread(target=pipe.write_bytes,
                                  args=(head + b"1,5\xff,,,,LARGE,,,none,0\n",), daemon=True)
        writer.start()
        try:
            with pytest.raises(TraceFormatError) as info:
                parse_trace(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert len(head) > 64 * 1024
        assert str(info.value) == (
            f"cannot read trace from {pipe}: 'utf-8' codec can't decode byte 0xff "
            f"in position {len(head) + 3}: invalid start byte")

    def test_bad_row_past_the_first_read_names_its_line(self, tmp_path):
        good_rows = 2000
        text = (CSV_HEADER + "\n" + GOOD_ROW * good_rows
                + "1,50,49,-0.01,2.86,LARGE,0.205,0,none,x\n" + GOOD_ROW)
        assert len(text) - len(GOOD_ROW) > 64 * 1024
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(TraceFormatError) as info:
            parse_trace(path)
        assert str(info.value) == (
            f"{path}:{good_rows + 2}: could not convert string to float: 'x'")

    @pytest.mark.parametrize("suite_name", SUITE_NAMES)
    def test_suite_hour_emit_parse_emit_byte_identical(self, tmp_path, suite_name):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_trace(run_scenario(build_scenario({"suite": suite_name, "seed": 8675309,
                                                "duration": 3600.0,
                                                "controller": "default"})), first)
        emit_trace(parse_trace(first), second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_parses_like_the_file(self, tmp_path, phone_hour_trace):
        path, pipe = tmp_path / "t.csv", tmp_path / "pipe"
        emit_trace(phone_hour_trace, path)
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)
        writer.start()
        try:
            parsed = parse_trace(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert parsed == parse_trace(path)


GOOD_FIELDS = TestParseTraceErrors.GOOD.split(",")
READ_CHARS = 64 * 1024  # a boundary that the texts below place bad values past or across
FLOAT_COLUMNS = [name for name in CSV_HEADER.split(",") if name not in ("mode", "event")]


def bad_row(**columns):
    """``GOOD_ROW`` with the named columns replaced by the given texts."""
    fields = list(GOOD_FIELDS)
    names = CSV_HEADER.split(",")
    for name, text in columns.items():
        fields[names.index(name)] = text
    return ",".join(fields) + "\n"


def parse_message(path):
    with pytest.raises(TraceFormatError) as info:
        parse_trace(path)
    return str(info.value)


class TestNonFiniteTraceValues:
    """A number that ``float`` reads as nan or infinite is refused as
    ``path:line: <column> must be finite, got <text>``; the first bad line
    wins, then its first bad column from the left."""

    @pytest.mark.parametrize("text", ["nan", "NaN", "-nan", "+NAN", "inf", "-inf", "+Inf",
                                      "INF", "infinity", "-Infinity", "iNfInItY", " nan"])
    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    def test_every_float_column_and_spelling(self, tmp_path, column, text):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n" + GOOD_ROW + bad_row(**{column: text}) + GOOD_ROW)
        assert parse_message(path) == f"{path}:3: {column} must be finite, got {text}"

    @pytest.mark.parametrize("text", ["1e999", "-1E400", "1" + "0" * 399],
                             ids=["1e999", "-1E400", "400-digits"])
    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    def test_every_float_column_overflow(self, tmp_path, column, text):
        # ``float`` reads each as infinite, though none spells nan or inf.
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n" + GOOD_ROW + bad_row(**{column: text}) + GOOD_ROW)
        assert parse_message(path) == f"{path}:3: {column} must be finite, got {text}"

    def test_finite_values_whose_sum_overflows_parse(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n" + GOOD_ROW
                        + bad_row(sim_time="1.7e308", overhead="1.7e308"))
        row = parse_trace(path)[1]
        assert (row.sim_time, row.overhead) == (1.7e308, 1.7e308)

    @pytest.mark.parametrize("column", ["sim_time", "freq", "overhead"])
    def test_past_the_first_read(self, tmp_path, column):
        good_rows = 2000
        text = CSV_HEADER + "\n" + GOOD_ROW * good_rows + bad_row(**{column: "-inf"})
        assert len(text) - len(GOOD_ROW) > READ_CHARS
        path = tmp_path / "t.csv"
        path.write_text(text)
        assert parse_message(path) == f"{path}:{good_rows + 2}: {column} must be finite, got -inf"

    @pytest.mark.parametrize("word", ["nan", "nAn", "inf"])
    @pytest.mark.parametrize("before_boundary", [1, 2])
    def test_word_split_between_two_reads(self, tmp_path, word, before_boundary):
        # The sim_time text is padded so the word's first ``before_boundary``
        # letters end the first read and the rest start the second.
        head = CSV_HEADER + "\n" + GOOD_ROW * 1000
        pad = READ_CHARS - before_boundary - len(head) - 1
        assert pad > 0
        text = head + bad_row(sim_time="1".rjust(pad, "0"), cpu_temp=word) + GOOD_ROW
        assert text.index(word, len(CSV_HEADER)) == READ_CHARS - before_boundary
        path = tmp_path / "t.csv"
        path.write_text(text)
        assert parse_message(path) == f"{path}:1002: cpu_temp must be finite, got {word}"

    def test_undecodable_byte_wins_over_an_earlier_non_finite(self, tmp_path):
        # The bad byte lies past the first two reads.
        head = (CSV_HEADER + "\n" + bad_row(cpu_temp="nan") + GOOD_ROW * 4000).encode()
        assert len(head) > 2 * READ_CHARS
        path = tmp_path / "t.csv"
        path.write_bytes(head + b"1,5\xff,,,,LARGE,,,none,0\n")
        assert parse_message(path) == (
            f"cannot read trace from {path}: 'utf-8' codec can't decode byte 0xff "
            f"in position {len(head) + 3}: invalid start byte")

    @pytest.mark.parametrize("suite_name", SUITE_NAMES)
    def test_written_rows_have_no_problem(self, tmp_path, suite_name):
        path = tmp_path / "t.csv"
        emit_trace(run_scenario(build_scenario({"suite": suite_name, "seed": 0,
                                                "duration": 3600.0,
                                                "controller": "default"})), path)
        rows = path.read_text().splitlines()[1:]
        assert rows
        assert all(harness._row_problem(row.split(",")) is None for row in rows)

    def test_non_finite_before_a_bad_float_on_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n" + bad_row(cpu_temp="nan", freq="fast"))
        assert parse_message(path) == f"{path}:2: cpu_temp must be finite, got nan"

    def test_bad_float_before_a_non_finite_on_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n" + bad_row(cpu_temp="hot", grad="inf", mode="MEDIUM"))
        assert parse_message(path) == f"{path}:2: could not convert string to float: 'hot'"

    def test_non_finite_before_a_bad_mode_and_event(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n" + bad_row(avg_temp="inf", mode="MEDIUM", event="melt"))
        assert parse_message(path) == f"{path}:2: avg_temp must be finite, got inf"

    def test_earlier_line_wins(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n" + bad_row(idle="x") + bad_row(sim_time="nan"))
        assert parse_message(path) == f"{path}:2: could not convert string to float: 'x'"
        path.write_text(CSV_HEADER + "\n" + bad_row(idle="nan") + bad_row(sim_time="x"))
        assert parse_message(path) == f"{path}:2: idle must be finite, got nan"

    def test_finite_text_in_a_checked_file_parses(self, tmp_path):
        # A word anywhere turns the checks on; finite rows still parse.
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n" + GOOD_ROW + bad_row(event="infinite") + GOOD_ROW)
        assert parse_message(path) == f"{path}:3: unknown event 'infinite'"
        path.write_text(CSV_HEADER + "\n" + GOOD_ROW + bad_row(overhead="1e-300"))
        assert [r.overhead for r in parse_trace(path)] == [0.0, 1e-300]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_refused_like_the_file(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        text = CSV_HEADER + "\n" + GOOD_ROW * 2000 + bad_row(grad="-Infinity")
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            message = parse_message(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert message == f"{pipe}:2002: grad must be finite, got -Infinity"


class TestNonFiniteScenario:
    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_non_finite_duration_rejected_before_running(self, duration):
        with pytest.raises(ScenarioError, match="duration must be finite"):
            phone_scenario(duration=duration).validate()


class TestHeatSourcesInRun:
    """``run_scenario`` with its per-run heat sources equals sources built
    afresh for every ``advance`` call."""

    @pytest.mark.parametrize("baseline", [False, True])
    @pytest.mark.parametrize("suite_name", SUITE_NAMES)
    def test_same_trace_as_per_call_sources(self, monkeypatch, suite_name, baseline):
        suite = SUITES[suite_name]
        scenario = harness.Scenario(
            profile=default_profile(suite.platform), large=suite.large, small=suite.small,
            controller=None if baseline else suite.controller, pacing=suite.pacing,
            duration=600.0, seed=3, platform=suite.platform)
        fast = run_scenario(scenario)

        def per_call(state, source, dt):
            # A new source from the same power curve, so the band
            # constants are solved again on every call.
            assert isinstance(source, HeatSource)
            return advance(state, HeatSource(scenario.profile, source.power_of_freq), dt)

        monkeypatch.setattr(harness, "advance", per_call)
        slow = run_scenario(scenario)
        assert fast.records == slow.records
        assert any(r.event == EVENT_THROTTLE_ON for r in fast) == baseline

    def test_every_interval_draws_its_phase_power(self, monkeypatch, phone_suite):
        # Per row: compute and logging at the running model's power, idle at
        # idle power, and a shift's load stall at the incoming model's power.
        calls = []

        def record(state, source, dt):
            calls.append((source, dt))
            return advance(state, source, dt)

        monkeypatch.setattr(harness, "advance", record)
        scenario = phone_scenario(duration=900.0)
        trace = run_scenario(scenario)
        assert len({id(source) for source, _ in calls}) == 3
        power = {Mode.LARGE: phone_suite.large.power_nominal,
                 Mode.SMALL: phone_suite.small.power_nominal}
        expected, running = [], Mode.LARGE
        for r in trace:
            expected.append((power[running], r.inference_latency))
            if r.idle > 0.0:
                expected.append((scenario.profile.idle_power, r.idle))
            if r.log_time > 0.0:
                expected.append((power[running], r.log_time))
            if r.overhead > 0.0:
                expected.append((power[r.mode], r.overhead))
            running = r.mode
        f_nominal = scenario.profile.f_nominal
        assert [(source.power_of_freq(f_nominal), dt) for source, dt in calls] == expected
        assert any(r.overhead > 0.0 and r.mode is Mode.LARGE for r in trace)
        assert any(r.idle > 0.0 for r in trace)


def reference_run(scenario):
    """The row loop as it stood before per-run lookups: every row calls
    ``iteration_time`` and ``logging_overhead`` and reads the scenario.
    Kept as the oracle the lean loop in ``run_scenario`` must equal."""
    scenario.validate()
    profile = scenario.profile
    rng = random.Random(scenario.seed)
    device = DeviceState(temp=profile.ambient_temp, freq=profile.f_nominal)
    controller = ShiftController(scenario.controller) if scenario.controller else None
    # One heat source per power curve, with its governor bands solved once.
    large_heat = HeatSource(profile, lambda f: power_draw(scenario.large, f, profile))
    small_heat = HeatSource(profile, lambda f: power_draw(scenario.small, f, profile))
    idle_heat = HeatSource(profile, lambda f: profile.idle_power)
    variant, heat = scenario.large, large_heat
    trace = Trace()
    carried_events: list[str] = []  # governor events raised after the previous row was sampled

    while device.sim_time < scenario.duration:
        compute, idle = iteration_time(variant, device.freq, profile, scenario.pacing)
        events = carried_events
        carried_events = []

        events += advance(device, heat, compute)
        if idle > 0.0:
            events += advance(device, idle_heat, idle)
        log_dt = logging_overhead(scenario.platform, rng, scenario.logging_enabled)
        if log_dt > 0.0:
            events += advance(device, heat, log_dt)

        cpu_temp = device.temp
        freq_now = device.freq
        avg = grad = None
        decision = Decision.STAY
        if controller is not None:
            decision = controller.observe(TemperatureSample(device.sim_time, cpu_temp))
            avg = controller.last_avg_temp
            grad = controller.last_grad

        overhead = 0.0
        if decision is not Decision.STAY:
            if decision is Decision.SHIFT_TO_SMALL:
                variant, heat = scenario.small, small_heat
            else:
                variant, heat = scenario.large, large_heat
            overhead = shift_overhead(variant, rng, scenario.weight_shared)
            if overhead > 0.0:
                # Loading the incoming model is compute; events raised here
                # belong to the next row (this one is already sampled).
                carried_events += advance(device, heat, overhead)

        trace.append(TraceRecord(
            device.sim_time,
            cpu_temp,
            avg,
            grad,
            freq_now,
            controller.mode if controller else Mode.LARGE,
            compute,
            idle,
            pick_event(decision, events),
            overhead,
            log_dt,
        ))
    return trace


class TestLeanLoopMatchesReference:
    """``run_scenario`` gives the reference loop's records bit for bit."""

    @pytest.mark.parametrize("controller", [None, "default"])
    @pytest.mark.parametrize("seed", [0, 8675309])
    @pytest.mark.parametrize("suite_name", SUITE_NAMES)
    def test_suite_hour(self, suite_name, seed, controller):
        cfg = {"suite": suite_name, "seed": seed, "duration": 3600.0}
        if controller:
            cfg["controller"] = controller
        scenario = build_scenario(cfg)
        assert run_scenario(scenario).records == reference_run(scenario).records

    @pytest.mark.parametrize("overrides", [
        {"weight_shared": True}, {"logging_enabled": False}, {"pacing": PacingPolicy()},
    ], ids=["weight-shared", "no-logging", "no-idle"])
    def test_scenario_switches(self, overrides):
        scenario = phone_scenario(duration=1800.0, **overrides)
        records = run_scenario(scenario).records
        assert records == reference_run(scenario).records
        if "pacing" in overrides:
            assert all(r.idle == 0.0 for r in records)

    def test_events_carried_from_a_load_stall(self, pi_suite):
        # With the shift trip at the pi-pin trip point, the governor acts
        # during model-load stalls, and those events go to the next row.
        controller = replace(pi_suite.controller, temp_threshold=78.0)
        scenario = pi_scenario(duration=1800.0, controller=controller)
        assert run_scenario(scenario).records == reference_run(scenario).records

    def test_negative_logging_draws_clamp_to_zero(self, monkeypatch):
        monkeypatch.setitem(LOGGING_OVERHEAD, Platform.PHONE, (0.0, 0.02))
        scenario = phone_scenario(duration=600.0)
        records = run_scenario(scenario).records
        assert records == reference_run(scenario).records
        assert any(r.log_time == 0.0 for r in records)

    def test_negative_stall_draws_clamp_to_zero(self, monkeypatch, phone_suite):
        # A SMALL stall centred on zero: about half its draws go negative.
        small = replace(phone_suite.small, shift_mean=0.0, shift_std=0.5)
        scenario = phone_scenario(duration=600.0, small=small)
        expected = reference_run(scenario).records
        intervals = []

        def record(state, source, dt):
            intervals.append(dt)
            return advance(state, source, dt)

        monkeypatch.setattr(harness, "advance", record)
        records = run_scenario(scenario).records
        assert records == expected
        clamped = [r.overhead for r in records
                   if r.event == EVENT_SHIFT_SMALL and r.overhead <= 0.0]
        assert clamped
        assert all(math.copysign(1.0, o) == 1.0 for o in clamped)  # 0.0, never -0.0
        # Per row: compute, then idle, logging and a load stall when > 0.
        assert intervals == [dt for r in records for dt in (
            r.inference_latency, r.idle, r.log_time, r.overhead) if dt > 0.0]

    def test_pi_pin_sag_takes_the_fallback(self):
        # A throttled pi-pin device runs at frequencies between its two
        # levels, which the per-run table does not hold.
        scenario = pi_scenario(duration=3600.0, baseline=True)
        records = run_scenario(scenario).records
        assert records == reference_run(scenario).records
        levels = {scenario.profile.f_nominal, scenario.profile.f_throttled}
        assert any(r.freq not in levels for r in records)

    @pytest.mark.parametrize("pacing, idle_at_sag", [
        (PacingPolicy(), False),
        (PacingPolicy(latency_multiplier=1.3), False),
        (PacingPolicy(target_period=1.15), True),
    ], ids=["no-period", "multiplier", "idle"])
    def test_pi_pin_sag_pacing(self, pacing, idle_at_sag):
        # The inline fallback at sag frequencies with other pacings than the
        # suite's, whose period every sag row overruns (idle clamped at 0).
        scenario = pi_scenario(duration=3600.0, baseline=True, pacing=pacing)
        records = run_scenario(scenario).records
        assert records == reference_run(scenario).records
        levels = {scenario.profile.f_nominal, scenario.profile.f_throttled}
        sagged = [r for r in records if r.freq not in levels]
        assert sagged
        assert all((r.idle > 0.0) == idle_at_sag for r in sagged)

    def test_emitted_csv_identical(self, tmp_path):
        scenario = build_scenario({"suite": "slimmable-resnet50-phone", "seed": 0,
                                   "duration": 3600.0, "controller": "default"})
        lean, reference = tmp_path / "lean.csv", tmp_path / "reference.csv"
        emit_trace(run_scenario(scenario), lean)
        emit_trace(reference_run(scenario), reference)
        assert lean.read_bytes() == reference.read_bytes()


class TestNoSamplePerRow:
    """``run_scenario`` hands the controller plain numbers: it builds no
    ``TemperatureSample``, and the records are those of an unpatched run."""

    @pytest.mark.parametrize("suite_name", SUITE_NAMES)
    def test_runs_with_sample_construction_refused(self, monkeypatch, suite_name):
        scenario = build_scenario({"suite": suite_name, "seed": 0, "duration": 600.0,
                                   "controller": "default"})
        unpatched = run_scenario(scenario)

        def refuse(self, *args, **kwargs):
            raise AssertionError("run_scenario built a TemperatureSample")

        monkeypatch.setattr(TemperatureSample, "__init__", refuse)
        with pytest.raises(AssertionError):
            TemperatureSample(0.0, 60.0)
        assert run_scenario(scenario).records == unpatched.records
        assert len(unpatched) > 0


def open_loop(shift_row):
    """A ``ShiftController`` stand-in that stays LARGE and shifts to SMALL
    on row ``shift_row`` only (``None``: never)."""

    class OpenLoop:
        def __init__(self, config):
            self.rows = 0
            self.mode = Mode.LARGE
            self.last_avg_temp = self.last_grad = None

        def observe_reading(self, time_s, celsius):
            row, self.rows = self.rows, self.rows + 1
            if row == shift_row:
                self.mode = Mode.SMALL
                return Decision.SHIFT_TO_SMALL
            return Decision.STAY

    return OpenLoop


class TestShiftRowGovernorEvents:
    def test_throttle_on_a_shift_row_shows_on_the_next_row(self, monkeypatch):
        scenario = phone_scenario(duration=1800.0, weight_shared=True)
        monkeypatch.setattr(harness, "ShiftController", open_loop(None))
        held = run_scenario(scenario)
        trip = [r.event for r in held].index(EVENT_THROTTLE_ON)

        monkeypatch.setattr(harness, "ShiftController", open_loop(trip))
        trace = run_scenario(scenario)
        assert trace[:trip] == held[:trip]
        assert trace[trip].event == EVENT_SHIFT_SMALL
        assert trace[trip + 1].event == EVENT_THROTTLE_ON
        assert trace[trip + 1].freq == scenario.profile.f_throttled
        assert summarize(trace, scenario.large, scenario.small).n_throttle_events == 1


class TestStopAfterSmallShifts:
    @pytest.mark.parametrize("scenario", [
        phone_scenario(duration=1800.0), pi_scenario(duration=1800.0), pi_sweep_scenario(),
    ], ids=["phone", "pi", "pi-sweep"])
    def test_stopped_run_is_a_prefix_of_the_full_run(self, tmp_path, scenario):
        full = run_scenario(scenario)
        stopped = run_scenario(replace(scenario, stop_after_small_shifts=3))
        assert len(stopped) < len(full)
        assert stopped.records == full.records[:len(stopped)]
        assert [r.event for r in stopped].count(EVENT_SHIFT_SMALL) == 3
        assert stopped[-1].event == EVENT_SHIFT_SMALL
        emit_trace(full, tmp_path / "full.csv")
        emit_trace(stopped, tmp_path / "stopped.csv")
        assert (tmp_path / "full.csv").read_bytes().startswith(
            (tmp_path / "stopped.csv").read_bytes())

    def test_stop_of_one_ends_on_the_first_shift_row(self):
        stopped = run_scenario(phone_scenario(stop_after_small_shifts=1))
        events = [r.event for r in stopped]
        assert events.index(EVENT_SHIFT_SMALL) == len(stopped) - 1

    def test_run_that_never_closes_runs_in_full(self):
        # A trip above the ~78.5 C pin: the controller never shifts three times.
        scenario = pi_sweep_scenario(temp_threshold=79.0)
        full = run_scenario(scenario)
        stopped = run_scenario(replace(scenario, stop_after_small_shifts=3))
        assert [r.event for r in full].count(EVENT_SHIFT_SMALL) < 3
        assert stopped.records == full.records
        assert stopped[-1].sim_time >= scenario.duration

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5])
    def test_validate_rejects_a_bad_stop(self, bad):
        with pytest.raises(ScenarioError, match=f"stop_after_small_shifts .*got {bad!r}"):
            run_scenario(phone_scenario(stop_after_small_shifts=bad))


def fresh_parse(path) -> Trace:
    """``parse_trace`` without sharing: a new float per cell and a new
    ``event`` string per row (the reference for equality and footprint)."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    trace = Trace()
    for line in lines[1:]:
        if not line:
            continue
        sim_time, cpu_temp, avg, grad, freq, mode, latency, idle, event, overhead = (
            line.split(","))
        trace.append(TraceRecord(
            float(sim_time),
            float(cpu_temp),
            float(avg) if avg else None,
            float(grad) if grad else None,
            float(freq) if freq else None,
            Mode[mode],
            float(latency) if latency else None,
            float(idle) if idle else None,
            event,
            float(overhead) if overhead else 0.0,
        ))
    return trace


def held_bytes(parse, path) -> int:
    """Bytes still allocated, per ``tracemalloc``, once ``parse(path)`` returns."""
    gc.collect()
    tracemalloc.start()
    try:
        trace = parse(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace) > 0
    return held


class TestParsedTraceSharesValues:
    """``parse_trace`` gives each distinct text of the repeated columns one
    float object, every zero overhead one float and each row the module's
    own event string; the records are those of a parse that shares
    nothing."""

    REPEATED = ("freq", "inference_latency", "idle")

    @pytest.fixture(scope="class", params=[0, 8675309])
    def phone_hour(self, request, tmp_path_factory):
        scenario = build_scenario({"suite": "slimmable-resnet50-phone", "seed": request.param,
                                   "duration": 3600.0, "controller": "default"})
        path = tmp_path_factory.mktemp("trace") / "phone.csv"
        emit_trace(run_scenario(scenario), path)
        return path

    def test_records_equal_a_fresh_parse(self, phone_hour):
        parsed = parse_trace(phone_hour)
        assert len(parsed) > 5000
        assert parsed == fresh_parse(phone_hour)

    def test_one_object_per_distinct_text(self, phone_hour):
        parsed = parse_trace(phone_hour)
        rows = [line.split(",") for line in phone_hour.read_text().splitlines()[1:]]
        columns = CSV_HEADER.split(",")
        for name in self.REPEATED:
            texts = {row[columns.index(name)] for row in rows}
            assert len(texts) < len(rows) / 4, name
            assert len({id(getattr(r, name)) for r in parsed}) == len(texts), name

    def test_zero_overheads_are_one_object(self, phone_hour):
        # Each shift draws its own overhead, so only the zeros repeat.
        parsed = parse_trace(phone_hour)
        zeros = [r.overhead for r in parsed if r.overhead == 0.0]
        assert len(zeros) > len(parsed) / 2
        assert len({id(zero) for zero in zeros}) == 1

    def test_events_are_the_module_constants(self, phone_hour):
        constants = {event: event for event in (
            EVENT_NONE, EVENT_SHIFT_SMALL, EVENT_SHIFT_LARGE, EVENT_THROTTLE_ON,
            EVENT_THROTTLE_OFF)}
        parsed = parse_trace(phone_hour)
        assert {r.event for r in parsed} >= {EVENT_NONE, EVENT_SHIFT_SMALL, EVENT_SHIFT_LARGE}
        assert all(r.event is constants[r.event] for r in parsed)

    def test_footprint_below_a_fresh_parse(self, phone_hour):
        assert held_bytes(parse_trace, phone_hour) <= 0.7 * held_bytes(fresh_parse, phone_hour)

    def test_pinned_pi_hour(self, tmp_path):
        # The pi-pin governor sets freq from the excess over the trip point,
        # so this column repeats least; the parse still shares and shrinks.
        scenario = build_scenario({"suite": "slimmable-resnet50-pi", "seed": 0,
                                   "duration": 3600.0})
        path = tmp_path / "pi.csv"
        emit_trace(run_scenario(scenario), path)
        parsed = parse_trace(path)
        assert parsed == fresh_parse(path)
        assert len({r.freq for r in parsed}) > 100
        assert len({id(r.freq) for r in parsed}) == len({r.freq for r in parsed})
        assert held_bytes(parse_trace, path) <= 0.7 * held_bytes(fresh_parse, path)

    def test_signed_zeros_stay_distinct_and_round_trip(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text(CSV_HEADER + "\n1,50,,,-0,LARGE,0,-0,none,-0\n"
                         "2,51,,,0,LARGE,-0,0,none,0\n3,52,,,,SMALL,,,shift_to_small,0\n")
        parsed = parse_trace(first)
        signs = [[math.copysign(1.0, getattr(r, name)) for name in self.REPEATED + ("overhead",)]
                 for r in parsed[:2]]
        assert signs == [[-1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, 1.0]]
        assert parsed[0].freq is not parsed[1].freq
        emit_trace(parsed, second)
        assert second.read_bytes() == first.read_bytes()

    def test_blanks_are_none_and_zero_overhead(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n1,50,,,,LARGE,,,none,\n2,51,,,,LARGE,,,none,0\n")
        first, second = parse_trace(path)
        for record in (first, second):
            assert (record.avg_temp, record.grad, record.freq, record.inference_latency,
                    record.idle) == (None,) * 5
        assert first.overhead == 0.0 and math.copysign(1.0, first.overhead) == 1.0
        assert second.overhead == 0.0
