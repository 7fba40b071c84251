"""Command-line front end: run scenarios, sweep thresholds, plot, go live."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .analysis import DEFAULT_CELL_DURATION, ablation_grid, summarize
from .config import load_scenario
from .controller import ControllerConfig
from .errors import ConfigFileError, ProfileError, ThermoshiftError, check_writable, write_text
from .harness import emit_trace, hottest_reading, parse_trace, run_scenario
from .plots import emit_plots
from .sensors import SysfsSource, live_run
from .suites import SUITE_NAMES, get_suite


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    """``--tlims``/``--glims``: comma-separated finite numbers, no empty entry."""
    return [_finite(part) for part in text.split(",")]


def _cell_duration(text: str) -> float:
    """``ablate --duration``: finite simulated seconds > 0."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _coefficient(text: str) -> float:
    """``live --alpha``/``--beta``: an EMA coefficient in (0, 1)."""
    value = _finite(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text!r}")
    return value


def _summary_json(summary) -> str:
    return json.dumps(summary.to_dict(), indent=2, sort_keys=True)


def _load_runnable(path):
    """``load_scenario``, then the run's heat sources built once, so a
    device whose band equilibria are not finite (a pi-pin gain that sheds
    an infinite power) is a ``device`` problem before any simulation."""
    scenario = load_scenario(path)
    try:
        hottest_reading(scenario)
    except ProfileError as exc:
        raise ConfigFileError([f"device: {exc}"]) from exc
    return scenario


def cmd_run(args) -> int:
    summary_path = args.out + ".summary.json"
    check_writable(args.out, "trace")
    check_writable(summary_path, "summary")
    scenario = _load_runnable(args.config)
    if args.baseline:
        scenario = replace(scenario, controller=None)
    if args.true_weight_sharing:
        scenario = replace(scenario, weight_shared=True)
    if args.literal_init:
        if scenario.controller is None:
            raise ConfigFileError(["controller: --literal-init needs a controller section"])
        scenario = replace(scenario, controller=replace(scenario.controller, literal_init=True))
    trace = run_scenario(scenario)
    emit_trace(trace, args.out)
    summary = summarize(trace, scenario.large, scenario.small)
    write_text(summary_path, _summary_json(summary) + "\n", "summary")
    print(f"wrote {len(trace)} rows to {args.out}")
    print(f"wrote summary to {summary_path}")
    for key, value in summary.to_dict().items():
        print(f"  {key}: {value}")
    return 0


def cmd_ablate(args) -> int:
    table_path = args.out + ".txt"
    check_writable(args.out, "grid")
    check_writable(table_path, "table")
    scenario = _load_runnable(args.config)
    if scenario.controller is None:
        raise ConfigFileError(["controller: ablation needs a controller section in the config"])
    grid = ablation_grid(scenario, args.tlims, args.glims, duration=args.duration)
    grid.to_csv(args.out)
    table = grid.format_table()
    write_text(table_path, table + "\n", "table")
    print(table)
    print(f"wrote {args.out} and {table_path}")
    return 0


def cmd_summarize(args) -> int:
    trace = parse_trace(args.trace)
    suite = get_suite(args.suite)
    summary = summarize(trace, suite.large, suite.small)
    print(_summary_json(summary))
    return 0


def cmd_plot(args) -> int:
    trace = parse_trace(args.trace)
    overlay = parse_trace(args.overlay) if args.overlay is not None else None
    paths = emit_plots(
        trace, args.out, overlay=overlay,
        temp_threshold=args.tlim, trip_temp=args.t_throttle,
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_live(args) -> int:
    if args.out is not None:
        check_writable(args.out, "trace")
    config = ControllerConfig(
        temp_smoothing=args.alpha,
        grad_smoothing=args.beta,
        temp_threshold=args.tlim,
        grad_threshold=args.glim,
    )
    source = SysfsSource(args.zone)
    # Fail fast on an unreadable zone rather than five polls in.
    source.read_now()

    def on_shift(decision, sample):
        print(f"[{sample.time_s:.2f}s] {decision.value} at {sample.celsius:.2f} C")

    trace = live_run(source, config, period=args.period,
                     on_shift=on_shift, duration=args.duration)
    print(f"collected {len(trace)} readings")
    if args.out is not None:
        emit_trace(trace, args.out)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoshift",
        description="Temperature-aware large/small model shifting: simulate, analyze, or run live.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its trace + summary")
    p_run.add_argument("--config", required=True, help="JSON scenario config")
    p_run.add_argument("--out", required=True, help="trace CSV output path")
    p_run.add_argument("--baseline", action="store_true",
                       help="ignore the controller section; run the large model only")
    p_run.add_argument("--true-weight-sharing", action="store_true",
                       help="shifts cost no load time")
    p_run.add_argument("--literal-init", action="store_true",
                       help="zero-seed controller filters (startup-artifact fidelity mode)")
    p_run.set_defaults(func=cmd_run)

    p_abl = sub.add_parser("ablate", help="sweep temperature/derivative thresholds")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--tlims", required=True, type=_float_list,
                       help="comma-separated temperature thresholds, e.g. 75,73,70,65")
    p_abl.add_argument("--glims", required=True, type=_float_list,
                       help="comma-separated derivative thresholds; use --glims=-0.07,-0.10 "
                            "so the leading dash is not read as a flag")
    p_abl.add_argument("--out", required=True, help="grid CSV output path")
    p_abl.add_argument("--duration", type=_cell_duration,
                       default=DEFAULT_CELL_DURATION,
                       help=f"simulated seconds per cell (default {DEFAULT_CELL_DURATION:g})")
    p_abl.set_defaults(func=cmd_ablate)

    p_sum = sub.add_parser("summarize", help="summarize an existing trace CSV")
    p_sum.add_argument("--trace", required=True)
    p_sum.add_argument("--suite", required=True, choices=SUITE_NAMES,
                       help="built-in suite name: " + ", ".join(SUITE_NAMES))
    p_sum.set_defaults(func=cmd_summarize)

    p_plot = sub.add_parser("plot", help="render temperature/frequency/latency SVG charts")
    p_plot.add_argument("--trace", required=True)
    p_plot.add_argument("--overlay", help="second trace drawn on the same axes")
    p_plot.add_argument("--out", required=True, help="output path prefix")
    p_plot.add_argument("--tlim", type=_finite, help="shift threshold reference line")
    p_plot.add_argument("--t-throttle", type=_finite, help="throttle trip reference line")
    p_plot.set_defaults(func=cmd_plot)

    p_live = sub.add_parser("live", help="poll a Linux thermal zone and signal shifts")
    p_live.add_argument("--zone", required=True,
                        help="thermal zone file, e.g. /sys/class/thermal/thermal_zone0/temp")
    p_live.add_argument("--tlim", required=True, type=_finite, help="temperature threshold, C")
    p_live.add_argument("--glim", required=True, type=_finite,
                        help="derivative threshold, C per sample (usually negative)")
    p_live.add_argument("--alpha", type=_coefficient, default=ControllerConfig.temp_smoothing,
                        help="temperature EMA coefficient, in (0, 1)")
    p_live.add_argument("--beta", type=_coefficient, default=ControllerConfig.grad_smoothing,
                        help="derivative EMA coefficient, in (0, 1)")
    p_live.add_argument("--period", type=float, default=0.25, help="polling period, seconds")
    p_live.add_argument("--duration", type=float, help="stop after this many seconds")
    p_live.add_argument("--out", help="write the collected trace CSV here")
    p_live.set_defaults(func=cmd_live)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigFileError as exc:
        print("config errors:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    except ThermoshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
