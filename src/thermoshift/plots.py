"""Hand-rolled SVG line charts for trace files.

SVG keeps the renderer dependency-free and the output diffable; charts
are simple fixed-layout line plots with optional horizontal reference
lines and shift-event markers.
"""

from __future__ import annotations

from .errors import AnalysisError, write_text
from .harness import EVENT_SHIFT_LARGE, EVENT_SHIFT_SMALL, Trace

WIDTH = 960
HEIGHT = 340
MARGIN_L = 64
MARGIN_R = 16
MARGIN_T = 28
MARGIN_B = 40

SERIES_COLORS = ("#1f77b4", "#d62728")
REF_COLOR = "#777777"
MARKER_COLOR = "#2ca02c"
OVERLAY_MARKER_COLOR = "#9467bd"


def axis_range(lo: float, hi: float):
    """Pad [lo, hi] by 5% of its span on each side (span 1 if flat)."""
    if hi < lo:
        lo, hi = hi, lo
    span = hi - lo
    if span == 0.0:
        span = 1.0
    return lo - 0.05 * span, hi + 0.05 * span


def _render(title, y_label, series, refs, marks) -> str:
    """One SVG chart from non-empty ``(label, xs, ys)`` series, ``(label, y)``
    horizontal reference lines and ``(x, color)`` vertical event marks."""
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    for _, y in refs:
        all_y.append(y)
    x0, x1 = axis_range(min(all_x), max(all_x))
    y0, y1 = axis_range(min(all_y), max(all_y))
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * plot_w

    def sy(y):
        return MARGIN_T + plot_h - (y - y0) / (y1 - y0) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="18" font-size="14" font-family="sans-serif">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#cccccc"/>',
    ]
    # y ticks: bottom, middle, top of the padded range
    for frac in (0.0, 0.5, 1.0):
        yv = y0 + frac * (y1 - y0)
        ypix = sy(yv)
        out.append(
            f'<line x1="{MARGIN_L - 4}" y1="{ypix:.2f}" x2="{MARGIN_L}" y2="{ypix:.2f}" stroke="#888888"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{ypix + 4:.2f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end">{yv:.4g}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        xpix = sx(xv)
        out.append(
            f'<text x="{xpix:.2f}" y="{HEIGHT - 18}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{xv:.5g}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 4}" font-size="12" '
        f'font-family="sans-serif" text-anchor="middle">time (s)</text>'
    )
    out.append(
        f'<text x="14" y="{MARGIN_T + plot_h / 2:.2f}" font-size="12" font-family="sans-serif" '
        f'text-anchor="middle" transform="rotate(-90 14 {MARGIN_T + plot_h / 2:.2f})">{y_label}</text>'
    )
    for x, color in marks:
        xpix = sx(x)
        out.append(
            f'<line x1="{xpix:.2f}" y1="{MARGIN_T}" x2="{xpix:.2f}" y2="{MARGIN_T + plot_h}" '
            f'stroke="{color}" stroke-width="0.6" stroke-dasharray="2,3"/>'
        )
    for label, y in refs:
        ypix = sy(y)
        out.append(
            f'<line x1="{MARGIN_L}" y1="{ypix:.2f}" x2="{MARGIN_L + plot_w}" y2="{ypix:.2f}" '
            f'stroke="{REF_COLOR}" stroke-dasharray="6,4"/>'
        )
        out.append(
            f'<text x="{MARGIN_L + plot_w - 4}" y="{ypix - 4:.2f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end" fill="{REF_COLOR}">{label}</text>'
        )
    for i, (label, xs, ys) in enumerate(series):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{points}"/>'
        )
        out.append(
            f'<text x="{MARGIN_L + 8}" y="{MARGIN_T + 16 + 14 * i}" font-size="11" '
            f'font-family="sans-serif" fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _column(trace, getter):
    xs, ys = [], []
    for r in trace:
        v = getter(r)
        if v is not None:
            xs.append(r.sim_time)
            ys.append(v)
    return xs, ys


def _shift_times(trace):
    return [r.sim_time for r in trace if r.event in (EVENT_SHIFT_SMALL, EVENT_SHIFT_LARGE)]


def emit_plots(trace: Trace, path_prefix, overlay: Trace | None = None,
               temp_threshold: float | None = None,
               trip_temp: float | None = None) -> list[str]:
    """Write temperature/frequency/latency charts; returns the paths written.

    ``overlay`` adds a second series to every chart (e.g. baseline vs
    shifting). Shift events are marked with vertical dashes. A chart whose
    column is blank in every row of both traces is skipped: a live trace
    records no frequency or latency, so it gets the temperature chart only.
    An empty ``trace`` or ``overlay`` raises AnalysisError.
    """
    if len(trace) == 0:
        raise AnalysisError("cannot plot an empty trace")
    if overlay is not None and len(overlay) == 0:
        raise AnalysisError("cannot plot an empty overlay trace")

    temp_refs = [(label, y) for label, y in (("shift threshold", temp_threshold),
                                             ("throttle trip", trip_temp)) if y is not None]
    charts = [
        ("temperature", "CPU temperature (C)", lambda r: r.cpu_temp, temp_refs),
        ("frequency", "CPU frequency (GHz)", lambda r: r.freq, []),
        ("latency", "inference latency (s)", lambda r: r.inference_latency, []),
    ]
    runs = [("run", trace)]
    marks = [(x, MARKER_COLOR) for x in _shift_times(trace)]
    if overlay is not None:
        runs.append(("overlay", overlay))
        marks += [(x, OVERLAY_MARKER_COLOR) for x in _shift_times(overlay)]
    paths = []
    for key, y_label, getter, refs in charts:
        columns = ((label, *_column(run, getter)) for label, run in runs)
        series = [(label, xs, ys) for label, xs, ys in columns if xs]
        if not series:
            continue
        path = f"{path_prefix}_{key}.svg"
        write_text(path, _render(f"{key} vs time", y_label, series, refs, marks),
                   "chart", AnalysisError)
        paths.append(path)
    return paths
