"""Trace analysis: run summaries, stable-cycle accuracy, threshold grids.

Estimated accuracy weights each variant's published accuracy by its share
of inference counts. With idle injection equalizing iteration periods,
count weighting and time weighting coincide, and count weighting stays
well defined without pacing.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, replace

from .controller import Mode
from .errors import AnalysisError, write_text
from .harness import (
    EVENT_SHIFT_LARGE,
    EVENT_SHIFT_SMALL,
    EVENT_THROTTLE_ON,
    Scenario,
    Trace,
    hottest_reading,
    run_scenario,
)
from .workload import ModelVariant

STABLE_CYCLES = 2  # complete shift cycles that stable_iteration_accuracy reads

# Bound once: ``summarize`` tests every row's mode, and a member read through
# its enum class costs far more than a module-level name.
_LARGE = Mode.LARGE


@dataclass(frozen=True)
class Summary:
    avg_latency: float | None
    est_accuracy: float
    n_large: int
    n_small: int
    n_shifts: int
    n_throttle_events: int
    max_temp: float

    def to_dict(self):
        """The fields as a dict, in declaration order."""
        return asdict(self)


def summarize(trace: Trace, large: ModelVariant, small: ModelVariant) -> Summary:
    """Headline statistics for one run.

    avg_latency averages the inference-latency column only; injected idle
    and shift/logging stalls are excluded. n_large, n_small and
    est_accuracy count rows: one per inference in a simulated trace, but
    one per poll in a ``live`` trace.

    n_throttle_events counts rows that show ``throttle_on``. It is a lower
    bound only where two ``throttle_on`` events wait for one row (see
    ``run_scenario``). A ``throttle_off`` that waits with a ``throttle_on``
    is not shown, so read throttled time from ``freq``, not from events.
    """
    if len(trace) == 0:
        raise AnalysisError("cannot summarize an empty trace")
    n_large = n_shifts = n_throttle = 0
    latencies = []
    max_temp = trace[0].cpu_temp
    for r in trace:
        if r.mode is _LARGE:
            n_large += 1
        if r.inference_latency is not None:
            latencies.append(r.inference_latency)
        event = r.event
        if event == EVENT_SHIFT_SMALL or event == EVENT_SHIFT_LARGE:
            n_shifts += 1
        elif event == EVENT_THROTTLE_ON:
            n_throttle += 1
        if r.cpu_temp > max_temp:
            max_temp = r.cpu_temp
    n_small = len(trace) - n_large
    n = len(latencies)
    # sum(), not a running total: it compensates rounding on Python 3.12+.
    # Finite latencies whose sum overflows are averaged term by term.
    avg_latency = sum(latencies) / n if n else None
    if n and not math.isfinite(avg_latency):
        avg_latency = sum(x / n for x in latencies)
    est_accuracy = (n_large * large.accuracy + n_small * small.accuracy) / len(trace)
    return Summary(
        avg_latency=avg_latency,
        est_accuracy=est_accuracy,
        n_large=n_large,
        n_small=n_small,
        n_shifts=n_shifts,
        n_throttle_events=n_throttle,
        max_temp=max_temp,
    )


def stable_iteration_accuracy(trace, large, small) -> float:
    """Count-weighted accuracy over the first ``STABLE_CYCLES`` complete cycles.

    A cycle starts at a shift-to-small event and runs up to (excluding)
    the next one, so it covers one small phase and the following large
    phase. A cycle counts as complete only when the next shift-to-small
    exists to close it. Only the first ``STABLE_CYCLES + 1`` shifts to
    SMALL are looked for; a trace with fewer has all of them found, so
    the count in the error is the trace's own.
    """
    # The comprehension reads each row's event through a specialized slot
    # load, which on 3.11 beats ``map(attrgetter("event"), trace)``; the
    # starts are then found by ``list.index``, which stops at the last one read.
    events = [r.event for r in trace]
    starts = []
    at = -1
    try:
        while len(starts) <= STABLE_CYCLES:
            at = events.index(EVENT_SHIFT_SMALL, at + 1)
            starts.append(at)
    except ValueError:
        pass
    complete = max(0, len(starts) - 1)
    if complete < STABLE_CYCLES:
        raise AnalysisError(
            f"need {STABLE_CYCLES} complete shift cycles, found {complete}"
        )
    return summarize(trace[starts[0]:starts[STABLE_CYCLES]], large, small).est_accuracy


def cell_seed(base_seed: int, temp_threshold: float, grad_threshold: float) -> int:
    """Deterministic per-cell seed, independent of execution order."""
    tag = f"{temp_threshold:.6g}|{grad_threshold:.6g}".encode()
    return (base_seed & 0xFFFFFFFF) ^ zlib.crc32(tag)


@dataclass
class AblationGrid:
    """Results of a threshold sweep: one stable-cycle accuracy per cell."""

    temp_thresholds: list
    grad_thresholds: list
    values: list          # values[gi][ti] -> float or None
    notes: list           # notes[gi][ti] -> "" or failure reason

    def cell(self, grad_threshold, temp_threshold):
        gi = self.grad_thresholds.index(grad_threshold)
        ti = self.temp_thresholds.index(temp_threshold)
        return self.values[gi][ti]

    def _rows(self, fmt, missing):
        """(grad threshold, [cell text]) per grid row; ``missing`` for a None cell."""
        for g, row in zip(self.grad_thresholds, self.values):
            yield g, [fmt % v if v is not None else missing for v in row]

    def to_csv(self, path):
        lines = ["grad_threshold/temp_threshold," + ",".join("%.6g" % t for t in self.temp_thresholds)]
        for g, cells in self._rows("%.6g", "insufficient-cycles"):
            lines.append("%.6g," % g + ",".join(cells))
        write_text(path, "\n".join(lines) + "\n", "grid", AnalysisError)

    def format_table(self) -> str:
        width = 14
        header = "grad \\ temp".ljust(width) + "".join(("%.6g" % t).rjust(width) for t in self.temp_thresholds)
        lines = [header, "-" * len(header)]
        for g, cells in self._rows("%.4f", "n/a"):
            lines.append(("%.6g" % g).ljust(width) + "".join(cell.rjust(width) for cell in cells))
        return "\n".join(lines)


def ablation_grid(base_scenario: Scenario, temp_thresholds, grad_thresholds,
                  duration: float | None = None) -> AblationGrid:
    """Sweep the two thresholds; each cell runs an independent scenario.

    Each cell's value is ``stable_iteration_accuracy`` over its first two
    complete shift cycles, so a cell's run stops at the shift to SMALL
    that closes the second cycle (``Scenario.stop_after_small_shifts``);
    the rows after it would not be read. The stopped trace is a prefix of
    the full run's, so every value and note is the full run's.

    Cells that never complete two shift cycles run for the whole
    ``duration`` (``base_scenario.duration`` unless given) and record a
    note instead of a value; one bad cell does not abort the sweep.
    Per-cell seeds depend only on the base seed and the cell's
    thresholds, so execution order cannot change any value.

    The controller shifts to SMALL only on a reading strictly above
    ``temp_threshold``, and no reading exceeds ``hottest_reading``. A cell
    whose threshold is at or above that bound would never shift, so it is
    not run: its note is the one ``stable_iteration_accuracy`` gives a
    trace with no shift, as its full run would get.
    """
    if not temp_thresholds or not grad_thresholds:
        raise AnalysisError("threshold lists must be non-empty")
    template = base_scenario.controller
    if template is None:
        raise AnalysisError("ablation needs a scenario with a controller config")
    if duration is None:
        duration = base_scenario.duration
    hottest = hottest_reading(base_scenario)
    try:
        stable_iteration_accuracy(Trace(), base_scenario.large, base_scenario.small)
    except AnalysisError as exc:
        never_shifts = str(exc)
    values = []
    notes = []
    for g in grad_thresholds:
        row = []
        row_notes = []
        for t in temp_thresholds:
            if t >= hottest:
                row.append(None)
                row_notes.append(never_shifts)
                continue
            cfg = replace(template, temp_threshold=t, grad_threshold=g)
            cell = replace(
                base_scenario,
                controller=cfg,
                duration=duration,
                seed=cell_seed(base_scenario.seed, t, g),
                stop_after_small_shifts=STABLE_CYCLES + 1,
            )
            trace = run_scenario(cell)
            try:
                row.append(stable_iteration_accuracy(trace, cell.large, cell.small))
                row_notes.append("")
            except AnalysisError as exc:
                row.append(None)
                row_notes.append(str(exc))
        values.append(row)
        notes.append(row_notes)
    return AblationGrid(
        temp_thresholds=list(temp_thresholds),
        grad_thresholds=list(grad_thresholds),
        values=values,
        notes=notes,
    )
