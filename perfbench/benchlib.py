"""Helpers for the thermoshift benchmark: spans, self time, percentiles, names.

Nothing here imports thermoshift, so the helpers can be unit-tested on
their own and the benchmark can fail cleanly when the program is absent.
"""

from __future__ import annotations

import gzip
import re
import statistics
import time
from array import array
from fractions import Fraction

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_NAME = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Candidate tail percentiles, highest first. Fractions keep the
# "samples beyond" test exact (99.9 is not a binary float).
_TAIL_CANDIDATES = ("99.99", "99.9", "99", "90", "50")
MIN_SAMPLES_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    return isinstance(name, str) and METRIC_NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and UNIT_NAME.fullmatch(unit) is not None


def tail_percentile(n: int) -> str | None:
    """Highest candidate percentile with at least ten samples beyond it.

    Returns the percentile as a string ("99", "99.9", ...) or None when
    even the median has fewer than ten samples above it.
    """
    for label in _TAIL_CANDIDATES:
        if n * (100 - Fraction(label)) / 100 >= MIN_SAMPLES_BEYOND:
            return label
    return None


def percentile(values, pct) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    rank = float(Fraction(str(pct)) / 100 * (len(data) - 1))
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


median = statistics.median


class Tracer:
    """Records spans (name, parent, start, end) in flat arrays.

    ``wrap`` replaces an attribute with a recording wrapper at the name
    callers look it up by; ``restore`` puts every original back. Spans
    opened by ``span`` or by wrappers nest through one stack, so a span's
    parent is whichever span was open when it started.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()
        self._patches: list = []

    def reset(self) -> None:
        """Drop recorded spans; wrappers stay installed."""
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised: dict[int, str] = {}   # span index -> exception class name
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span around a block."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.idx = tracer._open(tracer._id(name))
                return self

            def __exit__(self, exc_type, exc, tb):
                tracer._close(self.idx)
                if exc_type is not None:
                    tracer.raised[self.idx] = exc_type.__name__
                return False

        return _Span()

    def wrapped(self, fn, name: str):
        """Return ``fn`` wrapped so every call records a span named ``name``."""
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[idx] = type(exc).__name__
                raise
            finally:
                tracer._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner, attr: str, name: str) -> bool:
        """Replace ``owner.attr`` by a recording wrapper; False if it is absent."""
        own = vars(owner) if hasattr(owner, "__dict__") else {}
        if attr in own:
            original = own[attr]
        elif hasattr(owner, attr):
            original = None  # inherited or bound: restore by deletion
        else:
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrapped(getattr(owner, attr), name))
        return True

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as gzip'd CSV: name, parent index, start and end in ns."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("index,name,parent,start_ns,end_ns,raised\n")
            for i in range(len(self.start)):
                fh.write("%d,%s,%d,%d,%d,%s\n" % (
                    i, self.names[self.name_id[i]], self.parent[i],
                    round((self.start[i] - t0) * 1e9), round((self.end[i] - t0) * 1e9),
                    self.raised.get(i, ""),
                ))


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread, one stack), so summing
    their durations gives the covered part of the parent's interval.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def aggregate(tracer: Tracer) -> dict[str, dict]:
    """Per span name: call count, total (inclusive) time and self time."""
    own = self_times(tracer.parent, tracer.start, tracer.end)
    out: dict[str, dict] = {}
    for i, nid in enumerate(tracer.name_id):
        name = tracer.names[nid]
        row = out.get(name)
        if row is None:
            row = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        row["calls"] += 1
        row["total_s"] += tracer.end[i] - tracer.start[i]
        row["self_s"] += own[i]
    return out
