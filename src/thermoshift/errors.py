"""Exception types shared across the package, the non-finite number check and the file writer."""

import math
import os
from collections.abc import Iterable


def non_finite_fields(obj) -> list[str]:
    """One message per float field of a dataclass instance that is NaN or infinite."""
    return [f"{name} must be finite, got {value}" for name, value in vars(obj).items()
            if isinstance(value, float) and not math.isfinite(value)]


class ThermoshiftError(Exception):
    """Base class for all package errors: one problem per argument, listed
    by ``problems`` and joined with ``"; "`` by ``str``."""

    @property
    def problems(self) -> list[str]:
        return list(self.args)

    def __str__(self):
        return "; ".join(map(str, self.args))


class ConfigError(ThermoshiftError):
    """Invalid controller configuration (bad smoothing coefficient, threshold, ...)."""


class SampleError(ThermoshiftError):
    """A temperature sample was rejected (non-finite or physically impossible)."""


class ProfileError(ThermoshiftError):
    """Invalid device profile parameters."""


class CalibrationError(ThermoshiftError):
    """Calibration targets are infeasible or the search failed to converge."""


class ScenarioError(ThermoshiftError):
    """A scenario is inconsistent and cannot be run; ``problems`` lists why."""


class AnalysisError(ThermoshiftError):
    """A trace cannot be analyzed (empty, too few shift cycles, ...)."""


class TraceFormatError(ThermoshiftError):
    """A trace CSV file does not match the expected format."""


class SensorReadError(ThermoshiftError):
    """A temperature source failed to produce a reading."""


class SourceExhausted(ThermoshiftError):
    """A replay source ran out of recorded samples."""


class LiveRunError(ThermoshiftError):
    """The live polling loop aborted (too many consecutive read errors)."""


class ConfigFileError(ThermoshiftError):
    """A scenario config file failed validation.

    ``problems`` lists every offending key so the user can fix the file in
    one pass.
    """


def write_text(path, text: str | Iterable[str], what: str, error=ThermoshiftError) -> None:
    """Write ``text`` to ``path``; an OSError becomes ``error`` naming ``what`` and the path.

    ``text`` is one string or an iterable of strings, written one at a
    time in order, so a writer can stream a file without holding it
    whole. Any other exception the iterable raises propagates unchanged
    and leaves behind what was written before it.
    """
    pieces = (text,) if isinstance(text, str) else text
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise error(f"cannot write {what} to '{path}': {exc}") from exc


def check_writable(path, what: str) -> None:
    """Fail now, as ``write_text`` would later, if ``path`` cannot be opened for writing.

    Commands call this for every output before they simulate or poll, so
    a bad path costs no work and leaves no other output behind. The check
    opens ``path`` for appending, which keeps an existing file's contents,
    and removes the file again if the check created it.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ThermoshiftError(f"cannot write {what} to '{path}': {exc}") from exc
    if not existed:
        os.remove(path)
