"""Temperature-aware shifting between a large and a small model.

The package root exports the names the README's library example uses:
the shift controller and its inputs, the scenario harness, the summary,
and the built-in suites and device profiles. Everything else (the
thermal simulator and calibration, the trace format, ablation grids,
plots, the live sysfs adapter and the errors) is imported from its
submodule.
"""

from .analysis import summarize
from .controller import ControllerConfig, ShiftController, TemperatureSample
from .harness import Scenario, run_scenario
from .suites import get_profile, get_suite

__version__ = "0.1.0"
