"""Temperature-aware shifting between a large and a small model.

Library surface: the shift controller, a lumped thermal simulator with
throttling governors, a closed-loop scenario harness with CSV traces,
trace analysis/plots, and a live sysfs polling adapter.
"""

from .analysis import (
    AblationGrid,
    Summary,
    ablation_grid,
    cell_seed,
    stable_iteration_accuracy,
    summarize,
)
from .controller import (
    ControllerConfig,
    Decision,
    Mode,
    ShiftController,
    TemperatureSample,
    ema_update,
)
from .errors import (
    AnalysisError,
    CalibrationError,
    ConfigError,
    ConfigFileError,
    LiveRunError,
    ProfileError,
    SampleError,
    ScenarioError,
    SensorReadError,
    SourceExhausted,
    ThermoshiftError,
    TraceFormatError,
)
from .harness import (
    EVENT_NONE,
    EVENT_SHIFT_LARGE,
    EVENT_SHIFT_SMALL,
    Scenario,
    Trace,
    TraceRecord,
    emit_trace,
    parse_trace,
    run_scenario,
)
from .plots import emit_plots
from .sensors import (
    ReplaySource,
    SimulatedSource,
    SysfsSource,
    live_run,
    read_sysfs_temp,
)
from .suites import PROFILES, SUITE_NAMES, SUITES, Suite, get_profile, get_suite
from .thermal import (
    EVENT_THROTTLE_OFF,
    EVENT_THROTTLE_ON,
    CalibrationTargets,
    CalibrationResult,
    DeviceProfile,
    DeviceState,
    GovernorKind,
    advance,
    calibrate_profile,
    equilibrium_temp,
    governor_step,
)
from .workload import (
    ModelVariant,
    PacingPolicy,
    Platform,
    inference_latency,
    iteration_time,
    logging_overhead,
    power_draw,
    shift_overhead,
)

__version__ = "0.1.0"
