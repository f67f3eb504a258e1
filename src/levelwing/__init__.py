"""Deterministic fixed-wing flight simulator and lateral guidance stack.

Compares two lateral trajectory-correction strategies over scripted
flight plans: aileron-only course steering (banking to correct) and
rudder-augmented heading steering (yawing while holding wings level),
scoring each by the image error of a rigidly mounted downward camera.
"""

from .angles import wrap_pi
from .config import ScenarioConfig, load_aircraft, load_config, load_plan
from .dynamics import (
    AircraftParams,
    AircraftState,
    Airframe,
    AirData,
    ControlCommand,
    Environment,
    GustModel,
    air_data,
    gamma_terms,
    integrate_step,
    make_airframe,
    trim,
)
from .errors import (
    AirDataError,
    ConfigError,
    DynamicsFaultError,
    InsufficientDataError,
    IntegrationFaultError,
    SimulatorError,
    SingularityError,
    TrimFailureError,
    UncontrollablePlantError,
    UndefinedBearingError,
)
from .guidance import FlightPlan, OrbitPlan, PathManager, PathSegment
from .metrics import ErrorStats, beta_estimate, series_stats, total_image_error
from .scenario import (
    ComparisonResult,
    FlightController,
    LoopMemory,
    RunResult,
    closed_loop_step,
    compare_controllers,
    export_csv,
    run_scenario,
    write_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "AirData",
    "AirDataError",
    "AircraftParams",
    "AircraftState",
    "Airframe",
    "ComparisonResult",
    "ConfigError",
    "ControlCommand",
    "DynamicsFaultError",
    "Environment",
    "ErrorStats",
    "FlightController",
    "FlightPlan",
    "GustModel",
    "InsufficientDataError",
    "IntegrationFaultError",
    "LoopMemory",
    "OrbitPlan",
    "PathManager",
    "PathSegment",
    "RunResult",
    "ScenarioConfig",
    "SimulatorError",
    "SingularityError",
    "TrimFailureError",
    "UncontrollablePlantError",
    "UndefinedBearingError",
    "air_data",
    "beta_estimate",
    "closed_loop_step",
    "compare_controllers",
    "export_csv",
    "gamma_terms",
    "integrate_step",
    "load_aircraft",
    "load_config",
    "load_plan",
    "make_airframe",
    "run_scenario",
    "series_stats",
    "total_image_error",
    "trim",
    "wrap_pi",
    "write_comparison",
]
