"""Shared fixtures.

The closed-loop runs are expensive (tens of simulated seconds at a 10 ms
step), so the canonical trajectories are session-scoped and shared between
the behavioural tests and the acceptance suite. Each timed fixture returns
(result, wall_seconds) so runtime budgets can be checked where they apply.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import replace
from pathlib import Path

import pytest

import levelwing
from levelwing.config import (
    ControllerSettings,
    EnvironmentSettings,
    ScenarioConfig,
    load_aircraft,
    load_config,
)
from levelwing.dynamics import (
    AircraftParams,
    Environment,
    gamma_terms,
    make_dynamics,
    trim,
)
from levelwing.errors import TrimFailureError
from levelwing.guidance import (
    FlightPlan,
    GuidanceGains,
    OrbitPlan,
    SlewSettings,
)
from levelwing.scenario import compare_controllers, run_scenario

DATA_DIR = Path(levelwing.__file__).parent / "data"

# The types a run is configured with; each checks itself when it is made.
SETTINGS_TYPES = (AircraftParams, FlightPlan, OrbitPlan, GuidanceGains,
                  SlewSettings, EnvironmentSettings, ControllerSettings,
                  ScenarioConfig)


@pytest.fixture(scope="session")
def params():
    return load_aircraft("aerosonde.ini")


@pytest.fixture(scope="session")
def gammas(params):
    return gamma_terms(params)


@pytest.fixture(scope="session")
def dynamics(params, gammas):
    """The stock airframe's dynamics kernel."""
    return make_dynamics(params, gammas)


@pytest.fixture(scope="session")
def trim20(params):
    """Level trim at 20 m/s in calm air: (state, command)."""
    return trim(params, Environment(), 20.0)


@pytest.fixture(scope="session")
def make_cfg(params):
    """Factory for in-memory scenario configs around the stock airframe."""

    def build(plan, *, name="inline", dt=0.01, duration=60.0, va_cmd=20.0,
              seed=0, env=None, ctrl=None, warmup=5.0):
        return ScenarioConfig(
            name=name,
            aircraft_path=DATA_DIR / "aerosonde.ini",
            plan_path=Path(name),
            params=params,
            plan=plan,
            env=env if env is not None else EnvironmentSettings(),
            ctrl=ctrl if ctrl is not None else ControllerSettings(),
            dt=dt,
            duration=duration,
            va_cmd=va_cmd,
            h_refs=(150.0, 450.0),
            warmup=warmup,
            seed=seed,
        )

    return build


# A monkeypatch of levelwing.scenario reaches compare's child process only
# when the child is forked from the patched caller.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the child sees a monkeypatch only when it is forked")


@pytest.fixture
def aotc_trim_failure(monkeypatch):
    """Make every aotc run fail to trim; ratc runs fly as usual."""
    real = levelwing.scenario.run_scenario

    def failing(cfg, mode=None, duration_override=None):
        if mode == "aotc":
            raise TrimFailureError("trim did not converge", residual=0.25)
        return real(cfg, mode, duration_override)

    monkeypatch.setattr(levelwing.scenario, "run_scenario", failing)


@pytest.fixture(scope="session")
def rect_comparison():
    """Both controllers over the crosswind rectangle: (comparison, seconds).

    The elapsed time covers both runs including trim and gain scheduling.
    """
    cfg = load_config("rectangle_compare.ini")
    t0 = time.perf_counter()
    comp = compare_controllers(cfg)
    return comp, time.perf_counter() - t0


@pytest.fixture(scope="session")
def circle_run():
    """Rudder-augmented loiter on the bundled circle: (result, seconds)."""
    cfg = load_config("circle.ini")
    t0 = time.perf_counter()
    result = run_scenario(cfg, mode="ratc")
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def corner_runs():
    """The 90 deg corner plan with the course slew limiter forced off/on.

    Returns ({False: result, True: result}, seconds).
    """
    cfg = load_config("corner90.ini")
    t0 = time.perf_counter()
    runs = {}
    for flag in (False, True):
        variant = replace(cfg, ctrl=replace(cfg.ctrl, slew_enabled=flag))
        runs[flag] = run_scenario(variant)
    return runs, time.perf_counter() - t0
