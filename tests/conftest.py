"""Shared fixtures.

The closed-loop runs are expensive (tens of simulated seconds at a 10 ms
step), so the canonical trajectories are session-scoped and shared between
the behavioural tests and the acceptance suite. Each timed fixture returns
(result, wall_seconds) so runtime budgets can be checked where they apply.
"""

from __future__ import annotations

import multiprocessing
import re
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np
import pytest

import levelwing.scenario
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
    integrate_step,
    make_airframe,
    trim,
)
from levelwing.errors import TrimFailureError
from levelwing.guidance import (
    FlightPlan,
    GuidanceSettings,
    OrbitPlan,
    PathManager,
)
from levelwing.scenario import (
    FlightController,
    LoopMemory,
    closed_loop_step,
    compare_controllers,
    run_scenario,
)

DATA_DIR = Path(levelwing.__file__).parent / "data"

# The types a run is configured with; each checks itself when it is made.
SETTINGS_TYPES = (AircraftParams, FlightPlan, OrbitPlan, GuidanceSettings,
                  EnvironmentSettings, ControllerSettings, ScenarioConfig)


class YawFold(NamedTuple):
    """Yaw-channel coefficients after folding the roll equation's share
    of the inertia coupling into the yaw buildup."""

    cr_0: float
    cr_beta: float
    cr_p: float
    cr_r: float
    cr_delta_a: float
    cr_delta_r: float


def set_key(text: str, section: str, key: str, value: str) -> str:
    """text with [section] key = value, replacing the key's line or
    adding the key, and the section if need be."""
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text,
                          flags=re.M)
    assert count <= 1
    if count:
        return text
    if f"[{section}]\n" in text:
        return text.replace(f"[{section}]\n",
                            f"[{section}]\n{key} = {value}\n")
    return f"{text}\n[{section}]\n{key} = {value}\n"


def write_decoys(directory: Path) -> None:
    """Files in directory under the names that the bundled scenarios give
    their aircraft and plans, each unlike the bundled file: a heavier
    aerosonde, a 300 m square and a 50 m orbit."""
    aircraft = (DATA_DIR / "aircraft" / "aerosonde.ini").read_text(
        encoding="utf-8")
    texts = {
        "aerosonde.ini": set_key(aircraft, "mass_properties", "mass_kg", "22"),
        "rectangle.ini": "[plan]\n[waypoints]\nwp01 = 0, 0\nwp02 = 300, 0\n"
                         "wp03 = 300, 300\nwp04 = 0, 300\nwp05 = 0, 0\n",
        "circle.ini": "[plan]\n[orbit]\ncenter_n_m = 0\ncenter_e_m = 0\n"
                      "radius_m = 50\n",
    }
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")


def rectangle_with(directory: Path, file: str, section: str, key: str,
                   value: str) -> Path:
    """The path of a copy of the bundled rectangle_compare.ini in
    directory, beside a copy of the aerosonde.ini that it flies, with
    [section] key = value set in the one of the two named file."""
    for source in ("scenarios/rectangle_compare.ini",
                   "aircraft/aerosonde.ini"):
        text = (DATA_DIR / source).read_text(encoding="utf-8")
        if Path(source).name == file:
            text = set_key(text, section, key, value)
        (directory / Path(source).name).write_text(text, encoding="utf-8")
    return directory / "rectangle_compare.ini"


# Inputs that only restated another: the image-error altitudes, which
# metrics.TABLE_H_REFS fixes, the plan's kind, which its section gives,
# each waypoint's altitude, which is nominal_agl_m, and the slew
# limiter's threshold, which at its default equalled the rate (above the
# rate, it only added a dead band). Each is the file that gives it, its
# line in place of a line of the bundled file, and the error that follows
# the file's path.
RETIRED_INPUTS = {
    "h_ref_m": ("scenario", "seed = 0\n", "seed = 0\nh_ref_m = 150, 450\n",
                "unknown key 'h_ref_m' in [scenario]"),
    "kind": ("plan", "[plan]\n", "[plan]\nkind = waypoints\n",
             "unknown key 'kind' in [plan]"),
    "waypoint_altitude": (
        "plan", "wp02 = 400, 0\n", "wp02 = 400, 0, 150\n",
        "waypoint 1 ('wp02') must be 'north_m, east_m', got '400, 0, 150'"),
    "slew_threshold_dps": (
        "scenario", "gust_tau_s = 2.0\n",
        "gust_tau_s = 2.0\n\n[controller]\nslew_threshold_dps = 30.0\n",
        "unknown key 'slew_threshold_dps' in [controller]"),
}


def with_retired_input(directory: Path, name: str) -> dict[str, Path]:
    """{"scenario": path, "plan": path} of copies of the bundled
    rectangle_compare.ini and the rectangle.ini that it flies, in
    directory, the one named by RETIRED_INPUTS[name] giving that input."""
    written, old, new, _ = RETIRED_INPUTS[name]
    files = {"scenario": directory / "rectangle_compare.ini",
             "plan": directory / "rectangle.ini"}
    for kind, path in files.items():
        text = (DATA_DIR / f"{kind}s" / path.name).read_text(encoding="utf-8")
        if kind == written:
            assert text.count(old) == 1
            text = text.replace(old, new)
        path.write_text(text, encoding="utf-8")
    return files


def combined_yaw_coeffs(params, gammas) -> YawFold:
    """The whole yaw fold, gamma4*c_ell_x + gamma8*c_n_x for each term:
    the oracle for the heading plant, which keeps cr_r and cr_delta_r,
    and for its disturbance, the sideslip, roll-rate and aileron terms."""
    g4, g8 = gammas.gamma4, gammas.gamma8
    return YawFold(
        cr_0=g4 * params.c_ell_0 + g8 * params.c_n_0,
        cr_beta=g4 * params.c_ell_beta + g8 * params.c_n_beta,
        cr_p=g4 * params.c_ell_p + g8 * params.c_n_p,
        cr_r=g4 * params.c_ell_r + g8 * params.c_n_r,
        cr_delta_a=g4 * params.c_ell_delta_a + g8 * params.c_n_delta_a,
        cr_delta_r=g4 * params.c_ell_delta_r + g8 * params.c_n_delta_r,
    )


def rk4_step(f: Callable[[Sequence[float]], Sequence[float]],
             y: Sequence[float], dt: float) -> list[float]:
    """One classical fourth-order Runge-Kutta step of y' = f(y), on
    plain sequences of floats: the generic oracle for integrate_step,
    whose four fused stages do the same arithmetic in the same order."""
    h = 0.5 * dt
    k1 = f(y)
    k2 = f([a + h * b for a, b in zip(y, k1)])
    k3 = f([a + h * b for a, b in zip(y, k2)])
    k4 = f([a + dt * b for a, b in zip(y, k3)])
    c = dt / 6.0
    return [a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


@pytest.fixture(scope="session")
def params():
    return load_aircraft(DATA_DIR / "aircraft" / "aerosonde.ini")


@pytest.fixture(scope="session")
def airframe(params):
    """The stock airframe: params, inertia terms and dynamics kernel."""
    return make_airframe(params)


@pytest.fixture(scope="session")
def trim20(airframe):
    """Level trim at 20 m/s: (state, command)."""
    return trim(airframe, 20.0)


@pytest.fixture(scope="session")
def make_cfg(params):
    """Factory for in-memory scenario configs around the stock airframe."""

    def build(plan, *, name="inline", dt=0.01, duration=60.0, va_cmd=20.0,
              seed=0, env=None, ctrl=None, warmup=5.0):
        return ScenarioConfig(
            name=name,
            aircraft_path=DATA_DIR / "aircraft" / "aerosonde.ini",
            plan_path=Path(name),
            params=params,
            plan=plan,
            env=env if env is not None else EnvironmentSettings(),
            ctrl=ctrl if ctrl is not None else ControllerSettings(),
            dt=dt,
            duration=duration,
            va_cmd=va_cmd,
            warmup=warmup,
            seed=seed,
        )

    return build


def straight_plan(length: float = 800.0) -> FlightPlan:
    return FlightPlan(name="straight", waypoints=[(0.0, 0.0), (length, 0.0)])


class OffsetRun(NamedTuple):
    """The scored part of a fly_from_offset run: the time from the jump,
    the roll and the lateral error of each step, and the lateral error
    the aircraft had settled to, the error at the jump less the jump."""

    t: np.ndarray
    phi: np.ndarray
    e: np.ndarray
    settled_e: float


def fly_from_offset(airframe, cfg, mode: str, offset: float,
                    settle: float = 0.0) -> OffsetRun:
    """Fly mode in cfg's steady wind from trim on the plan's first leg, a
    north line, at its altitude for settle s, then move the aircraft
    offset m to the right (east) and score the next cfg.duration s."""
    trim_state, trim_cmd = trim(airframe, cfg.va_cmd)
    state = trim_state._replace(pn=0.0, pe=0.0, pd=-cfg.plan.nominal_agl,
                                psi=0.0)
    manager = PathManager(cfg.plan, cfg.ctrl.guidance, cfg.dt)
    controller = FlightController(mode, cfg, airframe, trim_state, trim_cmd)
    wind = Environment(cfg.env.wind_n, cfg.env.wind_e, cfg.env.wind_d)
    memory = LoopMemory()
    skip, n = round(settle / cfg.dt), round(cfg.duration / cfg.dt)
    phi, errors = np.zeros(n), np.zeros(n)
    for k in range(-skip, n):
        if k == 0:
            state = state._replace(pe=state.pe + offset)
        cmd, memory, _ = closed_loop_step(manager, controller, state, memory,
                                          wind)
        if k >= 0:
            phi[k] = state.phi
            errors[k] = memory.guidance.e_lateral
        state = integrate_step(state, cmd, wind, airframe, cfg.dt)
    return OffsetRun(np.arange(n) * cfg.dt, phi, errors, errors[0] - offset)


OFFSETS_M = (10.0, 30.0)


@pytest.fixture(scope="session")
def offset_runs(airframe, make_cfg):
    """The paper's experiment: each law flown for 60 s in calm air from
    each of OFFSETS_M to either side, onto a north line at 150 m AGL:
    {(mode, offset): OffsetRun}."""
    cfg = make_cfg(straight_plan(2000.0), duration=60.0)
    return {(mode, side * offset):
            fly_from_offset(airframe, cfg, mode, side * offset)
            for mode in ("aotc", "ratc") for offset in OFFSETS_M
            for side in (1.0, -1.0)}


# A monkeypatch of levelwing.scenario reaches compare's child process only
# when the child is forked from the patched caller.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the child sees a monkeypatch only when it is forked")


@pytest.fixture
def aotc_trim_failure(monkeypatch):
    """Make every aotc run fail to trim; ratc runs fly as usual."""
    real = levelwing.scenario.run_scenario

    def failing(cfg, mode, duration_override=None):
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
        guidance = replace(cfg.ctrl.guidance, slew_enabled=flag)
        variant = replace(cfg, ctrl=replace(cfg.ctrl, guidance=guidance))
        runs[flag] = run_scenario(variant, "ratc")
    return runs, time.perf_counter() - t0
