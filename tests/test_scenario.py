"""Closed-loop runs: path holding, logging, CSV export, and comparisons."""

import copy
import inspect
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import levelwing.scenario
from conftest import OFFSETS_M, fly_from_offset, needs_fork, straight_plan
from levelwing.cli import main as cli_main
from levelwing.config import EnvironmentSettings, load_config
from levelwing.errors import (
    ConfigError,
    DynamicsFaultError,
    SimulatorError,
    SingularityError,
    TrimFailureError,
    UncontrollablePlantError,
)
from levelwing.guidance import FlightPlan
from levelwing.metrics import (SUMMARY_COLUMNS, TABLE_H_REFS,
                               summary_csv_lines)
from levelwing.scenario import (
    CSV_COLUMNS,
    LOG_COLUMNS,
    RunResult,
    _call_and_send,
    closed_loop_step,
    compare_controllers,
    export_csv,
    run_scenario,
    write_comparison,
)


def wrap(x):
    return (np.asarray(x) + np.pi) % (2.0 * np.pi) - np.pi


def rectangle_plan(fillet):
    corners = [(0.0, 0.0), (400.0, 0.0), (400.0, 400.0), (0.0, 400.0),
               (0.0, 0.0), (400.0, 0.0)]
    return FlightPlan(name="rect", waypoints=corners, fillet_radius=fillet)


@pytest.mark.parametrize("mode", ["aotc", "ratc"])
def test_straight_plan_holds_path_altitude_airspeed(make_cfg, mode):
    cfg = make_cfg(straight_plan(), duration=50.0)
    result = run_scenario(cfg, mode=mode)
    assert result.completed and result.fault is None
    log = result.log
    settled = log["t"] >= 10.0
    assert np.max(np.abs(log["e_lateral"][settled])) < 2.0
    warm = log["t"] >= cfg.warmup
    assert np.max(np.abs(-log["pd"][warm] - 150.0)) < 5.0
    assert np.max(np.abs(log["va"][warm] - 20.0)) < 1.0


@pytest.mark.parametrize("mode", ["aotc", "ratc"])
def test_capture_and_hold_from_lateral_offset(airframe, make_cfg, mode):
    # Start 30 m right of a long straight leg: the aircraft must capture
    # the path within 30 s and stay inside a 2 m band afterwards.
    cfg = make_cfg(straight_plan(2000.0), duration=45.0)
    run = fly_from_offset(airframe, cfg, mode, 30.0)
    outside = np.nonzero(np.abs(run.e) >= 2.0)[0]
    assert outside.size > 0          # starts outside the band
    settle_index = outside[-1] + 1
    assert settle_index < len(run.e)
    assert run.t[settle_index] <= 30.0
    assert np.max(np.abs(run.e[settle_index:])) < 2.0


@pytest.mark.parametrize("offset", OFFSETS_M)
def test_ratc_corrects_an_offset_with_a_third_of_aotcs_roll(offset_runs,
                                                             offset):
    # Measured: 1.64 deg against 14.04 deg at 10 m, 4.91 against 41.40 at
    # 30 m.
    peak = {mode: np.max(np.abs(offset_runs[mode, offset].phi))
            for mode in ("aotc", "ratc")}
    assert peak["ratc"] < peak["aotc"] / 3.0


@pytest.mark.parametrize("mode", ["aotc", "ratc"])
@pytest.mark.parametrize("offset", OFFSETS_M)
def test_both_laws_hold_the_line_from_40_s(offset_runs, mode, offset):
    # Within 10 % of the offset from 40 s on. The last exits from that
    # band were measured at 9.1 s (10 m) and 9.5 s (30 m) for aotc and
    # 20.5 s for ratc, which overshoots by 18 %.
    run = offset_runs[mode, offset]
    assert np.max(np.abs(run.e[run.t >= 40.0])) < 0.1 * offset


@pytest.mark.parametrize("mode", ["aotc", "ratc"])
@pytest.mark.parametrize("offset", OFFSETS_M)
def test_a_mirrored_offset_mirrors_the_run(offset_runs, mode, offset):
    # Calm air on a north line is symmetric about the line, and so is
    # each law: a start to the left gives the negated histories, bit for
    # bit.
    run, mirror = offset_runs[mode, offset], offset_runs[mode, -offset]
    assert np.array_equal(mirror.phi, -run.phi)
    assert np.array_equal(mirror.e, -run.e)


CROSSWIND_MPS = 3.0
JUMP_M = 30.0


@pytest.fixture(scope="module")
def crosswind_runs(airframe, make_cfg):
    """The offset experiment in a crosswind: each law flown onto a north
    line in a CROSSWIND_MPS wind toward the east (side 1) and, mirrored,
    toward the west (side -1), settled for 90 s, moved JUMP_M to the
    downwind side and scored over the next 60 s: {(mode, side): OffsetRun}.
    """
    return {(mode, side): fly_from_offset(
                airframe,
                make_cfg(straight_plan(4000.0), duration=60.0,
                         env=EnvironmentSettings(wind_e=side * CROSSWIND_MPS)),
                mode, side * JUMP_M, settle=90.0)
            for mode in ("aotc", "ratc") for side in (1.0, -1.0)}


def test_in_a_crosswind_ratc_holds_its_standing_offset(crosswind_runs,
                                                       make_cfg):
    # Wings level, ratc can only crab by sideslip, so it settles where the
    # capture law's course offset, capture_gain * e, is the crab angle
    # asin(W / Va): 12.045 m (measured 12.0448 m). Aotc banks into the
    # wind and holds the line (measured 2e-8 m).
    cfg = make_cfg(straight_plan())
    crab = math.asin(CROSSWIND_MPS / cfg.va_cmd)
    standing = crab / cfg.ctrl.guidance.capture_gain
    assert crosswind_runs["ratc", 1.0].settled_e == pytest.approx(standing,
                                                                  abs=0.01)
    assert abs(crosswind_runs["aotc", 1.0].settled_e) < 0.01


def test_in_a_crosswind_ratc_corrects_with_a_third_of_aotcs_roll(
        crosswind_runs):
    # Measured: 4.90 deg against 41.03 deg.
    peak = {mode: np.max(np.abs(crosswind_runs[mode, 1.0].phi))
            for mode in ("aotc", "ratc")}
    assert peak["ratc"] < peak["aotc"] / 3.0


@pytest.mark.parametrize("mode", ["aotc", "ratc"])
def test_in_a_crosswind_both_laws_settle_again_from_40_s(crosswind_runs,
                                                         mode):
    # Within 10 % of the jump from the settled error, from 40 s on; the
    # last exits from that band were measured at 10.4 s (aotc) and 20.7 s
    # (ratc).
    run = crosswind_runs[mode, 1.0]
    assert np.max(np.abs(run.e - run.settled_e)[run.t >= 40.0]) < \
        0.1 * JUMP_M


@pytest.mark.parametrize("mode", ["aotc", "ratc"])
def test_a_mirrored_crosswind_mirrors_the_run(crosswind_runs, mode):
    run, mirror = crosswind_runs[mode, 1.0], crosswind_runs[mode, -1.0]
    assert np.array_equal(mirror.phi, -run.phi)
    assert np.array_equal(mirror.e, -run.e)


@pytest.mark.parametrize("name, slew", [
    ("figure_eight", None), ("circle", None), ("corner90", True)])
def test_closed_loop_step_is_pure(monkeypatch, name, slew):
    # Mid-run inputs: on the figure eight, on the orbit while its arc angle
    # accumulates, and at corner90's corner while the slew limiter holds
    # the course command back.
    step, calls = closed_loop_step, []

    def recorded(*args):
        calls.append((args, step(*args)))
        return calls[-1][1]

    monkeypatch.setattr(levelwing.scenario, "closed_loop_step", recorded)
    run_scenario(load_config(f"{name}.ini", slew=slew), "ratc",
                 duration_override=40.0)
    if name == "corner90":
        k = next(k for k, (_, (_, memory, _)) in enumerate(calls)
                 if memory.guidance.chi_cmd != memory.guidance.chi_cmd_raw)
    else:
        k = len(calls) // 2
    args, result = calls[k]
    manager, controller, state, memory, wind = args
    if name == "circle":
        assert memory.guidance.orbit_angle > 1.0
    before = copy.deepcopy((vars(manager), vars(controller), *args[2:]))

    assert step(*args) == step(*args) == result
    assert (vars(manager), vars(controller), *args[2:]) == before
    hash(memory)        # no mutable field, however deep
    hash(result[1])


def test_a_faulting_step_keeps_its_row(monkeypatch, make_cfg):
    # The step that faults is logged and counted: the row is stored before
    # the dynamics integrate it.
    integrate = levelwing.scenario.integrate_step
    calls = []

    def faulty(state, *args):
        calls.append(state)
        if len(calls) == 5:
            raise SingularityError("pitch at the limit", state=state)
        return integrate(state, *args)

    monkeypatch.setattr(levelwing.scenario, "integrate_step", faulty)
    result = run_scenario(make_cfg(straight_plan()), "ratc")
    assert result.steps == 5 and not result.completed
    assert result.fault == "dynamics: pitch at the limit at t = 0.04 s"
    assert all(arr.size == 5 for arr in result.log.values())
    assert result.log["pn"][-1] == calls[-1].pn
    assert result.log["t"].tolist() == [k * 0.01 for k in range(5)]


def test_zero_duration_run_is_empty_but_valid(make_cfg):
    result = run_scenario(make_cfg(straight_plan()), "ratc",
                          duration_override=0.0)
    assert result.steps == 0
    assert not result.completed
    assert result.fault is None
    assert result.stats is None
    assert all(arr.size == 0 for arr in result.log.values())


@pytest.mark.parametrize("warm_steps", [0, 1, 2])
def test_statistics_need_two_warm_steps(capsys, warm_steps):
    # One rule for every statistic, mean |roll| and |beta| included: with
    # fewer than 2 steps after the warmup there is no record, the table
    # reads nan, no ratio is formed and simulate prints no statistic.
    cfg = load_config("rectangle_compare.ini")
    duration = cfg.warmup + warm_steps * cfg.dt
    comp = compare_controllers(cfg, duration_override=duration)
    for run in (comp.aotc, comp.ratc):
        assert np.count_nonzero(run.log["t"] >= cfg.warmup) == warm_steps
        row = [getattr(run.summary_row(), name)
               for name in SUMMARY_COLUMNS[2:]]
        if warm_steps < 2:
            assert run.stats is None
            assert all(math.isnan(value) for value in row)
        else:
            assert tuple(run.stats.image_by_href) == TABLE_H_REFS
            assert run.stats.lateral.count == 2
            assert not any(math.isnan(value) for value in row)
    means = [comp.ratios[f"mean_abs_{angle}_{mode}_deg"]
             for angle in ("roll", "beta") for mode in ("aotc", "ratc")]
    if warm_steps < 2:
        assert all(math.isnan(value) for value in means)
        assert len(comp.ratios) == 4
    else:
        assert not any(math.isnan(value) for value in means)
        assert comp.ratios["mean_abs_roll_ratc_over_aotc"] == (
            comp.ratc.stats.abs_roll_mean_deg
            / comp.aotc.stats.abs_roll_mean_deg)
    assert cli_main(["simulate", "--config", "rectangle_compare.ini",
                     "--duration", repr(duration)]) == 0
    statistics = [line for line in capsys.readouterr().out.splitlines()
                  if ": mean " in line]
    assert len(statistics) == (0 if warm_steps < 2 else 5)


def test_negative_duration_rejected(make_cfg):
    with pytest.raises(ConfigError):
        run_scenario(make_cfg(straight_plan()), "ratc", duration_override=-1.0)


@pytest.mark.parametrize("cap", [1e300, 1e308])
def test_unloggable_duration_cap_is_a_config_error(make_cfg, cap):
    # 1e308 s is an infinite step count, and 1e300 s more steps than numpy
    # can shape into an array; neither allocates a log.
    cfg = make_cfg(straight_plan())
    named = re.escape(f"duration cap {cap:g} s at dt 0.01 s has too many "
                      "steps to log")
    with pytest.raises(ConfigError, match=named):
        run_scenario(cfg, "ratc", duration_override=cap)
    with pytest.raises(ConfigError, match=named):
        run_scenario(replace(cfg, duration=cap), "ratc")


def test_trim_airspeed_whose_square_overflows_is_a_trim_failure(make_cfg):
    with pytest.raises(TrimFailureError,
                       match=r"trim at 1e\+160 m/s overflows"):
        run_scenario(make_cfg(straight_plan(), va_cmd=1e160), "ratc")


def test_unknown_mode_rejected(make_cfg):
    with pytest.raises(ConfigError, match="controller mode must be aotc or "
                                          "ratc, got 'hybrid'"):
        run_scenario(make_cfg(straight_plan()), mode="hybrid")
    # The law is every run's argument: the library holds no default.
    mode = inspect.signature(run_scenario).parameters["mode"]
    assert mode.default is inspect.Parameter.empty


@pytest.mark.parametrize("wind", [{"wind_n": 1e200}, {"wind_d": -1e200},
                                  {"gust_intensity": 1e200}])
def test_an_overflow_outside_the_integrator_is_a_dynamics_fault(make_cfg,
                                                                wind):
    # A wind or gust of 1e200 m/s overflows the air data of the first
    # step, before the integrator; the run ends in a fault with no row.
    cfg = make_cfg(straight_plan())
    cfg = replace(cfg, env=replace(cfg.env, **wind))
    for mode in ("aotc", "ratc"):
        result = run_scenario(cfg, mode, duration_override=1.0)
        assert (result.steps, result.completed, result.stats) == (0, False,
                                                                  None)
        assert result.fault == (
            "dynamics: overflow in closed-loop step: (34, 'Numerical result "
            "out of range') at t = 0.00 s")
    with pytest.raises(DynamicsFaultError, match="comparison aborted: aotc "
                                                 "run failed"):
        compare_controllers(cfg, duration_override=1.0)


@pytest.mark.parametrize("changes", [
    {"seed": -1}, {"dt": math.inf}, {"dt": math.nan},
], ids=["seed=-1", "dt=inf", "dt=nan"])
def test_run_validates_the_config(changes):
    # A config built or edited through the API gets the same boundary
    # checks as one loaded from a file.
    cfg = load_config("rectangle_compare.ini")
    with pytest.raises(ConfigError):
        run_scenario(replace(cfg, **changes), "ratc", duration_override=1.0)


def test_time_base_and_step_cap(make_cfg):
    cfg = make_cfg(straight_plan(), duration=8.0)
    result = run_scenario(cfg, "ratc")
    assert result.steps == 800      # no completion inside 8 s
    assert np.array_equal(result.log["t"], np.arange(800) * cfg.dt)


def gusty_cfg(make_cfg, seed=5):
    env = EnvironmentSettings(wind_n=1.0, wind_e=2.0, gust_intensity=0.5,
                              gust_tau=2.0)
    return make_cfg(straight_plan(), duration=8.0, env=env, seed=seed)


def test_gusty_run_is_deterministic_and_csv_identical(make_cfg, tmp_path):
    cfg = gusty_cfg(make_cfg)
    paths = []
    for tag in ("a", "b"):
        result = run_scenario(cfg, "ratc")
        p = tmp_path / f"{tag}.csv"
        export_csv(result, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_gust_seed_override_changes_trajectory(make_cfg):
    cfg = gusty_cfg(make_cfg)
    base = run_scenario(cfg, "ratc")
    other = run_scenario(replace(cfg, seed=6), "ratc")
    assert not np.array_equal(base.log["pe"], other.log["pe"])
    assert not all(np.array_equal(base.log[k], other.log[k])
                   for k in ("wind_n", "wind_e", "wind_d"))


def test_wind_logged_in_memory_but_not_in_csv(make_cfg):
    result = run_scenario(gusty_cfg(make_cfg), "ratc")
    for key in ("wind_n", "wind_e", "wind_d"):
        assert result.log[key].shape == (result.steps,)
    assert np.std(result.log["wind_e"]) > 0.0    # gusts actually active
    assert not any("wind" in c for c in CSV_COLUMNS)


def test_csv_layout_and_round_trip(make_cfg, tmp_path):
    cfg = gusty_cfg(make_cfg)
    result = run_scenario(cfg, "ratc")
    path = tmp_path / "run.csv"
    export_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == result.steps + 1
    table = np.genfromtxt(path, delimiter=",", names=True)
    # Every column reconstructs from the logged values to within the 12
    # significant digits written; angles cross the boundary in degrees.
    log = result.log
    tan_phi = np.tan(log["phi"])
    expected = {
        "Va": log["va"],
        "e_lateral_m": log["e_lateral"],
        "e_total_150_m": log["e_lateral"] + 150.0 * tan_phi,
        "e_total_450_m": log["e_lateral"] + 450.0 * tan_phi,
    }
    for name in CSV_COLUMNS:
        if name not in expected:
            expected[name] = (np.degrees(log[name[:-4]])
                              if name.endswith("_deg") else log[name])
    assert len(expected) == len(CSV_COLUMNS) == 26
    for name, values in expected.items():
        assert np.allclose(table[name], values, rtol=1e-9, atol=1e-12), name
    e450 = table["e_lateral_m"] + 450.0 * np.tan(np.radians(
        table["phi_deg"]))
    assert np.allclose(table["e_total_450_m"], e450, rtol=1e-6, atol=1e-6)
    assert np.allclose(table["t"], result.log["t"], rtol=0.0, atol=1e-12)


def test_csv_three_step_run_has_header_plus_three_rows(make_cfg, tmp_path):
    result = run_scenario(gusty_cfg(make_cfg), "ratc", duration_override=0.03)
    path = tmp_path / "three.csv"
    export_csv(result, path)
    assert len(path.read_text().splitlines()) == 4


def test_csv_empty_run_is_header_only(make_cfg, tmp_path):
    result = run_scenario(gusty_cfg(make_cfg), "ratc", duration_override=0.0)
    path = tmp_path / "empty.csv"
    export_csv(result, path)
    assert path.read_text().splitlines() == [",".join(CSV_COLUMNS)]


def test_sharp_rectangle_produces_four_command_jumps(make_cfg):
    # Fillets off: each flown 90 deg corner is a course-command
    # discontinuity. The repeated first leg makes exactly 4 corners.
    cfg = make_cfg(rectangle_plan(fillet=0.0), duration=150.0)
    result = run_scenario(cfg, mode="ratc")
    steps = np.abs(wrap(np.diff(result.log["chi_cmd_raw"])))
    jumps = steps[steps > math.radians(30.0)]
    assert jumps.size == 4
    assert np.all(np.abs(np.degrees(jumps) - 90.0) < 15.0)


@pytest.mark.parametrize("mode", ["ratc", "aotc"])
def test_slew_on_moves_each_command_at_most_its_rate(mode):
    # corner90 with the limiter on, through its 90 deg corner: a raw
    # command within rate*dt of the last command is issued whole, any
    # other moves the command rate*dt toward it, and the corner engages it.
    cfg = load_config("corner90.ini", slew=True)
    result = run_scenario(cfg, mode)
    assert result.completed and result.fault is None
    limit = cfg.ctrl.guidance.slew_rate * cfg.dt
    cmd, raw = result.log["chi_cmd"], result.log["chi_cmd_raw"]
    assert cmd[0] == raw[0]
    asked = np.abs(wrap(raw[1:] - cmd[:-1]))
    moved = np.abs(wrap(np.diff(cmd)))
    within = asked <= limit * (1.0 - 1e-9)
    assert np.array_equal(cmd[1:][within], raw[1:][within])
    assert np.all(moved <= limit * (1.0 + 1e-9))
    assert np.allclose(moved[asked > limit * (1.0 + 1e-9)], limit, rtol=1e-9)
    assert np.max(asked) > math.radians(30.0)


def test_log_arrays_take_their_columns_dtype(make_cfg):
    # Each log array, in memory and in the CSV's number format, has the
    # dtype that its LogColumn states: segment_id is the one integer.
    result = run_scenario(make_cfg(straight_plan()), "ratc",
                          duration_override=0.05)
    assert set(result.log) == {c.name for c in LOG_COLUMNS}
    for c in LOG_COLUMNS:
        assert result.log[c.name].dtype == np.dtype(c.dtype), c.name
    assert [c.name for c in LOG_COLUMNS if c.dtype is not float] == [
        "segment_id"]


def test_filleted_rectangle_commands_stay_continuous(rect_comparison):
    # With fillets the tight tracker sees no corner-sized command steps;
    # the wider-tracking aileron-only run may jump by its capture
    # correction at a segment handoff, but never by a full corner.
    comp, _ = rect_comparison
    ratc_steps = np.abs(wrap(np.diff(comp.ratc.log["chi_cmd_raw"])))
    assert np.max(ratc_steps) < math.radians(15.0)
    aotc_steps = np.abs(wrap(np.diff(comp.aotc.log["chi_cmd_raw"])))
    assert np.max(aotc_steps) < math.radians(50.0)


def test_comparison_rows_and_table(rect_comparison):
    comp, _ = rect_comparison
    assert [r.controller for r in comp.rows] == ["aotc", "ratc"]
    assert comp.aotc.steps > 0 and comp.ratc.steps > 0
    for key in ("rms_450_ratc_over_aotc", "mean_abs_roll_ratc_over_aotc",
                "mean_abs_beta_aotc_deg", "mean_abs_beta_ratc_deg"):
        assert key in comp.ratios
        assert math.isfinite(comp.ratios[key])
    assert "aotc" in comp.table_text and "ratc" in comp.table_text


def test_comparison_reports_measured_zero_not_nan(make_cfg):
    # Calm air along a north-pointing leg: neither run rolls or slips, and
    # an exact 0.0 is a measurement, not a missing value.
    comp = compare_controllers(make_cfg(straight_plan(), duration=30.0))
    for key in ("mean_abs_roll_aotc_deg", "mean_abs_roll_ratc_deg",
                "mean_abs_beta_aotc_deg", "mean_abs_beta_ratc_deg"):
        assert comp.ratios[key] == 0.0
    assert "mean_abs_roll_ratc_over_aotc" not in comp.ratios


@pytest.mark.parametrize("mode", ["aotc", "ratc"])
def test_mirrored_rectangle_mirrors_the_run(rect_comparison, mode):
    # Reflecting the plan and the wind across the north axis reflects the
    # whole closed loop: the airframe is laterally symmetric.
    comp, _ = rect_comparison
    base = getattr(comp, mode)
    cfg = load_config("rectangle_compare.ini")
    plan = replace(cfg.plan,
                   waypoints=[(n, -e) for n, e in cfg.plan.waypoints])
    env = replace(cfg.env, wind_e=-cfg.env.wind_e)
    mirror = run_scenario(replace(cfg, plan=plan, env=env), mode)
    assert mirror.steps == base.steps
    assert mirror.completed == base.completed
    a, b = base.log, mirror.log
    for key in ("pn", "theta"):
        assert np.allclose(b[key], a[key], rtol=0.0, atol=1e-9), key
    for key in ("pe", "phi", "e_lateral", "delta_a", "delta_r"):
        assert np.allclose(b[key], -a[key], rtol=0.0, atol=1e-9), key
    for key in ("psi", "chi_cmd"):
        assert np.max(np.abs(wrap(b[key] + a[key]))) < 1e-9, key


def test_rectangle_comparison_converges_in_dt(rect_comparison):
    # Closed-loop dt convergence: halving the step from 0.02 s to 0.01 s
    # and to 0.005 s moves the headline ratio and each rms_450 less and
    # less, and by little.
    cfg = load_config("rectangle_compare.ini")
    comps = {0.02: compare_controllers(replace(cfg, dt=0.02)),
             0.01: rect_comparison[0],
             0.005: compare_controllers(replace(cfg, dt=0.005))}
    ratio = {dt: c.ratios["rms_450_ratc_over_aotc"] for dt, c in comps.items()}
    assert max(ratio.values()) - min(ratio.values()) <= 1e-3
    assert abs(ratio[0.005] - ratio[0.01]) < abs(ratio[0.01] - ratio[0.02])
    for mode in ("aotc", "ratc"):
        rms = [getattr(c, mode).stats.image_by_href[450.0].rms
               for c in comps.values()]
        assert max(rms) - min(rms) <= 0.005 * min(rms)


def test_comparison_report_files(tmp_path):
    cfg = load_config("rectangle_compare.ini")
    comp = compare_controllers(cfg, duration_override=8.0)
    paths = write_comparison(comp, tmp_path / "report")
    for key in ("aotc_csv", "ratc_csv", "summary_txt", "summary_csv"):
        assert paths[key].is_file()
    summary = paths["summary_txt"].read_text()
    assert "rms_450_ratc_over_aotc" in summary
    csv_lines = paths["summary_csv"].read_text().splitlines()
    assert len(csv_lines) == 3
    assert csv_lines[1].split(",")[1] == "aotc"
    assert csv_lines[2].split(",")[1] == "ratc"


@pytest.mark.parametrize("name, duration", [
    ("rectangle_compare.ini", 20.0),
    ("figure_eight.ini", 20.0),  # gusty: the child draws the same stream
])
def test_parallel_compare_equals_two_serial_runs(name, duration, capfd):
    cfg = load_config(name)
    comp = compare_controllers(cfg, duration_override=duration)
    serial = [run_scenario(cfg, mode, duration_override=duration)
              for mode in ("aotc", "ratc")]
    for got, want in zip((comp.aotc, comp.ratc), serial):
        assert list(got.log) == list(want.log)
        for key, arr in want.log.items():
            assert got.log[key].dtype == arr.dtype, key
            assert np.array_equal(got.log[key], arr), key
        assert (got.steps, got.completed, got.fault) == (
            want.steps, want.completed, want.fault)
    assert comp.rows == [run.summary_row() for run in serial]
    a450, r450 = (run.stats.image_by_href[450.0] for run in serial)
    assert comp.ratios["rms_450_ratc_over_aotc"] == r450.rms / a450.rms
    assert (comp.ratios["mean_abs_roll_aotc_deg"]
            == serial[0].stats.abs_roll_mean_deg)
    assert (comp.ratios["mean_abs_beta_ratc_deg"]
            == serial[1].stats.abs_beta_mean_deg)
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


class RecordingConnection:
    """Stands in for the child's end of the pipe."""

    def __init__(self):
        self.sent = []
        self.closed = False

    def send(self, obj):
        self.sent.append(obj)

    def close(self):
        self.closed = True


def test_child_sends_the_log_a_column_at_a_time(make_cfg, tmp_path):
    # One whole-result pickle raised the caller's peak RSS by 19-32% on
    # rectangle_compare, so the head carries no arrays and each column
    # follows on its own.
    cfg = make_cfg(rectangle_plan(40.0), duration=5.0)
    conn = RecordingConnection()
    _call_and_send(conn, "run_scenario", cfg, "aotc", None)
    head, *columns = conn.sent
    assert isinstance(head, RunResult)
    assert head.log == dict.fromkeys(c.name for c in LOG_COLUMNS)
    assert len(columns) == len(LOG_COLUMNS)
    want = run_scenario(cfg, "aotc")
    for column, arr in zip(LOG_COLUMNS, columns):
        assert isinstance(arr, np.ndarray), column.name
        assert arr.dtype == want.log[column.name].dtype == column.dtype, (
            column.name)
        assert np.array_equal(arr, want.log[column.name]), column.name
    assert conn.closed
    # Any other value, such as the export's None, is one message.
    conn = RecordingConnection()
    _call_and_send(conn, "export_csv", want, tmp_path / "aotc.csv")
    assert conn.sent == [None]
    assert conn.closed
    assert (tmp_path / "aotc.csv").stat().st_size > 0


@needs_fork
def test_aotc_error_reaches_the_caller_intact(aotc_trim_failure, make_cfg):
    with pytest.raises(TrimFailureError) as info:
        compare_controllers(make_cfg(straight_plan()), duration_override=1.0)
    assert type(info.value) is TrimFailureError
    assert info.value.category == "trim"
    assert str(info.value) == "trim did not converge"
    assert info.value.residual == 0.25
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def short_comparison():
    return compare_controllers(load_config("rectangle_compare.ini"),
                               duration_override=6.0)


def test_report_files_equal_a_serial_export(short_comparison, tmp_path,
                                            capfd):
    # aotc.csv comes from the child, the other three from the caller.
    comp = short_comparison
    paths = write_comparison(comp, tmp_path / "report")
    export_csv(comp.aotc, tmp_path / "aotc.csv")
    export_csv(comp.ratc, tmp_path / "ratc.csv")
    assert paths["aotc_csv"].read_bytes() == \
        (tmp_path / "aotc.csv").read_bytes()
    assert paths["ratc_csv"].read_bytes() == \
        (tmp_path / "ratc.csv").read_bytes()
    assert paths["summary_txt"].read_text(encoding="utf-8") == \
        comp.table_text + "\n"
    assert paths["summary_csv"].read_text(encoding="utf-8") == \
        "\n".join(summary_csv_lines(comp.rows)) + "\n"
    assert sorted(path.name for path in (tmp_path / "report").iterdir()) \
        == ["aotc.csv", "ratc.csv", "summary.csv", "summary.txt"]
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


# Wraps run_scenario and export_csv in local closures, as the benchmark's
# tracer does, then runs a comparison and its report under the start method
# its second argument names. A local closure cannot be pickled, so this
# fails if a child is handed the function rather than its name.
START_METHOD_SCRIPT = """\
import multiprocessing
import sys

import levelwing.scenario as scenario
from levelwing.config import load_config


def wrapped(real):
    def call(*args, **kwargs):
        return real(*args, **kwargs)
    return call


if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[2])
    scenario.run_scenario = wrapped(scenario.run_scenario)
    scenario.export_csv = wrapped(scenario.export_csv)
    comp = scenario.compare_controllers(load_config("rectangle_compare.ini"),
                                        duration_override=10.0)
    scenario.write_comparison(comp, sys.argv[1])
"""


# Spawn is the default on macOS and Windows, forkserver on Linux from
# Python 3.14.
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_compare_and_report_work_under_start_method(tmp_path, method):
    script = tmp_path / "start_method_compare.py"
    script.write_text(START_METHOD_SCRIPT, encoding="utf-8")
    src = str(Path(levelwing.scenario.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(script), str(tmp_path / method), method],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    comp = compare_controllers(load_config("rectangle_compare.ini"),
                               duration_override=10.0)
    paths = write_comparison(comp, tmp_path / "here")
    for path in paths.values():
        assert (tmp_path / method / path.name).read_bytes() == \
            path.read_bytes(), path.name


def test_child_export_error_reaches_the_caller(short_comparison, tmp_path,
                                               capfd):
    out = tmp_path / "report"
    (out / "aotc.csv").mkdir(parents=True)
    with pytest.raises(OSError) as info:
        write_comparison(short_comparison, out)
    assert type(info.value) is IsADirectoryError
    assert info.value.filename == str(out / "aotc.csv")
    assert (out / "ratc.csv").is_file()
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


def test_compare_exits_5_when_the_child_cannot_write(tmp_path, capsys):
    (tmp_path / "aotc.csv").mkdir()
    code = cli_main(["compare", "--config", "rectangle_compare.ini",
                     "--duration", "2", "--out-dir", str(tmp_path)])
    assert code == 5
    assert "error[io]" in capsys.readouterr().err


# The two children of a comparison, by name: the function of
# levelwing.scenario that the child calls, the controller that a call to
# it serves, the caller's call that starts the child, and the error that
# stands for a failure in the caller.
CHILDREN = {
    "aotc run": (
        "run_scenario",
        lambda cfg, mode, duration_override=None: mode,
        lambda make_cfg, comp, out: compare_controllers(
            make_cfg(straight_plan()), duration_override=1.0),
        UncontrollablePlantError("no rudder authority")),
    "aotc.csv export": (
        "export_csv",
        lambda result, path: result.mode,
        lambda make_cfg, comp, out: write_comparison(comp, out),
        OSError("disk full")),
}


@needs_fork
@pytest.mark.parametrize("child", CHILDREN)
def test_child_is_stopped_when_the_caller_raises(
        monkeypatch, make_cfg, short_comparison, tmp_path, capfd, child):
    target, mode_of, start, error = CHILDREN[child]
    real = getattr(levelwing.scenario, target)

    def slow_aotc_failing_ratc(*args, **kwargs):
        if mode_of(*args, **kwargs) == "ratc":
            raise error
        time.sleep(60.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(levelwing.scenario, target, slow_aotc_failing_ratc)
    t0 = time.perf_counter()
    with pytest.raises(type(error), match=str(error)):
        start(make_cfg, short_comparison, tmp_path)
    assert time.perf_counter() - t0 < 10.0
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


@needs_fork
@pytest.mark.parametrize("child", CHILDREN)
def test_child_that_dies_without_a_result_is_an_error(
        monkeypatch, make_cfg, short_comparison, tmp_path, child):
    target, mode_of, start, _ = CHILDREN[child]
    real = getattr(levelwing.scenario, target)

    def dying_aotc(*args, **kwargs):
        if mode_of(*args, **kwargs) == "aotc":
            os._exit(7)
        return real(*args, **kwargs)

    monkeypatch.setattr(levelwing.scenario, target, dying_aotc)
    with pytest.raises(SimulatorError,
                       match=re.escape(f"{child}'s process ended without a "
                                       f"result (exit code 7)")):
        start(make_cfg, short_comparison, tmp_path)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("mode", ["aotc", "ratc"])
def test_figure_eight_completes_with_ordered_segments(mode):
    cfg = load_config("figure_eight.ini")
    result = run_scenario(cfg, mode=mode)
    assert result.completed and result.fault is None
    ids = result.log["segment_id"]
    assert np.all(np.diff(ids) >= 0)
    # The crossover point is visited twice; the manager must still march
    # straight through to the final segment without skipping back.
    assert ids[-1] == len(cfg.plan.segments) - 1


def test_beta_estimate_matches_kinematic_sideslip_when_calm(circle_run):
    # In calm air the course/heading split equals asin(v/Va). Compare on
    # the loiter once the transient has died out (wings held level).
    result, _ = circle_run
    log = result.log
    sel = log["t"] >= 20.0
    kinematic = np.arcsin(log["v"][sel] / log["va"][sel])
    diff_deg = np.degrees(np.abs(log["beta_est"][sel] - kinematic))
    assert np.mean(diff_deg) < 0.5


def test_circle_run_holds_altitude_and_airspeed(circle_run):
    # Judge the holds on the steady orbit; the capture transient (large
    # crab builds up through ~t=15 s) briefly costs ~1 m/s of airspeed.
    result, _ = circle_run
    warm = result.log["t"] >= 5.0
    steady = result.log["t"] >= 20.0
    assert np.max(np.abs(-result.log["pd"][warm] - 150.0)) < 5.0
    assert np.max(np.abs(result.log["va"][steady] - 20.0)) < 1.0
