"""Scenario runner: closed-loop simulation, controller comparison, CSV export.

One run trims the aircraft, places it at the plan start, and steps
guidance, control, and dynamics at the same fixed rate until the plan
completes or the duration cap is reached. A step is one pure function,
closed_loop_step, of the state, the loop's memory and the step's wind;
the gust model, which owns the random stream, is the one stateful part
of the loop. Comparisons run both lateral controllers against one shared
environment realization (same seed, same gust draws) with identical
guidance gains, so only the lateral law differs. The two runs of a
comparison share nothing else, so they fly at once: aotc in a child
process, ratc in the caller; their report writes the two logs at once
the same way. Both children go through one helper, _in_child, which
calls this module's function of a given name in the child and hands the
caller its value or its exception.
"""

from __future__ import annotations

import math
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ScenarioConfig
from .control import (
    aotc_step,
    apply_rate_limits,
    longitudinal_holds,
    make_gain_schedule,
    ratc_step,
)
from .dynamics import (
    AircraftState,
    Airframe,
    AirData,
    ControlCommand,
    Environment,
    GustModel,
    air_data,
    integrate_step,
    make_airframe,
    trim,
)
from .errors import ConfigError, DynamicsFaultError, SimulatorError
from .guidance import CourseCommand, PathManager
from .metrics import (
    SUMMARY_COLUMNS,
    TABLE_H_REFS,
    RunStats,
    SummaryRow,
    beta_estimate,
    render_summary_table,
    series_stats,
    summary_csv_lines,
    total_image_error,
)


class LogColumn(NamedTuple):
    """One per-step log field. A step's log row holds the fields after
    the first, t, in order; run_scenario fills t from the step count.

    in_csv False keeps the field in memory only. degrees writes a radian
    field to the CSV in degrees, headed name + "_deg" unless csv_name
    gives the header. dtype is the type of the field's log array.
    """

    name: str
    in_csv: bool = True
    degrees: bool = False
    csv_name: str | None = None
    dtype: type = float


LOG_COLUMNS = (
    LogColumn("t"), LogColumn("pn"), LogColumn("pe"), LogColumn("pd"),
    LogColumn("u"), LogColumn("v"), LogColumn("w"),
    LogColumn("phi", degrees=True), LogColumn("theta", degrees=True),
    LogColumn("psi", degrees=True),
    LogColumn("p"), LogColumn("q"), LogColumn("r"),
    LogColumn("delta_a", degrees=True), LogColumn("delta_e", degrees=True),
    LogColumn("delta_r", degrees=True), LogColumn("delta_t"),
    LogColumn("va", csv_name="Va"), LogColumn("beta_est", degrees=True),
    LogColumn("chi", degrees=True), LogColumn("chi_cmd", degrees=True),
    LogColumn("chi_cmd_raw", degrees=True),
    LogColumn("segment_id", dtype=int),
    LogColumn("e_lateral", csv_name="e_lateral_m"),
    LogColumn("wind_n", in_csv=False), LogColumn("wind_e", in_csv=False),
    LogColumn("wind_d", in_csv=False),
)

# The log columns that the CSV holds, in order. The CSV ends with the
# image error at each fixed table altitude.
_CSV_LOG_COLUMNS = tuple(c for c in LOG_COLUMNS if c.in_csv)
CSV_COLUMNS = tuple(
    c.csv_name or (c.name + "_deg" if c.degrees else c.name)
    for c in _CSV_LOG_COLUMNS
) + tuple(f"e_total_{h:.0f}_m" for h in TABLE_H_REFS)

# Step rows run_scenario gathers before it stores them, a slice per log
# column. At 256 rows gust_sweep's peak RSS grew 19-22% over per-step stores.
_LOG_BLOCK_ROWS = 32

# Rows that export_csv converts to Python floats at once. Peak memory
# grows with the block (about 1 MB more at 512 rows on rectangle_compare),
# while the write time is flat from 32 rows up.
_CSV_BLOCK_ROWS = 32


class LoopMemory(NamedTuple):
    """What one closed-loop step hands the next: the guidance memory, the
    four control integrators and the previous actuator command.
    LoopMemory() is the memory before the first step."""

    guidance: CourseCommand = CourseCommand()
    course_int: float = 0.0
    roll_int: float = 0.0
    alt_int: float = 0.0
    va_int: float = 0.0
    command: ControlCommand | None = None


class FlightController:
    """Full autopilot for one run: one lateral law plus the longitudinal
    holds, gain-scheduled on the current airspeed. It holds only the
    run's constants; the integrators come with each step's memory."""

    def __init__(self, mode: str, cfg: ScenarioConfig, airframe: Airframe,
                 trim_state: AircraftState, trim_cmd: ControlCommand):
        self.schedule = make_gain_schedule(mode, airframe, cfg.ctrl)
        # Looked up here, not at import, so a wrapper put on the law is called.
        self.law = ratc_step if mode == "ratc" else aotc_step
        self.ctrl = cfg.ctrl
        self.params = airframe.params
        self.dt = cfg.dt
        self.trim_theta = trim_state.theta
        self.trim_cmd = trim_cmd
        self.h_cmd = cfg.plan.nominal_agl
        self.va_cmd = cfg.va_cmd

    def step(self, chi_cmd: float, state: AircraftState, airdata: AirData,
             memory: LoopMemory) -> tuple[ControlCommand, float, float,
                                          float, float]:
        """The step's command and the four new integrators."""
        _, course_int, roll_int, alt_int, va_int, prev = memory
        params, dt, ctrl = self.params, self.dt, self.ctrl
        gains = self.schedule(airdata.va, airdata.vg)
        delta_a, delta_r, course_int, roll_int = self.law(
            chi_cmd, state, airdata, gains, course_int, roll_int, dt, params,
            ctrl)
        delta_e, delta_t, alt_int, va_int = longitudinal_holds(
            state, airdata, self.h_cmd, self.va_cmd, gains, alt_int, va_int,
            dt, self.trim_theta, self.trim_cmd, params, ctrl)
        cmd = apply_rate_limits(delta_a, delta_e, delta_r, delta_t, prev,
                                params, dt)
        return cmd, course_int, roll_int, alt_int, va_int


def closed_loop_step(manager: PathManager, controller: FlightController,
                     state: AircraftState, memory: LoopMemory,
                     wind: Environment) -> tuple[ControlCommand, LoopMemory,
                                                 tuple]:
    """Air data, guidance and control of one step in the step's total
    wind: (command, next memory, log row); no input is changed. The caller
    integrates after it stores the row, so a faulting step's row is kept.
    """
    airdata = air_data(state, wind)
    course = manager.step(memory.guidance, state)
    cmd, course_int, roll_int, alt_int, va_int = controller.step(
        course.chi_cmd, state, airdata, memory)
    row = (  # in LOG_COLUMNS order, t left out
        *state, *cmd, airdata.va, beta_estimate(airdata.chi, state.psi),
        airdata.chi, course.chi_cmd, course.chi_cmd_raw, course.segment_id,
        course.e_lateral, *wind,
    )
    return (cmd, LoopMemory(course, course_int, roll_int, alt_int, va_int,
                            cmd), row)


@dataclass
class RunResult:
    """Log, outcome and statistics of one closed-loop run. stats needs at
    least 2 steps after the warmup; with fewer it is None, and every
    statistic, mean |roll| and mean |beta| included, is absent."""

    mode: str
    scenario: str
    dt: float
    log: dict[str, np.ndarray]
    steps: int
    completed: bool
    fault: str | None
    stats: RunStats | None

    def summary_row(self) -> SummaryRow:
        s = self.stats
        if s is None:
            return SummaryRow(self.scenario, self.mode,
                              *[math.nan] * (len(SUMMARY_COLUMNS) - 2))
        at150, at450 = s.image_by_href[150.0], s.image_by_href[450.0]
        return SummaryRow(          # in SummaryRow field order
            self.scenario, self.mode, at150.mean, at150.std, at450.mean,
            at450.std, at450.rms, s.lateral.mean, s.lateral.std,
            s.roll_deg.mean, s.roll_deg.std, s.beta_deg.mean, s.beta_deg.std)


def run_scenario(
    cfg: ScenarioConfig,
    mode: str,
    duration_override: float | None = None,
) -> RunResult:
    """Run one closed-loop scenario flown by the lateral law mode, "aotc"
    or "ratc", and return its log and statistics.

    A zero duration override yields an empty but valid result flagged
    incomplete. Dynamics faults (singularity, non-finite state, an
    overflow anywhere in a step, wind and gusts included) truncate the
    log and are reported in the fault field instead of raising.
    """
    duration = cfg.duration if duration_override is None else duration_override
    if not math.isfinite(duration) or duration < 0.0:
        raise ConfigError(f"duration cap must be finite and >= 0, got "
                          f"{duration}")
    dt = cfg.dt

    airframe = make_airframe(cfg.params)
    trim_state, trim_cmd = trim(airframe, cfg.va_cmd)
    # The trim state moved to the plan start, heading along its first leg.
    pn, pe, pd = cfg.plan.start_position()
    state = trim_state._replace(pn=pn, pe=pe, pd=pd,
                                psi=cfg.plan.initial_course())

    wind_n, wind_e, wind_d = cfg.env.wind_n, cfg.env.wind_e, cfg.env.wind_d
    manager = PathManager(cfg.plan, cfg.ctrl.guidance, dt)
    controller = FlightController(mode, cfg, airframe, trim_state, trim_cmd)
    gust = GustModel(cfg.env.gust_intensity, cfg.env.gust_tau, dt, cfg.seed)

    # One array per field: a single (fields, n_cap) buffer passes 4 MiB on
    # long runs, where numpy asks for huge pages and the unused tail of the
    # buffer becomes resident.
    try:
        n_cap = int(round(duration / dt))
        log = {c.name: np.zeros(n_cap, dtype=c.dtype)
               for c in LOG_COLUMNS[1:]}
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ConfigError(f"duration cap {duration:g} s at dt {dt:g} s has "
                          f"too many steps to log: {exc}") from exc
    series = tuple(log.values())

    steps = 0
    fault: str | None = None
    memory = LoopMemory()
    rows: list[tuple] = []
    for k in range(n_cap):
        if len(rows) == _LOG_BLOCK_ROWS:
            _store_rows(series, rows, k)
        try:
            gust_n, gust_e, gust_d = gust.step()
            wind = Environment(wind_n + gust_n, wind_e + gust_e,
                               wind_d + gust_d)
            cmd, memory, row = closed_loop_step(manager, controller, state,
                                                memory, wind)
            rows.append(row)
            steps = k + 1
            state = integrate_step(state, cmd, wind, airframe, dt)
        except OverflowError as exc:
            # In the air data, guidance or control: integrate_step maps
            # an overflow of its own to a DynamicsFaultError.
            fault = (f"{DynamicsFaultError.category}: overflow in closed-loop "
                     f"step: {exc} at t = {k * dt:.2f} s")
            break
        except DynamicsFaultError as exc:
            fault = f"{exc.category}: {exc} at t = {k * dt:.2f} s"
            break
        if memory.guidance.complete:
            break
    _store_rows(series, rows, steps)

    t = np.arange(steps, dtype=float)
    t *= dt     # in place: k * dt for each step k, without a second array
    log = {"t": t, **{key: arr[:steps] for key, arr in log.items()}}
    completed = memory.guidance.complete and fault is None

    first = int(np.searchsorted(log["t"], cfg.warmup))  # t rises: a tail
    phi_w = log["phi"][first:]
    stats = None
    if phi_w.size >= 2:
        lat_w = log["e_lateral"][first:]
        # Taken before the degree series: one fewer array live at the peak.
        image = {h: series_stats(total_image_error(lat_w, phi_w, h))
                 for h in TABLE_H_REFS}
        roll_w, beta_w = np.degrees(phi_w), np.degrees(log["beta_est"][first:])
        stats = RunStats(image, series_stats(lat_w), series_stats(roll_w),
                         series_stats(beta_w), float(np.mean(np.abs(roll_w))),
                         float(np.mean(np.abs(beta_w))))

    return RunResult(mode=mode, scenario=cfg.name, dt=dt, log=log,
                     steps=steps, completed=completed, fault=fault,
                     stats=stats)


def _store_rows(series: tuple[np.ndarray, ...], rows: list[tuple],
                end: int) -> None:
    """Store the rows of the steps before step end in the log; empty rows."""
    start = end - len(rows)
    for arr, column in zip(series, zip(*rows)):
        arr[start:end] = column
    rows.clear()


@dataclass
class ComparisonResult:
    """Paired runs of both controllers over one shared environment."""

    aotc: RunResult
    ratc: RunResult
    rows: list[SummaryRow]
    ratios: dict[str, float]
    table_text: str


def compare_controllers(
    cfg: ScenarioConfig,
    duration_override: float | None = None,
) -> ComparisonResult:
    """Run both lateral controllers over the identical scenario and wind.

    aotc flies in one child process (the default start method), which
    calls this module's run_scenario, while ratc flies in the caller; the
    results equal two run_scenario calls in turn. An error of the aotc run
    is raised here with its class and attributes. If the ratc run raises,
    the child is stopped and the error propagates.
    """
    with _in_child("aotc run", "run_scenario", cfg, "aotc",
                   duration_override) as get:
        ratc = run_scenario(cfg, "ratc", duration_override=duration_override)
        aotc = get()

    for result in (aotc, ratc):
        if result.fault is not None:
            raise DynamicsFaultError(f"comparison aborted: {result.mode} run "
                                     f"failed ({result.fault})")

    rows = [aotc.summary_row(), ratc.summary_row()]
    ratios: dict[str, float] = {}
    a, r = aotc.stats, ratc.stats
    if a is not None and r is not None:
        a450, r450 = a.image_by_href[450.0], r.image_by_href[450.0]
        if a450.rms > 0.0:
            ratios["rms_450_ratc_over_aotc"] = r450.rms / a450.rms
        if a.abs_roll_mean_deg:
            ratios["mean_abs_roll_ratc_over_aotc"] = (
                r.abs_roll_mean_deg / a.abs_roll_mean_deg)
    for name, s in (("aotc", a), ("ratc", r)):
        roll, beta = ((math.nan, math.nan) if s is None else
                      (s.abs_roll_mean_deg, s.abs_beta_mean_deg))
        ratios[f"mean_abs_roll_{name}_deg"] = roll
        ratios[f"mean_abs_beta_{name}_deg"] = beta

    lines = [render_summary_table(rows), ""]
    for key in sorted(ratios):
        lines.append(f"{key} = {ratios[key]:.4f}")
    return ComparisonResult(aotc=aotc, ratc=ratc, rows=rows, ratios=ratios,
                            table_text="\n".join(lines))


@contextmanager
def _in_child(name: str, target: str, *args):
    """Call the function that this module binds to the name target, with
    args, in one child process started with the default start method,
    while the with block runs in the caller; yield a getter.

    The child looks the name up when it runs, so under fork a wrapper put
    on the function is called, and under spawn only the name and args
    cross. get() returns the call's value, or raises the call's exception
    with its class and attributes. If the block raises (KeyboardInterrupt
    included), the child is killed with SIGKILL, because a forked child
    keeps the caller's signal handlers; it is joined either way.
    """
    receiver, sender = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.Process(target=_call_and_send, name=name,
                                    args=(sender, target, *args))
    child.start()
    sender.close()

    def receive():
        try:
            message = receiver.recv()
        except EOFError:
            child.join()
            raise SimulatorError(f"the {name}'s process ended without a "
                                 f"result (exit code {child.exitcode})"
                                 ) from None
        if isinstance(message, Exception):
            raise message
        return message

    def get():
        value = receive()
        if isinstance(value, RunResult):
            value.log = {key: receive() for key in value.log}
        return value

    try:
        yield get
    except BaseException:
        child.kill()
        raise
    finally:
        receiver.close()
        child.join()


def _call_and_send(conn, target: str, *args) -> None:
    """Child side of _in_child: call target(*args), then send its value,
    or the exception it raised.

    A RunResult goes as a head, the result whose log maps each key to
    None, then one message per log array in key order, so neither process
    ever holds a second copy of a whole log. Sent as one pickle, the whole
    result raised the caller's peak RSS growth on rectangle_compare by
    19-32% (about 7.2 MB against 5.7 MB for two runs in turn).
    """
    try:
        value = globals()[target](*args)
    except Exception as exc:  # reported to the caller, which raises it
        conn.send(exc)
    else:
        if isinstance(value, RunResult):
            conn.send(replace(value, log=dict.fromkeys(value.log)))
            for arr in value.log.values():
                conn.send(arr)
        else:
            conn.send(value)
    conn.close()


def export_csv(result: RunResult, path: str | Path) -> None:
    """Write the run log with fixed columns, degrees at the boundary."""
    log = result.log
    columns = [(log[c.name], c.degrees) for c in _CSV_LOG_COLUMNS]
    columns += [(total_image_error(log["e_lateral"], log["phi"], h), False)
                for h in TABLE_H_REFS]
    row_format = ",".join("%d" if arr.dtype.kind == "i" else "%.12g"
                          for arr, _ in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, result.steps, _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            cells = [(np.degrees(arr[block]) if degrees else arr[block])
                     .tolist() for arr, degrees in columns]
            fh.writelines(row_format % row for row in zip(*cells))


def write_comparison(comp: ComparisonResult, out_dir: str | Path) -> dict[str, Path]:
    """Write aotc.csv, ratc.csv, summary.txt, and summary.csv to out_dir.

    aotc.csv is written by one child process (the default start method),
    which calls this module's export_csv, while the caller writes the
    other three files; the bytes equal those of a serial export. An error
    of the child's export is raised here with its class and attributes; if
    the caller's writes raise, the child is stopped and the error
    propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "aotc_csv": out / "aotc.csv",
        "ratc_csv": out / "ratc.csv",
        "summary_txt": out / "summary.txt",
        "summary_csv": out / "summary.csv",
    }
    with _in_child("aotc.csv export", "export_csv", comp.aotc,
                   paths["aotc_csv"]) as get:
        export_csv(comp.ratc, paths["ratc_csv"])
        paths["summary_txt"].write_text(comp.table_text + "\n",
                                        encoding="utf-8")
        paths["summary_csv"].write_text(
            "\n".join(summary_csv_lines(comp.rows)) + "\n", encoding="utf-8"
        )
        get()
    return paths
