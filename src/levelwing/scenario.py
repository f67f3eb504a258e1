"""Scenario runner: closed-loop simulation, controller comparison, CSV export.

One run trims the aircraft, places it at the plan start, and steps
guidance, control, and dynamics at the same fixed rate until the plan
completes or the duration cap is reached. Comparisons run both lateral
controllers against one shared environment realization (same seed, same
gust draws) with identical guidance gains, so only the lateral law
differs. The two runs of a comparison share nothing else, so they fly at
once: aotc in a child process, ratc in the caller.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ScenarioConfig
from .control import (
    LoopState,
    aotc_step,
    apply_rate_limits,
    longitudinal_holds,
    make_gain_schedule,
    ratc_step,
)
from .dynamics import (
    AircraftState,
    AirData,
    ControlCommand,
    Environment,
    GustModel,
    air_data,
    gamma_terms,
    integrate_step,
    make_dynamics,
    trim,
)
from .errors import ConfigError, DynamicsFaultError, SimulatorError
from .guidance import PathManager
from .metrics import (
    ErrorStats,
    SummaryRow,
    beta_estimate,
    render_summary_table,
    series_stats,
    summary_csv_lines,
    total_image_error,
)

# Reference altitudes of the fixed summary-table columns. A 450 m column
# is always derivable because the roll term rescales linearly in h_ref;
# it is recomputed from the logged series, never re-simulated.
TABLE_H_REFS = (150.0, 450.0)


class LogColumn(NamedTuple):
    """One per-step log field, in the order run_scenario stores a step.

    in_csv False keeps the field in memory only. degrees writes a radian
    field to the CSV in degrees, headed name + "_deg" unless csv_name
    gives the header.
    """

    name: str
    in_csv: bool = True
    degrees: bool = False
    csv_name: str | None = None


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
    LogColumn("chi_cmd_raw", degrees=True), LogColumn("segment_id"),
    LogColumn("e_lateral", csv_name="e_lateral_m"),
    LogColumn("wind_n", in_csv=False), LogColumn("wind_e", in_csv=False),
    LogColumn("wind_d", in_csv=False),
)

# The CSV ends with the image error at each fixed table altitude.
CSV_COLUMNS = tuple(
    c.csv_name or (c.name + "_deg" if c.degrees else c.name)
    for c in LOG_COLUMNS if c.in_csv
) + tuple(f"e_total_{h:.0f}_m" for h in TABLE_H_REFS)

# Rows that export_csv converts to Python floats at once. Peak memory
# grows with the block (about 1 MB more at 512 rows on rectangle_compare),
# while the write time is flat from 32 rows up.
_CSV_BLOCK_ROWS = 32


class FlightController:
    """Full autopilot for one run: one lateral law plus the longitudinal
    holds, gain-scheduled on the current airspeed."""

    def __init__(self, mode: str, cfg: ScenarioConfig,
                 trim_state: AircraftState, trim_cmd: ControlCommand):
        self.gammas = gamma_terms(cfg.params)
        self.schedule = make_gain_schedule(mode, cfg.params, self.gammas,
                                           cfg.ctrl)
        self.mode = mode
        self.params = cfg.params
        self.bank_limit = cfg.ctrl.bank_limit
        self.trim_theta = trim_state.theta
        self.trim_cmd = trim_cmd
        self.h_cmd = cfg.plan.nominal_agl
        self.va_cmd = cfg.va_cmd
        self.loop = LoopState()

    def step(self, chi_cmd: float, state: AircraftState, airdata: AirData,
             dt: float) -> ControlCommand:
        prev = self.loop.prev_command
        gains = self.schedule(airdata.va, airdata.vg)
        if self.mode == "ratc":
            delta_a, delta_r = ratc_step(chi_cmd, state, gains, self.loop,
                                         dt, self.params)
        else:
            delta_a, delta_r = aotc_step(chi_cmd, state, airdata, gains,
                                         self.loop, dt, self.params,
                                         self.bank_limit)
        delta_e, delta_t = longitudinal_holds(state, airdata, self.h_cmd,
                                              self.va_cmd, gains,
                                              self.loop, dt, self.trim_theta,
                                              self.trim_cmd, self.params)
        cmd = apply_rate_limits(ControlCommand(delta_a, delta_e, delta_r,
                                               delta_t), prev, self.params, dt)
        self.loop.prev_command = cmd
        return cmd


@dataclass
class RunResult:
    """Time-series log and summary statistics of one closed-loop run."""

    mode: str
    scenario: str
    dt: float
    log: dict[str, np.ndarray]
    steps: int
    completed: bool
    fault: str | None
    stats_by_href: dict[float, ErrorStats]
    lat_stats: ErrorStats | None
    roll_stats_deg: ErrorStats | None
    beta_stats_deg: ErrorStats | None
    mean_abs_roll_deg: float | None
    mean_abs_beta_deg: float | None

    def summary_row(self) -> SummaryRow:
        def stat(s: ErrorStats | None, attr: str) -> float:
            return getattr(s, attr) if s is not None else math.nan

        return SummaryRow(
            scenario=self.scenario,
            controller=self.mode,
            mean_150=stat(self.stats_by_href.get(150.0), "mean"),
            std_150=stat(self.stats_by_href.get(150.0), "std"),
            mean_450=stat(self.stats_by_href.get(450.0), "mean"),
            std_450=stat(self.stats_by_href.get(450.0), "std"),
            rms_450=stat(self.stats_by_href.get(450.0), "rms"),
            lat_mean=stat(self.lat_stats, "mean"),
            lat_std=stat(self.lat_stats, "std"),
            roll_mean_deg=stat(self.roll_stats_deg, "mean"),
            roll_std_deg=stat(self.roll_stats_deg, "std"),
            beta_mean_deg=stat(self.beta_stats_deg, "mean"),
            beta_std_deg=stat(self.beta_stats_deg, "std"),
        )


def _initial_state(cfg: ScenarioConfig,
                   trim_state: AircraftState) -> AircraftState:
    """The trim state moved to the plan start, heading along its first leg."""
    pn, pe, pd = cfg.plan.start_position()
    return trim_state._replace(pn=pn, pe=pe, pd=pd,
                               psi=cfg.plan.initial_course())


def _stats_or_none(values: np.ndarray) -> ErrorStats | None:
    if values.size < 2:
        return None
    return series_stats(values)


def run_scenario(
    cfg: ScenarioConfig,
    mode: str | None = None,
    duration_override: float | None = None,
) -> RunResult:
    """Run one closed-loop scenario and return its log and statistics.

    A zero duration override yields an empty but valid result flagged
    incomplete. Dynamics faults (singularity, non-finite state) truncate
    the log and are reported in the fault field instead of raising.
    """
    mode = cfg.ctrl.mode if mode is None else mode
    if mode not in ("aotc", "ratc"):
        raise ConfigError(f"controller mode must be aotc or ratc, got {mode!r}")
    duration = cfg.duration if duration_override is None else duration_override
    if not math.isfinite(duration) or duration < 0.0:
        raise ConfigError(f"duration cap must be finite and >= 0, got "
                          f"{duration}")
    dt = cfg.dt

    base_env = Environment(cfg.env.wind_n, cfg.env.wind_e, cfg.env.wind_d)
    trim_state, trim_cmd = trim(cfg.params, base_env, cfg.va_cmd)
    state = _initial_state(cfg, trim_state)

    manager = PathManager(cfg.plan, cfg.ctrl.guidance, dt, cfg.ctrl.slew)
    controller = FlightController(mode, cfg, trim_state, trim_cmd)
    gust = GustModel(cfg.env.gust_intensity, cfg.env.gust_tau, dt, cfg.seed)
    dynamics = make_dynamics(cfg.params, controller.gammas)

    n_cap = int(round(duration / dt))
    # One array per field: a single (fields, n_cap) buffer passes 4 MiB on
    # long runs, where numpy asks for huge pages and the unused tail of the
    # buffer becomes resident.
    log = {c.name: np.zeros(n_cap) for c in LOG_COLUMNS}
    log["segment_id"] = np.zeros(n_cap, dtype=int)
    series = tuple(log.values())

    steps = 0
    fault: str | None = None
    for k in range(n_cap):
        gust_n, gust_e, gust_d = gust.step()
        env = Environment(base_env.wind_n + gust_n, base_env.wind_e + gust_e,
                          base_env.wind_d + gust_d)
        airdata = air_data(state, env)
        course = manager.step(state[:3])
        cmd = controller.step(course.chi_cmd, state, airdata, dt)

        t = k * dt
        row = (  # in LOG_COLUMNS order
            t, *state, cmd.delta_a, cmd.delta_e, cmd.delta_r, cmd.delta_t,
            airdata.va, beta_estimate(airdata.chi, state.psi), airdata.chi,
            course.chi_cmd, course.chi_cmd_raw, course.segment_id,
            course.e_lateral, env.wind_n, env.wind_e, env.wind_d,
        )
        for arr, value in zip(series, row):
            arr[k] = value
        steps = k + 1

        try:
            state = integrate_step(state, cmd, env, cfg.params, dt, dynamics)
        except DynamicsFaultError as exc:
            fault = f"{exc.category}: {exc} at t = {t:.2f} s"
            break
        if manager.complete:
            break

    log = {key: arr[:steps] for key, arr in log.items()}
    completed = manager.complete and fault is None

    warm = log["t"] >= cfg.warmup
    phi_w = log["phi"][warm]
    lat_w = log["e_lateral"][warm]
    beta_w = log["beta_est"][warm]

    h_refs = tuple(sorted(set(cfg.h_refs) | set(TABLE_H_REFS)))
    stats_by_href: dict[float, ErrorStats] = {}
    if phi_w.size >= 2:
        for h_ref in h_refs:
            stats_by_href[h_ref] = series_stats(
                total_image_error(lat_w, phi_w, h_ref))

    return RunResult(
        mode=mode,
        scenario=cfg.name,
        dt=dt,
        log=log,
        steps=steps,
        completed=completed,
        fault=fault,
        stats_by_href=stats_by_href,
        lat_stats=_stats_or_none(lat_w),
        roll_stats_deg=_stats_or_none(np.degrees(phi_w)),
        beta_stats_deg=_stats_or_none(np.degrees(beta_w)),
        mean_abs_roll_deg=(float(np.mean(np.abs(np.degrees(phi_w))))
                           if phi_w.size else None),
        mean_abs_beta_deg=(float(np.mean(np.abs(np.degrees(beta_w))))
                           if beta_w.size else None),
    )


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

    aotc flies in one child process (the default start method) while ratc
    flies in the caller; the results equal two run_scenario calls in turn.
    An error of the aotc run is raised here with its class and attributes.
    If the ratc run raises, the child is stopped and the error propagates.
    """
    receiver, sender = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.Process(
        target=_fly_and_send, name="aotc",
        args=(sender, cfg, "aotc", duration_override))
    child.start()
    sender.close()
    try:
        ratc = run_scenario(cfg, "ratc", duration_override=duration_override)
        aotc = _receive_run(receiver, child)
    except BaseException:
        # SIGKILL: a forked child keeps the caller's signal handlers.
        child.kill()
        raise
    finally:
        receiver.close()
        child.join()

    for result in (aotc, ratc):
        if result.fault is not None:
            raise DynamicsFaultError(f"comparison aborted: {result.mode} run "
                                     f"failed ({result.fault})")

    rows = [aotc.summary_row(), ratc.summary_row()]
    ratios: dict[str, float] = {}
    a450, r450 = aotc.stats_by_href.get(450.0), ratc.stats_by_href.get(450.0)
    if a450 is not None and r450 is not None and a450.rms > 0.0:
        ratios["rms_450_ratc_over_aotc"] = r450.rms / a450.rms
    if (aotc.mean_abs_roll_deg and ratc.mean_abs_roll_deg is not None):
        ratios["mean_abs_roll_ratc_over_aotc"] = (
            ratc.mean_abs_roll_deg / aotc.mean_abs_roll_deg
        )

    def measured(value: float | None) -> float:
        return math.nan if value is None else value

    ratios["mean_abs_roll_aotc_deg"] = measured(aotc.mean_abs_roll_deg)
    ratios["mean_abs_roll_ratc_deg"] = measured(ratc.mean_abs_roll_deg)
    ratios["mean_abs_beta_aotc_deg"] = measured(aotc.mean_abs_beta_deg)
    ratios["mean_abs_beta_ratc_deg"] = measured(ratc.mean_abs_beta_deg)

    lines = [render_summary_table(rows), ""]
    for key in sorted(ratios):
        lines.append(f"{key} = {ratios[key]:.4f}")
    return ComparisonResult(aotc=aotc, ratc=ratc, rows=rows, ratios=ratios,
                            table_text="\n".join(lines))


def _fly_and_send(conn, cfg: ScenarioConfig, mode: str,
                  duration_override: float | None) -> None:
    """Child side of compare_controllers: fly one run and send it back.

    An error goes back as the exception object. A result goes as a head,
    the RunResult whose log maps each key to None, then one message per
    log array in key order, so neither process ever holds a second copy
    of a whole log. Sent as one pickle, the whole result raised the
    caller's peak RSS growth on rectangle_compare by 19-32% (about 7.2 MB
    against 5.7 MB for two runs in turn).
    """
    try:
        result = run_scenario(cfg, mode, duration_override=duration_override)
    except Exception as exc:  # reported to the caller, which raises it
        conn.send(exc)
    else:
        conn.send(replace(result, log=dict.fromkeys(result.log)))
        for arr in result.log.values():
            conn.send(arr)
    conn.close()


def _receive_run(conn, child: multiprocessing.Process) -> RunResult:
    """Caller side of _fly_and_send: the run, or its error raised here."""
    try:
        head = conn.recv()
        if not isinstance(head, Exception):
            head.log = {key: conn.recv() for key in head.log}
    except EOFError:
        child.join()
        raise SimulatorError(f"the {child.name} run's process ended without "
                             f"a result (exit code {child.exitcode})") from None
    if isinstance(head, Exception):
        raise head
    return head


def export_csv(result: RunResult, path: str | Path) -> None:
    """Write the run log with fixed columns, degrees at the boundary."""
    log = result.log
    columns = [(log[c.name], c.degrees) for c in LOG_COLUMNS if c.in_csv]
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
    """Write aotc.csv, ratc.csv, summary.txt, and summary.csv to out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "aotc_csv": out / "aotc.csv",
        "ratc_csv": out / "ratc.csv",
        "summary_txt": out / "summary.txt",
        "summary_csv": out / "summary.csv",
    }
    export_csv(comp.aotc, paths["aotc_csv"])
    export_csv(comp.ratc, paths["ratc_csv"])
    paths["summary_txt"].write_text(comp.table_text + "\n", encoding="utf-8")
    paths["summary_csv"].write_text(
        "\n".join(summary_csv_lines(comp.rows)) + "\n", encoding="utf-8"
    )
    return paths
