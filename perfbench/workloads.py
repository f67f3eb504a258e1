"""The benchmark's workloads: their inputs, one iteration each, and the
checks that the outputs are right.

Every workload is a closed loop in one process: the next operation starts
when the previous one has returned. An operation is one simulated run or
one report write. All calls go through levelwing's public API, looked up
on the module at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from levelwing import config, scenario

# Published numbers of the headline comparison (PAPER.md), as printed.
PAPER_RATIOS = {
    "rms_450_ratc_over_aotc": "0.2131",
    "mean_abs_roll_aotc_deg": "11.1554",
    "mean_abs_roll_ratc_deg": "0.8865",
}
# Table rows: controller, mean_150, std_150, mean_450, std_450, rms_450.
PAPER_ROWS = (
    ("aotc", "26.84", "46.37", "76.54", "138.05", "157.85"),
    ("ratc", "0.36", "29.20", "0.33", "33.64", "33.64"),
)
# The time-series CSV columns are part of the user-visible contract.
CSV_COLUMNS = (
    "t", "pn", "pe", "pd", "u", "v", "w", "phi_deg", "theta_deg", "psi_deg",
    "p", "q", "r", "delta_a_deg", "delta_e_deg", "delta_r_deg", "delta_t",
    "Va", "beta_est_deg", "chi_deg", "chi_cmd_deg", "chi_cmd_raw_deg",
    "segment_id", "e_lateral_m", "e_total_150_m", "e_total_450_m",
)
CSV_DEGREE_COLUMNS = {
    "phi_deg": "phi", "theta_deg": "theta", "psi_deg": "psi",
    "delta_a_deg": "delta_a", "delta_e_deg": "delta_e",
    "delta_r_deg": "delta_r", "beta_est_deg": "beta_est", "chi_deg": "chi",
    "chi_cmd_deg": "chi_cmd", "chi_cmd_raw_deg": "chi_cmd_raw",
}
CSV_PLAIN_COLUMNS = {
    "t": "t", "pn": "pn", "pe": "pe", "pd": "pd", "u": "u", "v": "v",
    "w": "w", "p": "p", "q": "q", "r": "r", "delta_t": "delta_t", "Va": "va",
    "segment_id": "segment_id", "e_lateral_m": "e_lateral",
}

SUMMARY_RTOL = 1e-9
SUMMARY_ATOL = 1e-12
# A run whose roll passes this has left controlled flight; from there on
# rounding differences grow, so it is compared by outcome, not by digits.
DEPARTED_ROLL_DEG = 90.0

# The sweep draws its members from this grid, so that each member has a
# stored reference. Gusts span 0-2 m/s; the 3 m/s crosswind blows from one
# of eight directions.
SWEEP_PLANS = ("rectangle", "circle")
SWEEP_GUSTS_MPS = (0.0, 0.5, 1.0, 1.5, 2.0)
SWEEP_DIRECTIONS_DEG = (0, 45, 90, 135, 180, 225, 270, 315)
SWEEP_GUST_SEEDS = (0, 1, 2, 3)
SWEEP_CROSSWIND_MPS = 3.0
SWEEP_CONFIGS_PER_PLAN = 4
# In 60 s runs aotc's departures on the gusty circle fault between about
# 9 s and 57 s; at 50 s most reach their fault and the rest show as a
# roll of 180 deg.
SWEEP_DURATION_S = 50.0
MODES = ("aotc", "ratc")


@dataclass(frozen=True)
class Member:
    """One sweep scenario; each is flown by both controllers."""

    plan: str
    gust_mps: float
    direction_deg: int
    gust_seed: int

    @property
    def key(self) -> str:
        return (f"{self.plan}/g{self.gust_mps:.1f}/d{self.direction_deg}"
                f"/s{self.gust_seed}")

    def ini_text(self) -> str:
        rad = math.radians(self.direction_deg)
        return (
            "[scenario]\n"
            f"name = sweep_{self.plan}\n"
            "aircraft = aerosonde.ini\n"
            f"plan = {self.plan}.ini\n"
            "dt_s = 0.01\n"
            f"duration_s = {SWEEP_DURATION_S}\n"
            "airspeed_mps = 20.0\n"
            "warmup_s = 5.0\n"
            f"seed = {self.gust_seed}\n\n"
            "[environment]\n"
            f"wind_n_mps = {SWEEP_CROSSWIND_MPS * math.cos(rad):.6f}\n"
            f"wind_e_mps = {SWEEP_CROSSWIND_MPS * math.sin(rad):.6f}\n"
            f"gust_intensity_mps = {self.gust_mps}\n"
            "gust_tau_s = 2.0\n"
        )


def sweep_grid(plan: str) -> list[Member]:
    return [Member(plan, g, d, s) for g in SWEEP_GUSTS_MPS
            for d in SWEEP_DIRECTIONS_DEG for s in SWEEP_GUST_SEEDS]


def draw_members(seed: int) -> list[Member]:
    """The sweep ensemble for one benchmark seed: distinct grid members,
    the same number on each plan."""
    rng = random.Random(seed)
    return [m for plan in SWEEP_PLANS
            for m in rng.sample(sweep_grid(plan), SWEEP_CONFIGS_PER_PLAN)]


def write_member_inis(members: list[Member], workdir: Path) -> list[Path]:
    paths = []
    for i, member in enumerate(members):
        path = workdir / f"member_{i:02d}_{member.plan}.ini"
        path.write_text(member.ini_text(), encoding="utf-8")
        paths.append(path)
    return paths


def saturated_steps(result, params) -> int:
    """Steps with any control surface at its deflection limit."""
    log = result.log
    at_limit = ((np.abs(log["delta_a"]) >= params.delta_a_max)
                | (np.abs(log["delta_e"]) >= params.delta_e_max)
                | (np.abs(log["delta_r"]) >= params.delta_r_max))
    return int(np.count_nonzero(at_limit))


def run_record(result, params) -> dict:
    """What a run is checked on, and the counts it contributes."""
    log = result.log
    max_roll = (float(np.max(np.abs(np.degrees(log["phi"]))))
                if result.steps else 0.0)
    fault = result.fault.split(":", 1)[0] if result.fault else None
    row = result.summary_row()
    return {
        "steps": int(result.steps),
        "completed": bool(result.completed),
        "fault": fault,
        "departed": fault is not None or max_roll >= DEPARTED_ROLL_DEG,
        "max_roll_deg": max_roll,
        "segment_switches": int(np.count_nonzero(np.diff(log["segment_id"]))),
        "saturated_steps": saturated_steps(result, params),
        "summary": {f.name: getattr(row, f.name)
                    for f in dataclasses.fields(row)
                    if isinstance(getattr(row, f.name), float)},
    }


def record_problems(label: str, got: dict, ref: dict | None) -> list[str]:
    """Differences between a run's record and its reference."""
    if ref is None:
        return [f"{label}: no reference"]
    problems = [f"{label}: non-finite {k}" for k, v in got["summary"].items()
                if not math.isfinite(v) and math.isfinite(ref["summary"][k])]
    keys = ["fault", "completed", "steps"]
    if not ref["departed"]:
        keys += ["departed", "segment_switches", "saturated_steps"]
    problems += [f"{label}: {k} {got[k]!r} != reference {ref[k]!r}"
                 for k in keys if got[k] != ref[k]]
    if not ref["departed"]:
        problems += [
            f"{label}: {k} {v!r} != reference {ref['summary'][k]!r}"
            for k, v in got["summary"].items()
            if not math.isclose(v, ref["summary"][k], rel_tol=SUMMARY_RTOL,
                                abs_tol=SUMMARY_ATOL)
        ]
    return problems


@dataclass
class Iteration:
    """Outcome of one iteration of a workload."""

    wall_s: float = 0.0
    sim_s: float = 0.0
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    records: list[dict] = field(default_factory=list)  # one per run
    problems: list[str] = field(default_factory=list)
    csv_rows: int = 0
    csv_bytes: int = 0

    @property
    def faults(self) -> int:
        return sum(r["fault"] is not None for r in self.records)

    def count(self, key: str) -> int:
        return sum(r[key] for r in self.records)


def _fail(it: Iteration, what: str, exc: Exception, ops: int) -> Iteration:
    it.attempted += ops
    it.failed += ops
    it.problems.append(f"{what} raised {type(exc).__name__}: {exc}")
    return it


class Workload:
    """Base class: subclasses say which scenario files a run loads and
    what one iteration does with them."""

    name = ""
    why = ""
    # Off only in the memory pass, which measures the program alone.
    check = True

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference.get(self.name, {})
        self.records: dict[str, dict] = {}  # first record of each run
        self.paths = self.inputs()

    def inputs(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        """What a user pays before the first step: load every scenario and
        run it for zero seconds (trim, path segments, controllers)."""
        for path in self.paths:
            cfg = config.load_config(path)
            for mode in MODES:
                scenario.run_scenario(cfg, mode, duration_override=0.0)

    def _simulate(self, it: Iteration, cfg, mode: str, label: str) -> None:
        t0 = time.perf_counter()
        try:
            result = scenario.run_scenario(cfg, mode)
        except Exception as exc:  # a raising run is a failed operation
            _fail(it, label, exc, 1)
            return
        it.sim_s += time.perf_counter() - t0
        it.attempted += 1
        self._add_run(it, label, result, cfg.params)

    def _add_run(self, it: Iteration, label: str, result, params) -> None:
        record = run_record(result, params)
        problems = record_problems(label, record, self.reference.get(label))
        if problems:
            it.failed += 1
            it.problems += problems
        it.steps += result.steps
        it.records.append(record)
        self.records.setdefault(label, record)

    def iterate(self) -> Iteration:
        raise NotImplementedError


class CompareRectangle(Workload):
    name = "compare_rectangle"
    why = ("the paper's headline table and the CLI compare path: both "
           "controllers plus CSV export, steady wind (gust fast path)")

    def inputs(self) -> list:
        return ["rectangle_compare.ini"]

    def iterate(self) -> Iteration:
        it = Iteration()
        out_dir = self.workdir / "compare"
        t0 = time.perf_counter()
        cfg = config.load_config(self.paths[0])
        t1 = time.perf_counter()
        try:
            comp = scenario.compare_controllers(cfg)
        except Exception as exc:
            return _fail(it, "compare_controllers", exc, len(MODES))
        t2 = time.perf_counter()
        it.attempted += len(MODES)
        try:
            files = scenario.write_comparison(comp, out_dir)
        except Exception as exc:
            return _fail(it, "write_comparison", exc, 1)
        t3 = time.perf_counter()
        it.attempted += 1
        it.wall_s, it.sim_s = t3 - t0, t2 - t1
        for mode in MODES:
            self._add_run(it, mode, getattr(comp, mode), cfg.params)
        problems = self._check_report(comp, files) if self.check else []
        if problems:
            it.failed += 1
            it.problems += problems
        for mode in MODES:
            path = Path(files[f"{mode}_csv"])
            it.csv_rows += getattr(comp, mode).steps
            it.csv_bytes += path.stat().st_size
        return it

    def _check_report(self, comp, files) -> list[str]:
        problems = []
        for key, text in PAPER_RATIOS.items():
            got = f"{comp.ratios.get(key, math.nan):.4f}"
            if got != text:
                problems.append(f"ratio {key} = {got}, paper says {text}")
        table_rows = comp.table_text.splitlines()[1:3]
        for line, paper in zip(table_rows, PAPER_ROWS):
            cells = tuple(line.split()[1:7])
            if cells != paper:
                problems.append(f"table row {cells} != paper {paper}")
        if (Path(files["summary_txt"]).read_text(encoding="utf-8")
                != comp.table_text + "\n"):
            problems.append("summary.txt does not hold the comparison table")
        problems += self._check_summary_csv(Path(files["summary_csv"]))
        for mode in MODES:
            problems += check_log_csv(Path(files[f"{mode}_csv"]),
                                      getattr(comp, mode), mode)
        return problems

    def _check_summary_csv(self, path: Path) -> list[str]:
        lines = path.read_text(encoding="utf-8").splitlines()
        header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
        if [r[1] for r in rows] != list(MODES):
            return [f"summary.csv rows are {[r[1] for r in rows]}"]
        problems = []
        for row in rows:
            ref = self.reference[row[1]]["summary"]
            for name, cell in zip(header[2:], row[2:]):
                if abs(float(cell) - ref[name]) > 5.1e-7:
                    problems.append(f"summary.csv {row[1]} {name} = {cell}, "
                                    f"reference {ref[name]!r}")
        return problems


def check_log_csv(path: Path, result, label: str) -> list[str]:
    """The exported time series holds the run log, column by column."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if tuple(header) != CSV_COLUMNS:
        return [f"{path.name}: header {header}"]
    if data.shape != (result.steps, len(CSV_COLUMNS)):
        return [f"{path.name}: shape {data.shape}, expected "
                f"({result.steps}, {len(CSV_COLUMNS)})"]
    log = result.log
    tan_phi = np.tan(log["phi"])
    expected = {"e_total_150_m": log["e_lateral"] + 150.0 * tan_phi,
                "e_total_450_m": log["e_lateral"] + 450.0 * tan_phi}
    expected.update({c: np.degrees(log[k])
                     for c, k in CSV_DEGREE_COLUMNS.items()})
    expected.update({c: log[k] for c, k in CSV_PLAIN_COLUMNS.items()})
    return [f"{label}.csv column {name} differs from the run log"
            for j, name in enumerate(CSV_COLUMNS)
            if not np.allclose(data[:, j], expected[name], rtol=1e-9,
                               atol=1e-9)]


class SurveyFigureEight(Workload):
    name = "survey_figure_eight"
    why = ("longest trajectory, gusts on, 8 fillets and a self-crossing, "
           "no file output: dynamics, control, guidance and gust layers")

    def inputs(self) -> list:
        return ["figure_eight.ini"]

    def iterate(self) -> Iteration:
        it = Iteration()
        t0 = time.perf_counter()
        cfg = config.load_config(self.paths[0])
        for mode in MODES:
            self._simulate(it, cfg, mode, mode)
        it.wall_s = time.perf_counter() - t0
        return it


class GustSweep(Workload):
    name = "gust_sweep"
    why = ("seeded ensemble of 50 s runs on rectangle and circle, gusts "
           "0-2 m/s: set-up, config and statistics weigh more; orbits")

    def inputs(self) -> list:
        self.members = draw_members(self.seed)
        return write_member_inis(self.members, self.workdir)

    def iterate(self) -> Iteration:
        """The whole ensemble: each member's scenario is loaded and flown
        by both controllers. Members differ in length, as departures end
        early, so an iteration is the ensemble, not one member."""
        it = Iteration()
        t0 = time.perf_counter()
        for member, path in zip(self.members, self.paths):
            cfg = config.load_config(path)
            for mode in MODES:
                self._simulate(it, cfg, mode, f"{member.key}/{mode}")
        it.wall_s = time.perf_counter() - t0
        return it

    def member_lines(self) -> list[str]:
        """One line per member and controller: plan, wind, gust, outcome."""
        lines = []
        for member in self.members:
            for mode in MODES:
                rec = self.records.get(f"{member.key}/{mode}")
                if rec is None:
                    outcome = "not run"
                else:
                    outcome = (f"fault:{rec['fault']}" if rec["fault"] else
                               "completed" if rec["completed"] else "capped")
                    outcome += ",departed" if rec["departed"] else ""
                    outcome += (f" steps={rec['steps']} max_abs_roll_deg="
                                f"{rec['max_roll_deg']:.1f}")
                lines.append(
                    f"member plan={member.plan} "
                    f"wind_toward_deg={member.direction_deg} "
                    f"wind_mps={SWEEP_CROSSWIND_MPS} "
                    f"gust_mps={member.gust_mps} "
                    f"gust_seed={member.gust_seed} controller={mode} "
                    f"outcome={outcome}")
        return lines


WORKLOADS = {w.name: w for w in (CompareRectangle, SurveyFigureEight,
                                 GustSweep)}
