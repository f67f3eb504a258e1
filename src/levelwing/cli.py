"""Command-line entry point.

Subcommands:
  simulate   run one controller over a scenario, optionally export a CSV log
  compare    run both controllers over one scenario and write a report
  gains      print the designed plants and synthesized gains for a scenario
  trim       solve and print the level-flight trim point

Exit codes: 0 success, 2 configuration error, 3 trim failure,
4 dynamics or control fault, 5 I/O error, 1 anything else.
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import load_config
from .control import make_gain_schedule, plant_report
from .dynamics import make_airframe, trim
from .errors import SimulatorError
from .scenario import (
    compare_controllers,
    export_csv,
    run_scenario,
    write_comparison,
)

# The exit code of each error category; any other category exits 1.
_EXIT_CODES = {"config": 2, "trim": 3, "dynamics": 4, "control": 4}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelwing",
        description="Fixed-wing lateral guidance simulator comparing "
                    "aileron-only and rudder-augmented trajectory correction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True,
                       help="scenario config file (.ini)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the gust random seed")
        p.add_argument("--duration", type=float, default=None,
                       help="override the duration cap in seconds")
        p.add_argument("--slew", choices=("on", "off"), default=None,
                       help="force the course-command slew limiter on or off")

    p_sim = sub.add_parser("simulate", help="run one controller")
    add_common(p_sim)
    p_sim.add_argument("--controller", choices=("aotc", "ratc"),
                       default="ratc",
                       help="lateral controller (default: ratc)")
    p_sim.add_argument("--csv", default=None,
                       help="write the time-series log to this CSV file")

    p_cmp = sub.add_parser("compare", help="run both controllers")
    add_common(p_cmp)
    p_cmp.add_argument("--out-dir", required=True,
                       help="directory for aotc.csv, ratc.csv, summary files")

    p_gain = sub.add_parser("gains", help="print synthesized gains")
    p_gain.add_argument("--config", required=True,
                        help="scenario config file (.ini)")

    p_trim = sub.add_parser("trim", help="solve the level-flight trim point")
    p_trim.add_argument("--config", required=True,
                        help="scenario config file (.ini)")
    p_trim.add_argument("--airspeed", type=float, default=None,
                        help="trim airspeed in m/s (default: scenario "
                             "airspeed command)")
    return parser


def _slew_flag(value: str | None) -> bool | None:
    if value is None:
        return None
    return value == "on"


def _print_run(result) -> None:
    print(f"scenario  : {result.scenario}")
    print(f"controller: {result.mode}")
    print(f"steps     : {result.steps} ({result.steps * result.dt:.2f} s)")
    print(f"completed : {result.completed}")
    if result.fault:
        print(f"fault     : {result.fault}")
    s = result.stats
    if s is None:
        return
    for h_ref, e in s.image_by_href.items():
        print(f"image error @ {h_ref:.0f} m: mean {e.mean:+.3f} m, "
              f"std {e.std:.3f} m, rms {e.rms:.3f} m")
    for label, e, unit in (("lateral path error", s.lateral, "m"),
                           ("roll angle", s.roll_deg, "deg"),
                           ("sideslip estimate", s.beta_deg, "deg")):
        print(f"{label:<19}: mean {e.mean:+.3f} {unit}, "
              f"std {e.std:.3f} {unit}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, seed=args.seed, slew=_slew_flag(args.slew))
    result = run_scenario(cfg, args.controller,
                          duration_override=args.duration)
    _print_run(result)
    if args.csv:
        export_csv(result, args.csv)
        print(f"log written to {args.csv}")
    return 4 if result.fault else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, seed=args.seed, slew=_slew_flag(args.slew))
    comp = compare_controllers(cfg, duration_override=args.duration)
    paths = write_comparison(comp, args.out_dir)
    print(comp.table_text)
    print(f"report written to {paths['summary_txt'].parent}")
    return 0


def _cmd_gains(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    airframe = make_airframe(cfg.params)
    va = cfg.va_cmd
    c = cfg.ctrl
    trim_state, trim_cmd = trim(airframe, va)

    ratc = make_gain_schedule("ratc", airframe, c)(va, va)
    aotc = make_gain_schedule("aotc", airframe, c)(va, va)
    plants = plant_report(airframe, va)

    print(f"scenario {cfg.name}, airspeed {va:.1f} m/s")
    print(f"heading plant : a_psi1 {plants.a_psi1:+.4f} 1/s, "
          f"a_psi2 {plants.a_psi2:+.4f} 1/s^2 per rad")
    print(f"roll plant    : a_phi1 {plants.a_phi1:+.4f} 1/s, "
          f"a_phi2 {plants.a_phi2:+.4f} 1/s^2 per rad")
    print(f"pitch plant   : a_theta1 {plants.a_theta1:+.4f} 1/s, "
          f"a_theta2 {plants.a_theta2:+.4f} 1/s^2 per rad, "
          f"a_theta3 {plants.a_theta3:+.4f} 1/s^2")
    print(f"ratc heading  : kp {ratc.kp_psi:+.4f}, kd {ratc.kd_psi:+.4f} "
          f"(wn {c.wn_psi:.2f} rad/s, zeta {c.zeta_psi:.2f})")
    print(f"roll hold     : kp {ratc.kp_roll:+.4f}, kd {ratc.kd_roll:+.4f}, "
          f"ki {c.ki_roll:+.4f} (wn {c.wn_roll:.2f} rad/s)")
    print(f"aotc course   : kp {aotc.kp_course:+.4f}, "
          f"ki {aotc.ki_course:+.4f} "
          f"(wn {c.wn_roll / c.course_separation:.3f} rad/s, "
          f"separation {c.course_separation:.1f})")
    print(f"pitch hold    : kp {ratc.kp_theta:+.4f}, kd {ratc.kd_theta:+.4f}")
    print(f"altitude hold : kp {ratc.kp_h:+.5f}, ki {ratc.ki_h:+.5f}")
    print(f"trim          : alpha {math.degrees(trim_state.theta):.3f} deg, "
          f"elevator {math.degrees(trim_cmd.delta_e):.3f} deg, "
          f"throttle {trim_cmd.delta_t:.4f}")
    return 0


def _cmd_trim(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    va = cfg.va_cmd if args.airspeed is None else args.airspeed
    state, cmd = trim(make_airframe(cfg.params), va)
    print(f"trim at Va = {va:.2f} m/s, level flight:")
    print(f"  alpha    = {math.degrees(state.theta):+.4f} deg")
    print(f"  u, w     = {state.u:+.4f}, {state.w:+.4f} m/s (body)")
    print(f"  elevator = {math.degrees(cmd.delta_e):+.4f} deg")
    print(f"  throttle = {cmd.delta_t:.4f}")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "gains": _cmd_gains,
    "trim": _cmd_trim,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except SimulatorError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(exc.category, 1)
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
