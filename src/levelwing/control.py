"""Lateral control laws and longitudinal holds.

Two interchangeable lateral correctors share the guidance course command:

* aileron-only (aotc): successive loop closure, an outer course PI
  producing a bank command and an inner roll PD producing aileron; the
  rudder stays at trim.
* rudder-augmented (ratc): the course command is treated as a heading
  command tracked by a rudder PD synthesized from the second-order
  heading plant, while an independent wings-level roll hold keeps the
  camera axis vertical.

Each law has its own gain schedule, which folds the airframe coefficients
and checks the control authority once; each step it rescales only the
plants its law uses and places their poles, so it returns only the gains
that vary. plant_report reads the same plants. Both laws take the same
arguments, so the controller calls its law without asking which. The step
functions keep no memory: each takes the integrators (aotc course, ratc
roll, altitude, airspeed) as arguments and returns their new values,
which one saturating PI computes.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .angles import clamp, wrap_pi
from .config import ControllerSettings
from .dynamics import (
    AircraftParams,
    AircraftState,
    Airframe,
    AirData,
    ControlCommand,
)
from .errors import AirDataError, ConfigError, UncontrollablePlantError

# Floor applied to the airspeed used for gain scheduling, so a start-up
# transient cannot divide by zero.
MIN_SCHEDULING_AIRSPEED = 1.0


class Plants(NamedTuple):
    """The designed plants at one airspeed: x_ddot = -a1*x_dot - a3*x +
    a2*delta for heading (a_psi, rudder), roll (a_phi, aileron) and pitch
    (a_theta, elevator; a3 = 0 for the other two)."""

    a_psi1: float
    a_psi2: float
    a_phi1: float
    a_phi2: float
    a_theta1: float
    a_theta2: float
    a_theta3: float


# A law's gains at one flight condition, the ones that vary with it: its
# outer pair (ratc's heading PD, aotc's course PI), then the gains of the
# inner loops both laws share, the roll PD, the pitch PD and the altitude PI.
_INNER_GAINS = [(name, float) for name in ("kp_roll", "kd_roll", "kp_theta",
                                           "kd_theta", "kp_h", "ki_h")]
RatcGains = NamedTuple("RatcGains", [("kp_psi", float), ("kd_psi", float),
                                     *_INNER_GAINS])
AotcGains = NamedTuple("AotcGains", [("kp_course", float),
                                     ("ki_course", float), *_INNER_GAINS])


def place_poles(a1: float, a2: float, a3: float, wn: float,
                zeta: float) -> tuple[float, float]:
    """PD gains (kp, kd) closing x_ddot = -a1*x_dot - a3*x + a2*delta
    with delta = kp*(x_cmd - x) - kd*x_dot at s^2 + 2*zeta*wn*s + wn^2.
    A plant whose effectiveness a2 is zero, as when it underflows at a
    tiny airspeed or air density, raises UncontrollablePlantError."""
    try:
        return (wn**2 - a3) / a2, (2.0 * zeta * wn - a1) / a2
    except ZeroDivisionError:
        raise UncontrollablePlantError(
            "control effectiveness a2 is zero at this flight condition; "
            "plant uncontrollable") from None


def _plant_models(airframe: Airframe, rudder: bool) -> tuple[
        Callable[[float], tuple[float, ...]],
        Callable[[float], tuple[float, ...]]]:
    """The heading plant, va -> (a_psi1, a_psi2), with AirDataError at
    va <= 0, and the roll and pitch plants, floored va -> (a_phi1, a_phi2,
    a_theta1, a_theta2, a_theta3); each raises AirDataError at a va whose
    square overflows. A surface without authority raises
    UncontrollablePlantError; the rudder only when rudder is true."""
    params, gammas = airframe.params, airframe.gammas
    # The heading plant folds the roll equation's inertia-coupled share
    # into the yaw buildup (gamma4*c_ell + gamma8*c_n), the roll plant the
    # yaw equation's share into the roll buildup (gamma3*c_ell + gamma4*c_n).
    # A plant keeps the damping and effectiveness terms of its fold only.
    g3, g4, g8 = gammas.gamma3, gammas.gamma4, gammas.gamma8
    cr_r = g4 * params.c_ell_r + g8 * params.c_n_r
    cr_delta_r = g4 * params.c_ell_delta_r + g8 * params.c_n_delta_r
    c_p_p = g3 * params.c_ell_p + g4 * params.c_n_p
    c_p_delta_a = g3 * params.c_ell_delta_a + g4 * params.c_n_delta_a
    if rudder and cr_delta_r == 0.0:
        raise UncontrollablePlantError(
            "rudder effectiveness a_psi2 is zero; heading plant uncontrollable"
        )
    if c_p_delta_a == 0.0:
        raise UncontrollablePlantError(
            "aileron effectiveness a_phi2 is zero; roll plant uncontrollable"
        )
    if params.c_m_delta_e == 0.0:
        raise UncontrollablePlantError(
            "elevator effectiveness a_theta2 is zero; pitch plant uncontrollable"
        )

    # The rate terms enter the buildup as c*b*rate/(2*Va), so the damping
    # coefficients carry one airspeed power less than the effectiveness.
    neg_quarter_rho, half_rho = -0.25 * params.rho, 0.5 * params.rho
    sw, bw, cbar, iyy = (params.wing_area, params.wing_span,
                         params.mean_chord, params.iyy)
    bw_sq = bw**2
    c_m_q, c_m_delta_e, c_m_alpha = (params.c_m_q, params.c_m_delta_e,
                                     params.c_m_alpha)

    def heading(va: float) -> tuple[float, float]:
        if va <= 0.0:
            raise AirDataError("heading plant needs positive airspeed")
        try:
            return (neg_quarter_rho * va * sw * bw_sq * cr_r,
                    half_rho * va**2 * sw * bw * cr_delta_r)
        except OverflowError:
            raise _overflowing_airspeed(va) from None

    def roll_pitch(va: float) -> tuple[float, ...]:
        try:
            scale = half_rho * va**2 * sw * cbar / iyy
            return (neg_quarter_rho * va * sw * bw_sq * c_p_p,
                    half_rho * va**2 * sw * bw * c_p_delta_a,
                    -scale * c_m_q * cbar / (2.0 * va), scale * c_m_delta_e,
                    -scale * c_m_alpha)
        except OverflowError:
            raise _overflowing_airspeed(va) from None
    return heading, roll_pitch


def _overflowing_airspeed(va: float) -> AirDataError:
    return AirDataError(f"the plants at airspeed {va:g} m/s overflow")


def plant_report(airframe: Airframe, va: float) -> Plants:
    """The three designed plants at airspeed va, as the gain schedules
    see them: heading at va, roll and pitch at va floored at
    MIN_SCHEDULING_AIRSPEED. A rudder without authority reads a_psi2 = 0."""
    heading, roll_pitch = _plant_models(airframe, rudder=False)
    floored = MIN_SCHEDULING_AIRSPEED if va < MIN_SCHEDULING_AIRSPEED else va
    return Plants(*heading(va), *roll_pitch(floored))


def make_gain_schedule(mode: str, airframe: Airframe, ctrl: ControllerSettings
                       ) -> Callable[[float, float], RatcGains | AotcGains]:
    """Gain schedule of one lateral law plus the longitudinal holds, built
    once per controller. schedule(va, vg) places the poles of the plants at
    va (heading for ratc, roll and pitch), the aotc course PI on the
    kinematic plant chi_dot = g/Vg*phi and the altitude PI on h_dot =
    Va*theta. va and vg are floored at MIN_SCHEDULING_AIRSPEED, except in
    the heading plant; the laws read the gains that do not vary from ctrl.
    """
    if mode not in ("aotc", "ratc"):
        raise ConfigError(f"controller mode must be aotc or ratc, got "
                          f"{mode!r}")
    heading, roll_pitch = _plant_models(airframe, rudder=mode == "ratc")
    wn_roll, zeta_roll = ctrl.wn_roll, ctrl.zeta_roll
    wn_pitch, zeta_pitch = ctrl.wn_pitch, ctrl.zeta_pitch
    alt_kp_va = 2.0 * ctrl.zeta_alt * ctrl.wn_alt
    alt_ki_va = ctrl.wn_alt**2
    v_floor = MIN_SCHEDULING_AIRSPEED

    def inner_loops(va: float) -> tuple[float, ...]:   # va floored
        a_phi1, a_phi2, a_theta1, a_theta2, a_theta3 = roll_pitch(va)
        return (*place_poles(a_phi1, a_phi2, 0.0, wn_roll, zeta_roll),
                *place_poles(a_theta1, a_theta2, a_theta3, wn_pitch,
                             zeta_pitch),
                alt_kp_va / va, alt_ki_va / va)

    if mode == "ratc":
        wn_psi, zeta_psi = ctrl.wn_psi, ctrl.zeta_psi

        def ratc_schedule(va: float, vg: float) -> RatcGains:
            a_psi1, a_psi2 = heading(va)
            kp_psi, kd_psi = place_poles(a_psi1, a_psi2, 0.0, wn_psi, zeta_psi)
            va = v_floor if va < v_floor else va   # max(va, v_floor)
            return RatcGains(kp_psi, kd_psi, *inner_loops(va))
        return ratc_schedule

    wn_course = ctrl.wn_roll / ctrl.course_separation
    course_kp_per_vg = 2.0 * ctrl.zeta_course * wn_course
    course_ki_per_vg = wn_course**2
    gravity = airframe.params.gravity

    def aotc_schedule(va: float, vg: float) -> AotcGains:
        vg = v_floor if vg < v_floor else vg
        va = v_floor if va < v_floor else va
        return AotcGains(course_kp_per_vg * vg / gravity,
                         course_ki_per_vg * vg / gravity, *inner_loops(va))
    return aotc_schedule


def _saturating_pi(p_term: float, ki: float, integrator: float,
                   error: float, dt: float, center: float, span: float,
                   int_span: float) -> tuple[float, float]:
    """One PI step, output = p_term + ki*integrator clamped to
    center +- span. Returns (clamped output, new integrator).

    Anti-windup: the integrator holds while the output is saturated and
    the error would push it deeper, and its magnitude is kept within
    int_span/ki, so the integral term alone never exceeds int_span. With
    ki = 0 the loop is a pure P(D): the integrator is left as it is.
    """
    raw = p_term + ki * integrator
    if ki > 0.0:
        offset = raw - center
        if not (abs(offset) > span and offset * error > 0.0):
            integrator += error * dt
        bound = int_span / ki
        integrator = clamp(integrator, -bound, bound)
        raw = p_term + ki * integrator
    return clamp(raw, center - span, center + span), integrator


def ratc_step(chi_cmd: float, state: AircraftState, airdata: AirData,
              gains: RatcGains, course_int: float, roll_int: float, dt: float,
              params: AircraftParams, ctrl: ControllerSettings
              ) -> tuple[float, float, float, float]:
    """One rudder-augmented lateral step: (delta_a, delta_r, course_int,
    roll_int); the course integrator is passed through.

    The course command is tracked directly as a heading command (the
    single tracked error of this topology); sideslip is left to act as a
    disturbance. The ailerons independently regulate phi -> 0.
    """
    psi_err = wrap_pi(chi_cmd - state.psi)
    delta_r_raw = gains.kp_psi * psi_err - gains.kd_psi * state.r
    delta_r = clamp(delta_r_raw, -params.delta_r_max, params.delta_r_max)

    roll_err = -state.phi
    delta_a, roll_int = _saturating_pi(
        gains.kp_roll * roll_err - gains.kd_roll * state.p, ctrl.ki_roll,
        roll_int, roll_err, dt, 0.0, params.delta_a_max, params.delta_a_max)
    return delta_a, delta_r, course_int, roll_int


def aotc_step(chi_cmd: float, state: AircraftState, airdata: AirData,
              gains: AotcGains, course_int: float, roll_int: float, dt: float,
              params: AircraftParams, ctrl: ControllerSettings
              ) -> tuple[float, float, float, float]:
    """One aileron-only lateral step: (delta_a, delta_r=0, course_int,
    roll_int); the roll integrator is passed through.

    Two tracked errors: course error shaping the bank command through the
    outer PI, and roll error closed by the inner PD.
    """
    chi_err = wrap_pi(chi_cmd - airdata.chi)
    phi_cmd, course_int = _saturating_pi(
        gains.kp_course * chi_err, gains.ki_course, course_int, chi_err, dt,
        0.0, ctrl.bank_limit, ctrl.bank_limit)

    phi_err = phi_cmd - state.phi
    delta_a_raw = gains.kp_roll * phi_err - gains.kd_roll * state.p
    delta_a = clamp(delta_a_raw, -params.delta_a_max, params.delta_a_max)
    return delta_a, 0.0, course_int, roll_int


def longitudinal_holds(state: AircraftState, airdata: AirData, h_cmd: float,
                       va_cmd: float, gains: RatcGains | AotcGains,
                       alt_int: float, va_int: float, dt: float,
                       trim_theta: float, trim_cmd: ControlCommand,
                       params: AircraftParams, ctrl: ControllerSettings
                       ) -> tuple[float, float, float, float]:
    """Altitude (PI -> pitch PD -> elevator) and airspeed (PI -> throttle)
    holds around the trim operating point. Returns (delta_e, delta_t,
    alt_int, va_int).

    The throttle's integral term may span the whole 0..1 range."""
    h_err = h_cmd + state.pd    # pd is minus the altitude
    theta_offset, alt_int = _saturating_pi(
        gains.kp_h * h_err, gains.ki_h, alt_int, h_err, dt, 0.0,
        ctrl.pitch_limit, ctrl.pitch_limit)
    theta_cmd = trim_theta + theta_offset

    delta_e_raw = (gains.kp_theta * (theta_cmd - state.theta)
                   - gains.kd_theta * state.q + trim_cmd.delta_e)
    delta_e = clamp(delta_e_raw, -params.delta_e_max, params.delta_e_max)

    va_err = va_cmd - airdata.va
    delta_t, va_int = _saturating_pi(
        trim_cmd.delta_t + ctrl.kp_airspeed * va_err, ctrl.ki_airspeed,
        va_int, va_err, dt, 0.5, 0.5, 1.0)
    return delta_e, delta_t, alt_int, va_int


def _rate_limited(new: float, old: float, max_step: float) -> float:
    """new, or old moved by at most max_step toward it."""
    step = new - old
    if abs(step) <= max_step:
        return new
    return old + math.copysign(max_step, step)


def apply_rate_limits(delta_a: float, delta_e: float, delta_r: float,
                      delta_t: float, prev: ControlCommand | None,
                      params: AircraftParams, dt: float) -> ControlCommand:
    """The step's command: the surface deflections rate limited against
    the previous command (none before the first step), the throttle as
    it is."""
    if prev is None:
        return ControlCommand(delta_a, delta_e, delta_r, delta_t)
    max_step = params.rate_limit * dt
    return ControlCommand(
        _rate_limited(delta_a, prev.delta_a, max_step),
        _rate_limited(delta_e, prev.delta_e, max_step),
        _rate_limited(delta_r, prev.delta_r, max_step),
        delta_t,
    )
