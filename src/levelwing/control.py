"""Lateral control laws and longitudinal holds.

Two interchangeable lateral correctors share the guidance course command:

* aileron-only (aotc): successive loop closure, an outer course PI
  producing a bank command and an inner roll PD producing aileron; the
  rudder stays at trim.
* rudder-augmented (ratc): the course command is treated as a heading
  command tracked by a rudder PD synthesized from the second-order
  heading plant, while an independent wings-level roll hold keeps the
  camera axis vertical.

All gains are synthesized from the aircraft parameters at the current
airspeed, so they reschedule automatically as flight condition changes.
Controllers are pure step functions over an explicit LoopState value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .angles import wrap_pi
from .dynamics import (
    AircraftParams,
    AircraftState,
    AirData,
    CombinedYawCoeffs,
    ControlCommand,
    GammaSet,
)
from .errors import ConfigError, UncontrollablePlantError

# Floor applied to the airspeed used for gain scheduling, so a start-up
# transient cannot divide by zero.
MIN_SCHEDULING_AIRSPEED = 1.0


@dataclass
class RatcGains:
    """Rudder-channel PD gains and the design point they realize."""

    kp_psi: float
    kd_psi: float
    wn_psi: float
    zeta_psi: float


@dataclass
class RollGains:
    """Roll-loop gains: PD for tracking, optional integral for the
    wings-level hold."""

    kp: float
    kd: float
    ki: float
    wn: float
    zeta: float


@dataclass
class CourseGains:
    """Course-loop PI gains (bank command from course error)."""

    kp: float
    ki: float
    wn: float
    zeta: float


@dataclass
class AotcGains:
    """Aileron-only corrector gain set: inner roll PD + outer course PI."""

    roll: RollGains
    course: CourseGains
    separation: float

    def validate(self) -> None:
        if self.course.wn > self.roll.wn / self.separation + 1e-12:
            raise ConfigError(
                "course-loop natural frequency must not exceed roll-loop "
                "natural frequency divided by the separation factor"
            )


@dataclass
class LonGains:
    """Longitudinal hold gains: pitch PD, altitude PI, airspeed PI."""

    kp_theta: float
    kd_theta: float
    kp_h: float
    ki_h: float
    kp_va: float
    ki_va: float
    theta_limit: float


@dataclass
class ScheduledGains:
    """Gains at one flight condition: the longitudinal holds plus either
    the heading plant, heading PD and roll hold (ratc) or aotc's set."""

    heading_plant: CombinedYawCoeffs | None
    heading: RatcGains | None
    roll: RollGains | None
    aotc: AotcGains | None
    lon: LonGains


@dataclass
class LoopState:
    """Mutable controller memory: integrators, previous actuator command,
    and per-step telemetry (tracked errors, saturation flags)."""

    course_int: float = 0.0
    roll_int: float = 0.0
    alt_int: float = 0.0
    va_int: float = 0.0
    prev_command: ControlCommand | None = None
    last_errors: dict = field(default_factory=dict)
    last_saturated: dict = field(default_factory=dict)


def ratc_gain_synthesis(coeffs: CombinedYawCoeffs, wn: float,
                        zeta: float) -> RatcGains:
    """PD gains placing the closed heading loop at (wn, zeta).

    The plant is psi_ddot = -a_psi1*psi_dot + a_psi2*delta_r, so
    kp = wn^2/a_psi2 and kd = (2*zeta*wn - a_psi1)/a_psi2 give the
    characteristic polynomial s^2 + 2*zeta*wn*s + wn^2 exactly.
    """
    if wn <= 0.0 or zeta <= 0.0:
        raise ConfigError("design natural frequency and damping must be positive")
    if coeffs.a_psi2 == 0.0:
        raise UncontrollablePlantError(
            "rudder effectiveness a_psi2 is zero; heading plant uncontrollable"
        )
    kp = wn**2 / coeffs.a_psi2
    kd = (2.0 * zeta * wn - coeffs.a_psi1) / coeffs.a_psi2
    return RatcGains(kp_psi=kp, kd_psi=kd, wn_psi=wn, zeta_psi=zeta)


def roll_plant(params: AircraftParams, gammas: GammaSet,
               va: float) -> tuple[float, float]:
    """(a_phi1, a_phi2) of the second-order roll plant
    phi_ddot = -a_phi1*phi_dot + a_phi2*delta_a, built by folding the yaw
    equation's inertia-coupled share into the roll buildup."""
    c_pp = gammas.gamma3 * params.c_ell_p + gammas.gamma4 * params.c_n_p
    c_p_delta_a = (gammas.gamma3 * params.c_ell_delta_a
                   + gammas.gamma4 * params.c_n_delta_a)
    rho, sw, bw = params.rho, params.wing_area, params.wing_span
    a_phi1 = -0.25 * rho * va * sw * bw**2 * c_pp
    a_phi2 = 0.5 * rho * va**2 * sw * bw * c_p_delta_a
    return a_phi1, a_phi2


def roll_gain_synthesis(params: AircraftParams, gammas: GammaSet, va: float,
                        wn: float, zeta: float, ki: float = 0.0) -> RollGains:
    """Roll PD gains placing the closed loop at (wn, zeta) at airspeed va."""
    if wn <= 0.0 or zeta <= 0.0:
        raise ConfigError("design natural frequency and damping must be positive")
    a_phi1, a_phi2 = roll_plant(params, gammas, va)
    if a_phi2 == 0.0:
        raise UncontrollablePlantError(
            "aileron effectiveness a_phi2 is zero; roll plant uncontrollable"
        )
    kp = wn**2 / a_phi2
    kd = (2.0 * zeta * wn - a_phi1) / a_phi2
    return RollGains(kp=kp, kd=kd, ki=ki, wn=wn, zeta=zeta)


def course_gain_synthesis(vg: float, gravity: float, wn: float,
                          zeta: float) -> CourseGains:
    """Course PI gains for the kinematic course plant chi_dot = g/Vg * phi."""
    if wn <= 0.0 or zeta <= 0.0:
        raise ConfigError("design natural frequency and damping must be positive")
    vg = max(vg, MIN_SCHEDULING_AIRSPEED)
    kp = 2.0 * zeta * wn * vg / gravity
    ki = wn**2 * vg / gravity
    return CourseGains(kp=kp, ki=ki, wn=wn, zeta=zeta)


def aotc_gain_synthesis(params: AircraftParams, gammas: GammaSet, va: float,
                        vg: float, wn_roll: float, zeta_roll: float,
                        separation: float, zeta_course: float) -> AotcGains:
    """Successive-loop-closure gains with the course loop slowed by the
    bandwidth separation factor."""
    if separation < 1.0:
        raise ConfigError("bandwidth separation factor must be >= 1")
    roll = roll_gain_synthesis(params, gammas, va, wn_roll, zeta_roll)
    course = course_gain_synthesis(vg, params.gravity, wn_roll / separation,
                                   zeta_course)
    gains = AotcGains(roll=roll, course=course, separation=separation)
    gains.validate()
    return gains


def pitch_plant(params: AircraftParams,
                va: float) -> tuple[float, float, float]:
    """(a_theta1, a_theta2, a_theta3): damping, elevator effectiveness,
    and static stiffness of the short-period pitch attitude plant."""
    rho, sw, cbar, iyy = (params.rho, params.wing_area, params.mean_chord,
                          params.iyy)
    scale = 0.5 * rho * va**2 * sw * cbar / iyy
    a_theta1 = -scale * params.c_m_q * cbar / (2.0 * va)
    a_theta2 = scale * params.c_m_delta_e
    a_theta3 = -scale * params.c_m_alpha
    return a_theta1, a_theta2, a_theta3


def lon_gain_synthesis(params: AircraftParams, va: float, wn_pitch: float,
                       zeta_pitch: float, wn_alt: float, zeta_alt: float,
                       kp_va: float, ki_va: float,
                       theta_limit: float) -> LonGains:
    """Pitch PD from the pitch plant, altitude PI from the kinematic
    h_dot = Va*theta approximation, airspeed PI as configured."""
    a_theta1, a_theta2, a_theta3 = pitch_plant(params, va)
    if a_theta2 == 0.0:
        raise UncontrollablePlantError(
            "elevator effectiveness a_theta2 is zero; pitch plant uncontrollable"
        )
    kp_theta = (wn_pitch**2 - a_theta3) / a_theta2
    kd_theta = (2.0 * zeta_pitch * wn_pitch - a_theta1) / a_theta2
    va = max(va, MIN_SCHEDULING_AIRSPEED)
    kp_h = 2.0 * zeta_alt * wn_alt / va
    ki_h = wn_alt**2 / va
    return LonGains(kp_theta=kp_theta, kd_theta=kd_theta, kp_h=kp_h,
                    ki_h=ki_h, kp_va=kp_va, ki_va=ki_va,
                    theta_limit=theta_limit)


def _integrate_conditionally(integrator: float, error: float, dt: float,
                             raw_output: float, limit: float,
                             int_bound: float) -> float:
    """Anti-windup: hold the integrator while the loop output is saturated
    and the error would push it deeper; always clamp its magnitude."""
    saturated = abs(raw_output) > limit
    if not (saturated and raw_output * error > 0.0):
        integrator += error * dt
    return max(-int_bound, min(int_bound, integrator))


def ratc_step(
    chi_cmd: float,
    state: AircraftState,
    airdata: AirData,
    gains: RatcGains,
    roll: RollGains,
    loop: LoopState,
    dt: float,
    params: AircraftParams,
) -> tuple[float, float]:
    """One rudder-augmented lateral step: (delta_a, delta_r).

    The course command is tracked directly as a heading command (the
    single tracked error of this topology); sideslip is left to act as a
    disturbance. The ailerons independently regulate phi -> 0.
    """
    psi_err = wrap_pi(chi_cmd - state.psi)
    delta_r_raw = gains.kp_psi * psi_err - gains.kd_psi * state.r
    delta_r = max(-params.delta_r_max, min(params.delta_r_max, delta_r_raw))

    roll_err = -state.phi
    delta_a_raw = roll.kp * roll_err - roll.kd * state.p + roll.ki * loop.roll_int
    if roll.ki > 0.0:
        loop.roll_int = _integrate_conditionally(
            loop.roll_int, roll_err, dt, delta_a_raw, params.delta_a_max,
            params.delta_a_max / roll.ki,
        )
        delta_a_raw = (roll.kp * roll_err - roll.kd * state.p
                       + roll.ki * loop.roll_int)
    delta_a = max(-params.delta_a_max, min(params.delta_a_max, delta_a_raw))

    loop.last_errors = {"heading": psi_err}
    loop.last_saturated = {
        "delta_r": delta_r != delta_r_raw,
        "delta_a": delta_a != delta_a_raw,
    }
    return delta_a, delta_r


def aotc_step(
    chi_cmd: float,
    state: AircraftState,
    airdata: AirData,
    gains: AotcGains,
    loop: LoopState,
    dt: float,
    params: AircraftParams,
    bank_limit: float,
) -> tuple[float, float]:
    """One aileron-only lateral step: (delta_a, delta_r=0).

    Two tracked errors: course error shaping the bank command through the
    outer PI, and roll error closed by the inner PD.
    """
    chi_err = wrap_pi(chi_cmd - airdata.chi)
    phi_cmd_raw = gains.course.kp * chi_err + gains.course.ki * loop.course_int
    loop.course_int = _integrate_conditionally(
        loop.course_int, chi_err, dt, phi_cmd_raw, bank_limit,
        bank_limit / max(gains.course.ki, 1e-9),
    )
    phi_cmd_raw = gains.course.kp * chi_err + gains.course.ki * loop.course_int
    phi_cmd = max(-bank_limit, min(bank_limit, phi_cmd_raw))

    phi_err = phi_cmd - state.phi
    delta_a_raw = gains.roll.kp * phi_err - gains.roll.kd * state.p
    delta_a = max(-params.delta_a_max, min(params.delta_a_max, delta_a_raw))

    loop.last_errors = {"course": chi_err, "roll": phi_err}
    loop.last_saturated = {
        "phi_cmd": phi_cmd != phi_cmd_raw,
        "delta_a": delta_a != delta_a_raw,
    }
    return delta_a, 0.0


def longitudinal_holds(
    state: AircraftState,
    airdata: AirData,
    h_cmd: float,
    va_cmd: float,
    gains: LonGains,
    loop: LoopState,
    dt: float,
    trim_theta: float,
    trim_cmd: ControlCommand,
    params: AircraftParams,
) -> tuple[float, float]:
    """Altitude (PI -> pitch PD -> elevator) and airspeed (PI -> throttle)
    holds around the trim operating point. Returns (delta_e, delta_t)."""
    h = -state.pd
    h_err = h_cmd - h
    theta_span = gains.theta_limit
    theta_cmd_raw = gains.kp_h * h_err + gains.ki_h * loop.alt_int
    loop.alt_int = _integrate_conditionally(
        loop.alt_int, h_err, dt, theta_cmd_raw, theta_span,
        theta_span / max(gains.ki_h, 1e-9),
    )
    theta_cmd_raw = gains.kp_h * h_err + gains.ki_h * loop.alt_int
    theta_cmd = trim_theta + max(-theta_span, min(theta_span, theta_cmd_raw))

    delta_e_raw = (gains.kp_theta * (theta_cmd - state.theta)
                   - gains.kd_theta * state.q + trim_cmd.delta_e)
    delta_e = max(-params.delta_e_max, min(params.delta_e_max, delta_e_raw))

    va_err = va_cmd - airdata.va
    delta_t_raw = (trim_cmd.delta_t + gains.kp_va * va_err
                   + gains.ki_va * loop.va_int)
    centered = delta_t_raw - 0.5
    loop.va_int = _integrate_conditionally(
        loop.va_int, va_err, dt, centered, 0.5,
        1.0 / max(gains.ki_va, 1e-9),
    )
    delta_t_raw = (trim_cmd.delta_t + gains.kp_va * va_err
                   + gains.ki_va * loop.va_int)
    delta_t = max(0.0, min(1.0, delta_t_raw))

    loop.last_saturated.update({
        "theta_cmd": theta_cmd_raw != theta_cmd - trim_theta,
        "delta_e": delta_e != delta_e_raw,
        "delta_t": delta_t != delta_t_raw,
    })
    return delta_e, delta_t


def apply_rate_limits(cmd: ControlCommand, prev: ControlCommand | None,
                      params: AircraftParams, dt: float) -> ControlCommand:
    """Limit surface deflection rates against the previous command."""
    if prev is None:
        return cmd
    max_step = params.rate_limit * dt

    def limited(new: float, old: float) -> float:
        step = new - old
        if abs(step) <= max_step:
            return new
        return old + math.copysign(max_step, step)

    return ControlCommand(
        delta_a=limited(cmd.delta_a, prev.delta_a),
        delta_e=limited(cmd.delta_e, prev.delta_e),
        delta_r=limited(cmd.delta_r, prev.delta_r),
        delta_t=cmd.delta_t,
    )
