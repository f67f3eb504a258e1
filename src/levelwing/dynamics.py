"""Nonlinear six-degree-of-freedom fixed-wing rigid-body model.

State convention: NED inertial position, body-axis air-relative velocity,
ZYX (yaw-pitch-roll) Euler attitude, body angular rates. Wind enters the
navigation kinematics only, so (u, v, w) stay air-relative and a steady or
slowly varying wind field needs no extra acceleration terms.

Forces and moments use the standard linear coefficient buildup with rate
terms normalized by 2*Va. Rotational dynamics use the reduced inertia
terms (gamma_1..gamma_8) so the roll/yaw equations are explicit in the
angular accelerations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .angles import clamp, wrap_pi
from .errors import (
    ConfigError,
    IntegrationFaultError,
    SingularityError,
    TrimFailureError,
    bounded,
    check_fields,
)

# Rate terms divide by 2*Va; below this airspeed the aerodynamic
# contribution is zeroed instead of blowing up.
MIN_AERO_AIRSPEED = 0.1

# Abort this close (rad) to the theta = +/-90 deg Euler singularity.
PITCH_SINGULARITY_MARGIN = 0.01
_PITCH_LIMIT = math.pi / 2.0 - PITCH_SINGULARITY_MARGIN

# Angle of attack (rad) still treated as inside the linear-lift range when
# locating the slowest trimmable airspeed.
LINEAR_ALPHA_LIMIT = math.radians(12.0)

# Trim converges when the residual falls below TRIM_TOL / 10, and its
# full six-axis check passes below TRIM_TOL.
TRIM_TOL = 1e-6
TRIM_MAX_ITER = 200


class AircraftState(NamedTuple):
    """Rigid-body state: position (NED, m), body air-relative velocity
    (m/s), Euler attitude (rad), and body rates (rad/s).

    The named tuple is the twelve-value vector the integrator advances,
    in field order; state[:3] is the NED position.
    """

    pn: float = 0.0
    pe: float = 0.0
    pd: float = 0.0
    u: float = 0.0
    v: float = 0.0
    w: float = 0.0
    phi: float = 0.0
    theta: float = 0.0
    psi: float = 0.0
    p: float = 0.0
    q: float = 0.0
    r: float = 0.0


class ControlCommand(NamedTuple):
    """Actuator command: surface deflections (rad) and throttle [0, 1],
    in the order the dynamics kernel reads them."""

    delta_a: float = 0.0
    delta_e: float = 0.0
    delta_r: float = 0.0
    delta_t: float = 0.0


@dataclass(frozen=True, kw_only=True)
class AircraftParams:
    """Physical aircraft description, checked when it is made.

    All aerodynamic derivatives are per radian. Actuator limits are in
    radians (surfaces) and rad/s (slew); throttle is dimensionless [0, 1].
    A field without a default is a key every aircraft file must give.
    """

    mass: float = bounded(gt=0.0)
    ixx: float = bounded(gt=0.0)
    iyy: float = bounded(gt=0.0)
    izz: float = bounded(gt=0.0)
    ixz: float = bounded(0.0, squared=True)
    wing_area: float = bounded(gt=0.0)
    wing_span: float = bounded(gt=0.0, squared=True)
    mean_chord: float = bounded(gt=0.0)
    rho: float = bounded(1.2682, gt=0.0)
    gravity: float = bounded(9.81, gt=0.0)

    # Side force
    c_y_0: float = 0.0
    c_y_beta: float
    c_y_p: float = 0.0
    c_y_r: float = 0.0
    c_y_delta_a: float = 0.0
    c_y_delta_r: float = 0.0
    # Roll moment
    c_ell_0: float = 0.0
    c_ell_beta: float
    c_ell_p: float
    c_ell_r: float
    c_ell_delta_a: float
    c_ell_delta_r: float = 0.0
    # Yaw moment
    c_n_0: float = 0.0
    c_n_beta: float
    c_n_p: float
    c_n_r: float
    c_n_delta_a: float = 0.0
    c_n_delta_r: float
    # Lift / drag / pitch moment
    c_lift_0: float
    c_lift_alpha: float
    c_lift_q: float = 0.0
    c_lift_delta_e: float = 0.0
    c_drag_0: float
    c_drag_alpha: float = 0.0
    c_m_0: float
    c_m_alpha: float
    c_m_q: float
    c_m_delta_e: float
    # Propulsion: thrust = delta_t * (max_thrust - thrust_airspeed_decay*Va^2)
    max_thrust: float
    thrust_airspeed_decay: float = 0.0
    # Actuator limits
    delta_a_max: float = bounded(math.radians(25.0), gt=0.0)
    delta_e_max: float = bounded(math.radians(25.0), gt=0.0)
    delta_r_max: float = bounded(math.radians(25.0), gt=0.0)
    rate_limit: float = bounded(math.radians(400.0), gt=0.0)

    @property
    def weight(self) -> float:
        return self.mass * self.gravity

    def __post_init__(self) -> None:
        check_fields(self)
        if self.ixx * self.izz - self.ixz**2 <= 0.0:
            raise ConfigError(
                "degenerate inertia tensor: ixx*izz - ixz^2 must be positive"
            )


class AirData(NamedTuple):
    """Derived air/ground reference quantities for one state."""

    va: float
    vg: float
    alpha: float
    beta: float
    chi: float


class GammaSet(NamedTuple):
    """Reduced inertia terms for the explicit roll/yaw rate equations."""

    gamma1: float
    gamma2: float
    gamma3: float
    gamma4: float
    gamma5: float
    gamma6: float
    gamma7: float
    gamma8: float


class Environment(NamedTuple):
    """Wind in NED (m/s), in the order the dynamics kernel reads it.
    Gusts are added per step by the caller."""

    wind_n: float = 0.0
    wind_e: float = 0.0
    wind_d: float = 0.0


# Gust noise rows drawn from the generator at once. The generator fills
# an (n, 3) draw row by row, so the stream equals one draw of 3 per step.
_GUST_BLOCK_ROWS = 256
_CALM = (0.0, 0.0, 0.0)


class GustModel:
    """Seeded first-order colored-noise gust generator.

    Each NED component is an independent discrete Ornstein-Uhlenbeck
    process with correlation time tau and stationary standard deviation
    equal to intensity. intensity = 0 keeps the output exactly zero while
    still being deterministic for a given seed.
    """

    def __init__(self, intensity: float, tau: float, dt: float, seed: int = 0):
        if tau <= 0.0 or dt <= 0.0:
            raise ConfigError("gust tau and dt must be positive")
        if intensity < 0.0:
            raise ConfigError("gust intensity must be non-negative")
        self.intensity = intensity
        self._decay = math.exp(-dt / tau)
        self._scale = intensity * math.sqrt(max(0.0, 1.0 - self._decay**2))
        self._rng = np.random.default_rng(seed)
        self._noise = iter(())
        self._state = _CALM

    def step(self) -> tuple[float, float, float]:
        """The NED gust (m/s) of the next step."""
        if self.intensity == 0.0:
            return _CALM
        noise = next(self._noise, None)
        if noise is None:
            self._noise = iter(self._rng.standard_normal(
                (_GUST_BLOCK_ROWS, 3)).tolist())
            noise = next(self._noise)
        decay, scale = self._decay, self._scale
        (gn, ge, gd), (nn, ne, nd) = self._state, noise
        self._state = (decay * gn + scale * nn, decay * ge + scale * ne,
                       decay * gd + scale * nd)
        return self._state


def body_to_ned(u: float, v: float, w: float, sphi: float, cphi: float,
                sth: float, cth: float, spsi: float,
                cpsi: float) -> tuple[float, float, float]:
    """The body-frame vector (u, v, w) rotated to NED by the ZYX Euler
    rotation, given the sines and cosines of roll, pitch and yaw."""
    ss, cs = sphi * sth, cphi * sth
    return ((cth * cpsi) * u + (ss * cpsi - cphi * spsi) * v
            + (cs * cpsi + sphi * spsi) * w,
            (cth * spsi) * u + (ss * spsi + cphi * cpsi) * v
            + (cs * spsi - sphi * cpsi) * w,
            -sth * u + sphi * cth * v + cphi * cth * w)


def _airspeed_angles(u: float, v: float,
                    w: float) -> tuple[float, float, float]:
    """(Va, alpha, beta) of the body air-relative velocity. Below
    MIN_AERO_AIRSPEED the flow angles are undefined and reported as 0."""
    va = math.sqrt(u**2 + v**2 + w**2)
    if va < MIN_AERO_AIRSPEED:
        return va, 0.0, 0.0
    return va, math.atan2(w, u), math.asin(clamp(v / va, -1.0, 1.0))


def air_data(state: AircraftState, env: Environment) -> AirData:
    """Airspeed/ground-speed quantities for the current state and wind.

    The ground velocity is the kernel's navigation rate: the same
    body_to_ned rotation plus the wind."""
    _, _, _, u, v, w, phi, theta, psi, _, _, _ = state
    va, alpha, beta = _airspeed_angles(u, v, w)
    gn, ge, gd = body_to_ned(u, v, w, math.sin(phi), math.cos(phi),
                             math.sin(theta), math.cos(theta),
                             math.sin(psi), math.cos(psi))
    vn, ve, vd = gn + env.wind_n, ge + env.wind_e, gd + env.wind_d
    horizontal = math.hypot(vn, ve)
    vg = math.sqrt(horizontal**2 + vd**2)
    chi = math.atan2(ve, vn) if horizontal > 1e-9 else 0.0
    return AirData(va, vg, alpha, beta, wrap_pi(chi))


def gamma_terms(params: AircraftParams) -> GammaSet:
    """Reduced inertia terms from the (ixx, iyy, izz, ixz) tensor."""
    ixx, iyy, izz, ixz = params.ixx, params.iyy, params.izz, params.ixz
    det = ixx * izz - ixz**2
    return GammaSet(
        gamma1=ixz * (ixx - iyy + izz) / det,
        gamma2=(izz * (izz - iyy) + ixz**2) / det,
        gamma3=izz / det,
        gamma4=ixz / det,
        gamma5=(izz - ixx) / iyy,
        gamma6=ixz / iyy,
        gamma7=((ixx - iyy) * ixx + ixz**2) / det,
        gamma8=ixx / det,
    )


def _check_pitch(theta: float, state) -> None:
    """Abort inside the singularity margin of theta = +/-90 deg."""
    if abs(theta) >= _PITCH_LIMIT:
        raise SingularityError(
            f"pitch {math.degrees(theta):.2f} deg too close to +/-90 deg",
            state=state,
        )


class Airframe(NamedTuple):
    """One airframe, bound once per run: its parameters, its reduced
    inertia terms and its rigid-body model on plain floats. Trim, the
    integrator and the gain schedule all read this one value.

    loads(u, v, w, sphi, cphi, sth, cth, p, q, r, delta_a, delta_e,
    delta_r, delta_t) is the force buildup: the body forces (N) and
    moments (N*m) (fx, fy, fz, l, m, n), given the sines and cosines of
    roll and pitch. stage(u, v, w, phi, theta, psi, p, q, r, delta_a,
    delta_e, delta_r, delta_t, wind_n, wind_e, wind_d) is one RK4 stage:
    the twelve state derivatives in AircraftState field order, the wind
    in NED (m/s). It never sees the position, so its pitch error carries
    no state.
    """

    params: AircraftParams
    gammas: GammaSet
    loads: Callable[..., tuple[float, ...]]
    stage: Callable[..., tuple[float, ...]]


def make_airframe(params: AircraftParams) -> Airframe:
    """Bind the airframe's constants once into its loads and stage. loads
    takes the sines and cosines of roll and pitch, so that a stage
    computes them once for the forces and the equations of motion."""
    gammas = gamma_terms(params)
    weight = params.weight
    inv_mass = 1.0 / params.mass
    half_rho = 0.5 * params.rho
    sw, bw, cbar, iyy = (params.wing_area, params.wing_span,
                         params.mean_chord, params.iyy)
    max_thrust, thrust_decay = params.max_thrust, params.thrust_airspeed_decay
    c_lift_0, c_lift_alpha, c_lift_q, c_lift_delta_e = (
        params.c_lift_0, params.c_lift_alpha, params.c_lift_q,
        params.c_lift_delta_e)
    c_drag_0, c_drag_alpha = params.c_drag_0, params.c_drag_alpha
    c_y_0, c_y_beta, c_y_p, c_y_r, c_y_delta_a, c_y_delta_r = (
        params.c_y_0, params.c_y_beta, params.c_y_p, params.c_y_r,
        params.c_y_delta_a, params.c_y_delta_r)
    c_ell_0, c_ell_beta, c_ell_p, c_ell_r, c_ell_delta_a, c_ell_delta_r = (
        params.c_ell_0, params.c_ell_beta, params.c_ell_p, params.c_ell_r,
        params.c_ell_delta_a, params.c_ell_delta_r)
    c_m_0, c_m_alpha, c_m_q, c_m_delta_e = (
        params.c_m_0, params.c_m_alpha, params.c_m_q, params.c_m_delta_e)
    c_n_0, c_n_beta, c_n_p, c_n_r, c_n_delta_a, c_n_delta_r = (
        params.c_n_0, params.c_n_beta, params.c_n_p, params.c_n_r,
        params.c_n_delta_a, params.c_n_delta_r)
    g1, g2, g3, g4, g5, g6, g7, g8 = (
        gammas.gamma1, gammas.gamma2, gammas.gamma3, gammas.gamma4,
        gammas.gamma5, gammas.gamma6, gammas.gamma7, gammas.gamma8)
    sin, cos = math.sin, math.cos

    def loads(u, v, w, sphi, cphi, sth, cth, p, q, r,
              delta_a, delta_e, delta_r, delta_t):
        fx = -weight * sth
        fy = weight * sphi * cth
        fz = weight * cphi * cth

        va, alpha, beta = _airspeed_angles(u, v, w)
        va2 = va**2
        fx += delta_t * (max_thrust - thrust_decay * va2)
        if va < MIN_AERO_AIRSPEED:
            return fx, fy, fz, 0.0, 0.0, 0.0

        qbar_s = half_rho * va2 * sw
        two_va = 2.0 * va
        p_hat = bw * p / two_va
        q_hat = cbar * q / two_va
        r_hat = bw * r / two_va

        lift = qbar_s * (c_lift_0 + c_lift_alpha * alpha + c_lift_q * q_hat
                         + c_lift_delta_e * delta_e)
        drag = qbar_s * (c_drag_0 + c_drag_alpha * alpha)
        ca, sa = cos(alpha), sin(alpha)
        fx += -drag * ca + lift * sa
        fz += -drag * sa - lift * ca

        fy += qbar_s * (c_y_0 + c_y_beta * beta + c_y_p * p_hat
                        + c_y_r * r_hat + c_y_delta_a * delta_a
                        + c_y_delta_r * delta_r)
        qbar_s_b = qbar_s * bw
        l = qbar_s_b * (c_ell_0 + c_ell_beta * beta + c_ell_p * p_hat
                        + c_ell_r * r_hat + c_ell_delta_a * delta_a
                        + c_ell_delta_r * delta_r)
        m = qbar_s * cbar * (c_m_0 + c_m_alpha * alpha + c_m_q * q_hat
                             + c_m_delta_e * delta_e)
        n = qbar_s_b * (c_n_0 + c_n_beta * beta + c_n_p * p_hat
                        + c_n_r * r_hat + c_n_delta_a * delta_a
                        + c_n_delta_r * delta_r)
        return fx, fy, fz, l, m, n

    def stage(u, v, w, phi, theta, psi, p, q, r,
              delta_a, delta_e, delta_r, delta_t, wind_n, wind_e, wind_d):
        sphi, cphi, sth, cth = sin(phi), cos(phi), sin(theta), cos(theta)
        fx, fy, fz, l, m, n = loads(u, v, w, sphi, cphi, sth, cth, p, q, r,
                                    delta_a, delta_e, delta_r, delta_t)
        if abs(theta) >= _PITCH_LIMIT:
            _check_pitch(theta, None)
        tth = sth / cth

        # Navigation: rotate the air-relative body velocity to NED, add wind.
        gn, ge, gd = body_to_ned(u, v, w, sphi, cphi, sth, cth,
                                 sin(psi), cos(psi))

        u_dot = r * v - q * w + fx * inv_mass
        v_dot = p * w - r * u + fy * inv_mass
        w_dot = q * u - p * v + fz * inv_mass

        psi_dot_cth = q * sphi + r * cphi   # psi_dot * cos(theta)
        phi_dot = p + tth * psi_dot_cth
        theta_dot = q * cphi - r * sphi
        psi_dot = psi_dot_cth / cth

        p_dot = g1 * p * q - g2 * q * r + g3 * l + g4 * n
        q_dot = g5 * p * r - g6 * (p**2 - r**2) + m / iyy
        r_dot = g7 * p * q - g1 * q * r + g4 * l + g8 * n

        return (gn + wind_n, ge + wind_e, gd + wind_d, u_dot, v_dot, w_dot,
                phi_dot, theta_dot, psi_dot, p_dot, q_dot, r_dot)

    return Airframe(params, gammas, loads, stage)


def clamp_command(cmd: Sequence[float],
                  params: AircraftParams) -> tuple[float, float, float, float]:
    """The four command values (ControlCommand order) with the surface
    deflections clamped to their limits and the throttle to [0, 1]."""
    delta_a, delta_e, delta_r, delta_t = cmd
    a, e, r = params.delta_a_max, params.delta_e_max, params.delta_r_max
    return (clamp(delta_a, -a, a), clamp(delta_e, -e, e),
            clamp(delta_r, -r, r), clamp(delta_t, 0.0, 1.0))


def integrate_step(
    state: AircraftState,
    cmd: ControlCommand,
    env: Environment,
    airframe: Airframe,
    dt: float,
) -> AircraftState:
    """Advance the state one fixed RK4 step of the airframe's dynamics
    kernel with the command held constant.

    The actuator limits are applied here, at the plant. phi and psi are
    wrapped onto (-pi, pi] after the step; a pitch inside the singularity
    margin, a non-finite component, or an overflow or an infinite angle in
    a stage aborts. A pitch error inside a stage carries that stage's
    state, y + h*k.
    """
    if dt <= 0.0:
        raise ConfigError("integration step must be positive")
    params, _, _, stage = airframe
    delta_a, delta_e, delta_r, delta_t = clamp_command(cmd, params)
    wind_n, wind_e, wind_d = env
    pn, pe, pd, u, v, w, phi, theta, psi, p, q, r = state
    h = 0.5 * dt
    k1 = k2 = k3 = None
    try:
        k1 = stage(u, v, w, phi, theta, psi, p, q, r,
                   delta_a, delta_e, delta_r, delta_t, wind_n, wind_e, wind_d)
        (dpn1, dpe1, dpd1, du1, dv1, dw1,
         dphi1, dth1, dpsi1, dp1, dq1, dr1) = k1
        k2 = stage(u + h * du1, v + h * dv1, w + h * dw1, phi + h * dphi1,
                   theta + h * dth1, psi + h * dpsi1,
                   p + h * dp1, q + h * dq1, r + h * dr1,
                   delta_a, delta_e, delta_r, delta_t, wind_n, wind_e, wind_d)
        (dpn2, dpe2, dpd2, du2, dv2, dw2,
         dphi2, dth2, dpsi2, dp2, dq2, dr2) = k2
        k3 = stage(u + h * du2, v + h * dv2, w + h * dw2, phi + h * dphi2,
                   theta + h * dth2, psi + h * dpsi2,
                   p + h * dp2, q + h * dq2, r + h * dr2,
                   delta_a, delta_e, delta_r, delta_t, wind_n, wind_e, wind_d)
        (dpn3, dpe3, dpd3, du3, dv3, dw3,
         dphi3, dth3, dpsi3, dp3, dq3, dr3) = k3
        (dpn4, dpe4, dpd4, du4, dv4, dw4,
         dphi4, dth4, dpsi4, dp4, dq4, dr4) = stage(
            u + dt * du3, v + dt * dv3, w + dt * dw3, phi + dt * dphi3,
            theta + dt * dth3, psi + dt * dpsi3,
            p + dt * dp3, q + dt * dq3, r + dt * dr3,
            delta_a, delta_e, delta_r, delta_t, wind_n, wind_e, wind_d)
    except SingularityError as exc:
        # The stage that raised is the first whose k is unset; its state
        # is y + h*k of the stage before it, or y itself.
        if k1 is None:
            at = state
        else:
            hk, k = ((h, k1) if k2 is None else (h, k2) if k3 is None
                     else (dt, k3))
            at = AircraftState._make(a + hk * b for a, b in zip(state, k))
        raise SingularityError(str(exc), state=at) from None
    except OverflowError as exc:
        raise IntegrationFaultError(f"overflow in integration step: {exc}",
                                    state=state) from exc
    except ValueError as exc:   # the sine of a stage's infinite angle
        raise IntegrationFaultError(f"non-finite stage state in integration "
                                    f"step: {exc}", state=state) from exc
    c = dt / 6.0
    y1 = (pn + c * (dpn1 + 2.0 * dpn2 + 2.0 * dpn3 + dpn4),
          pe + c * (dpe1 + 2.0 * dpe2 + 2.0 * dpe3 + dpe4),
          pd + c * (dpd1 + 2.0 * dpd2 + 2.0 * dpd3 + dpd4),
          u + c * (du1 + 2.0 * du2 + 2.0 * du3 + du4),
          v + c * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4),
          w + c * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4),
          phi + c * (dphi1 + 2.0 * dphi2 + 2.0 * dphi3 + dphi4),
          theta + c * (dth1 + 2.0 * dth2 + 2.0 * dth3 + dth4),
          psi + c * (dpsi1 + 2.0 * dpsi2 + 2.0 * dpsi3 + dpsi4),
          p + c * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4),
          q + c * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4),
          r + c * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4))
    if not all(map(math.isfinite, y1)):
        raise IntegrationFaultError("non-finite state after integration step",
                                    state=state)
    pn, pe, pd, u, v, w, phi, theta, psi, p, q, r = y1
    out = AircraftState(pn, pe, pd, u, v, w, wrap_pi(phi), theta,
                        wrap_pi(psi), p, q, r)
    if abs(theta) >= _PITCH_LIMIT:
        _check_pitch(theta, out)
    return out


def stall_floor(params: AircraftParams) -> float:
    """Slowest level-flight airspeed with alpha inside the linear range."""
    c_lift_max = params.c_lift_0 + params.c_lift_alpha * LINEAR_ALPHA_LIMIT
    if c_lift_max <= 0.0:
        raise ConfigError("lift model cannot carry weight at any alpha")
    return math.sqrt(
        2.0 * params.weight / (params.rho * params.wing_area * c_lift_max)
    )


def trim(airframe: Airframe,
         va_target: float) -> tuple[AircraftState, ControlCommand]:
    """Solve wings-level, straight and level trim at the target airspeed.

    Damped Newton iteration on (alpha, delta_e, delta_t) driving the
    (u_dot, w_dot, q_dot) residual to zero; lateral variables are pinned
    at zero, which is exact for a laterally symmetric configuration, and
    level flight pins theta = alpha. The wind enters only the navigation
    rows, which no residual reads, so trim takes none. The returned pair
    re-evaluates to a full six-axis residual below TRIM_TOL.
    """
    params, _, _, stage = airframe
    if not math.isfinite(va_target):
        raise ConfigError(f"trim airspeed must be finite, got {va_target}")
    floor = stall_floor(params)
    if va_target <= floor:
        raise ConfigError(
            f"trim airspeed {va_target:.1f} m/s is at or below the "
            f"linear-range floor {floor:.1f} m/s"
        )

    def derivatives(x: np.ndarray) -> tuple[float, ...]:
        # theta = alpha, so this is the stage's own pitch check; an alpha
        # past it is a diverged iterate, however near a level one it wraps.
        alpha, delta_e, delta_t = float(x[0]), float(x[1]), float(x[2])
        if abs(alpha) >= _PITCH_LIMIT:
            raise TrimFailureError(
                f"trim at {va_target:g} m/s diverged: Newton iterate alpha "
                f"{math.degrees(alpha):.2f} deg (wrapped "
                f"{math.degrees(wrap_pi(alpha)):.2f} deg) is past the pitch "
                f"limit of +/-{math.degrees(_PITCH_LIMIT):.2f} deg")
        try:
            return stage(va_target * math.cos(alpha), 0.0,
                         va_target * math.sin(alpha), 0.0, alpha, 0.0,
                         0.0, 0.0, 0.0, 0.0, delta_e, 0.0, delta_t, *_CALM)
        except OverflowError as exc:
            raise TrimFailureError(f"trim at {va_target:g} m/s overflows: "
                                   f"{exc}") from exc

    def residual(x: np.ndarray) -> np.ndarray:
        deriv = derivatives(x)
        return np.array([deriv[3], deriv[5], deriv[10]])  # u_dot, w_dot, q_dot

    x = np.array([0.05, 0.0, 0.5])
    res = residual(x)
    worst = float(np.max(np.abs(res)))  # the residual's largest magnitude
    # The line search keeps only smaller residuals: only this one can be nan.
    if not math.isfinite(worst):
        raise TrimFailureError(f"trim at {va_target:g} m/s has a non-finite "
                               f"residual {res.tolist()}", residual=worst)
    for _ in range(TRIM_MAX_ITER):
        if worst < 0.1 * TRIM_TOL:
            break
        jac = np.zeros((3, 3))
        h = 1e-7
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = h
            jac[:, j] = (residual(x + dx) - residual(x - dx)) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise TrimFailureError(f"singular trim Jacobian: {exc}",
                                   residual=worst) from exc
        # Backtracking damping: halve the step until the residual shrinks.
        lam = 1.0
        while lam >= 1.0 / 64.0:
            x_new = x - lam * step
            res_new = residual(x_new)
            worst_new = float(np.max(np.abs(res_new)))
            if worst_new < worst:
                break
            lam /= 2.0
        else:
            raise TrimFailureError("trim line search stalled", residual=worst)
        x, res, worst = x_new, res_new, worst_new
    if worst >= 0.1 * TRIM_TOL:
        raise TrimFailureError(
            f"trim did not converge in {TRIM_MAX_ITER} iterations",
            residual=worst,
        )

    alpha, delta_e, delta_t = float(x[0]), float(x[1]), float(x[2])
    if not 0.0 <= delta_t <= 1.0:
        raise TrimFailureError(
            f"trim throttle {delta_t:.3f} outside [0, 1]",
            residual=worst,
        )
    if abs(delta_e) > params.delta_e_max:
        raise TrimFailureError(
            f"trim elevator {math.degrees(delta_e):.1f} deg exceeds limit",
            residual=worst,
        )

    # Full six-axis check.
    deriv = derivatives(x)
    full = max(abs(d) for d in deriv[3:6] + deriv[9:12])
    if full >= TRIM_TOL:
        raise TrimFailureError("trim residual check failed", residual=full)
    return (AircraftState(u=va_target * math.cos(alpha),
                          w=va_target * math.sin(alpha), theta=alpha),
            ControlCommand(0.0, delta_e, 0.0, delta_t))
