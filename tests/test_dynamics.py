"""Rigid-body dynamics: rotations, inertia reductions, force buildup,
integration, and trim."""

import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import combined_yaw_coeffs, rk4_step
from levelwing.angles import wrap_pi
from levelwing.control import plant_report
from levelwing.dynamics import (
    PITCH_SINGULARITY_MARGIN,
    AircraftState,
    ControlCommand,
    Environment,
    GustModel,
    air_data,
    body_to_ned,
    clamp_command,
    gamma_terms,
    integrate_step,
    make_airframe,
    stall_floor,
    trim,
)
from levelwing.errors import (
    AirDataError,
    ConfigError,
    DynamicsFaultError,
    IntegrationFaultError,
    SingularityError,
    TrimFailureError,
)

CALM = Environment()
NO_COMMAND = (0.0, 0.0, 0.0, 0.0)

NamedForces = namedtuple("NamedForces", "fx fy fz l m n")


def forces(params, state, cmd):
    """The kernel's body forces and moments, by name."""
    _, _, _, u, v, w, phi, theta, _, p, q, r = state
    return NamedForces(*make_airframe(params).loads(
        u, v, w, math.sin(phi), math.cos(phi), math.sin(theta),
        math.cos(theta), p, q, r, *cmd))


def stage_at(airframe, state, cmd=NO_COMMAND, env=CALM):
    """The airframe's stage at a twelve-value state: its twelve state
    derivatives."""
    return airframe.stage(*state[3:12], *cmd, *env)


def thrust(params, va, delta_t):
    """Body-x thrust at airspeed va: the part of fx the throttle adds."""
    state = AircraftState(u=va)
    return (forces(params, state, ControlCommand(delta_t=delta_t)).fx
            - forces(params, state, ControlCommand()).fx)


def designed_plants(airframe, airdata):
    """The designed plants at the given air data."""
    return plant_report(airframe, airdata.va)


def yaw_disturbance(params, coeffs, airdata, p, delta_a):
    """The heading plant's disturbance input: the sideslip, roll-rate and
    aileron terms of the combined yaw buildup."""
    va, bw = airdata.va, params.wing_span
    qbar_s_b = 0.5 * params.rho * va**2 * params.wing_area * bw
    return qbar_s_b * (coeffs.cr_0 + coeffs.cr_beta * airdata.beta
                       + coeffs.cr_p * (bw * p / (2.0 * va))
                       + coeffs.cr_delta_a * delta_a)


def to_ned(vector, phi, theta, psi):
    """body_to_ned of a body vector at the Euler attitude (phi, theta, psi)."""
    return body_to_ned(*vector, math.sin(phi), math.cos(phi), math.sin(theta),
                       math.cos(theta), math.sin(psi), math.cos(psi))


def test_rotation_matrix_orthonormal_randomized():
    # The images of the body axes are the columns of the rotation matrix.
    rng = np.random.default_rng(1)
    for _ in range(1000):
        attitude = rng.uniform(-math.pi, math.pi, 3)
        r = np.column_stack([to_ned(axis, *attitude) for axis in np.eye(3)])
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert math.isclose(np.linalg.det(r), 1.0, abs_tol=1e-9)


def test_rotation_identity_at_zero_attitude():
    assert to_ned((19.0, -1.2, 2.1), 0.0, 0.0, 0.0) == (19.0, -1.2, 2.1)


def test_rotation_known_quarter_turns():
    # Yaw right turns the nose east, pitch up turns it up (-down), and
    # roll right turns the right wing down.
    quarter = math.pi / 2.0
    assert to_ned((1.0, 0.0, 0.0), 0.0, 0.0, quarter) == pytest.approx(
        (0.0, 1.0, 0.0), abs=1e-15)
    assert to_ned((1.0, 0.0, 0.0), 0.0, quarter, 0.0) == pytest.approx(
        (0.0, 0.0, -1.0), abs=1e-15)
    assert to_ned((0.0, 1.0, 0.0), quarter, 0.0, 0.0) == pytest.approx(
        (0.0, 0.0, 1.0), abs=1e-15)


def test_rotation_preserves_speed_randomized():
    # Zero wind: the inertial velocity norm equals the body-frame norm.
    rng = np.random.default_rng(2)
    for _ in range(200):
        attitude = rng.uniform(-math.pi, math.pi, 3)
        vel = rng.uniform(-30.0, 30.0, 3)
        rotated = to_ned(vel, *attitude)
        assert math.isclose(math.hypot(*rotated), math.hypot(*vel),
                            rel_tol=1e-10)


def test_air_data_shares_the_kernel_rotation(airframe):
    # Ground speed and course come from exactly the kernel's NED velocity.
    rng = np.random.default_rng(4)
    for _ in range(500):
        position, velocity, attitude, rates = rng.uniform(
            (-1.0, -30.0, -1.5, -1.0), (1.0, 30.0, 1.5, 1.0), (3, 4)).T
        state = AircraftState(*np.concatenate(
            [position, velocity, attitude, rates]).tolist())
        env = Environment(*rng.uniform(-10.0, 10.0, 3).tolist())
        vn, ve, vd = stage_at(airframe, state, env=env)[:3]
        ad = air_data(state, env)
        assert ad.vg == math.sqrt(math.hypot(vn, ve)**2 + vd**2)
        assert ad.chi == wrap_pi(math.atan2(ve, vn))


def test_air_data_zero_wind_matches_body_norm():
    rng = np.random.default_rng(3)
    for _ in range(100):
        state = AircraftState(
            u=rng.uniform(10.0, 30.0), v=rng.uniform(-5.0, 5.0),
            w=rng.uniform(-5.0, 5.0), phi=rng.uniform(-1.0, 1.0),
            theta=rng.uniform(-1.0, 1.0), psi=rng.uniform(-3.0, 3.0),
        )
        ad = air_data(state, CALM)
        va = math.sqrt(state.u**2 + state.v**2 + state.w**2)
        assert math.isclose(ad.va, va, rel_tol=1e-12)
        assert math.isclose(ad.vg, va, rel_tol=1e-10)


def test_air_data_angle_definitions():
    state = AircraftState(u=19.0, v=1.2, w=2.1)
    ad = air_data(state, CALM)
    va = math.sqrt(19.0**2 + 1.2**2 + 2.1**2)
    assert math.isclose(ad.alpha, math.atan2(2.1, 19.0), rel_tol=1e-12)
    assert math.isclose(ad.beta, math.asin(1.2 / va), rel_tol=1e-12)
    assert math.isclose(ad.chi, math.atan2(1.2, 19.0), rel_tol=1e-12)


def test_air_data_wind_shifts_course_not_airspeed():
    state = AircraftState(u=20.0)
    windy = Environment(wind_n=0.0, wind_e=5.0, wind_d=0.0)
    ad = air_data(state, windy)
    assert math.isclose(ad.va, 20.0, rel_tol=1e-12)
    assert math.isclose(ad.chi, math.atan2(5.0, 20.0), rel_tol=1e-12)
    assert math.isclose(ad.vg, math.hypot(20.0, 5.0), rel_tol=1e-12)


def test_gamma_hand_worked_tensor(params):
    p = replace(params, ixx=2.0, iyy=3.0, izz=4.0, ixz=0.0)
    g = gamma_terms(p)
    assert math.isclose(g.gamma2, 0.5, rel_tol=1e-15)
    assert math.isclose(g.gamma3, 0.5, rel_tol=1e-15)
    assert math.isclose(g.gamma5, 2.0 / 3.0, rel_tol=1e-15)
    assert math.isclose(g.gamma7, -0.25, rel_tol=1e-15)
    assert math.isclose(g.gamma8, 0.25, rel_tol=1e-15)
    assert g.gamma1 == g.gamma4 == g.gamma6 == 0.0


def test_gamma_golden_stock_airframe(airframe):
    expected = (
        0.12147151902172898, 0.774654501322436, 1.2252516579138608,
        0.08386600319092032, 0.8234361233480176, 0.10607929515418502,
        -0.16826312058543708, 0.5742452909517833,
    )
    assert np.allclose(tuple(airframe.gammas), expected, rtol=1e-13, atol=0.0)


def test_gamma_matches_inertia_inverse_randomized(params):
    # The (gamma3, gamma4, gamma8) block is the inverse of the coupled
    # roll/yaw inertia submatrix.
    rng = np.random.default_rng(4)
    for _ in range(300):
        ixx, iyy, izz = rng.uniform(0.3, 5.0, 3)
        ixz = rng.uniform(-0.9, 0.9) * math.sqrt(ixx * izz)
        p = replace(params, ixx=ixx, iyy=iyy, izz=izz, ixz=ixz)
        g = gamma_terms(p)
        inv = np.linalg.inv([[ixx, -ixz], [-ixz, izz]])
        assert np.allclose(
            [[g.gamma3, g.gamma4], [g.gamma4, g.gamma8]], inv, rtol=1e-10
        )


def test_gamma_rotational_equations_match_full_tensor(params):
    # Rate derivatives from the reduced terms must equal solving the full
    # Euler equations J*wdot = M - w x (J*w) with the cross-coupled tensor.
    rng = np.random.default_rng(5)
    for _ in range(300):
        ixx, iyy, izz = rng.uniform(0.3, 5.0, 3)
        ixz = rng.uniform(-0.9, 0.9) * math.sqrt(ixx * izz)
        p = replace(params, ixx=ixx, iyy=iyy, izz=izz, ixz=ixz)
        g = gamma_terms(p)
        pr, qr, rr = rng.uniform(-2.0, 2.0, 3)
        ml, mm, mn = rng.uniform(-5.0, 5.0, 3)
        jmat = np.array([[ixx, 0.0, -ixz], [0.0, iyy, 0.0], [-ixz, 0.0, izz]])
        omega = np.array([pr, qr, rr])
        ref = np.linalg.solve(
            jmat, np.array([ml, mm, mn]) - np.cross(omega, jmat @ omega)
        )
        got = np.array([
            g.gamma1 * pr * qr - g.gamma2 * qr * rr
            + g.gamma3 * ml + g.gamma4 * mn,
            g.gamma5 * pr * rr - g.gamma6 * (pr**2 - rr**2) + mm / iyy,
            g.gamma7 * pr * qr - g.gamma1 * qr * rr
            + g.gamma4 * ml + g.gamma8 * mn,
        ])
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)


def test_gamma_degenerate_tensor_rejected(params):
    with pytest.raises(ConfigError):
        replace(params, ixz=math.sqrt(params.ixx * params.izz) + 0.01)


def test_combined_yaw_collapses_without_cross_inertia(params):
    # With ixz = 0 and unit-normalized yaw inertia the combined
    # coefficients reduce to the plain yaw derivatives, and so does the
    # schedule's heading plant.
    p = replace(params, ixz=0.0, izz=1.0)
    g = gamma_terms(p)
    coeffs = combined_yaw_coeffs(p, g)
    assert math.isclose(coeffs.cr_beta, p.c_n_beta, rel_tol=1e-12)
    assert math.isclose(coeffs.cr_r, p.c_n_r, rel_tol=1e-12)
    assert math.isclose(coeffs.cr_delta_r, p.c_n_delta_r, rel_tol=1e-12)
    plant = designed_plants(make_airframe(p),
                            air_data(AircraftState(u=20.0), CALM))
    qs = 0.5 * p.rho * 20.0**2 * p.wing_area * p.wing_span
    assert math.isclose(plant.a_psi2, qs * p.c_n_delta_r, rel_tol=1e-12)
    assert math.isclose(plant.a_psi1, -0.25 * p.rho * 20.0 * p.wing_area
                        * p.wing_span**2 * p.c_n_r, rel_tol=1e-12)


def test_combined_yaw_golden_heading_plant(params, airframe):
    state = AircraftState(u=20.0)
    coeffs = combined_yaw_coeffs(params, airframe.gammas)
    plant = designed_plants(airframe, air_data(state, CALM))
    assert math.isclose(coeffs.cr_r, -0.033586801842689334, rel_tol=1e-12)
    assert math.isclose(coeffs.cr_delta_r, -0.039421646668014836,
                        rel_tol=1e-12)
    assert math.isclose(plant.a_psi1, 0.9821237888846611, rel_tol=1e-12)
    assert math.isclose(plant.a_psi2, -15.924058451460759, rel_tol=1e-12)


def test_combined_yaw_damping_scales_linearly_with_airspeed(airframe):
    # The yaw-rate feedback term carries one airspeed power less than the
    # control effectiveness: a_psi1 ~ Va, a_psi2 ~ Va^2.
    c20 = designed_plants(airframe, air_data(AircraftState(u=20.0), CALM))
    c40 = designed_plants(airframe, air_data(AircraftState(u=40.0), CALM))
    assert math.isclose(c40.a_psi1 / c20.a_psi1, 2.0, rel_tol=1e-12)
    assert math.isclose(c40.a_psi2 / c20.a_psi2, 4.0, rel_tol=1e-12)


def test_combined_yaw_disturbance_zero_at_null_inputs(params, airframe):
    state = AircraftState(u=20.0)
    coeffs = combined_yaw_coeffs(params, airframe.gammas)
    d_psi = yaw_disturbance(params, coeffs, air_data(state, CALM), p=0.0,
                            delta_a=0.0)
    assert d_psi == pytest.approx(0.0, abs=1e-15)


def test_combined_yaw_rejects_zero_airspeed(airframe):
    ad = air_data(AircraftState(), CALM)
    with pytest.raises(AirDataError):
        designed_plants(airframe, ad)


def test_yaw_equation_consistency_randomized(params, airframe):
    # The reduced heading plant must reproduce gamma4*l + gamma8*n from
    # the full moment buildup for any in-envelope state and command.
    gammas = airframe.gammas
    rng = np.random.default_rng(6)
    for _ in range(400):
        state = AircraftState(
            u=rng.uniform(15.0, 25.0), v=rng.uniform(-3.0, 3.0),
            w=rng.uniform(-3.0, 3.0), phi=rng.uniform(-0.5, 0.5),
            theta=rng.uniform(-0.3, 0.3), psi=rng.uniform(-3.0, 3.0),
            p=rng.uniform(-0.5, 0.5), q=rng.uniform(-0.5, 0.5),
            r=rng.uniform(-0.5, 0.5),
        )
        cmd = ControlCommand(
            delta_a=rng.uniform(-0.3, 0.3), delta_e=rng.uniform(-0.3, 0.3),
            delta_r=rng.uniform(-0.3, 0.3), delta_t=rng.uniform(0.0, 1.0),
        )
        ad = air_data(state, CALM)
        loads = forces(params, state, cmd)
        coeffs = designed_plants(airframe, ad)
        d_psi = yaw_disturbance(params, combined_yaw_coeffs(params, gammas),
                                ad, p=state.p, delta_a=cmd.delta_a)
        lhs = gammas.gamma4 * loads.l + gammas.gamma8 * loads.n
        rhs = -coeffs.a_psi1 * state.r + coeffs.a_psi2 * cmd.delta_r \
            + d_psi
        assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)


def test_forces_at_rest_reduce_to_gravity(params):
    state = AircraftState()
    cmd = ControlCommand()
    loads = forces(params, state, cmd)
    assert loads.fx == pytest.approx(0.0, abs=1e-12)
    assert loads.fy == pytest.approx(0.0, abs=1e-12)
    assert loads.fz == pytest.approx(params.mass * params.gravity, rel=1e-12)
    assert (loads.l, loads.m, loads.n) == pytest.approx((0.0, 0.0, 0.0),
                                                        abs=1e-12)


def test_forces_static_thrust_adds_body_x(params):
    loads = forces(params, AircraftState(), ControlCommand(delta_t=0.6))
    assert loads.fx == pytest.approx(0.6 * params.max_thrust, rel=1e-12)
    assert thrust(params, 0.0, 0.6) == pytest.approx(
        0.6 * params.max_thrust, rel=1e-12)


def test_thrust_decays_with_airspeed(params):
    assert thrust(params, 20.0, 1.0) < thrust(params, 0.0, 1.0)


def test_forces_golden_vector(params):
    state = AircraftState(u=19.0, v=1.2, w=2.1, phi=0.2, theta=0.1,
                          p=0.1, q=-0.05, r=0.08)
    cmd = ControlCommand(delta_a=0.05, delta_e=-0.1, delta_r=0.03,
                         delta_t=0.6)
    loads = forces(params, state, cmd)
    expected = (8.0354061951005116, 14.67972943052246, -1.2957386435356179,
                -0.71182168543024227, -4.3655620955033353,
                0.31880764221760884)
    assert np.allclose(loads, expected, rtol=1e-12, atol=0.0)


def test_positive_rudder_yaws_left(params, trim20):
    # The stock airframe has c_n_delta_r < 0: right pedal gives a
    # negative (nose-left) yaw moment increment.
    state, cmd = trim20
    base = forces(params, state, cmd)
    kicked = forces(params, state, cmd._replace(delta_r=0.1))
    assert kicked.n - base.n < 0.0
    assert (kicked.l - base.l) * params.c_ell_delta_r > 0.0


def test_state_derivative_forward_translation(airframe):
    deriv = stage_at(airframe, AircraftState(u=20.0))
    assert deriv[0] == pytest.approx(20.0, rel=1e-12)
    assert deriv[1] == pytest.approx(0.0, abs=1e-12)
    assert deriv[2] == pytest.approx(0.0, abs=1e-12)


def test_state_derivative_wind_enters_navigation_only(airframe):
    state = AircraftState(u=20.0)
    windy = Environment(wind_n=3.0, wind_e=-1.0, wind_d=0.5)
    calm_d = stage_at(airframe, state)
    wind_d = stage_at(airframe, state, env=windy)
    assert wind_d[0] - calm_d[0] == pytest.approx(3.0, rel=1e-12)
    assert wind_d[1] - calm_d[1] == pytest.approx(-1.0, rel=1e-12)
    assert wind_d[2] - calm_d[2] == pytest.approx(0.5, rel=1e-12)
    # Velocity, attitude, and rate derivatives are untouched by wind.
    assert np.allclose(wind_d[3:], calm_d[3:], atol=1e-15)


def test_state_derivative_euler_kinematics_level(airframe):
    deriv = stage_at(airframe, AircraftState(u=20.0, p=0.1))
    assert deriv[6] == pytest.approx(0.1, rel=1e-12)
    assert deriv[7] == pytest.approx(0.0, abs=1e-15)
    assert deriv[8] == pytest.approx(0.0, abs=1e-15)


def test_state_derivative_pitch_singularity(airframe):
    state = AircraftState(u=20.0, theta=math.radians(89.9))
    with pytest.raises(SingularityError):
        stage_at(airframe, state)


def test_rk4_exact_on_constant_derivative():
    y = rk4_step(lambda y: np.array([2.0]), np.array([1.0]), 0.25)
    assert y[0] == pytest.approx(1.5, rel=1e-15)


def test_rk4_fourth_order_on_oscillator():
    # x'' = -x, x(0) = 1: halving the step cuts the global error ~16x.
    def propagate(dt):
        f = lambda y: np.array([y[1], -y[0]])
        y = np.array([1.0, 0.0])
        for _ in range(round(5.0 / dt)):
            y = rk4_step(f, y, dt)
        return abs(y[0] - math.cos(5.0))

    e_coarse, e_fine = propagate(0.1), propagate(0.05)
    assert e_coarse == pytest.approx(4.080e-6, rel=1e-3)
    assert e_fine == pytest.approx(2.526e-7, rel=1e-3)
    assert 12.0 < e_coarse / e_fine < 20.0


def test_integrate_step_matches_manual_rk4(airframe, trim20):
    # With an in-limit command and small angles, integrate_step is exactly
    # one RK4 pass over the state derivative.
    state, cmd = trim20
    env = Environment(wind_e=2.0)

    expected = rk4_step(lambda y: stage_at(airframe, y, cmd, env),
                        np.array(state), 0.01)
    stepped = integrate_step(state, cmd, env, airframe, 0.01)
    assert np.allclose(np.array(stepped), expected, rtol=1e-12, atol=1e-12)


def oracle_step(state, cmd, env, airframe, dt):
    """integrate_step as the generic RK4 over the airframe's stage, with
    the same clamp, wrap, checks and error states."""
    cmd = clamp_command(cmd, airframe.params)

    def f(y):
        try:
            return stage_at(airframe, y, cmd, env)
        except SingularityError as exc:
            raise SingularityError(str(exc),
                                   state=AircraftState._make(y)) from None

    try:
        y1 = rk4_step(f, state, dt)
    except OverflowError as exc:
        raise IntegrationFaultError(f"overflow in integration step: {exc}",
                                    state=state) from exc
    except ValueError as exc:
        raise IntegrationFaultError(f"non-finite stage state in integration "
                                    f"step: {exc}", state=state) from exc
    if not all(map(math.isfinite, y1)):
        raise IntegrationFaultError("non-finite state after integration step",
                                    state=state)
    y1[6], y1[8] = wrap_pi(y1[6]), wrap_pi(y1[8])
    out = AircraftState._make(y1)
    if abs(out.theta) >= math.pi / 2.0 - PITCH_SINGULARITY_MARGIN:
        raise SingularityError(
            f"pitch {math.degrees(out.theta):.2f} deg too close to +/-90 deg",
            state=out)
    return out


def outcome(step, *args):
    """The state a step returns, or the type, message and state of the
    error it raises, the state as its exact repr."""
    try:
        return step(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc), repr(getattr(exc, "state", None))


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# Attitudes up to and past the singularity margin, airspeeds down through
# the MIN_AERO_AIRSPEED cut-off, commands past their limits.
STATES = st.builds(
    AircraftState, floats(-1e4, 1e4), floats(-1e4, 1e4), floats(-1e3, 0.0),
    floats(-40.0, 40.0), floats(-15.0, 15.0), floats(-15.0, 15.0),
    floats(-4.0, 4.0), floats(-1.58, 1.58), floats(-4.0, 4.0),
    floats(-5.0, 5.0), floats(-5.0, 5.0), floats(-5.0, 5.0))
COMMANDS = st.builds(ControlCommand, floats(-1.0, 1.0), floats(-1.0, 1.0),
                     floats(-1.0, 1.0), floats(-0.5, 1.5))
WINDS = st.builds(Environment, floats(-20.0, 20.0), floats(-20.0, 20.0),
                  floats(-5.0, 5.0))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(state=STATES, cmd=COMMANDS, env=WINDS, dt=floats(1e-4, 0.2))
def test_integrate_step_equals_the_rk4_oracle(airframe, state, cmd, env, dt):
    # The fused stages do the oracle's arithmetic in its order, so the
    # states are equal to the bit, and so are the errors and their states.
    assert outcome(integrate_step, state, cmd, env, airframe, dt) == \
        outcome(oracle_step, state, cmd, env, airframe, dt)


def test_singularity_inside_a_stage_carries_the_stage_state(airframe,
                                                            trim20):
    # Pitching up just short of the margin: the step starts legal, and the
    # second stage, at y + (dt/2)*k1, is the first past it.
    limit = math.pi / 2.0 - PITCH_SINGULARITY_MARGIN
    state = trim20[0]._replace(theta=limit - 0.002, q=1.0)
    cmd, dt = trim20[1], 0.01
    k1 = stage_at(airframe, state, cmd)
    second = AircraftState._make(a + 0.5 * dt * b for a, b in zip(state, k1))
    assert second.theta >= limit
    with pytest.raises(SingularityError) as caught:
        integrate_step(state, cmd, CALM, airframe, dt)
    assert type(caught.value.state) is AircraftState
    assert caught.value.state == second
    assert outcome(integrate_step, state, cmd, CALM, airframe, dt) == \
        outcome(oracle_step, state, cmd, CALM, airframe, dt)


def test_integrate_step_clamps_command(params, airframe, trim20):
    state, _ = trim20
    wild = ControlCommand(delta_a=5.0, delta_e=-5.0, delta_r=5.0, delta_t=3.0)
    clamped = clamp_command(wild, params)   # four floats, command order
    delta_a, delta_e, _, delta_t = clamped
    assert delta_a == pytest.approx(params.delta_a_max)
    assert delta_e == pytest.approx(-params.delta_e_max)
    assert delta_t == pytest.approx(1.0)
    a = integrate_step(state, wild, CALM, airframe, 0.01)
    b = integrate_step(state, clamped, CALM, airframe, 0.01)
    assert np.allclose(np.array(a), np.array(b), atol=1e-15)


def test_integrate_step_deterministic(airframe, trim20):
    state, cmd = trim20
    runs = []
    for _ in range(2):
        s = state
        for _ in range(100):
            s = integrate_step(s, cmd, CALM, airframe, 0.01)
        runs.append(np.array(s))
    assert np.array_equal(runs[0], runs[1])


def test_integrate_step_rejects_nonpositive_dt(airframe, trim20):
    state, cmd = trim20
    with pytest.raises(ConfigError):
        integrate_step(state, cmd, CALM, airframe, 0.0)


def test_integrate_step_faults_on_nonfinite_state(airframe, trim20):
    state, cmd = trim20
    broken = state._replace(u=math.nan)
    with pytest.raises(IntegrationFaultError):
        integrate_step(broken, cmd, CALM, airframe, 0.01)


@pytest.mark.parametrize("huge", [{"u": 1e155}, {"p": 1e155},
                                  {"u": 20.0, "q": 1e200}])
def test_overflow_inside_a_stage_is_an_integration_fault(airframe, huge):
    # A square too large for a float raises OverflowError inside a stage;
    # the step reports it as a dynamics fault on the state it began from,
    # which run_scenario records, and the oracle does the same.
    state = AircraftState(**huge)
    with pytest.raises(IntegrationFaultError,
                       match="overflow in integration step") as caught:
        integrate_step(state, ControlCommand(), CALM, airframe, 0.01)
    assert isinstance(caught.value, DynamicsFaultError)
    assert caught.value.state is state
    assert outcome(integrate_step, state, ControlCommand(), CALM, airframe,
                   0.01) == outcome(oracle_step, state, ControlCommand(),
                                    CALM, airframe, 0.01)


def test_infinite_angle_inside_a_stage_is_an_integration_fault(airframe):
    # A pitch rate near the float limit makes stage 1's roll rate
    # infinite, so stage 2 takes the sine of an infinite roll angle.
    state = AircraftState(u=20.0, phi=1.2, theta=1.0, q=1.7e308)
    with pytest.raises(IntegrationFaultError,
                       match="non-finite stage state in integration step: "
                             "math domain error") as caught:
        integrate_step(state, ControlCommand(), CALM, airframe, 0.01)
    assert caught.value.state is state
    assert outcome(integrate_step, state, ControlCommand(), CALM, airframe,
                   0.01) == outcome(oracle_step, state, ControlCommand(),
                                    CALM, airframe, 0.01)


def test_gust_zero_intensity_is_silent():
    gust = GustModel(0.0, 2.0, 0.01, seed=3)
    for _ in range(10):
        assert np.array_equal(gust.step(), np.zeros(3))


def test_gust_seeded_and_reproducible():
    a = GustModel(0.5, 2.0, 0.01, seed=11)
    b = GustModel(0.5, 2.0, 0.01, seed=11)
    c = GustModel(0.5, 2.0, 0.01, seed=12)
    seq_a = np.array([a.step() for _ in range(50)])
    seq_b = np.array([b.step() for _ in range(50)])
    seq_c = np.array([c.step() for _ in range(50)])
    assert np.array_equal(seq_a, seq_b)
    assert not np.array_equal(seq_a, seq_c)


def test_gust_matches_the_recursion_exactly():
    # 600 steps cross the edges of the blocks the model draws its noise
    # in; each step must equal the Ornstein-Uhlenbeck recursion on one
    # draw of three normals, bit for bit.
    dt, tau, intensity = 0.01, 2.0, 0.5
    gust = GustModel(intensity, tau, dt, seed=11)
    rng = np.random.default_rng(11)
    decay = math.exp(-dt / tau)
    scale = intensity * math.sqrt(1.0 - decay**2)
    x = np.zeros(3)
    for _ in range(600):
        x = decay * x + scale * rng.standard_normal(3)
        assert gust.step() == tuple(x.tolist())
    calm = GustModel(0.0, tau, dt, seed=11)
    assert [calm.step() for _ in range(3)] == [(0.0, 0.0, 0.0)] * 3


def test_gust_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        GustModel(0.5, 0.0, 0.01)
    with pytest.raises(ConfigError):
        GustModel(-0.1, 2.0, 0.01)


def test_trim_is_level_and_laterally_clean(airframe, trim20):
    state, cmd = trim20
    assert state.phi == 0.0 and state.v == 0.0
    assert cmd.delta_a == 0.0 and cmd.delta_r == 0.0
    assert math.isclose(state.theta, math.atan2(state.w, state.u),
                        rel_tol=1e-9)
    ad = air_data(state, CALM)
    assert math.isclose(ad.va, 20.0, rel_tol=1e-9)
    deriv = stage_at(airframe, state, cmd)
    assert abs(deriv[2]) < 1e-6          # no climb or sink
    assert np.all(np.abs(deriv[3:]) < 1e-6)


def test_trim_rejects_airspeed_below_stall_floor(params, airframe):
    floor = stall_floor(params)
    assert 10.0 < floor < 20.0
    with pytest.raises(ConfigError):
        trim(airframe, floor * 0.9)


def test_trim_past_the_pitch_margin_is_a_trim_failure(params):
    # Lift this strong at zero alpha and this weak per radian sends the
    # Newton iterate's alpha, which is the trim pitch, past the pitch
    # limit: the trim fails, naming its airspeed and the iterate as it is
    # and wrapped, rather than raising a dynamics fault.
    nose_up = make_airframe(replace(params, c_lift_0=0.9, c_lift_alpha=0.3))
    with pytest.raises(TrimFailureError,
                       match=r"trim at 20 m/s diverged: Newton iterate alpha "
                             r"[-\d.]+ deg \(wrapped [-\d.]+ deg\) is past "
                             r"the pitch limit"):
        trim(nose_up, 20.0)
