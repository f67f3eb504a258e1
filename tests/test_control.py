"""Gain schedules, plant report, the two lateral correctors, and the
longitudinal holds."""

import math
from dataclasses import replace

import numpy as np
import pytest

from levelwing.config import ControllerSettings
from levelwing.control import (
    MIN_SCHEDULING_AIRSPEED,
    Plants,
    aotc_step,
    apply_rate_limits,
    longitudinal_holds,
    make_gain_schedule,
    place_poles,
    plant_report,
    ratc_step,
)
from levelwing.dynamics import AircraftState, ControlCommand, Environment, \
    air_data, make_airframe
from levelwing.errors import AirDataError, ConfigError, \
    UncontrollablePlantError

CALM = Environment()
STOCK = ControllerSettings()


def schedule(mode, params, **ctrl):
    """The gain schedule of one law on the stock settings, with changes."""
    return make_gain_schedule(mode, make_airframe(params),
                              ControllerSettings(**ctrl))


def test_ratc_gains_hand_worked():
    kp_psi, kd_psi = place_poles(0.7, 2.0, 0.0, 2.0, 0.75)
    assert kp_psi == pytest.approx(2.0, rel=1e-12)
    assert kd_psi == pytest.approx(1.15, rel=1e-12)


def test_ratc_gain_closed_loop_identity_randomized():
    # The designed characteristic polynomial s^2 + 2*zeta*wn*s + wn^2 must
    # be realized exactly: a2*kp = wn^2 and a1 + a2*kd = 2*zeta*wn.
    rng = np.random.default_rng(9)
    for _ in range(300):
        a1 = rng.uniform(-2.0, 2.0)
        a2 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 30.0)
        wn = rng.uniform(0.2, 15.0)
        zeta = rng.uniform(0.3, 2.0)
        kp_psi, kd_psi = place_poles(a1, a2, 0.0, wn, zeta)
        assert math.isclose(a2 * kp_psi, wn**2, rel_tol=1e-12)
        assert math.isclose(a1 + a2 * kd_psi, 2.0 * zeta * wn,
                            rel_tol=1e-12, abs_tol=1e-12)
        poles = np.roots([1.0, a1 + a2 * kd_psi, a2 * kp_psi])
        design = np.roots([1.0, 2.0 * zeta * wn, wn**2])
        assert np.allclose(sorted(poles, key=np.real),
                           sorted(design, key=np.real), rtol=1e-9, atol=1e-9)


def test_ratc_gains_reject_zero_rudder_authority(params):
    dead = replace(params, c_ell_delta_r=0.0, c_n_delta_r=0.0)
    with pytest.raises(UncontrollablePlantError):
        schedule("ratc", dead)
    with pytest.raises(ConfigError):
        ControllerSettings(wn_psi=0.0)
    # aotc never moves the rudder, so it flies without rudder authority,
    # and the plant report shows the dead rudder.
    assert math.isfinite(schedule("aotc", dead)(20.0, 20.0).kp_roll)
    assert plant_report(make_airframe(dead), 20.0).a_psi2 == 0.0


def test_place_poles_without_effectiveness_is_uncontrollable():
    with pytest.raises(UncontrollablePlantError, match="a2 is zero"):
        place_poles(0.7, 0.0, 0.0, 2.0, 0.75)


@pytest.mark.parametrize("mode", ["aotc", "ratc"])
def test_schedule_at_an_extreme_airspeed_raises_a_simulator_error(params,
                                                                   mode):
    # At 1e-300 m/s the heading plant's effectiveness underflows to zero;
    # at 1e200 m/s the square of the airspeed overflows in the plants.
    sched = schedule(mode, params)
    if mode == "ratc":
        with pytest.raises(UncontrollablePlantError, match="a2 is zero"):
            sched(1e-300, 1e-300)
    else:
        assert math.isfinite(sched(1e-300, 1e-300).kp_roll)   # floored
    with pytest.raises(AirDataError,
                       match=r"plants at airspeed 1e\+200 m/s overflow"):
        sched(1e200, 1e200)
    with pytest.raises(AirDataError, match="overflow"):
        plant_report(make_airframe(params), 1e200)
    tenuous = replace(params, rho=5e-324)
    with pytest.raises(UncontrollablePlantError, match="a2 is zero"):
        schedule(mode, tenuous)(20.0, 20.0)


@pytest.mark.parametrize("mode", ["aotc", "ratc"])
def test_schedule_holds_only_gains_that_vary(params, mode):
    # A step builds no nan, no plant coefficient and no constant: every
    # gain the schedule returns moves with the flight condition.
    sched = schedule(mode, params)
    speeds = (0.5, 20.0, 40.0)
    for va in speeds:
        for vg in speeds:
            gains = sched(va, vg)
            assert all(map(math.isfinite, gains)), (va, vg, gains)
            assert not set(gains._fields) & set(Plants._fields)
    slow, fast = sched(20.0, 20.0), sched(40.0, 40.0)
    assert [name for name, a, b in zip(slow._fields, slow, fast)
            if a == b] == []
    with pytest.raises(ConfigError, match="aotc or ratc, got 'hybrid'"):
        schedule("hybrid", params)


def test_plant_report_floors_as_the_schedules_do(airframe):
    # The heading plant sees the airspeed itself; roll and pitch see it
    # floored at MIN_SCHEDULING_AIRSPEED, as the schedules do.
    low = plant_report(airframe, 0.5)
    floor = plant_report(airframe, MIN_SCHEDULING_AIRSPEED)
    assert low[2:] == floor[2:]
    assert low.a_psi1 == 0.5 * floor.a_psi1
    assert low.a_psi2 == 0.25 * floor.a_psi2
    for va in (0.0, -1.0):
        with pytest.raises(AirDataError):
            plant_report(airframe, va)
        with pytest.raises(AirDataError):
            make_gain_schedule("ratc", airframe, STOCK)(va, 20.0)
        assert make_gain_schedule("aotc", airframe, STOCK)(va, 20.0) == \
            make_gain_schedule("aotc", airframe, STOCK)(
                MIN_SCHEDULING_AIRSPEED, 20.0)


def test_roll_gains_realize_design_poles(params):
    g = schedule("ratc", params)(20.0, 20.0)
    plants = plant_report(make_airframe(params), 20.0)
    a1, a2 = plants.a_phi1, plants.a_phi2
    assert math.isclose(a2 * g.kp_roll, 100.0, rel_tol=1e-12)
    assert math.isclose(a1 + a2 * g.kd_roll, 20.0, rel_tol=1e-12)
    assert STOCK.ki_roll == 2.0


def test_roll_gains_reject_zero_aileron_authority(params):
    dead = replace(params, c_ell_delta_a=0.0, c_n_delta_a=0.0)
    with pytest.raises(UncontrollablePlantError):
        schedule("ratc", dead)


def test_course_gains_kinematic_plant(params):
    # wn_roll 10 rad/s over the separation 16: the course loop at 0.625.
    course = schedule("aotc", params)
    g = course(20.0, 20.0)
    assert g.kp_course == pytest.approx(2.0 * 0.9 * 0.625 * 20.0 / 9.81,
                                        rel=1e-12)
    assert g.ki_course == pytest.approx(0.625**2 * 20.0 / 9.81, rel=1e-12)
    # Ground speed is floored so a standstill cannot zero the gains.
    slow = course(20.0, 0.0)
    assert slow.kp_course == pytest.approx(2.0 * 0.9 * 0.625 / 9.81,
                                           rel=1e-12)


def test_aotc_synthesis_separates_bandwidths(params):
    gains = schedule("aotc", params)(20.0, 20.0)
    # ki = wn^2*Vg/g, so the course loop sits at wn_roll/separation.
    wn_course = math.sqrt(gains.ki_course * params.gravity / 20.0)
    assert wn_course == pytest.approx(10.0 / 16.0, rel=1e-12)
    with pytest.raises(ConfigError):
        ControllerSettings(course_separation=0.5)


def test_pitch_gains_reject_zero_elevator_authority(params):
    dead = replace(params, c_m_delta_e=0.0)
    with pytest.raises(UncontrollablePlantError):
        schedule("ratc", dead)


def test_pitch_plant_scales_with_dynamic_pressure(airframe):
    g20, g40 = plant_report(airframe, 20.0), plant_report(airframe, 40.0)
    a1_20, a2_20, a3_20 = g20.a_theta1, g20.a_theta2, g20.a_theta3
    a1_40, a2_40, a3_40 = g40.a_theta1, g40.a_theta2, g40.a_theta3
    assert a2_40 / a2_20 == pytest.approx(4.0, rel=1e-12)
    assert a3_40 / a3_20 == pytest.approx(4.0, rel=1e-12)
    assert a1_40 / a1_20 == pytest.approx(2.0, rel=1e-12)


def wide_limits(params):
    """The airframe with aileron and rudder limits far outside the tests'
    commands, so the returned deflections show the tracked errors."""
    return replace(params, delta_a_max=math.radians(80.0),
                   delta_r_max=math.radians(80.0))


def ratc_setup(params):
    """ratc gains at 20 m/s: heading (4 rad/s, 0.9), roll (10 rad/s, 1,
    ki 2)."""
    return schedule("ratc", params)(20.0, 20.0)


def test_ratc_step_zero_error_is_fixed_point(params):
    gains = ratc_setup(params)
    state = AircraftState(u=20.0)
    delta_a, delta_r, _, _ = ratc_step(0.0, state, air_data(state, CALM),
                                       gains, 0.0, 0.0, 0.01, params, STOCK)
    assert delta_a == pytest.approx(0.0, abs=1e-12)
    # With r = 0 the rudder is kp_psi times the heading error.
    assert delta_r == pytest.approx(0.0, abs=1e-12)


def test_ratc_step_commands_corrective_yaw_moment(params):
    gains = ratc_setup(params)
    state = AircraftState(u=20.0)
    _, delta_r, _, _ = ratc_step(0.3, state, air_data(state, CALM), gains,
                                 0.0, 0.0, 0.01, params, STOCK)
    # Rudder effectiveness is negative on this airframe, so the deflection
    # itself is negative; the produced yaw acceleration must be positive.
    assert plant_report(make_airframe(params), 20.0).a_psi2 * delta_r > 0.0


def test_ratc_step_error_wraps_across_seam(params):
    gains = ratc_setup(params)
    state = AircraftState(u=20.0, psi=math.radians(175.0))
    _, delta_r, _, _ = ratc_step(math.radians(-175.0), state,
                                 air_data(state, CALM), gains, 0.0, 0.0,
                                 0.01, params, STOCK)
    # The rudder is kp_psi times the wrapped heading error of +10 deg.
    assert delta_r == pytest.approx(gains.kp_psi * math.radians(10.0),
                                    rel=1e-9)


def test_ratc_step_levels_the_wings(params):
    gains = ratc_setup(params)
    state = AircraftState(u=20.0, phi=0.2)
    delta_a, _, _, _ = ratc_step(0.0, state, air_data(state, CALM), gains,
                                 0.0, 0.0, 0.01, params, STOCK)
    assert math.copysign(1.0, delta_a) == -math.copysign(1.0,
                                                         gains.kp_roll * 0.2)
    assert delta_a != 0.0


def test_ratc_step_single_tracked_error_topology(params):
    gains = ratc_setup(params)
    state = AircraftState(u=20.0, phi=0.1)
    wide = wide_limits(params)
    ad = air_data(state, CALM)
    delta_a, delta_r, course_int, roll_int = ratc_step(
        0.5, state, ad, gains, 0.7, 0.0, 0.01, wide, STOCK)
    # The rudder tracks the heading error alone; the roll error drives
    # only the ailerons, whatever the heading command.
    assert delta_r == pytest.approx(gains.kp_psi * 0.5, rel=1e-9)
    assert delta_a == ratc_step(0.0, state, ad, gains, 0.0, 0.0, 0.01, wide,
                                STOCK)[0]
    # Inside the limits the roll integrator takes the whole step; the
    # course integrator, which ratc does not use, passes through.
    assert roll_int == -0.1 * 0.01
    assert course_int == 0.7


def test_ratc_step_saturates_at_surface_limit(params):
    gains = ratc_setup(params)
    state = AircraftState(u=20.0)
    _, delta_r, _, _ = ratc_step(math.pi, state, air_data(state, CALM), gains,
                                 0.0, 0.0, 0.01, params, STOCK)
    assert abs(gains.kp_psi * math.pi) > params.delta_r_max
    assert abs(delta_r) == params.delta_r_max


def aotc_setup(params):
    """aotc gains at 20 m/s: roll (10 rad/s, 1), course separated by 16
    (zeta 0.9)."""
    return schedule("aotc", params)(20.0, 20.0)


def test_aotc_step_zero_error_is_fixed_point(params):
    gains = aotc_setup(params)
    state = AircraftState(u=20.0)
    delta_a, delta_r, _, _ = aotc_step(0.0, state, air_data(state, CALM),
                                       gains, 0.0, 0.0, 0.01, params, STOCK)
    assert delta_a == pytest.approx(0.0, abs=1e-12)
    assert delta_r == 0.0


def test_aotc_step_banks_into_course_error(params):
    gains = aotc_setup(params)
    state = AircraftState(u=20.0)
    ad = air_data(state, CALM)
    delta_a, delta_r, _, roll_int = aotc_step(0.3, state, ad, gains, 0.0,
                                              0.7, 0.01, params, STOCK)
    assert delta_r == 0.0
    assert roll_int == 0.7   # ratc's roll integrator passes through
    assert delta_a > 0.0     # right bank command, wings currently level
    # Through unsaturated ailerons: the bank command is the course PI of
    # the 0.3 rad course error, integrated over one step.
    delta_a, _, _, _ = aotc_step(0.3, state, ad, gains, 0.0, 0.0, 0.01,
                                 wide_limits(params), STOCK)
    phi_cmd = gains.kp_course * 0.3 + gains.ki_course * 0.3 * 0.01
    assert delta_a == pytest.approx(gains.kp_roll * phi_cmd, rel=1e-9)


def test_aotc_step_bank_command_saturates(params):
    gains = aotc_setup(params)
    state = AircraftState(u=20.0)
    delta_a, _, course_int, _ = aotc_step(3.0, state, air_data(state, CALM),
                                          gains, 0.0, 0.0, 0.01,
                                          wide_limits(params), STOCK)
    # The roll error then tracks the clamped bank command, not the raw one,
    # and the course integrator holds while the command is railed.
    assert STOCK.bank_limit == math.radians(45.0)
    assert gains.kp_course * 3.0 > math.radians(45.0)
    assert delta_a == gains.kp_roll * math.radians(45.0)
    assert course_int == 0.0


def integrating_loop(name, params):
    """One integrating loop driven by its error alone, at 20 m/s with the
    other loops at rest: (step(integrator, error) -> (the law's output, the
    new integrator), the output with the PI on the rail of the error's
    sign, the integrator bound). The surfaces downstream of the course and
    altitude PIs are widened, so their outputs show the PI's own rail."""
    wide = replace(wide_limits(params), delta_e_max=math.radians(80.0))
    state = AircraftState(u=20.0, pd=-150.0)
    level = air_data(state, CALM)
    trim = ControlCommand(delta_t=0.5)
    if name == "aotc_course":
        gains, bank = aotc_setup(params), STOCK.bank_limit

        def step(integrator, err):
            delta_a, _, integrator, _ = aotc_step(err, state, level, gains,
                                                  integrator, 0.0, 0.01, wide,
                                                  STOCK)
            return delta_a, integrator
        return (step, lambda err: math.copysign(gains.kp_roll * bank, err),
                bank / gains.ki_course)
    gains = ratc_setup(params)
    if name == "ratc_roll":
        def step(integrator, err):
            delta_a, _, _, integrator = ratc_step(
                0.0, state._replace(phi=-err), level, gains, 0.0, integrator,
                0.01, params, STOCK)
            return delta_a, integrator
        return (step, lambda err: math.copysign(params.delta_a_max, err),
                params.delta_a_max / STOCK.ki_roll)
    if name == "altitude":
        def step(integrator, err):
            off = state._replace(pd=-150.0 + err)
            delta_e, _, integrator, _ = longitudinal_holds(
                off, air_data(off, CALM), 150.0, 20.0, gains, integrator, 0.0,
                0.01, 0.0, trim, wide, STOCK)
            return delta_e, integrator
        return (step,
                lambda err: gains.kp_theta * math.copysign(STOCK.pitch_limit,
                                                           err),
                STOCK.pitch_limit / gains.ki_h)

    def step(integrator, err):    # the throttle, pinned at 1 or at 0
        _, delta_t, _, integrator = longitudinal_holds(
            state, level, 150.0, 20.0 + err, gains, 0.0, integrator, 0.01,
            0.0, trim, params, STOCK)
        return delta_t, integrator
    return (step, lambda err: 1.0 if err > 0.0 else 0.0,
            1.0 / STOCK.ki_airspeed)


@pytest.mark.parametrize("name, error", [
    ("aotc_course", 0.25), ("ratc_roll", 0.25), ("altitude", 3.0),
    ("throttle_high", 0.9), ("throttle_low", -0.9)],
    ids=["aotc_course", "ratc_roll", "altitude", "throttle_high",
         "throttle_low"])
def test_antiwindup_desaturates_quickly(params, name, error):
    # The proportional term alone sits inside the rail, so the integrator
    # carries the output onto it; held there for 3 s, the integrator must
    # stop short of its bound, not wind up to it. Reversed, the command
    # leaves the rail within 2 s.
    step, rail, bound = integrating_loop(name, params)
    integrator, outputs, integrators = 0.0, [], []
    for _ in range(300):
        output, integrator = step(integrator, error)
        outputs.append(output)
        integrators.append(integrator)
    assert outputs[0] != rail(error)
    assert outputs[-100:] == [rail(error)] * 100
    assert integrators[-100:] == [integrators[-1]] * 100
    assert 0.0 < abs(integrators[-1]) < bound
    released = []
    for k in range(200):
        output, integrator = step(integrator, -error)
        if output != rail(error):
            released.append(k)
    assert released and released[0] * 0.01 <= 2.0


def test_ratc_roll_hold_without_integrator_is_pd(params):
    # ki_roll = 0 is a valid setting: the roll hold is then a pure PD whose
    # integrator never moves, on the rail or off it.
    pd_only = ControllerSettings(ki_roll=0.0)
    gains = schedule("ratc", params, ki_roll=0.0)(20.0, 20.0)
    rng = np.random.default_rng(12)
    roll_int = 0.0
    for _ in range(500):
        state = AircraftState(u=20.0, phi=rng.uniform(-1.0, 1.0),
                              p=rng.uniform(-2.0, 2.0))
        delta_a, _, _, roll_int = ratc_step(
            rng.uniform(-math.pi, math.pi), state, air_data(state, CALM),
            gains, 0.0, roll_int, 0.01, params, pd_only)
        assert roll_int == 0.0
        pd = gains.kp_roll * -state.phi - gains.kd_roll * state.p
        assert delta_a == max(-params.delta_a_max,
                              min(params.delta_a_max, pd))


def test_lateral_commands_respect_limits_randomized(params):
    rng = np.random.default_rng(10)
    ratc_gains = ratc_setup(params)
    aotc_gains = aotc_setup(params)
    for _ in range(200):
        state = AircraftState(
            u=rng.uniform(12.0, 28.0), v=rng.uniform(-4.0, 4.0),
            w=rng.uniform(-4.0, 4.0), phi=rng.uniform(-1.0, 1.0),
            theta=rng.uniform(-0.3, 0.3), psi=rng.uniform(-math.pi, math.pi),
            p=rng.uniform(-2.0, 2.0), q=rng.uniform(-1.0, 1.0),
            r=rng.uniform(-2.0, 2.0),
        )
        ad = air_data(state, CALM)
        chi_cmd = rng.uniform(-math.pi, math.pi)
        da, dr, _, _ = ratc_step(chi_cmd, state, ad, ratc_gains, 0.0, 0.0,
                                 0.01, params, STOCK)
        assert abs(da) <= params.delta_a_max + 1e-12
        assert abs(dr) <= params.delta_r_max + 1e-12
        da, dr, _, _ = aotc_step(chi_cmd, state, ad, aotc_gains, 0.0, 0.0,
                                 0.01, params, STOCK)
        assert abs(da) <= params.delta_a_max + 1e-12
        assert dr == 0.0


def lon_setup(params):
    """Longitudinal gains at 20 m/s: pitch (10 rad/s, 0.9), altitude
    (0.8 rad/s, 1), airspeed PI (0.4, 0.15), pitch limit 20 deg."""
    return schedule("ratc", params)(20.0, 20.0)


def test_longitudinal_holds_trim_fixed_point(params, trim20):
    state, cmd = trim20
    at_alt = state._replace(pd=-150.0)
    lon = lon_setup(params)
    delta_e, delta_t, _, _ = longitudinal_holds(
        at_alt, air_data(at_alt, CALM), 150.0, 20.0, lon, 0.0, 0.0, 0.01,
        state.theta, cmd, params, STOCK)
    assert delta_e == pytest.approx(cmd.delta_e, abs=1e-9)
    assert delta_t == pytest.approx(cmd.delta_t, abs=1e-9)


def test_longitudinal_holds_pitch_up_when_low(params, trim20):
    state, cmd = trim20
    low = state._replace(pd=-140.0)
    lon = lon_setup(params)
    delta_e, _, _, _ = longitudinal_holds(
        low, air_data(low, CALM), 150.0, 20.0, lon, 0.0, 0.0, 0.01,
        state.theta, cmd, params, STOCK)
    # Ten meters low raises the pitch command; the elevator increment
    # carries the sign of the pitch gain (negative for this airframe).
    assert (delta_e - cmd.delta_e) * lon.kp_theta > 0.0
    assert lon.kp_theta < 0.0


def test_longitudinal_holds_throttle_up_when_slow(params, trim20):
    state, cmd = trim20
    slow = state._replace(pd=-150.0, u=state.u - 3.0)
    lon = lon_setup(params)
    _, delta_t, _, _ = longitudinal_holds(
        slow, air_data(slow, CALM), 150.0, 20.0, lon, 0.0, 0.0, 0.01,
        state.theta, cmd, params, STOCK)
    assert delta_t > cmd.delta_t


def test_longitudinal_holds_pitch_unclamped_inside_limit(params, trim20):
    # Pitch offsets up to 0.32 rad are inside the 20 deg limit: the
    # altitude integrator takes the whole step and the elevator follows
    # the unclamped PI, whatever rounding adding the trim pitch brings.
    state, cmd = trim20
    lon = lon_setup(params)
    wide = replace(params, delta_e_max=math.radians(80.0))
    for h_err in (-4.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0):
        off = state._replace(pd=-150.0 + h_err)
        delta_e, _, alt_int, _ = longitudinal_holds(
            off, air_data(off, CALM), 150.0, 20.0, lon, 0.0, 0.0, 0.01, 0.1,
            cmd, wide, STOCK)
        assert alt_int == h_err * 0.01, h_err
        theta_cmd = 0.1 + lon.kp_h * h_err + lon.ki_h * alt_int
        assert delta_e == pytest.approx(
            lon.kp_theta * (theta_cmd - off.theta) + cmd.delta_e,
            rel=1e-12), h_err


def test_rate_limit_clamps_surface_steps(params):
    prev = ControlCommand(delta_a=0.0, delta_e=0.0, delta_r=0.0, delta_t=0.2)
    want = ControlCommand(delta_a=0.4, delta_e=-0.4, delta_r=0.4, delta_t=0.9)
    out = apply_rate_limits(*want, prev, params, 0.01)
    step = params.rate_limit * 0.01
    assert out.delta_a == pytest.approx(step, rel=1e-12)
    assert out.delta_e == pytest.approx(-step, rel=1e-12)
    assert out.delta_r == pytest.approx(step, rel=1e-12)
    assert out.delta_t == 0.9    # throttle is not rate limited
    # Before the first step there is no previous command to limit against.
    assert apply_rate_limits(*want, None, params, 0.01) == want
