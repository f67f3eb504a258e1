"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible with -s,
or in the captured-output section on failure) and enforces the stated
tolerance and runtime budget. Closed-loop anchors come from the shared
session fixtures so the expensive trajectories are only flown once.
"""

import math
import time
from dataclasses import replace

import numpy as np

from conftest import combined_yaw_coeffs, rk4_step
from levelwing.config import ControllerSettings, load_config
from levelwing.control import (
    longitudinal_holds,
    make_gain_schedule,
    place_poles,
    plant_report,
    ratc_step,
)
from levelwing.dynamics import (
    AircraftState,
    ControlCommand,
    Environment,
    air_data,
    clamp_command,
    integrate_step,
    make_airframe,
    trim,
)
from levelwing.metrics import total_image_error
from levelwing.scenario import compare_controllers

CALM = Environment()


def wrap(x):
    return (np.asarray(x) + np.pi) % (2.0 * np.pi) - np.pi


def report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def rel_close(got, want, tol=1e-10):
    return math.isclose(got, want, rel_tol=tol, abs_tol=1e-12)


def test_criterion_1_equation_identities(params):
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    checks = 0
    for _ in range(1000):
        ixx, iyy, izz = rng.uniform(0.3, 5.0, 3)
        ixz = rng.uniform(-0.9, 0.9) * math.sqrt(ixx * izz)
        draw = replace(
            params, ixx=ixx, iyy=iyy, izz=izz, ixz=ixz,
            c_ell_beta=rng.uniform(-1.0, 1.0), c_ell_p=rng.uniform(-1.0, 0.0),
            c_ell_r=rng.uniform(-1.0, 1.0),
            c_ell_delta_a=rng.uniform(0.05, 1.0),
            c_ell_delta_r=rng.uniform(-0.5, 0.5),
            c_n_beta=rng.uniform(-1.0, 1.0), c_n_p=rng.uniform(-1.0, 1.0),
            c_n_r=rng.uniform(-1.0, 0.0),
            c_n_delta_a=rng.uniform(-0.5, 0.5),
            c_n_delta_r=rng.uniform(-1.0, -0.05),
        )
        airframe = make_airframe(draw)
        g = airframe.gammas

        # Inertia reductions invert the coupled roll/yaw inertia block.
        inv = np.linalg.inv([[ixx, -ixz], [-ixz, izz]])
        assert np.allclose([[g.gamma3, g.gamma4], [g.gamma4, g.gamma8]],
                           inv, rtol=1e-10, atol=1e-12)

        # Reduced rate equations match the full-tensor Euler equations.
        pr, qr, rr = rng.uniform(-2.0, 2.0, 3)
        ml, mm, mn = rng.uniform(-5.0, 5.0, 3)
        jmat = np.array([[ixx, 0.0, -ixz], [0.0, iyy, 0.0],
                         [-ixz, 0.0, izz]])
        omega = np.array([pr, qr, rr])
        ref = np.linalg.solve(
            jmat, np.array([ml, mm, mn]) - np.cross(omega, jmat @ omega))
        got = np.array([
            g.gamma1 * pr * qr - g.gamma2 * qr * rr
            + g.gamma3 * ml + g.gamma4 * mn,
            g.gamma5 * pr * rr - g.gamma6 * (pr**2 - rr**2) + mm / iyy,
            g.gamma7 * pr * qr - g.gamma1 * qr * rr
            + g.gamma4 * ml + g.gamma8 * mn,
        ])
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)

        # Combined yaw coefficients compose as gamma4*ell + gamma8*n, and
        # the heading-plant coefficients carry the stated airspeed powers.
        state = AircraftState(
            u=rng.uniform(12.0, 30.0), v=rng.uniform(-3.0, 3.0),
            w=rng.uniform(-3.0, 3.0), phi=rng.uniform(-0.5, 0.5),
            theta=rng.uniform(-0.3, 0.3), p=rng.uniform(-0.5, 0.5),
            q=rng.uniform(-0.5, 0.5), r=rng.uniform(-0.5, 0.5),
        )
        ad = air_data(state, CALM)
        delta_a = rng.uniform(-0.3, 0.3)
        delta_r = rng.uniform(-0.3, 0.3)
        fold = combined_yaw_coeffs(draw, g)
        coeffs = plant_report(airframe, ad.va)
        for cr, cl, cn in (
            (fold.cr_beta, draw.c_ell_beta, draw.c_n_beta),
            (fold.cr_p, draw.c_ell_p, draw.c_n_p),
            (fold.cr_r, draw.c_ell_r, draw.c_n_r),
            (fold.cr_delta_a, draw.c_ell_delta_a, draw.c_n_delta_a),
            (fold.cr_delta_r, draw.c_ell_delta_r, draw.c_n_delta_r),
        ):
            assert rel_close(cr, g.gamma4 * cl + g.gamma8 * cn)
        qs = 0.5 * draw.rho * ad.va**2 * draw.wing_area * draw.wing_span
        assert rel_close(coeffs.a_psi1,
                         -0.25 * draw.rho * ad.va * draw.wing_area
                         * draw.wing_span**2 * fold.cr_r)
        assert rel_close(coeffs.a_psi2, qs * fold.cr_delta_r)

        # The reduced heading equation reproduces the moment buildup.
        cmd = ControlCommand(delta_a=delta_a, delta_e=rng.uniform(-0.3, 0.3),
                             delta_r=delta_r, delta_t=rng.uniform(0.0, 1.0))
        _, _, _, moment_l, _, moment_n = airframe.loads(
            state.u, state.v, state.w, math.sin(state.phi),
            math.cos(state.phi), math.sin(state.theta),
            math.cos(state.theta), state.p, state.q, state.r, *cmd)
        # d_psi: the sideslip, roll-rate and aileron terms of the fold.
        d_psi = qs * (fold.cr_0 + fold.cr_beta * ad.beta
                      + fold.cr_p * (draw.wing_span * state.p / (2.0 * ad.va))
                      + fold.cr_delta_a * delta_a)
        lhs = g.gamma4 * moment_l + g.gamma8 * moment_n
        rhs = (-coeffs.a_psi1 * state.r + coeffs.a_psi2 * delta_r
               + d_psi)
        assert rel_close(lhs, rhs)

        # Rudder PD synthesis realizes the design polynomial exactly.
        wn = rng.uniform(0.5, 12.0)
        zeta = rng.uniform(0.4, 1.5)
        kp_psi, kd_psi = place_poles(coeffs.a_psi1, coeffs.a_psi2, 0.0, wn,
                                     zeta)
        assert rel_close(coeffs.a_psi2 * kp_psi, wn**2)
        assert rel_close(coeffs.a_psi1 + coeffs.a_psi2 * kd_psi,
                         2.0 * zeta * wn)
        poles = np.roots([1.0, coeffs.a_psi1 + coeffs.a_psi2 * kd_psi,
                          coeffs.a_psi2 * kp_psi])
        design = np.roots([1.0, 2.0 * zeta * wn, wn**2])
        assert np.allclose(sorted(poles, key=np.real),
                           sorted(design, key=np.real), rtol=1e-9, atol=1e-9)

        # Total image error decomposes exactly into lateral + projection.
        e_lat = rng.uniform(-100.0, 100.0)
        phi = rng.uniform(-1.4, 1.4)
        h1, h2 = rng.uniform(50.0, 600.0, 2)
        e1 = total_image_error(e_lat, phi, h1)
        e2 = total_image_error(e_lat, phi, h2)
        assert rel_close(e1, e_lat + h1 * math.tan(phi))
        assert rel_close(e2 - e1, (h2 - h1) * math.tan(phi), tol=1e-9)
        checks += 6

    elapsed = time.perf_counter() - t0
    report(1, elapsed < 10.0,
           f"identities hold at 1e-10 relative over {checks} randomized "
           f"checks in {elapsed:.2f} s (budget 10 s)")


def test_criterion_2_heading_step_matches_analytic_plant(params):
    # Laterally decoupled variant: zero every cross channel that feeds the
    # heading equation outside the first-order model (sideslip, roll rate,
    # aileron, and the inertia coupling), and stiffen the side force so
    # sideslip stays negligible during the step.
    t0 = time.perf_counter()
    variant = replace(params, ixz=0.0, c_n_beta=0.0, c_n_p=0.0,
                      c_n_delta_a=0.0, c_ell_beta=0.0, c_ell_r=0.0,
                      c_ell_delta_r=0.0, c_y_beta=-19.6)
    airframe = make_airframe(variant)
    trim_state, trim_cmd = trim(airframe, 20.0)
    state = trim_state._replace(pd=-150.0)

    # Roll hold (10 rad/s, 1, ki 2), pitch (10 rad/s, 0.9), altitude
    # (0.8 rad/s, 1), airspeed PI (0.4, 0.15), pitch limit 20 deg.
    ctrl = ControllerSettings()
    schedule = make_gain_schedule("ratc", airframe, ctrl)
    coeffs0 = plant_report(airframe, air_data(state, CALM).va)
    a1, a2 = coeffs0.a_psi1, coeffs0.a_psi2

    dt = 0.01
    n = 500
    delta_r = math.radians(1.0)
    roll_int = alt_int = va_int = 0.0
    psi_sim = np.zeros(n)
    for k in range(n):
        psi_sim[k] = state.psi
        ad = air_data(state, CALM)
        # The rudder is held open loop: the law's delta_r is not flown.
        gains = schedule(ad.va, ad.vg)
        delta_a, _, _, roll_int = ratc_step(0.0, state, ad, gains, 0.0,
                                            roll_int, dt, variant, ctrl)
        delta_e, delta_t, alt_int, va_int = longitudinal_holds(
            state, ad, 150.0, 20.0, gains, alt_int, va_int, dt,
            trim_state.theta, trim_cmd, variant, ctrl)
        cmd = clamp_command(ControlCommand(delta_a, delta_e, delta_r,
                                           delta_t), variant)
        state = integrate_step(state, cmd, CALM, airframe, dt)

    t = np.arange(n) * dt
    psi_ref = a2 * delta_r * (t / a1 - (1.0 - np.exp(-a1 * t)) / a1**2)
    rel_l2 = np.linalg.norm(psi_sim - psi_ref) / np.linalg.norm(psi_ref)
    elapsed = time.perf_counter() - t0
    report(2, rel_l2 < 0.05 and elapsed < 5.0,
           f"1 deg rudder step tracks the analytic heading response with "
           f"{100.0 * rel_l2:.3f}% relative L2 error over 5 s "
           f"(limit 5%), {elapsed:.2f} s (budget 5 s)")


def test_criterion_3_rk4_fourth_order_convergence():
    t0 = time.perf_counter()

    def global_error(dt):
        f = lambda y: np.array([y[1], -y[0]])
        y = np.array([1.0, 0.0])
        for _ in range(round(5.0 / dt)):
            y = rk4_step(f, y, dt)
        return abs(y[0] - math.cos(5.0))

    e_coarse = global_error(0.05)
    e_fine = global_error(0.025)
    ratio = e_coarse / e_fine
    elapsed = time.perf_counter() - t0
    report(3, 12.0 <= ratio <= 20.0 and elapsed < 5.0,
           f"halving dt cuts the oscillator global error by {ratio:.2f}x "
           f"({e_coarse:.3e} -> {e_fine:.3e}, band [12, 20]), "
           f"{elapsed:.2f} s (budget 5 s)")


def test_criterion_4_rudder_flies_flatter(rect_comparison):
    comp, elapsed = rect_comparison
    ratio = comp.ratios["mean_abs_roll_ratc_over_aotc"]
    report(4, ratio <= 0.5 and elapsed < 60.0,
           f"crosswind rectangle mean |roll|: ratc "
           f"{comp.ratios['mean_abs_roll_ratc_deg']:.2f} deg vs aotc "
           f"{comp.ratios['mean_abs_roll_aotc_deg']:.2f} deg, ratio "
           f"{ratio:.3f} (limit 0.5); both runs in {elapsed:.1f} s "
           f"(budget 30 s each)")


def test_criterion_5_rudder_cuts_image_error(rect_comparison):
    comp, _ = rect_comparison
    ratio = comp.ratios["rms_450_ratc_over_aotc"]
    rms_a = comp.aotc.stats.image_by_href[450.0].rms
    rms_r = comp.ratc.stats.image_by_href[450.0].rms
    report(5, ratio <= 0.7,
           f"rms total image error at 450 m: ratc {rms_r:.1f} m vs aotc "
           f"{rms_a:.1f} m, ratio {ratio:.3f} (limit 0.7)")


def settle_after_corner(log, dt):
    corner_steps = np.abs(wrap(np.diff(log["chi_cmd_raw"])))
    corner = int(np.nonzero(corner_steps > math.radians(45.0))[0][0]) + 1
    err = np.abs(wrap(log["chi"] - log["chi_cmd"]))
    outside = np.nonzero(err > math.radians(10.0))[0]
    outside = outside[outside >= corner]
    if outside.size == 0:
        return 0.0
    return (int(outside[-1]) + 1 - corner) * dt


def test_criterion_6_slew_limiter_softens_the_corner(corner_runs):
    runs, elapsed = corner_runs
    off, on = runs[False], runs[True]
    peak_off = float(np.max(np.abs(off.log["phi"])))
    peak_on = float(np.max(np.abs(on.log["phi"])))
    peak_ratio = peak_on / peak_off
    settle_off = settle_after_corner(off.log, off.dt)
    settle_on = settle_after_corner(on.log, on.dt)
    assert settle_off > 0.0
    settle_ratio = settle_on / settle_off
    ok = peak_ratio <= 0.7 and settle_ratio <= 2.0 and elapsed < 20.0
    report(6, ok,
           f"90 deg corner peak |roll| {math.degrees(peak_on):.1f} vs "
           f"{math.degrees(peak_off):.1f} deg (ratio {peak_ratio:.3f}, "
           f"limit 0.7); course settle {settle_on:.1f} vs {settle_off:.1f} s "
           f"(ratio {settle_ratio:.2f}, limit 2.0); {elapsed:.1f} s "
           f"(budget 20 s)")


def test_criterion_7_orbit_stays_bounded(circle_run):
    result, elapsed = circle_run
    cap = round(90.0 / result.dt)
    worst = float(np.max(np.abs(result.log["e_lateral"])))
    bound = 0.5 * 100.0
    ok = (result.completed and result.fault is None
          and result.steps <= cap and worst < bound and elapsed < 30.0)
    report(7, ok,
           f"two loiter revolutions completed in {result.steps} of {cap} "
           f"steps with max |orbit error| {worst:.1f} m (bound {bound:.0f} "
           f"m); {elapsed:.1f} s (budget 30 s)")


def test_criterion_8_rudder_trades_sideslip_for_roll(rect_comparison):
    comp, _ = rect_comparison
    beta_a = comp.ratios["mean_abs_beta_aotc_deg"]
    beta_r = comp.ratios["mean_abs_beta_ratc_deg"]
    roll_a = comp.ratios["mean_abs_roll_aotc_deg"]
    roll_r = comp.ratios["mean_abs_roll_ratc_deg"]
    ok = beta_r > beta_a and roll_r < roll_a
    report(8, ok,
           f"ratc holds higher sideslip ({beta_r:.2f} > {beta_a:.2f} deg) "
           f"at lower roll ({roll_r:.2f} < {roll_a:.2f} deg)")


def test_criterion_9_determinism_and_shared_wind(tmp_path):
    from levelwing.scenario import export_csv

    cfg = load_config("figure_eight.ini")   # gusty, seeded
    first = compare_controllers(cfg, duration_override=12.0)
    second = compare_controllers(cfg, duration_override=12.0)

    identical = True
    for tag, pick in (("aotc", lambda c: c.aotc), ("ratc", lambda c: c.ratc)):
        pa = tmp_path / f"{tag}_first.csv"
        pb = tmp_path / f"{tag}_second.csv"
        export_csv(pick(first), pa)
        export_csv(pick(second), pb)
        identical = identical and pa.read_bytes() == pb.read_bytes()

    shared = all(np.array_equal(first.aotc.log[k], first.ratc.log[k])
                 for k in ("wind_n", "wind_e", "wind_d"))
    gusty = float(np.std(first.aotc.log["wind_e"])) > 0.0
    report(9, identical and shared and gusty,
           f"repeated comparison runs export byte-identical logs; the "
           f"gusty wind series ({first.aotc.steps} samples) is shared "
           f"exactly across the aotc/ratc pair")
