"""Path geometry, course commands, slew limiting, and segment sequencing."""

import inspect
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levelwing.angles import wrap_pi
from levelwing.errors import ConfigError, UndefinedBearingError
from levelwing.guidance import (
    CourseCommand,
    FlightPlan,
    GuidanceSettings,
    MIN_DISTANCE,
    OrbitPlan,
    PathManager,
    PathSegment,
    course_command_line,
    course_command_orbit,
    line_error,
    orbit_error,
    slew_limit,
)

GUIDANCE = GuidanceSettings()


def line(origin, chi):
    """A line segment from origin (n, e) on course chi."""
    return PathSegment("line", origin, chi, math.cos(chi), math.sin(chi))


def orbit(center, radius, lam):
    return PathSegment("orbit", center, radius=radius, lam=lam)


def north_line():
    return line((0.0, 0.0), 0.0)


def orbit_course(p, seg):
    """The course command toward an orbit at position p."""
    return course_command_orbit(*orbit_error(p, seg), seg, GUIDANCE)


def test_line_error_zero_on_path():
    assert line_error([50.0, 0.0, -150.0], north_line()) == pytest.approx(
        0.0, abs=1e-12)


def test_line_error_cross_track_sign():
    # East of a northbound line is positive (right of travel).
    assert line_error([0.0, 10.0, -150.0], north_line()) == pytest.approx(
        10.0, rel=1e-12)
    assert line_error([0.0, -10.0, -150.0], north_line()) == pytest.approx(
        -10.0, rel=1e-12)


def test_line_error_diagonal_path_rotation():
    seg = line((0.0, 0.0), math.pi / 4.0)
    assert line_error([10.0, 0.0, -150.0], seg) == pytest.approx(
        -10.0 / math.sqrt(2.0), rel=1e-12)


def test_line_error_translation_invariant_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        seg = line(tuple(rng.uniform(-500.0, 500.0, 2)),
                   rng.uniform(-math.pi, math.pi))
        p = np.append(rng.uniform(-500.0, 500.0, 2), -150.0)
        shift = np.multiply((seg.cos_chi, seg.sin_chi, 0.0),
                            rng.uniform(-100.0, 100.0))
        # Moving along the path leaves the cross-track error as it is.
        assert line_error(p + shift, seg) == pytest.approx(
            line_error(p, seg), abs=1e-9)


def test_line_rejects_zero_direction():
    # A leg of zero length has no direction, so its plan is rejected.
    with pytest.raises(ConfigError, match="coincide"):
        FlightPlan(name="p", waypoints=[(0.0, 0.0), (0.0, 0.0)])


def test_orbit_error_examples():
    seg = orbit((0.0, 0.0), 100.0, 1)
    assert orbit_error([100.0, 0.0, -150.0], seg) == pytest.approx(
        (0.0, 0.0), abs=1e-12)
    assert orbit_error([105.0, 0.0, -150.0], seg) == pytest.approx(
        (5.0, 0.0), rel=1e-12)
    assert orbit_error([0.0, -95.0, -150.0], seg) == pytest.approx(
        (-5.0, -math.pi / 2.0), rel=1e-12)


def test_orbit_error_flips_with_direction():
    # Radially outside is positive clockwise, negative counterclockwise.
    cw = orbit((0.0, 0.0), 100.0, 1)
    ccw = orbit((0.0, 0.0), 100.0, -1)
    p = [0.0, 120.0, -150.0]
    assert orbit_error(p, cw)[0] == pytest.approx(20.0, rel=1e-12)
    assert orbit_error(p, ccw)[0] == pytest.approx(-20.0, rel=1e-12)


def test_orbit_rejects_bad_construction():
    # The orbit plan checks what its segment is built from.
    with pytest.raises(ConfigError,
                       match=r"OrbitPlan\.radius must be >= 1e-06"):
        FlightPlan(name="p", orbit=OrbitPlan(0.0, 0.0, -50.0, 1))
    with pytest.raises(ConfigError, match="cw or ccw"):
        FlightPlan(name="p", orbit=OrbitPlan(0.0, 0.0, 100.0, 2))


@pytest.mark.parametrize("radius", [1e-300, 1e-10, 0.999e-6])
def test_an_orbit_smaller_than_the_smallest_distance_is_rejected(radius):
    # Its start would be at the center as orbit_error sees it, where the
    # bearing is undefined.
    with pytest.raises(ConfigError) as caught:
        OrbitPlan(0.0, 0.0, radius, 1)
    assert str(caught.value) == (f"OrbitPlan.radius must be >= 1e-06, "
                                 f"got {radius}")


def test_the_smallest_orbit_has_a_bearing_at_its_start():
    plan = FlightPlan(name="p", orbit=OrbitPlan(0.0, 0.0, MIN_DISTANCE, 1))
    start = plan.start_position()
    assert orbit_error(start, plan.segments[0]) == (0.0, 0.0)
    with pytest.raises(UndefinedBearingError):
        orbit_error((0.999 * MIN_DISTANCE, 0.0), plan.segments[0])


def test_course_command_line_zero_error_follows_path():
    assert course_command_line(0.0, north_line(), GUIDANCE) == pytest.approx(
        0.0, abs=1e-12)


def test_course_command_line_proportional_inside_cap():
    # +10 m right of path with 0.0125 rad/m steers 0.125 rad left.
    chi = course_command_line(10.0, north_line(), GUIDANCE)
    assert chi == pytest.approx(-0.125, rel=1e-12)


def test_course_command_line_saturates_at_intercept_angle():
    left = course_command_line(1e6, north_line(), GUIDANCE)
    right = course_command_line(-1e6, north_line(), GUIDANCE)
    assert left == pytest.approx(-GUIDANCE.intercept_angle, rel=1e-12)
    assert right == pytest.approx(GUIDANCE.intercept_angle, rel=1e-12)


def test_course_command_orbit_tangent_on_circle():
    cw = orbit((0.0, 0.0), 100.0, 1)
    ccw = orbit((0.0, 0.0), 100.0, -1)
    north_point = [100.0, 0.0, -150.0]
    assert orbit_course(north_point, cw) == pytest.approx(math.pi / 2.0,
                                                          rel=1e-12)
    assert orbit_course(north_point, ccw) == pytest.approx(-math.pi / 2.0,
                                                           rel=1e-12)


def test_course_command_orbit_capture_correction():
    seg = orbit((0.0, 0.0), 100.0, 1)
    chi = orbit_course([200.0, 0.0, -150.0], seg)
    expected = math.pi / 2.0 + math.atan(GUIDANCE.orbit_gain * 1.0)
    assert chi == pytest.approx(expected, rel=1e-12)


def test_course_command_orbit_undefined_at_center():
    seg = orbit((0.0, 0.0), 100.0, 1)
    with pytest.raises(UndefinedBearingError):
        orbit_course([0.0, 0.0, -150.0], seg)


def test_slew_limit_passes_small_steps():
    raw = math.radians(2.0)
    out = slew_limit(0.0, raw, math.radians(30.0), 0.1)
    assert out == pytest.approx(raw, rel=1e-12)


def test_slew_limit_clamps_large_steps():
    out = slew_limit(0.0, math.radians(90.0), math.radians(30.0), 0.1)
    assert out == pytest.approx(math.radians(3.0), rel=1e-12)


def test_slew_limit_has_no_dead_band_at_its_limit():
    # A step of exactly rate*dt passes whole; the next float up is cut to
    # rate*dt, so no step larger than the limit passes, either way round.
    rate, dt = math.radians(18.0), 0.01
    limit = rate * dt
    for sign in (1.0, -1.0):
        assert slew_limit(0.0, sign * limit, rate, dt) == sign * limit
        beyond = sign * math.nextafter(limit, math.inf)
        assert slew_limit(0.0, beyond, rate, dt) == sign * limit


def test_guidance_settings_are_one_type_for_the_manager():
    # The course-command gains and the slew limiter are one settings
    # value, and the manager takes nothing else besides the plan and dt.
    assert [f.name for f in fields(GuidanceSettings)] == [
        "intercept_angle", "capture_gain", "orbit_gain", "slew_enabled",
        "slew_rate"]
    assert list(inspect.signature(PathManager).parameters) == [
        "plan", "guidance", "dt"]


def test_slew_limit_takes_shortest_path():
    # 350 deg and -10 deg are the same heading: no motion needed.
    out = slew_limit(math.radians(350.0), math.radians(-10.0),
                     math.radians(30.0), 0.1)
    assert abs(math.remainder(out - math.radians(-10.0), math.tau)) < 1e-12
    # Crossing the +/-180 seam moves the short way (through the seam).
    out = slew_limit(math.radians(175.0), math.radians(-175.0),
                     math.radians(30.0), 0.1)
    assert abs(math.remainder(out - math.radians(178.0), math.tau)) < 1e-12


def test_slew_limit_rate_bound_randomized():
    rng = np.random.default_rng(8)
    for _ in range(300):
        prev = rng.uniform(-math.pi, math.pi)
        raw = rng.uniform(-math.pi, math.pi)
        rate = rng.uniform(0.05, 2.0)
        dt = rng.uniform(0.001, 0.2)
        out = slew_limit(prev, raw, rate, dt)
        step = abs(math.remainder(out - prev, math.tau))
        assert step <= rate * dt + 1e-12


def test_plan_is_lines_or_an_orbit_never_both():
    # Either part alone flies; together they once flew only the orbit.
    orbit = OrbitPlan(0.0, 0.0, 100.0, 1)
    lines = [(0.0, 0.0), (400.0, 0.0)]
    assert FlightPlan(name="both", orbit=orbit, fillet_radius=0.0).segments
    for extra in ({"waypoints": lines}, {"fillet_radius": 50.0},
                  {"waypoints": lines, "fillet_radius": 50.0}):
        with pytest.raises(ConfigError, match="plan 'both': an orbit plan "
                           "takes no waypoints and no fillet radius"):
            FlightPlan(name="both", orbit=orbit, **extra)


def test_slew_limit_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        slew_limit(0.0, 1.0, 0.0, 0.1)
    with pytest.raises(ConfigError):
        slew_limit(0.0, 1.0, 1.0, 0.0)
    for rate, dt in ((math.nan, 0.1), (1.0, math.nan)):
        with pytest.raises(ConfigError):
            slew_limit(0.0, 1.0, rate, dt)


def test_plan_validation_errors():
    with pytest.raises(ConfigError, match="at least two"):
        FlightPlan(name="p", waypoints=[(0.0, 0.0)])
    with pytest.raises(ConfigError, match="reverses"):
        FlightPlan(name="p", fillet_radius=50.0,
                   waypoints=[(0.0, 0.0), (400.0, 0.0), (0.0, 0.0)])
    with pytest.raises(ConfigError, match="does not fit on leg"):
        FlightPlan(name="p", fillet_radius=100.0,
                   waypoints=[(0.0, 0.0), (150.0, 0.0), (150.0, 150.0),
                              (0.0, 150.0)])
    # A waypoint is a pair, flown at the plan's nominal_agl.
    for bad in ((400.0, 0.0, 150.0), (400.0,), 400.0):
        with pytest.raises(ConfigError, match=re.escape(
                "plan 'p': waypoint 1 must be (north, east) in finite "
                f"numbers, got {bad!r}")):
            FlightPlan(name="p", waypoints=[(0.0, 0.0), bad])


@pytest.mark.parametrize("waypoints", [
    [(0.0, 0.0), (1e308, 1e308)],
    [(0.0, 0.0), (1e200, 0.0), (1e200, 1e200)],
    [(-1e308, 0.0), (1e308, 0.0)],
], ids=["squared", "fillet", "difference"])
def test_a_leg_whose_length_overflows_is_named(waypoints):
    # Each once warned in numpy and flew one step to "completed".
    with pytest.raises(ConfigError, match=re.escape(
            "plan 'huge': leg 0 (waypoint 0 to 1) is too long: its length "
            "overflows")):
        FlightPlan(name="huge", waypoints=waypoints, fillet_radius=10.0)


def test_plan_start_and_initial_course():
    plan = FlightPlan(name="diag", waypoints=[(0.0, 0.0), (400.0, 400.0)])
    assert plan.initial_course() == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert np.allclose(plan.start_position(), [0.0, 0.0, -150.0])

    loiter = FlightPlan(name="orb", nominal_agl=150.0,
                        orbit=OrbitPlan(0.0, 0.0, 100.0, 1,
                                        revolutions=2.0, start_bearing=0.0))
    assert np.allclose(loiter.start_position(), [100.0, 0.0, -150.0])
    assert loiter.initial_course() == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_square_corner_fillet_geometry():
    plan = FlightPlan(name="L", fillet_radius=100.0,
                      waypoints=[(0.0, 0.0), (400.0, 0.0), (400.0, 400.0)])
    segs = plan.segments
    assert [seg.kind for seg in segs] == ["line", "orbit", "line"]
    arc = segs[1]
    # 90 deg corner: tangency 100 m before the corner, center offset
    # perpendicular into the turn, clockwise for a right turn.
    assert np.allclose(segs[0].switch_point, [300.0, 0.0])
    assert np.allclose(arc.origin, [300.0, 100.0])
    assert arc.radius == pytest.approx(100.0)
    assert arc.lam == 1
    assert np.allclose(segs[1].switch_point, [400.0, 100.0])


def test_sharp_corner_switches_on_bisector():
    plan = FlightPlan(name="sharp", fillet_radius=0.0,
                      waypoints=[(0.0, 0.0), (400.0, 0.0), (400.0, 400.0)])
    segs = plan.segments
    assert [seg.kind for seg in segs] == ["line", "line"]
    assert np.allclose(segs[0].switch_point, [400.0, 0.0])
    assert np.allclose(segs[0].switch_normal,
                       [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])


def test_collinear_waypoint_inserts_no_arc():
    plan = FlightPlan(name="straight", fillet_radius=100.0,
                      waypoints=[(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)])
    assert [seg.kind for seg in plan.segments] == ["line", "line"]


def test_plan_segments_are_immutable_tuples_of_floats():
    plan = FlightPlan(name="L", fillet_radius=100.0,
                      waypoints=[(0.0, 0.0), (400.0, 0.0), (400.0, 400.0)])
    # Ints in, floats out.
    loiter = FlightPlan(name="orb", orbit=OrbitPlan(0, 0, 100, 1))
    segments = plan.segments + loiter.segments
    assert type(plan.segments) is tuple
    for seg in segments:
        assert type(seg) is PathSegment
        for name in PathSegment._fields:
            with pytest.raises(AttributeError):
                setattr(seg, name, getattr(seg, name))
        numbers = [seg.chi, seg.cos_chi, seg.sin_chi, seg.radius, *seg.origin,
                   *(seg.switch_point or ()), *(seg.switch_normal or ())]
        assert {type(x) for x in numbers} == {float}
        assert type(seg.lam) is int
    assert loiter.segments[0].switch_normal is None


def fly(mgr, points, memory=CourseCommand()):
    """The commands of mgr at each point in turn, each step handed the
    command of the step before (the memory before the first, by default)."""
    commands = []
    for p in points:
        memory = mgr.step(memory, p)
        commands.append(memory)
    return commands


def test_manager_tracks_and_completes_line_plan():
    plan = FlightPlan(name="leg", waypoints=[(0.0, 0.0), (400.0, 0.0)])
    mgr = PathManager(plan, GuidanceSettings(), 0.01)
    assert mgr.segments is plan.segments   # built once, with the plan
    cmd = mgr.step(CourseCommand(), [10.0, 0.0, -150.0])
    assert cmd.segment_id == 0
    assert cmd.chi_cmd == pytest.approx(0.0, abs=1e-12)
    assert not cmd.complete
    assert mgr.step(cmd, [401.0, 0.0, -150.0]).complete


def test_manager_index_non_decreasing_through_corner():
    plan = FlightPlan(name="L", fillet_radius=100.0,
                      waypoints=[(0.0, 0.0), (400.0, 0.0), (400.0, 400.0)])
    mgr = PathManager(plan, GuidanceSettings(), 0.01)
    # Walk the filleted path itself: leg, arc, leg; clockwise along the
    # fillet arc from (300, 0) to (400, 100).
    path = [[s, 0.0, -150.0] for s in np.linspace(0.0, 300.0, 60)]
    path += [[300.0 + 100.0 * math.cos(b), 100.0 + 100.0 * math.sin(b),
              -150.0]
             for b in np.linspace(-math.pi / 2.0, 0.0, 40, endpoint=False)]
    path += [[400.0, s, -150.0] for s in np.linspace(100.0, 390.0, 60)]
    commands = fly(mgr, path)
    ids = [cmd.segment_id for cmd in commands]
    assert np.all(np.diff(ids) >= 0)
    assert ids[-1] == 2
    assert not commands[-1].complete
    assert mgr.step(commands[-1], [400.0, 401.0, -150.0]).complete


def test_manager_orbit_completion_counts_revolutions():
    plan = FlightPlan(name="orb",
                      orbit=OrbitPlan(0.0, 0.0, 100.0, 1, revolutions=1.0,
                                      start_bearing=0.0))
    mgr = PathManager(plan, GuidanceSettings(), 0.01)

    def on_circle(start, end, n):
        return [[100.0 * math.cos(th), 100.0 * math.sin(th), -150.0]
                for th in np.linspace(start, end, n)]

    before = fly(mgr, on_circle(0.0, 1.9 * math.pi, 200))[-1]
    assert not before.complete
    assert before.orbit_angle == pytest.approx(1.9 * math.pi, rel=1e-12)
    assert fly(mgr, on_circle(1.9 * math.pi, 2.05 * math.pi, 20),
               before)[-1].complete


def test_manager_slew_engages_only_across_discontinuity():
    plan = FlightPlan(name="sharp", fillet_radius=0.0,
                      waypoints=[(0.0, 0.0), (400.0, 0.0), (400.0, 400.0)])
    dt = 0.01
    slew = GuidanceSettings(slew_enabled=True, slew_rate=math.radians(30.0))
    mgr = PathManager(plan, slew, dt)
    first = mgr.step(CourseCommand(), [399.0, 0.0, -150.0])
    assert first.chi_cmd == pytest.approx(first.chi_cmd_raw)
    # Crossing the corner jumps the raw command ~90 deg; the issued
    # command moves one rate-limited tick instead.
    after = mgr.step(first, [401.0, 1.0, -150.0])
    assert abs(after.chi_cmd_raw) > math.radians(80.0)
    assert after.chi_cmd - first.chi_cmd == pytest.approx(
        math.radians(30.0) * dt, rel=1e-9)

    # Limiter off: the command follows the raw discontinuity exactly.
    mgr_off = PathManager(plan, GuidanceSettings(), dt)
    after_off = fly(mgr_off, [[399.0, 0.0, -150.0], [401.0, 1.0, -150.0]])[-1]
    assert after_off.chi_cmd == pytest.approx(after_off.chi_cmd_raw)

    # The limiter is one rate limit, at corner90's 18 deg/s: from any
    # previous command, a raw command within one tick's rate passes whole,
    # and any other moves the command exactly one tick's rate toward it
    # along the shortest way round.
    limit = math.radians(18.0) * dt
    leg = FlightPlan(name="leg", waypoints=[(0.0, 0.0), (400.0, 0.0)])
    mgr = PathManager(leg, GuidanceSettings(slew_enabled=True,
                                            slew_rate=math.radians(18.0)), dt)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(east=st.floats(-100.0, 100.0), data=st.data())
    def one_rate(east, data):
        p = (10.0, east, -150.0)
        raw = course_command_line(line_error(p, leg.segments[0]),
                                  leg.segments[0], GUIDANCE)
        prev = data.draw(st.one_of(
            st.floats(-math.pi, math.pi, exclude_min=True),
            st.floats(-3.0 * limit, 3.0 * limit).map(
                lambda step: wrap_pi(raw + step))), label="prev")
        cmd = mgr.step(CourseCommand(chi_cmd=prev), p)
        assert cmd.chi_cmd_raw == raw
        step = wrap_pi(raw - prev)
        if abs(step) <= limit:
            assert cmd.chi_cmd == raw
        else:
            assert -math.pi < cmd.chi_cmd <= math.pi
            assert abs(wrap_pi(cmd.chi_cmd - prev)) == pytest.approx(
                limit, rel=1e-9)
            assert abs(wrap_pi(raw - cmd.chi_cmd)) == pytest.approx(
                abs(step) - limit, abs=1e-12)

    one_rate()


def test_manager_rejects_bad_dt():
    plan = FlightPlan(name="leg", waypoints=[(0.0, 0.0), (400.0, 0.0)])
    for dt in (0.0, math.nan):
        with pytest.raises(ConfigError):
            PathManager(plan, GuidanceSettings(), dt)


COORDINATE = st.floats(-800.0, 800.0)
# Random waypoint plans: 2 to 6 distinct points and a fillet radius.
POINTS = st.lists(st.tuples(COORDINATE, COORDINATE), min_size=2, max_size=6,
                  unique=True)
RADII = st.sampled_from([0.0, 20.0, 60.0, 120.0])


def raw_course(p, seg):
    """The raw course command of segment seg at position p."""
    if seg.kind == "line":
        return course_command_line(line_error(p, seg), seg, GUIDANCE)
    return orbit_course(p, seg)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(points=POINTS, radius=RADII.filter(bool))
def test_fillet_switches_keep_the_course_command(points, radius):
    # At the tangent point where a leg hands over to its fillet arc, or
    # the arc to the next leg, both segments command the same course.
    try:
        plan = FlightPlan(waypoints=points, fillet_radius=radius)
    except ConfigError:
        assume(False)
    for seg, after in zip(plan.segments, plan.segments[1:]):
        if seg.kind != after.kind:
            p = (*seg.switch_point, -150.0)
            jump = wrap_pi(raw_course(p, seg) - raw_course(p, after))
            assert abs(jump) <= 1e-9, (seg, after)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(points=POINTS, radius=RADII, slew=st.booleans())
def test_manager_flies_any_plan_to_completion(points, radius, slew):
    # A kinematic follower at 20 m/s turning at most 30 deg/s toward the
    # command: the index never decreases, every command is a wrapped
    # angle, and the plan completes within three times its length's
    # flying time plus 200 s.
    try:
        plan = FlightPlan(waypoints=points, fillet_radius=radius)
    except ConfigError:
        assume(False)
    speed, turn_rate, dt = 20.0, math.radians(30.0), 0.1
    length = sum(math.dist(a, b) for a, b in zip(points, points[1:]))
    mgr = PathManager(plan, GuidanceSettings(slew_enabled=slew), dt)
    pn, pe, pd = plan.start_position()
    course, memory = plan.initial_course(), CourseCommand()
    for _ in range(round((3.0 * length / speed + 200.0) / dt)):
        cmd = mgr.step(memory, (pn, pe, pd))
        assert cmd.segment_id >= memory.segment_id
        assert math.isfinite(cmd.chi_cmd) and -math.pi < cmd.chi_cmd <= math.pi
        if cmd.complete:
            return
        memory = cmd
        turn = math.remainder(cmd.chi_cmd - course, math.tau)
        course += max(-turn_rate * dt, min(turn_rate * dt, turn))
        pn += speed * dt * math.cos(course)
        pe += speed * dt * math.sin(course)
    pytest.fail(f"plan not complete after {length:.0f} m of legs")
