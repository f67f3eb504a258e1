"""Lateral path representation, tracking errors, and course commands.

Flight plans are ordered waypoint lists with circular fillets blended
into interior corners, or standalone orbits. A small sequential manager
switches segments by half-plane crossings at the fillet tangent points,
so the active segment index never decreases (self-crossing plans are
safe). Course commands can pass through a configurable slew-rate limiter
to soften plan discontinuities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .angles import clamp, wrap_pi
from .errors import (ConfigError, UndefinedBearingError, bounded,
                     check_fields, finite_number)

# Fillet arcs are skipped when adjacent legs are within this angle (rad)
# of collinear; the turn is degenerate there.
COLLINEAR_TOLERANCE = 1e-6


class PathSegment(NamedTuple):
    """One plan segment: a line or an orbit, and the half-plane that
    retires it.

    A line leaves origin (n, e) on course chi, kept with its cosine and
    sine. An orbit circles origin, its center, at radius (m) in the
    direction lam (+1 clockwise from above, -1 counterclockwise). The
    segment retires when the position crosses the half-plane through
    switch_point whose normal is switch_normal; a standalone orbit has
    none and completes by revolutions instead.
    """

    kind: str
    origin: tuple[float, float]
    chi: float = 0.0
    cos_chi: float = 1.0
    sin_chi: float = 0.0
    radius: float = 0.0
    lam: int = 1
    switch_point: tuple[float, float] | None = None
    switch_normal: tuple[float, float] | None = None


@dataclass(frozen=True)
class GuidanceGains:
    """Shared cross-track shaping constants (identical for both controllers).

    intercept_angle caps the commanded course correction toward a line;
    capture_gain (rad/m) scales the cross-track error inside the cap;
    orbit_gain shapes the radial correction as atan(orbit_gain * e/rd).
    """

    intercept_angle: float = bounded(math.radians(45.0), gt=0.0,
                                     le=math.pi / 2.0)
    capture_gain: float = bounded(0.0125, gt=0.0)
    orbit_gain: float = bounded(2.0, gt=0.0)

    def __post_init__(self) -> None:
        check_fields(self)


class CourseCommand(NamedTuple):
    """Course command of one step: slewed value, raw value, active segment,
    and the cross-track (line) or radial (orbit) error from it. It is the
    next step's guidance memory too, with the plan's completion, the arc
    angle (rad) flown on a standalone orbit and the last bearing from an
    orbit center; CourseCommand() is the memory before the first step."""

    chi_cmd: float | None = None
    chi_cmd_raw: float | None = None
    segment_id: int = 0
    e_lateral: float | None = None
    complete: bool = False
    orbit_angle: float = 0.0
    bearing: float | None = None


def line_error(p, seg: PathSegment) -> float:
    """Cross-track error of position p from a line segment, positive to
    the right of the line's course."""
    on, oe = seg.origin
    return -seg.sin_chi * (p[0] - on) + seg.cos_chi * (p[1] - oe)


def orbit_error(p, seg: PathSegment) -> tuple[float, float]:
    """Orbit-frame position error: the signed radial error
    -lam*(rd - dist) from the orbit circle and the bearing (rad) of p
    from the center, which is undefined at the center itself."""
    cn, ce = seg.origin
    dn, de = p[0] - cn, p[1] - ce
    dist = math.hypot(dn, de)
    if dist < 1e-9:
        raise UndefinedBearingError(
            "bearing from orbit center undefined at the center itself"
        )
    return -seg.lam * (seg.radius - dist), math.atan2(de, dn)


def course_command_line(e_py: float, seg: PathSegment,
                        gains: GuidanceGains) -> float:
    """Saturating proportional course command toward a line.

    The correction is clamped at the intercept angle, so arbitrarily
    large offsets command a constant-angle intercept.
    """
    cap = gains.intercept_angle
    return wrap_pi(seg.chi - clamp(gains.capture_gain * e_py, -cap, cap))


def course_command_orbit(e_radial: float, bearing: float, seg: PathSegment,
                         gains: GuidanceGains) -> float:
    """Course command tangent to an orbit plus a radial capture correction,
    from the orbit-frame error (orbit_error)."""
    # lam * e_radial is dist - rd, the distance outside the circle.
    correction = math.atan(gains.orbit_gain * (seg.lam * e_radial)
                           / seg.radius)
    return wrap_pi(bearing + seg.lam * (math.pi / 2.0 + correction))


def slew_limit(prev: float, raw: float, max_rate: float, dt: float) -> float:
    """Move from prev toward raw along the shortest angular path, at most
    max_rate*dt in one tick."""
    if max_rate <= 0.0 or dt <= 0.0:
        raise ConfigError("slew rate and dt must be positive")
    step = wrap_pi(raw - prev)
    limit = max_rate * dt
    if abs(step) <= limit:
        return wrap_pi(raw)
    return wrap_pi(prev + math.copysign(limit, step))


@dataclass(frozen=True)
class SlewSettings:
    """Course-command slew limiter configuration."""

    enabled: bool = False
    rate: float = bounded(math.radians(30.0), gt=0.0)
    threshold: float = bounded(math.radians(30.0), gt=0.0)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class OrbitPlan:
    """Standalone orbit plan: center, radius, direction, and how many
    revolutions count as completion (0 = never complete)."""

    center_n: float
    center_e: float
    radius: float = bounded(gt=0.0)
    lam: int
    revolutions: float = bounded(1.0, ge=0.0)
    start_bearing: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.lam not in (1, -1):
            raise ConfigError("orbit direction must be cw or ccw")


@dataclass(frozen=True)
class FlightPlan:
    """Ordered (north, east) waypoints with corner fillets, or a
    standalone orbit, flown at nominal_agl.

    The plan is checked and expanded into its segments once, when it is
    made.
    """

    name: str = "plan"
    waypoints: tuple[tuple[float, float], ...] = ()
    fillet_radius: float = bounded(0.0, ge=0.0)
    nominal_agl: float = bounded(150.0, gt=0.0)
    orbit: OrbitPlan | None = None
    segments: tuple[PathSegment, ...] = field(init=False, repr=False,
                                              compare=False)

    def __post_init__(self) -> None:
        check_fields(self)
        for i, waypoint in enumerate(self.waypoints):
            if not (isinstance(waypoint, (tuple, list)) and len(waypoint) == 2
                    and all(map(finite_number, waypoint))):
                raise ConfigError(f"plan '{self.name}': waypoint {i} must be "
                                  "(north, east) in finite numbers, "
                                  f"got {waypoint!r}")
        object.__setattr__(self, "waypoints",
                           tuple(map(tuple, self.waypoints)))
        object.__setattr__(self, "segments", _plan_segments(self))

    def initial_course(self) -> float:
        """Course at the plan start point."""
        if self.orbit is not None:
            return wrap_pi(self.orbit.start_bearing
                           + self.orbit.lam * math.pi / 2.0)
        w0, w1 = self.waypoints[:2]
        return math.atan2(w1[1] - w0[1], w1[0] - w0[0])

    def start_position(self) -> tuple[float, float, float]:
        """NED start point of the plan."""
        down = -self.nominal_agl
        if self.orbit is not None:
            o = self.orbit
            return (o.center_n + o.radius * math.cos(o.start_bearing),
                    o.center_e + o.radius * math.sin(o.start_bearing), down)
        north, east = self.waypoints[0]
        return float(north), float(east), down


def _plan_segments(plan: FlightPlan) -> tuple[PathSegment, ...]:
    """Check the plan's geometry and expand it into segments with
    switching half-planes: the unit legs, then the fillet cutback at each
    corner, then the fit of the cutbacks on each leg."""
    if plan.orbit is not None:
        if plan.waypoints or plan.fillet_radius:
            raise ConfigError(f"plan '{plan.name}': an orbit plan takes no "
                              "waypoints and no fillet radius")
        o = plan.orbit
        return (PathSegment("orbit", (float(o.center_n), float(o.center_e)),
                            radius=float(o.radius), lam=int(o.lam)),)
    if len(plan.waypoints) < 2:
        raise ConfigError(
            f"plan '{plan.name}': needs at least two waypoints"
        )
    radius = plan.fillet_radius
    pts = [np.array(w, dtype=float) for w in plan.waypoints]
    units, lengths = [], []
    for i, (start, end) in enumerate(zip(pts, pts[1:])):
        with np.errstate(over="ignore"):    # an overflow is inf, named below
            q = end - start
            length = np.linalg.norm(q)
        if not math.isfinite(length):
            raise ConfigError(f"plan '{plan.name}': leg {i} (waypoint {i} to "
                              f"{i + 1}) is too long: its length overflows")
        if length < 1e-6:
            raise ConfigError(
                f"plan '{plan.name}': waypoint {i + 1} "
                f"{plan.waypoints[i + 1]} coincides with waypoint {i}"
            )
        q /= length
        units.append(q)
        lengths.append(float(length))

    segments: list[PathSegment] = []
    consumed = [0.0] * len(units)
    for i in range(1, len(pts) - 1):
        q_prev, q_next = units[i - 1], units[i]
        dot = float(np.clip(np.dot(q_prev, q_next), -1.0, 1.0))
        if radius > 0.0 and dot < -1.0 + COLLINEAR_TOLERANCE:
            raise ConfigError(
                f"plan '{plan.name}': waypoint {i} reverses direction"
            )
        if radius <= 0.0 or dot > 1.0 - COLLINEAR_TOLERANCE:
            # Sharp corner (or straight through): retire the leg on the
            # bisector half-plane at the waypoint itself.
            normal = q_prev + q_next
            norm = float(np.linalg.norm(normal))
            normal = q_prev if norm < 1e-9 else normal / norm
            segments.append(_leg(pts[i - 1], q_prev, pts[i], normal))
            continue
        varrho = math.acos(-dot)
        cut = radius / math.tan(varrho / 2.0)
        consumed[i - 1] += cut
        consumed[i] += cut
        z_enter = pts[i] - cut * q_prev
        z_exit = pts[i] + cut * q_next
        bisector = q_prev - q_next
        bisector /= np.linalg.norm(bisector)
        center = pts[i] - (radius / math.sin(varrho / 2.0)) * bisector
        lam = 1 if (q_prev[0] * q_next[1] - q_prev[1] * q_next[0]) > 0.0 else -1
        segments.append(_leg(pts[i - 1], q_prev, z_enter, q_prev))
        segments.append(PathSegment(
            "orbit", tuple(center.tolist()), radius=float(radius), lam=lam,
            switch_point=tuple(z_exit.tolist()),
            switch_normal=tuple(q_next.tolist())))
    # Every leg must be long enough for the fillet cutbacks at both ends.
    for leg, (used, length) in enumerate(zip(consumed, lengths)):
        if used >= length - 1e-9:
            raise ConfigError(
                f"plan '{plan.name}': fillet radius {radius} m "
                f"does not fit on leg {leg} ({length:.1f} m)"
            )
    segments.append(_leg(pts[-2], units[-1], pts[-1], units[-1]))
    return tuple(segments)


def _leg(start, unit, switch_point, switch_normal) -> PathSegment:
    """The line from start along a unit vector, retired by the half-plane
    through switch_point with normal switch_normal (numpy 2-vectors)."""
    chi = math.atan2(unit[1], unit[0])
    return PathSegment("line", tuple(start.tolist()), chi, math.cos(chi),
                       math.sin(chi), switch_point=tuple(switch_point.tolist()),
                       switch_normal=tuple(switch_normal.tolist()))


class PathManager:
    """Sequential segment manager producing one course command per step.
    It holds only the plan's constants: the memory of a run is the
    CourseCommand that each step takes and returns."""

    def __init__(self, plan: FlightPlan, gains: GuidanceGains, dt: float,
                 slew: SlewSettings = SlewSettings()):
        if dt <= 0.0:
            raise ConfigError("path manager dt must be positive")
        self.gains = gains
        self.dt = dt
        self.slew = slew
        self.segments = plan.segments
        # Arc angle that completes a standalone orbit; 0 never completes.
        self.orbit_goal = (math.tau * plan.orbit.revolutions
                           if plan.orbit is not None else 0.0)

    def step(self, memory: CourseCommand, p) -> CourseCommand:
        """The course command at p, given the previous step's command
        (CourseCommand() before the first step). It is also the memory
        that the next step takes."""
        prev_cmd, _, index, _, complete, orbit_angle, bearing = memory
        segments = self.segments
        # Retire each segment whose half-plane p has crossed. A fillet with
        # a zero-length arc can retire two half-planes in one tick.
        while not complete:
            seg = segments[index]
            if seg.switch_normal is None:
                break
            (sn, se), (nn, ne) = seg.switch_point, seg.switch_normal
            if (p[0] - sn) * nn + (p[1] - se) * ne < 0.0:
                break
            if index == len(segments) - 1:
                complete = True
            else:
                index += 1

        seg = segments[index]
        if seg.kind == "line":
            e_lateral = line_error(p, seg)
            raw = course_command_line(e_lateral, seg, self.gains)
        else:
            prev_bearing = bearing
            e_lateral, bearing = orbit_error(p, seg)
            if self.orbit_goal and not complete:
                if prev_bearing is not None:
                    orbit_angle += wrap_pi(bearing - prev_bearing)
                complete = abs(orbit_angle) >= self.orbit_goal
            raw = course_command_orbit(e_lateral, bearing, seg, self.gains)

        # raw is wrapped onto (-pi, pi] already, by either course command.
        cmd = raw
        if self.slew.enabled and prev_cmd is not None:
            if abs(wrap_pi(raw - prev_cmd)) > self.slew.threshold * self.dt:
                cmd = slew_limit(prev_cmd, raw, self.slew.rate, self.dt)
        return CourseCommand(cmd, raw, index, e_lateral, complete,
                             orbit_angle, bearing)
