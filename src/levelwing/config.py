"""Configuration file loading.

Three INI-style document kinds share one parser: aircraft parameter
files, flight-plan files, and scenario files. All angles in files are
degrees and are converted to radians at load; aerodynamic derivatives
are per-radian and pass through unchanged. Relative paths referenced by
a scenario resolve against the scenario file's directory first, then
against the bundled data directory, so `aircraft = aerosonde.ini` works
anywhere.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .dynamics import AircraftParams
from .errors import ConfigError, require_finite
from .guidance import FlightPlan, GuidanceGains, OrbitPlan, SlewSettings


def bundled_data_dir() -> Path:
    """Directory holding the packaged aircraft, plan, and scenario files."""
    return Path(str(resources.files("levelwing") / "data"))


def resolve_input_path(
    name: str | Path,
    base_dir: Path | None = None,
    kind: str | None = None,
    exclude: Path | None = None,
) -> Path:
    """Resolve a user-supplied path, falling back to the bundled data.

    kind ("plans" or "scenarios") prioritizes that bundled subdirectory,
    so plan and scenario files may share a stem. exclude skips one
    candidate, preventing a config file from resolving to itself.
    """
    p = Path(name)
    if p.is_absolute():
        if p.is_file():
            return p
        raise ConfigError(f"file not found: {p}")
    candidates = []
    if base_dir is not None:
        candidates.append(base_dir / p)
    candidates.append(Path.cwd() / p)
    data = bundled_data_dir()
    if kind is not None:
        candidates.append(data / kind / p)
    candidates += [data / p, data / "plans" / p, data / "scenarios" / p]
    for cand in candidates:
        if exclude is not None and cand.resolve() == exclude.resolve():
            continue
        if cand.is_file():
            return cand
    raise ConfigError(f"file not found: {name}")


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parser


class _Section:
    """Typed access to one INI section with contextual error messages."""

    def __init__(self, parser: configparser.ConfigParser, path: Path,
                 name: str, required: bool = True):
        self._path = path
        self._name = name
        if parser.has_section(name):
            self._section = parser[name]
        elif required:
            raise ConfigError(f"{path}: missing section [{name}]")
        else:
            self._section = {}

    def float(self, key: str, default: float | None = None) -> float:
        raw = self._section.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(
                    f"{self._path}: missing key '{key}' in [{self._name}]"
                )
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{self._path}: [{self._name}] {key} = {raw!r} is not a number"
            ) from exc
        if not math.isfinite(value):
            raise ConfigError(
                f"{self._path}: [{self._name}] {key} = {raw!r} is not finite"
            )
        return value

    def int(self, key: str, default: int | None = None) -> int:
        raw = self._section.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(
                    f"{self._path}: missing key '{key}' in [{self._name}]"
                )
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{self._path}: [{self._name}] {key} = {raw!r} is not an integer"
            ) from exc

    def str(self, key: str, default: str | None = None) -> str:
        raw = self._section.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(
                    f"{self._path}: missing key '{key}' in [{self._name}]"
                )
            return default
        return raw.strip()

    def bool(self, key: str, default: bool) -> bool:
        raw = self._section.get(key)
        if raw is None:
            return default
        value = raw.strip().lower()
        if value in ("1", "true", "yes", "on"):
            return True
        if value in ("0", "false", "no", "off"):
            return False
        raise ConfigError(
            f"{self._path}: [{self._name}] {key} = {raw!r} is not a boolean"
        )

    def items(self):
        return self._section.items()


def load_aircraft(path: str | Path, base_dir: Path | None = None) -> AircraftParams:
    """Load an aircraft parameter file."""
    resolved = resolve_input_path(path, base_dir)
    parser = _read_ini(resolved)

    mass = _Section(parser, resolved, "mass_properties")
    geom = _Section(parser, resolved, "geometry")
    lat = _Section(parser, resolved, "aero_lateral")
    lon = _Section(parser, resolved, "aero_longitudinal")
    prop = _Section(parser, resolved, "propulsion")
    act = _Section(parser, resolved, "actuators")

    return AircraftParams(
        mass=mass.float("mass_kg"),
        ixx=mass.float("ixx_kgm2"),
        iyy=mass.float("iyy_kgm2"),
        izz=mass.float("izz_kgm2"),
        ixz=mass.float("ixz_kgm2", 0.0),
        gravity=mass.float("gravity_mps2", 9.81),
        rho=mass.float("air_density_kgpm3", 1.2682),
        wing_area=geom.float("wing_area_m2"),
        wing_span=geom.float("wing_span_m"),
        mean_chord=geom.float("mean_chord_m"),
        c_y_0=lat.float("c_y_0", 0.0),
        c_y_beta=lat.float("c_y_beta"),
        c_y_p=lat.float("c_y_p", 0.0),
        c_y_r=lat.float("c_y_r", 0.0),
        c_y_delta_a=lat.float("c_y_delta_a", 0.0),
        c_y_delta_r=lat.float("c_y_delta_r", 0.0),
        c_ell_0=lat.float("c_ell_0", 0.0),
        c_ell_beta=lat.float("c_ell_beta"),
        c_ell_p=lat.float("c_ell_p"),
        c_ell_r=lat.float("c_ell_r"),
        c_ell_delta_a=lat.float("c_ell_delta_a"),
        c_ell_delta_r=lat.float("c_ell_delta_r", 0.0),
        c_n_0=lat.float("c_n_0", 0.0),
        c_n_beta=lat.float("c_n_beta"),
        c_n_p=lat.float("c_n_p"),
        c_n_r=lat.float("c_n_r"),
        c_n_delta_a=lat.float("c_n_delta_a", 0.0),
        c_n_delta_r=lat.float("c_n_delta_r"),
        c_lift_0=lon.float("c_lift_0"),
        c_lift_alpha=lon.float("c_lift_alpha"),
        c_lift_q=lon.float("c_lift_q", 0.0),
        c_lift_delta_e=lon.float("c_lift_delta_e", 0.0),
        c_drag_0=lon.float("c_drag_0"),
        c_drag_alpha=lon.float("c_drag_alpha", 0.0),
        c_m_0=lon.float("c_m_0"),
        c_m_alpha=lon.float("c_m_alpha"),
        c_m_q=lon.float("c_m_q"),
        c_m_delta_e=lon.float("c_m_delta_e"),
        max_thrust=prop.float("max_thrust_n"),
        thrust_airspeed_decay=prop.float("thrust_airspeed_decay_npmps2", 0.0),
        delta_a_max=math.radians(act.float("aileron_limit_deg", 25.0)),
        delta_e_max=math.radians(act.float("elevator_limit_deg", 25.0)),
        delta_r_max=math.radians(act.float("rudder_limit_deg", 25.0)),
        rate_limit=math.radians(act.float("rate_limit_dps", 400.0)),
    )


def load_plan(path: str | Path, base_dir: Path | None = None) -> FlightPlan:
    """Load a flight-plan file (waypoints or orbit)."""
    resolved = resolve_input_path(path, base_dir, kind="plans")
    parser = _read_ini(resolved)
    head = _Section(parser, resolved, "plan")
    name = head.str("name", resolved.stem)
    kind = head.str("kind", "waypoints").lower()
    nominal_agl = head.float("nominal_agl_m", 150.0)

    if kind == "orbit":
        orb = _Section(parser, resolved, "orbit")
        direction = orb.str("direction", "cw").lower()
        if direction not in ("cw", "ccw"):
            raise ConfigError(
                f"{resolved}: orbit direction must be cw or ccw, got "
                f"{direction!r}"
            )
        return FlightPlan(
            name=name,
            nominal_agl=nominal_agl,
            orbit=OrbitPlan(
                center_n=orb.float("center_n_m"),
                center_e=orb.float("center_e_m"),
                radius=orb.float("radius_m"),
                lam=1 if direction == "cw" else -1,
                revolutions=orb.float("revolutions", 1.0),
                start_bearing=math.radians(orb.float("start_bearing_deg", 0.0)),
            ),
        )

    if kind != "waypoints":
        raise ConfigError(f"{resolved}: plan kind must be waypoints or orbit")
    wps_section = _Section(parser, resolved, "waypoints")
    waypoints: list[tuple[float, float, float]] = []
    for key, raw in sorted(wps_section.items()):
        parts = [s.strip() for s in raw.split(",")]
        if len(parts) != 3:
            raise ConfigError(
                f"{resolved}: waypoint '{key}' must be 'north_m, east_m, alt_m'"
            )
        try:
            waypoint = tuple(float(s) for s in parts)
        except ValueError as exc:
            raise ConfigError(
                f"{resolved}: waypoint '{key}' has a non-numeric field"
            ) from exc
        if not all(map(math.isfinite, waypoint)):
            raise ConfigError(
                f"{resolved}: waypoint '{key}' has a non-finite field")
        waypoints.append(waypoint)
    return FlightPlan(
        name=name,
        waypoints=tuple(waypoints),
        fillet_radius=head.float("fillet_radius_m", 0.0),
        nominal_agl=nominal_agl,
    )


@dataclass(frozen=True)
class EnvironmentSettings:
    """Steady wind plus optional seeded colored-noise gusts."""

    wind_n: float = 0.0
    wind_e: float = 0.0
    wind_d: float = 0.0
    gust_intensity: float = 0.0
    gust_tau: float = 2.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.gust_intensity < 0.0:
            raise ConfigError("gust intensity must be non-negative")
        if self.gust_tau <= 0.0:
            raise ConfigError("gust correlation time must be positive")


@dataclass(frozen=True)
class ControllerSettings:
    """Every tunable shared by the two lateral laws and the holds.

    The guidance gains and the slew limiter live here too, so one section
    fixes them for both controllers in a comparison; guidance and slew
    hold them in the types the guidance layer takes.
    """

    mode: str = "ratc"
    wn_psi: float = 4.0
    zeta_psi: float = 0.9
    wn_roll: float = 10.0
    zeta_roll: float = 1.0
    ki_roll: float = 2.0
    course_separation: float = 16.0
    zeta_course: float = 0.9
    bank_limit: float = math.radians(45.0)
    intercept_angle: float = math.radians(45.0)
    capture_gain: float = 0.0125
    orbit_gain: float = 2.0
    slew_enabled: bool = False
    slew_rate: float = math.radians(30.0)
    slew_threshold: float = math.radians(30.0)
    wn_pitch: float = 10.0
    zeta_pitch: float = 0.9
    wn_alt: float = 0.8
    zeta_alt: float = 1.0
    kp_airspeed: float = 0.4
    ki_airspeed: float = 0.15
    pitch_limit: float = math.radians(20.0)
    guidance: GuidanceGains = field(init=False, repr=False, compare=False)
    slew: SlewSettings = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_finite(self)
        if self.mode not in ("aotc", "ratc"):
            raise ConfigError(f"controller mode must be aotc or ratc, got "
                              f"{self.mode!r}")
        positive = {
            "wn_psi": self.wn_psi, "zeta_psi": self.zeta_psi,
            "wn_roll": self.wn_roll, "zeta_roll": self.zeta_roll,
            "zeta_course": self.zeta_course, "bank_limit": self.bank_limit,
            "wn_pitch": self.wn_pitch, "zeta_pitch": self.zeta_pitch,
            "wn_alt": self.wn_alt, "zeta_alt": self.zeta_alt,
            "kp_airspeed": self.kp_airspeed, "ki_airspeed": self.ki_airspeed,
            "pitch_limit": self.pitch_limit,
        }
        for key, value in positive.items():
            if value <= 0.0:
                raise ConfigError(f"controller setting {key} must be positive")
        if self.ki_roll < 0.0:
            raise ConfigError("controller setting ki_roll must be >= 0")
        if self.course_separation < 1.0:
            raise ConfigError("course_separation must be >= 1")
        if self.bank_limit > math.radians(80.0):
            raise ConfigError("bank limit above 80 deg is not supported")
        object.__setattr__(self, "guidance", GuidanceGains(
            intercept_angle=self.intercept_angle,
            capture_gain=self.capture_gain, orbit_gain=self.orbit_gain))
        object.__setattr__(self, "slew", SlewSettings(
            enabled=self.slew_enabled, rate=self.slew_rate,
            threshold=self.slew_threshold))


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: everything a run needs, defaults applied,
    checked when it is made."""

    name: str
    aircraft_path: Path
    plan_path: Path
    params: AircraftParams
    plan: FlightPlan
    env: EnvironmentSettings
    ctrl: ControllerSettings
    dt: float = 0.01
    duration: float = 120.0
    va_cmd: float = 20.0
    h_refs: tuple[float, ...] = (150.0, 450.0)
    warmup: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self)
        object.__setattr__(self, "h_refs", tuple(self.h_refs))
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if self.duration <= 0.0:
            raise ConfigError("duration must be positive")
        if self.va_cmd <= 0.0:
            raise ConfigError("commanded airspeed must be positive")
        if self.warmup < 0.0:
            raise ConfigError("warm-up window must be >= 0")
        if not self.h_refs or any(not 0.0 < h < math.inf
                                  for h in self.h_refs):
            raise ConfigError("reference altitudes must be positive and "
                              "finite")
        if self.seed < 0:
            raise ConfigError(f"gust seed must be >= 0, got {self.seed}")

    def describe(self) -> str:
        """Effective settings, defaults included, one per line."""
        lines = [
            f"scenario       {self.name}",
            f"aircraft       {self.aircraft_path}",
            f"plan           {self.plan_path} ({self.plan.name})",
            f"dt             {self.dt} s",
            f"duration       {self.duration} s",
            f"airspeed cmd   {self.va_cmd} m/s",
            f"h_refs         {', '.join(f'{h:g}' for h in self.h_refs)} m",
            f"warmup         {self.warmup} s",
            f"seed           {self.seed}",
            f"wind NED       ({self.env.wind_n:g}, {self.env.wind_e:g}, "
            f"{self.env.wind_d:g}) m/s",
            f"gust           intensity {self.env.gust_intensity:g} m/s, "
            f"tau {self.env.gust_tau:g} s",
            f"mode           {self.ctrl.mode}",
            f"wn_psi         {self.ctrl.wn_psi:g} rad/s (zeta "
            f"{self.ctrl.zeta_psi:g})",
            f"wn_roll        {self.ctrl.wn_roll:g} rad/s (zeta "
            f"{self.ctrl.zeta_roll:g}, ki {self.ctrl.ki_roll:g})",
            f"course loop    wn_roll/{self.ctrl.course_separation:g} (zeta "
            f"{self.ctrl.zeta_course:g})",
            f"bank limit     {math.degrees(self.ctrl.bank_limit):g} deg",
            f"intercept      {math.degrees(self.ctrl.intercept_angle):g} deg, "
            f"capture gain {self.ctrl.capture_gain:g} rad/m, orbit gain "
            f"{self.ctrl.orbit_gain:g}",
            f"slew limiter   {'on' if self.ctrl.slew_enabled else 'off'}, "
            f"rate {math.degrees(self.ctrl.slew_rate):g} deg/s, threshold "
            f"{math.degrees(self.ctrl.slew_threshold):g} deg/s",
        ]
        return "\n".join(lines)


def _override(value, override, kind):
    """A file value, or the command-line override of it when one is given.
    The file value is parsed either way, so a malformed file is an error."""
    return value if override is None else kind(override)


def _controller_settings(section: _Section,
                         slew: bool | None) -> ControllerSettings:
    defaults = ControllerSettings()
    return ControllerSettings(
        mode=section.str("mode", defaults.mode).lower(),
        wn_psi=section.float("wn_psi_radps", defaults.wn_psi),
        zeta_psi=section.float("zeta_psi", defaults.zeta_psi),
        wn_roll=section.float("wn_roll_radps", defaults.wn_roll),
        zeta_roll=section.float("zeta_roll", defaults.zeta_roll),
        ki_roll=section.float("ki_roll", defaults.ki_roll),
        course_separation=section.float("course_separation",
                                        defaults.course_separation),
        zeta_course=section.float("zeta_course", defaults.zeta_course),
        bank_limit=math.radians(section.float("bank_limit_deg", 45.0)),
        intercept_angle=math.radians(
            section.float("intercept_angle_deg", 45.0)),
        capture_gain=section.float("capture_gain_radpm",
                                   defaults.capture_gain),
        orbit_gain=section.float("orbit_capture_gain", defaults.orbit_gain),
        slew_enabled=_override(
            section.bool("slew_enabled", defaults.slew_enabled), slew, bool),
        slew_rate=math.radians(section.float("slew_rate_dps", 30.0)),
        slew_threshold=math.radians(section.float("slew_threshold_dps", 30.0)),
        wn_pitch=section.float("wn_pitch_radps", defaults.wn_pitch),
        zeta_pitch=section.float("zeta_pitch", defaults.zeta_pitch),
        wn_alt=section.float("wn_alt_radps", defaults.wn_alt),
        zeta_alt=section.float("zeta_alt", defaults.zeta_alt),
        kp_airspeed=section.float("kp_airspeed", defaults.kp_airspeed),
        ki_airspeed=section.float("ki_airspeed", defaults.ki_airspeed),
        pitch_limit=math.radians(section.float("pitch_limit_deg", 20.0)),
    )


def load_config(
    path: str | Path,
    seed: int | None = None,
    slew: bool | None = None,
) -> ScenarioConfig:
    """Load a scenario file with optional command-line overrides applied.

    A duration-cap override is applied at run time instead (a zero-length
    cap is a valid run request but not a valid stored configuration).
    """
    resolved = resolve_input_path(path, kind="scenarios")
    base_dir = resolved.parent
    parser = _read_ini(resolved)

    scen = _Section(parser, resolved, "scenario")
    env_sec = _Section(parser, resolved, "environment", required=False)
    ctrl_sec = _Section(parser, resolved, "controller", required=False)

    aircraft_name = scen.str("aircraft")
    plan_name = scen.str("plan")
    aircraft_path = resolve_input_path(aircraft_name, base_dir,
                                       exclude=resolved)
    plan_path = resolve_input_path(plan_name, base_dir, kind="plans",
                                   exclude=resolved)
    params = load_aircraft(aircraft_path)
    plan = load_plan(plan_path)

    h_raw = scen.str("h_ref_m", "150, 450")
    try:
        h_refs = tuple(float(s.strip()) for s in h_raw.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(f"{resolved}: h_ref_m must be a comma-separated "
                          "list of numbers") from exc

    env = EnvironmentSettings(
        wind_n=env_sec.float("wind_n_mps", 0.0),
        wind_e=env_sec.float("wind_e_mps", 0.0),
        wind_d=env_sec.float("wind_d_mps", 0.0),
        gust_intensity=env_sec.float("gust_intensity_mps", 0.0),
        gust_tau=env_sec.float("gust_tau_s", 2.0),
    )
    return ScenarioConfig(
        name=scen.str("name", resolved.stem),
        aircraft_path=aircraft_path,
        plan_path=plan_path,
        params=params,
        plan=plan,
        env=env,
        ctrl=_controller_settings(ctrl_sec, slew),
        dt=scen.float("dt_s", 0.01),
        duration=scen.float("duration_s", 120.0),
        va_cmd=scen.float("airspeed_mps", 20.0),
        h_refs=h_refs,
        warmup=scen.float("warmup_s", 5.0),
        seed=_override(scen.int("seed", 0), seed, int),
    )
