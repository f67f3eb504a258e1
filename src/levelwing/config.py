"""Configuration file loading.

Three INI-style document kinds share one reader: aircraft parameter
files, flight-plan files, and scenario files. A file is read into one
dict per section. Its loader takes out the few keys it reads itself, and
one key table per settings type takes out the keys that map onto that
type's dataclass fields, each value parsed by its field's annotation (a
waypoint is a north, east comma list). Only the keys a file sets are
passed on, so every default lives once, in its dataclass; a key that
nothing took or a section that no loader reads is an error. Every
ConfigError raised while a file becomes settings starts with that file's
path, and one from an aircraft or plan file that a scenario references
names that file after the scenario. Values are literal (no `%`
interpolation). Keys ending in `_deg` or `_dps` are degrees (per second)
and are converted to radians at load; aerodynamic derivatives are
per-radian and pass through unchanged. `load_config` finds a scenario
and each file it names by one rule: a name is looked for beside the file
that names it (for a name that no file names, in the working directory),
then in the bundled directory of its kind: `data/aircraft/`,
`data/plans/` or `data/scenarios/` beside this module. So `aircraft =
aerosonde.ini` in a bundled scenario is the bundled aircraft from any
directory. `load_aircraft` and `load_plan` read the file at their path.

Each load finds and reads its files, each once. The checked settings of
a text at a path are built once per process and shared, as `dynamics`
shares the airframe of a parameter set and the trim at an airspeed; all
three are immutable. A failure is never kept.

[controller] fills ControllerSettings and, with its intercept, capture
and slew keys, the GuidanceSettings that it holds. A scenario names no
lateral law: which law flies is each run's argument, so a `mode` key is
unknown like any other. A setting that a check or the gain design
squares must have a finite square, or it is a ConfigError that names it.
"""

from __future__ import annotations

import configparser
import functools
import math
import os
from collections.abc import Callable, Collection, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .dynamics import AircraftParams
from .errors import ConfigError, bounded, check_fields
from .guidance import FlightPlan, GuidanceSettings, OrbitPlan

# INI key -> AircraftParams field, for each section of an aircraft file.
AIRCRAFT_KEYS = {
    "mass_properties": {
        "mass_kg": "mass", "ixx_kgm2": "ixx", "iyy_kgm2": "iyy",
        "izz_kgm2": "izz", "ixz_kgm2": "ixz", "gravity_mps2": "gravity",
        "air_density_kgpm3": "rho",
    },
    "geometry": {
        "wing_area_m2": "wing_area", "wing_span_m": "wing_span",
        "mean_chord_m": "mean_chord",
    },
    "aero_lateral": {name: name for name in (
        "c_y_0", "c_y_beta", "c_y_p", "c_y_r", "c_y_delta_a", "c_y_delta_r",
        "c_ell_0", "c_ell_beta", "c_ell_p", "c_ell_r", "c_ell_delta_a",
        "c_ell_delta_r",
        "c_n_0", "c_n_beta", "c_n_p", "c_n_r", "c_n_delta_a", "c_n_delta_r")},
    "aero_longitudinal": {name: name for name in (
        "c_lift_0", "c_lift_alpha", "c_lift_q", "c_lift_delta_e",
        "c_drag_0", "c_drag_alpha", "c_m_0", "c_m_alpha", "c_m_q",
        "c_m_delta_e")},
    "propulsion": {
        "max_thrust_n": "max_thrust",
        "thrust_airspeed_decay_npmps2": "thrust_airspeed_decay",
    },
    "actuators": {
        "aileron_limit_deg": "delta_a_max",
        "elevator_limit_deg": "delta_e_max",
        "rudder_limit_deg": "delta_r_max", "rate_limit_dps": "rate_limit",
    },
}
# [plan] -> FlightPlan; the name is read by the loader itself.
PLAN_KEYS = {"fillet_radius_m": "fillet_radius",
             "nominal_agl_m": "nominal_agl"}
# [orbit] -> OrbitPlan; direction (cw or ccw) becomes lam.
ORBIT_KEYS = {
    "center_n_m": "center_n", "center_e_m": "center_e", "radius_m": "radius",
    "revolutions": "revolutions", "start_bearing_deg": "start_bearing",
}
# [scenario] -> ScenarioConfig; the name (default: the file stem) is read
# by the loader itself.
SCENARIO_KEYS = {
    "dt_s": "dt", "duration_s": "duration", "airspeed_mps": "va_cmd",
    "warmup_s": "warmup", "seed": "seed",
}
# [scenario] key -> the kind of the input file it names; both are required.
REFERENCE_KEYS = {"aircraft": "aircraft", "plan": "plans"}
# [environment] -> EnvironmentSettings and [controller] -> ControllerSettings;
# a scenario may leave out either section.
ENVIRONMENT_KEYS = {
    "wind_n_mps": "wind_n", "wind_e_mps": "wind_e", "wind_d_mps": "wind_d",
    "gust_intensity_mps": "gust_intensity", "gust_tau_s": "gust_tau",
}
CONTROLLER_KEYS = {
    "wn_psi_radps": "wn_psi", "zeta_psi": "zeta_psi",
    "wn_roll_radps": "wn_roll", "zeta_roll": "zeta_roll", "ki_roll": "ki_roll",
    "course_separation": "course_separation", "zeta_course": "zeta_course",
    "bank_limit_deg": "bank_limit",
    "wn_pitch_radps": "wn_pitch", "zeta_pitch": "zeta_pitch",
    "wn_alt_radps": "wn_alt", "zeta_alt": "zeta_alt",
    "kp_airspeed": "kp_airspeed", "ki_airspeed": "ki_airspeed",
    "pitch_limit_deg": "pitch_limit",
}
# [controller] -> the GuidanceSettings that ControllerSettings holds as its
# guidance field.
GUIDANCE_KEYS = {
    "intercept_angle_deg": "intercept_angle",
    "capture_gain_radpm": "capture_gain", "orbit_capture_gain": "orbit_gain",
    "slew_enabled": "slew_enabled", "slew_rate_dps": "slew_rate",
}
_BUNDLED = Path(__file__).parent / "data"


def bundled_data_dir() -> Path:
    """Directory holding the packaged files, in one subdirectory per kind."""
    return _BUNDLED


def resolve_input_path(name: str | Path, kind: str,
                       referrer: Path | None = None) -> Path:
    """The input file that name means: name beside referrer, the file that
    names it (in the working directory when no file does), else name in
    the bundled directory of kind ("aircraft", "plans" or "scenarios").
    A name never means its own referrer, so a plan and a scenario may
    share a stem."""
    base = Path.cwd() if referrer is None else referrer.parent
    candidates = dict.fromkeys((base / name, bundled_data_dir() / kind / name))
    try:
        for cand in candidates:
            if cand.is_file() and (referrer is None
                                   or not os.path.samefile(cand, referrer)):
                return cand
    except OSError as exc:
        raise ConfigError(f"cannot read {name}: {exc}") from exc
    raise ConfigError(f"file not found: {name} among the {kind} (looked for "
                      f"{' and '.join(map(str, candidates))})")


@contextmanager
def _in_file(path: Path) -> Iterator[None]:
    """Put path before the message of each ConfigError raised inside."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _sections(found: dict[str, dict[str, str]], required: Collection[str],
              may_omit: Collection[str] = ()) -> dict[str, dict[str, str]]:
    """The required sections of found and those of may_omit, an absent one
    empty; a missing required section or any other section is an error."""
    for name in found:
        if name not in required and name not in may_omit:
            raise ConfigError(f"unknown section [{name}]")
    for name in required:
        if name not in found:
            raise ConfigError(f"missing section [{name}]")
    return {name: found.get(name, {}) for name in (*required, *may_omit)}


def _parse_value(raw: str, kind: str, label: str):
    """raw as a value of the annotated kind: a flag, an integer, a number
    or, for a tuple, a comma list of numbers whose empty items are skipped.
    A ConfigError says that label is not one."""
    if kind == "bool":
        word = raw.lower()
        if word in ("1", "true", "yes", "on"):
            return True
        if word in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{label} is not a boolean")
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{label} is not an integer") from None
    scalar = not kind.startswith("tuple[")
    items = [raw] if scalar else [s for s in raw.split(",") if s.strip()]
    try:
        values = tuple(map(float, items))
    except ValueError:
        raise ConfigError(f"{label} is not a number" if scalar
                          else f"{label} has a non-numeric field") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{label} is not finite" if scalar
                          else f"{label} has a non-finite field")
    return values[0] if scalar else values


def _take(sections: dict[str, dict[str, str]], section: str,
          table: Mapping[str, str], cls: type) -> dict:
    """{field: value} for each key of [section] that table maps onto a
    field of cls, parsed by the field's annotation, taking those keys out
    of the section. A missing key whose field has no default is an error."""
    items = sections[section]
    cls_fields = {f.name: f for f in fields(cls)}
    values = {}
    for key, name in table.items():
        if key in items:
            raw = items.pop(key)
            value = _parse_value(raw, cls_fields[name].type,
                                 f"[{section}] {key} = {raw!r}")
            values[name] = (math.radians(value)
                            if key.endswith(("_deg", "_dps")) else value)
        elif cls_fields[name].default is MISSING:
            raise ConfigError(f"missing key '{key}' in [{section}]")
    return values


def _reject_left(sections: dict[str, dict[str, str]]) -> None:
    """A key that neither its loader nor a table took is an error."""
    for section, items in sections.items():
        if items:
            raise ConfigError(
                f"unknown key '{next(iter(items))}' in [{section}]")


def _aircraft(found: dict[str, dict[str, str]], path: Path) -> AircraftParams:
    """The parameters of an aircraft file."""
    sections = _sections(found, AIRCRAFT_KEYS)
    values = {}
    for section, table in AIRCRAFT_KEYS.items():
        values |= _take(sections, section, table, AircraftParams)
    _reject_left(sections)
    return AircraftParams(**values)


def _plan(found: dict[str, dict[str, str]], path: Path) -> FlightPlan:
    """The plan of a plan file, whose [waypoints] or [orbit] is its kind."""
    kinds = {"waypoints", "orbit"} & found.keys()
    if len(kinds) != 1:
        raise ConfigError("a plan has exactly one of [waypoints] and "
                          f"[orbit], not {len(kinds)}")
    sections = _sections(found, ("plan", *kinds))
    name = sections["plan"].pop("name", path.stem)
    values = _take(sections, "plan", PLAN_KEYS, FlightPlan)
    if "orbit" in sections:
        orbit = _take(sections, "orbit", ORBIT_KEYS, OrbitPlan)
        direction = sections["orbit"].pop("direction", "cw").lower()
        if direction not in ("cw", "ccw"):
            raise ConfigError(
                f"orbit direction must be cw or ccw, got {direction!r}")
        values["orbit"] = OrbitPlan(lam=1 if direction == "cw" else -1,
                                    **orbit)
    else:
        # In the file's order, named by 0-based place as FlightPlan does.
        waypoints = []
        for i, (key, raw) in enumerate(sections.pop("waypoints").items()):
            label = f"waypoint {i} ('{key}')"
            waypoint = _parse_value(raw, "tuple[float, ...]", label)
            if len(waypoint) != 2:
                raise ConfigError(
                    f"{label} must be 'north_m, east_m', got {raw!r}")
            waypoints.append(waypoint)
        values["waypoints"] = tuple(waypoints)
    _reject_left(sections)
    return FlightPlan(name=name, **values)


@functools.lru_cache(maxsize=64)
def _checked(build: Callable, path: Path, text: str):
    """build(sections, path): the immutable checked settings of text, with
    [DEFAULT] a section like any other. A failure is not kept."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    with _in_file(path):
        return build({name: dict(parser.items(name, raw=True))
                      for name in parser.sections()}, path)


def _load(build: Callable, path: str | Path):
    """The checked settings of the file at path, read on every call."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return _checked(build, path, text)


def load_aircraft(path: str | Path) -> AircraftParams:
    """Load the aircraft parameter file at path."""
    return _load(_aircraft, path)


def load_plan(path: str | Path) -> FlightPlan:
    """Load the flight-plan file at path."""
    return _load(_plan, path)


@dataclass(frozen=True)
class EnvironmentSettings:
    """Steady wind plus optional seeded colored-noise gusts."""

    wind_n: float = 0.0
    wind_e: float = 0.0
    wind_d: float = 0.0
    gust_intensity: float = bounded(0.0, ge=0.0)
    gust_tau: float = bounded(2.0, gt=0.0)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class ControllerSettings:
    """Every tunable shared by the two lateral laws and the holds.

    The guidance settings, slew limiter included, live here too, so one
    section fixes them for both controllers in a comparison. Which law
    flies is not a setting: it is the run's argument.
    """

    wn_psi: float = bounded(4.0, gt=0.0, squared=True)
    zeta_psi: float = bounded(0.9, gt=0.0)
    wn_roll: float = bounded(10.0, gt=0.0, squared=True)
    zeta_roll: float = bounded(1.0, gt=0.0)
    ki_roll: float = bounded(2.0, ge=0.0)
    course_separation: float = bounded(16.0, ge=1.0)
    zeta_course: float = bounded(0.9, gt=0.0)
    bank_limit: float = bounded(math.radians(45.0), gt=0.0,
                                le=math.radians(80.0))
    wn_pitch: float = bounded(10.0, gt=0.0, squared=True)
    zeta_pitch: float = bounded(0.9, gt=0.0)
    wn_alt: float = bounded(0.8, gt=0.0, squared=True)
    zeta_alt: float = bounded(1.0, gt=0.0)
    kp_airspeed: float = bounded(0.4, gt=0.0)
    ki_airspeed: float = bounded(0.15, gt=0.0)
    pitch_limit: float = bounded(math.radians(20.0), gt=0.0)
    guidance: GuidanceSettings = GuidanceSettings()

    def __post_init__(self) -> None:
        check_fields(self)


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
    dt: float = bounded(0.01, gt=0.0)
    duration: float = bounded(120.0, gt=0.0)
    va_cmd: float = bounded(20.0, gt=0.0)
    warmup: float = bounded(5.0, ge=0.0)
    seed: int = bounded(0, ge=0)

    def __post_init__(self) -> None:
        check_fields(self)


def _scenario(found: dict[str, dict[str, str]], path: Path) -> tuple:
    """A scenario file's name, the (name, kind) of its aircraft and plan,
    and the ((field, value), ...) of its ScenarioConfig, EnvironmentSettings,
    ControllerSettings and GuidanceSettings, made after its files load."""
    sections = _sections(found, ("scenario",),
                         may_omit=("environment", "controller"))
    head = sections["scenario"]
    for key in REFERENCE_KEYS:
        if key not in head:
            raise ConfigError(f"missing key '{key}' in [scenario]")
    name = head.pop("name", path.stem)
    references = tuple((head.pop(key), kind)
                       for key, kind in REFERENCE_KEYS.items())
    # One [controller] section, read into two types by their tables.
    parts = (_take(sections, "scenario", SCENARIO_KEYS, ScenarioConfig),
             _take(sections, "environment", ENVIRONMENT_KEYS,
                   EnvironmentSettings),
             _take(sections, "controller", CONTROLLER_KEYS,
                   ControllerSettings),
             _take(sections, "controller", GUIDANCE_KEYS, GuidanceSettings))
    _reject_left(sections)
    return name, references, *(tuple(part.items()) for part in parts)


def load_config(
    path: str | Path,
    seed: int | None = None,
    slew: bool | None = None,
) -> ScenarioConfig:
    """Load a scenario file with optional command-line overrides applied.

    An override replaces the file's value once the file's config is
    built, so a malformed file is an error either way, and an override of
    the wrong kind is reported without the file's path. A duration-cap
    override is applied at run time instead (a zero-length cap is a valid
    run request but not a valid stored configuration).
    """
    resolved = resolve_input_path(path, "scenarios")
    name, references, *parts = _load(_scenario, resolved)
    values, env, ctrl, guidance = map(dict, parts)
    with _in_file(resolved):
        aircraft_path, plan_path = (resolve_input_path(ref, kind, resolved)
                                    for ref, kind in references)
        cfg = ScenarioConfig(
            name=name,
            aircraft_path=aircraft_path,
            plan_path=plan_path,
            params=load_aircraft(aircraft_path),
            plan=load_plan(plan_path),
            env=EnvironmentSettings(**env),
            ctrl=ControllerSettings(guidance=GuidanceSettings(**guidance),
                                    **ctrl),
            **values,
        )
    # The overrides are not the file's values, so their errors name no file.
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if slew is not None:
        cfg = replace(cfg, ctrl=replace(
            cfg.ctrl, guidance=replace(cfg.ctrl.guidance, slew_enabled=slew)))
    return cfg
