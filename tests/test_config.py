"""INI loading: defaults, unit conversion, references, and error reporting."""

import math
import pickle
import re
from dataclasses import MISSING, fields, replace

import pytest

from conftest import DATA_DIR, SETTINGS_TYPES
from levelwing.config import (
    AIRCRAFT_KEYS,
    CONTROLLER_KEYS,
    ENVIRONMENT_KEYS,
    ORBIT_KEYS,
    PLAN_KEYS,
    SCENARIO_KEYS,
    ControllerSettings,
    EnvironmentSettings,
    ScenarioConfig,
    bundled_data_dir,
    load_aircraft,
    load_config,
    load_plan,
    resolve_input_path,
)
from levelwing.dynamics import AircraftParams
from levelwing.errors import ConfigError
from levelwing.guidance import (
    FlightPlan,
    GuidanceGains,
    OrbitPlan,
    SlewSettings,
)
from levelwing.scenario import run_scenario

MINIMAL_SCENARIO = """
[scenario]
aircraft = aerosonde.ini
plan = rectangle.ini
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_minimal_scenario_applies_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "mini.ini", MINIMAL_SCENARIO))
    assert cfg.name == "mini"
    assert cfg.env == EnvironmentSettings()
    assert cfg.ctrl == ControllerSettings()
    for f in fields(ScenarioConfig):
        if f.default is not MISSING:
            assert getattr(cfg, f.name) == f.default, f.name
    assert cfg.h_refs == (150.0, 450.0)


def test_bundled_aircraft_angles_converted_to_radians():
    params = load_aircraft("aerosonde.ini")
    assert params.delta_a_max == pytest.approx(math.radians(25.0))
    assert params.delta_e_max == pytest.approx(math.radians(25.0))
    assert params.delta_r_max == pytest.approx(math.radians(25.0))
    assert params.rate_limit == pytest.approx(math.radians(400.0))
    assert params.mass == 11.0
    assert params.gravity == 9.81


def test_every_bundled_file_loads():
    for plan_file in sorted((DATA_DIR / "plans").glob("*.ini")):
        load_plan(plan_file)
    for scen_file in sorted((DATA_DIR / "scenarios").glob("*.ini")):
        load_config(scen_file)
    assert bundled_data_dir() == DATA_DIR


@pytest.mark.parametrize("name", sorted(
    path.name for path in (DATA_DIR / "scenarios").glob("*.ini")))
def test_bundled_config_pickles(name):
    # A compare sends the config to its child process; under the spawn and
    # forkserver start methods that is a pickle.
    cfg = load_config(name)
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg
    assert copy.plan.segments == cfg.plan.segments


def test_plan_and_scenario_may_share_a_stem():
    # The bundled circle scenario references the bundled circle plan;
    # the loader must not resolve the plan key back to the scenario file.
    cfg = load_config("circle.ini")
    assert cfg.plan.orbit is not None
    assert cfg.plan.orbit.radius == pytest.approx(100.0)
    assert cfg.plan.orbit.lam == 1


def test_missing_reference_reported_by_name(tmp_path):
    p = write(tmp_path, "broken.ini", """
[scenario]
aircraft = no_such_airframe.ini
plan = rectangle.ini
""")
    with pytest.raises(ConfigError, match="no_such_airframe"):
        load_config(p)


def test_missing_required_key_reported_with_section(tmp_path):
    p = write(tmp_path, "nokey.ini", "[scenario]\nplan = rectangle.ini\n")
    with pytest.raises(ConfigError, match=r"aircraft.*\[scenario\]"):
        load_config(p)


def test_malformed_number_reported_with_key(tmp_path):
    p = write(tmp_path, "badnum.ini", MINIMAL_SCENARIO + "dt_s = fast\n")
    with pytest.raises(ConfigError, match="dt_s.*not a number"):
        load_config(p)


def test_malformed_h_refs_rejected(tmp_path):
    p = write(tmp_path, "badh.ini",
              MINIMAL_SCENARIO + "h_ref_m = 150 and 450\n")
    with pytest.raises(ConfigError, match="h_ref_m"):
        load_config(p)


def test_custom_h_refs_parsed(tmp_path):
    p = write(tmp_path, "hrefs.ini",
              MINIMAL_SCENARIO + "h_ref_m = 100, 250, 400\n")
    assert load_config(p).h_refs == (100.0, 250.0, 400.0)


def test_unknown_controller_mode_rejected(tmp_path):
    p = write(tmp_path, "badmode.ini",
              MINIMAL_SCENARIO + "[controller]\nmode = yaw_only\n")
    with pytest.raises(ConfigError, match="aotc or ratc"):
        load_config(p)


def test_controller_bounds_enforced(tmp_path):
    p = write(tmp_path, "steep.ini",
              MINIMAL_SCENARIO + "[controller]\nbank_limit_deg = 85\n")
    with pytest.raises(ConfigError, match="bank limit"):
        load_config(p)
    p = write(tmp_path, "tight.ini",
              MINIMAL_SCENARIO + "[controller]\ncourse_separation = 0.5\n")
    with pytest.raises(ConfigError, match="course_separation"):
        load_config(p)


def test_seed_and_slew_overrides(tmp_path):
    p = write(tmp_path, "ovr.ini", MINIMAL_SCENARIO)
    cfg = load_config(p, seed=42, slew=True)
    assert cfg.seed == 42
    assert cfg.ctrl.slew_enabled
    assert load_config(p, slew=False).ctrl.slew_enabled is False


def test_bad_waypoint_line_reported(tmp_path):
    for wp01 in ("0, 0", "nan, 0, 150"):
        p = write(tmp_path, "short.ini", f"""
[plan]
name = short
[waypoints]
wp01 = {wp01}
wp02 = 400, 0, 150
""")
        with pytest.raises(ConfigError, match="wp01"):
            load_plan(p)


def test_bad_orbit_direction_reported(tmp_path):
    p = write(tmp_path, "spin.ini", """
[plan]
kind = orbit
[orbit]
center_n_m = 0
center_e_m = 0
radius_m = 100
direction = widdershins
""")
    with pytest.raises(ConfigError, match="cw or ccw"):
        load_plan(p)


def test_absolute_missing_path_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        resolve_input_path(tmp_path / "ghost.ini")


def test_overlong_file_name_is_a_config_error():
    # The operating system refuses the name itself (ENAMETOOLONG).
    with pytest.raises(ConfigError, match="cannot read"):
        resolve_input_path("a" * 300 + ".ini")


def test_stored_config_validation_bounds(tmp_path):
    cfg = load_config(write(tmp_path, "v.ini", MINIMAL_SCENARIO))
    for changes in ({"dt": 0.0}, {"duration": 0.0}, {"va_cmd": -1.0},
                    {"warmup": -1.0}, {"h_refs": ()}):
        with pytest.raises(ConfigError):
            replace(cfg, **changes)


# Every key table, with a file that its loader reads and the settings
# value that the table's fields land in.
TABLE_CASES = [
    *((section, table, AircraftParams, DATA_DIR / "aerosonde.ini",
       load_aircraft) for section, table in AIRCRAFT_KEYS.items()),
    ("plan", PLAN_KEYS, FlightPlan, DATA_DIR / "plans" / "rectangle.ini",
     load_plan),
    ("orbit", ORBIT_KEYS, OrbitPlan, DATA_DIR / "plans" / "circle.ini",
     lambda path: load_plan(path).orbit),
    ("scenario", SCENARIO_KEYS, ScenarioConfig, None, load_config),
    ("environment", ENVIRONMENT_KEYS, EnvironmentSettings, None,
     lambda path: load_config(path).env),
    ("controller", CONTROLLER_KEYS, ControllerSettings, None,
     lambda path: load_config(path).ctrl),
]
KEY_CASES = [(section, key, name, cls, base, load)
             for section, table, cls, base, load in TABLE_CASES
             for key, name in table.items()]
REQUIRED_CASES = [(section, key, name, cls, base, load)
                  for section, key, name, cls, base, load in KEY_CASES
                  if cls.__dataclass_fields__[name].default is MISSING]


def base_text(base):
    return MINIMAL_SCENARIO if base is None else base.read_text(
        encoding="utf-8")


def set_key(text, section, key, value):
    """text with [section] key = value, replacing the key's line or
    adding the key, and the section if need be."""
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text,
                          flags=re.M)
    assert count <= 1
    if count:
        return text
    if f"[{section}]\n" in text:
        return text.replace(f"[{section}]\n",
                            f"[{section}]\n{key} = {value}\n")
    return f"{text}\n[{section}]\n{key} = {value}\n"


@pytest.mark.parametrize(
    "section, key, name, cls, base, load", KEY_CASES,
    ids=[f"{case[0]}.{case[1]}" for case in KEY_CASES])
def test_each_key_sets_its_field(tmp_path, section, key, name, cls, base,
                                 load):
    path = write(tmp_path, "case.ini", base_text(base))
    before = load(path)
    current = getattr(before, name)
    degrees = key.endswith(("_deg", "_dps"))
    if isinstance(current, bool):
        text, expected = ("off", False) if current else ("on", True)
    elif isinstance(current, int):
        expected = current + 3
        text = str(expected)
    elif isinstance(current, str):
        text, expected = "AOTC", "aotc"
    else:
        value = (math.degrees(current) if degrees else current) * 1.5 + 0.25
        text = repr(value)
        expected = math.radians(value) if degrees else value
    assert expected != current
    write(tmp_path, "case.ini", set_key(base_text(base), section, key, text))
    assert load(path) == replace(before, **{name: expected})


@pytest.mark.parametrize(
    "section, key, name, cls, base, load", REQUIRED_CASES,
    ids=[f"{case[0]}.{case[1]}" for case in REQUIRED_CASES])
def test_each_required_key_is_reported_missing(tmp_path, section, key, name,
                                               cls, base, load):
    text, count = re.subn(rf"^{key} = .*\n", "", base_text(base), flags=re.M)
    assert count == 1
    with pytest.raises(ConfigError,
                       match=rf"missing key '{key}' in \[{section}\]"):
        load(write(tmp_path, "case.ini", text))


def test_required_aircraft_keys_are_the_fields_without_a_default():
    required = {name for _, _, name, cls, _, _ in REQUIRED_CASES
                if cls is AircraftParams}
    assert required == {f.name for f in fields(AircraftParams)
                        if f.default is MISSING}
    assert len(required) == 24


@pytest.mark.parametrize("base, load, extra, named", [
    (DATA_DIR / "aerosonde.ini", load_aircraft, "rate_limit = 90\n",
     r"unknown key 'rate_limit' in \[actuators\]"),
    (DATA_DIR / "plans" / "circle.ini", load_plan, "radius = 50\n",
     r"unknown key 'radius' in \[orbit\]"),
], ids=["aircraft", "orbit"])
def test_unknown_key_is_named(tmp_path, base, load, extra, named):
    with pytest.raises(ConfigError, match=named):
        load(write(tmp_path, "typo.ini", base_text(base) + extra))


def test_section_of_the_other_plan_kind_is_unknown(tmp_path):
    text = base_text(DATA_DIR / "plans" / "circle.ini") + "[waypoints]\n"
    with pytest.raises(ConfigError, match=r"unknown section \[waypoints\]"):
        load_plan(write(tmp_path, "both.ini", text))


def valid_settings():
    """One valid instance of each settings type, from the bundled files."""
    cfg = load_config("rectangle_compare.ini")
    instances = (cfg.params, cfg.plan, load_plan("circle.ini").orbit,
                 GuidanceGains(), SlewSettings(), cfg.env, cfg.ctrl, cfg)
    return {type(settings): settings for settings in instances}


NON_FINITE = (math.nan, math.inf, -math.inf)
FLOAT_FIELDS = [(cls, f.name) for cls in SETTINGS_TYPES for f in fields(cls)
                if f.init and f.type in ("float", float)]


@pytest.mark.parametrize(
    "cls, name", FLOAT_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_settings_reject_non_finite_fields(cls, name):
    valid = valid_settings()[cls]
    for bad in NON_FINITE:
        with pytest.raises(ConfigError, match=name):
            replace(valid, **{name: bad})


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_waypoint_and_h_ref_rejected(bad):
    cfg = load_config("rectangle_compare.ini")
    for axis in range(3):
        waypoint = [400.0, 0.0, 150.0]
        waypoint[axis] = bad
        with pytest.raises(ConfigError, match="waypoint 1"):
            replace(cfg.plan, waypoints=[(0.0, 0.0, 150.0), tuple(waypoint)])
    with pytest.raises(ConfigError, match="reference altitudes"):
        replace(cfg, h_refs=(150.0, bad))


def test_nan_heading_gain_never_runs():
    # A nan gain once passed every check, and min/max clamped it to full
    # rudder: 20 s of ratc flew with no fault and wrong statistics.
    cfg = load_config("rectangle_compare.ini")
    with pytest.raises(ConfigError, match="wn_psi"):
        run_scenario(replace(cfg, ctrl=replace(cfg.ctrl, wn_psi=math.nan)),
                     "ratc", duration_override=20.0)
