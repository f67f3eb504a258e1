"""INI loading: defaults, unit conversion, references, and error reporting."""

import math
import pickle
import re
import sys
from dataclasses import MISSING, fields, is_dataclass, replace

import numpy as np
import pytest

from conftest import (DATA_DIR, RETIRED_INPUTS, SETTINGS_TYPES,
                      set_key, with_retired_input, write_decoys)
from levelwing.config import (
    AIRCRAFT_KEYS,
    CONTROLLER_KEYS,
    ENVIRONMENT_KEYS,
    GUIDANCE_KEYS,
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
from levelwing.guidance import FlightPlan, GuidanceSettings, OrbitPlan
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


@pytest.mark.parametrize("path", sorted(
    (DATA_DIR / "scenarios").glob("*.ini")), ids=lambda path: path.stem)
def test_a_bundled_scenario_ignores_the_working_directory(tmp_path,
                                                          monkeypatch, path):
    # A name that a file gives is looked for beside that file, then among
    # the bundled files of its kind, never in the working directory.
    monkeypatch.chdir(tmp_path)
    clean = load_config(path)
    write_decoys(tmp_path)
    assert load_config(path) == clean
    assert clean.aircraft_path == DATA_DIR / "aerosonde.ini"
    assert clean.plan_path.parent == DATA_DIR / "plans"


@pytest.mark.parametrize("load, name, kind, folder", [
    (load_aircraft, "circle.ini", "aircraft", DATA_DIR),
    (load_plan, "aerosonde.ini", "plans", DATA_DIR / "plans"),
    (load_config, "rectangle.ini", "scenarios", DATA_DIR / "scenarios"),
])
def test_a_name_is_looked_for_among_its_own_kind_only(tmp_path, monkeypatch,
                                                      load, name, kind,
                                                      folder):
    # A bundled file of another kind is never read in its place.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError) as caught:
        load(name)
    assert str(caught.value) == (f"file not found: {name} among the {kind} "
                                 f"(looked for {tmp_path / name} and "
                                 f"{folder / name})")


def test_a_reference_is_not_looked_for_in_the_working_directory(
        tmp_path, monkeypatch):
    home, work = tmp_path / "home", tmp_path / "work"
    home.mkdir()
    work.mkdir()
    route = base_text(DATA_DIR / "plans" / "rectangle.ini")
    write(work, "route.ini", route)
    scenario = write(home, "survey.ini",
                     MINIMAL_SCENARIO.replace("rectangle.ini", "route.ini"))
    monkeypatch.chdir(work)
    with pytest.raises(ConfigError) as caught:
        load_config(scenario)
    assert str(caught.value) == (
        f"{scenario}: file not found: route.ini among the plans (looked for "
        f"{home / 'route.ini'} and {DATA_DIR / 'plans' / 'route.ini'})")
    # A name that no file gives is still found there.
    assert load_plan("route.ini") == load_plan("rectangle.ini")
    # Beside the scenario, the reference is found.
    write(home, "route.ini", route)
    assert load_config(scenario).plan_path == home / "route.ini"


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


@pytest.mark.parametrize("name", sorted(RETIRED_INPUTS))
def test_a_retired_input_is_an_error_naming_its_file(tmp_path, name):
    written, _, _, fault = RETIRED_INPUTS[name]
    files = with_retired_input(tmp_path, name)
    inner = "" if written == "scenario" else f"{files['plan']}: "
    with pytest.raises(ConfigError) as caught:
        load_config(files["scenario"])
    assert str(caught.value) == f"{files['scenario']}: {inner}{fault}"
    if written == "plan":
        with pytest.raises(ConfigError) as caught:
            load_plan(files["plan"])
        assert str(caught.value) == f"{files['plan']}: {fault}"


def test_a_scenario_names_no_law(tmp_path):
    # Which law flies is each run's argument, so a file that still sets
    # one fails like any misspelt key, whatever the law.
    for law in ("aotc", "ratc", "yaw_only"):
        p = write(tmp_path, "law.ini",
                  MINIMAL_SCENARIO + f"[controller]\nmode = {law}\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{p}: unknown key 'mode' in [controller]")):
            load_config(p)


def test_controller_bounds_enforced(tmp_path):
    p = write(tmp_path, "steep.ini",
              MINIMAL_SCENARIO + "[controller]\nbank_limit_deg = 85\n")
    with pytest.raises(ConfigError, match=r"ControllerSettings\.bank_limit"):
        load_config(p)
    p = write(tmp_path, "tight.ini",
              MINIMAL_SCENARIO + "[controller]\ncourse_separation = 0.5\n")
    with pytest.raises(ConfigError, match="course_separation"):
        load_config(p)


def test_controller_holds_only_guidance_settings():
    # A flag where the guidance settings belong would fail only in the run.
    for value in (True, EnvironmentSettings()):
        with pytest.raises(ConfigError, match="ControllerSettings.guidance"):
            replace(ControllerSettings(), guidance=value)


def test_seed_and_slew_overrides(tmp_path):
    p = write(tmp_path, "ovr.ini", MINIMAL_SCENARIO)
    cfg = load_config(p, seed=42, slew=True)
    assert cfg.seed == 42
    assert cfg.ctrl.guidance.slew_enabled
    assert load_config(p, slew=False).ctrl.guidance.slew_enabled is False


@pytest.mark.parametrize("name", sorted(
    path.name for path in (DATA_DIR / "scenarios").glob("*.ini")))
def test_slew_override_sets_only_slew_enabled(name):
    # --slew replaces one guidance value: the file's slew rate (corner90's
    # 18 deg/s) and every other setting are kept, and no override keeps
    # the file's flag.
    cfg = load_config(name)
    assert load_config(name, slew=None) == cfg
    for flag in (False, True):
        flown = load_config(name, slew=flag)
        assert flown.ctrl.guidance.slew_enabled is flag
        assert flown.ctrl.guidance.slew_rate == cfg.ctrl.guidance.slew_rate
        guidance = replace(flown.ctrl.guidance,
                           slew_enabled=cfg.ctrl.guidance.slew_enabled)
        assert replace(flown, ctrl=replace(flown.ctrl,
                                           guidance=guidance)) == cfg


def test_bad_waypoint_line_reported(tmp_path):
    for wp01 in ("0", "0, 0, 150", "nan, 0"):
        p = write(tmp_path, "short.ini", f"""
[plan]
name = short
[waypoints]
wp01 = {wp01}
wp02 = 400, 0
""")
        with pytest.raises(ConfigError, match="wp01"):
            load_plan(p)


def test_waypoints_are_flown_at_nominal_agl(tmp_path):
    # A waypoint is a north, east pair; the path and the altitude hold fly
    # the plan's one altitude.
    plan = load_plan(write(tmp_path, "high.ini", """
[plan]
name = high
nominal_agl_m = 250
[waypoints]
wp01 = 0, 0
wp02 = 400, 0
"""))
    assert plan.waypoints == ((0.0, 0.0), (400.0, 0.0))
    assert plan.start_position() == (0.0, 0.0, -250.0)


def test_waypoints_are_flown_in_the_files_order(tmp_path):
    # Sorted as strings, wp10 once came second, and with no fillet radius
    # the plan flew out of order without a word.
    lines = "".join(f"wp{i + 1} = {100 * i}, 0\n" for i in range(10))
    plan = load_plan(write(tmp_path, "ten.ini",
                           f"[plan]\nname = ten\n[waypoints]\n{lines}"))
    assert plan.waypoints == tuple((100.0 * i, 0.0) for i in range(10))
    assert plan.segments[-1].switch_point == (900.0, 0.0)


def test_plan_file_names_a_waypoint_one_way(tmp_path):
    # load_plan and the FlightPlan it builds both name a waypoint by its
    # 0-based place in the file's order, here the second one.
    for wp02, fault in (("400, x", "non-numeric"),
                        ("400, 0, 250", "must be 'north_m, east_m'"),
                        ("0, 0", "coincides with waypoint 0")):
        p = write(tmp_path, "named.ini", f"""
[plan]
name = named
[waypoints]
wp01 = 0, 0
wp02 = {wp02}
wp03 = 400, 400
""")
        with pytest.raises(ConfigError, match=fault) as caught:
            load_plan(p)
        assert re.findall(r"waypoint (\S+)", str(caught.value))[0] == "1"


def test_orbit_plan_file_with_a_fillet_radius_rejected(tmp_path):
    # The fillet radius of an orbit plan was once dropped without a word.
    text = set_key(base_text(DATA_DIR / "plans" / "circle.ini"), "plan",
                   "fillet_radius_m", "50")
    path = write(tmp_path, "loiter.ini", text)
    with pytest.raises(ConfigError) as caught:
        load_plan(path)
    assert str(caught.value) == (f"{path}: plan 'circle': an orbit plan "
                                 "takes no waypoints and no fillet radius")


def test_bad_orbit_direction_reported(tmp_path):
    p = write(tmp_path, "spin.ini", """
[plan]
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
        resolve_input_path(tmp_path / "ghost.ini", "scenarios")


def test_overlong_file_name_is_a_config_error():
    # The operating system refuses the name itself (ENAMETOOLONG).
    with pytest.raises(ConfigError, match="cannot read"):
        resolve_input_path("a" * 300 + ".ini", "scenarios")


def test_stored_config_validation_bounds(tmp_path):
    cfg = load_config(write(tmp_path, "v.ini", MINIMAL_SCENARIO))
    for changes in ({"dt": 0.0}, {"duration": 0.0}, {"va_cmd": -1.0},
                    {"warmup": -1.0}):
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
    ("controller", GUIDANCE_KEYS, GuidanceSettings, None,
     lambda path: load_config(path).ctrl.guidance),
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


def new_value(key, current):
    """(text, value): a value for key other than current, as a file gives
    it and as it loads."""
    degrees = key.endswith(("_deg", "_dps"))
    if isinstance(current, bool):
        return ("off", False) if current else ("on", True)
    if isinstance(current, int):
        return str(current + 3), current + 3
    if isinstance(current, tuple):
        values = tuple(item * 1.5 + 0.25 for item in current)
        return ", ".join(map(repr, values)), values
    value = (math.degrees(current) if degrees else current) * 1.5 + 0.25
    return repr(value), math.radians(value) if degrees else value


@pytest.mark.parametrize(
    "section, key, name, cls, base, load", KEY_CASES,
    ids=[f"{case[0]}.{case[1]}" for case in KEY_CASES])
def test_each_key_sets_its_field(tmp_path, section, key, name, cls, base,
                                 load):
    path = write(tmp_path, "case.ini", base_text(base))
    before = load(path)
    current = getattr(before, name)
    text, expected = new_value(key, current)
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


def leaves(settings, path=()):
    """{field path: value} of every setting in a settings value, those of
    the settings values that it holds included."""
    if not is_dataclass(settings):
        return {path: settings}
    return {leaf: value for f in fields(settings)
            for leaf, value in leaves(getattr(settings, f.name),
                                      (*path, f.name)).items()}


# Where ControllerSettings holds each type that [controller] is read into.
CONTROLLER_PARTS = {ControllerSettings: (), GuidanceSettings: ("guidance",)}


def test_controller_settings_hold_each_setting_once(tmp_path):
    # The guidance settings, slew limiter included, are a field of
    # ControllerSettings, not mirrored in it: no field of it repeats one
    # of theirs, and each [controller] key sets exactly one setting.
    own = {f.name for f in fields(ControllerSettings)}
    assert own.isdisjoint(f.name for f in fields(GuidanceSettings))
    path = write(tmp_path, "case.ini", MINIMAL_SCENARIO)
    before = leaves(load_config(path).ctrl)
    for section, key, name, cls, _, load in KEY_CASES:
        if section != "controller":
            continue
        text, _ = new_value(key, getattr(load(path), name))
        changed = write(tmp_path, "changed.ini",
                        set_key(MINIMAL_SCENARIO, section, key, text))
        after = leaves(load_config(changed).ctrl)
        assert after.keys() == before.keys()
        assert [leaf for leaf in before if after[leaf] != before[leaf]] == [
            (*CONTROLLER_PARTS[cls], name)], key


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


@pytest.mark.parametrize("text, count", [
    (base_text(DATA_DIR / "plans" / "circle.ini") + "[waypoints]\n", 2),
    ("[plan]\nname = nowhere\n", 0),
], ids=["both", "neither"])
def test_a_plan_has_one_of_the_two_kinds_of_section(tmp_path, text, count):
    # The section that a plan has is its kind, so it may not have both.
    path = write(tmp_path, "kinds.ini", text)
    with pytest.raises(ConfigError) as caught:
        load_plan(path)
    assert str(caught.value) == (f"{path}: a plan has exactly one of "
                                 f"[waypoints] and [orbit], not {count}")


# One value out of bounds for each settings type that a file builds, and a
# referenced file that is missing: the file written, the section, key and
# value, and how the message ends, with {tmp} for the directory of the
# files and {data} for the bundled data directory.
FILE_ERROR_CASES = [
    ("aircraft", "mass_properties", "mass_kg", "0",
     "AircraftParams.mass must be > 0, got 0.0"),
    ("plan", "plan", "nominal_agl_m", "0",
     "FlightPlan.nominal_agl must be > 0, got 0.0"),
    ("orbit plan", "orbit", "radius_m", "0",
     "OrbitPlan.radius must be >= 1e-06, got 0.0"),
    ("scenario", "environment", "gust_tau_s", "0",
     "EnvironmentSettings.gust_tau must be > 0, got 0.0"),
    ("scenario", "controller", "wn_psi_radps", "0",
     "ControllerSettings.wn_psi must be > 0, got 0.0"),
    ("scenario", "controller", "capture_gain_radpm", "0",
     "GuidanceSettings.capture_gain must be > 0, got 0.0"),
    ("scenario", "controller", "slew_rate_dps", "0",
     "GuidanceSettings.slew_rate must be > 0, got 0.0"),
    ("scenario", "scenario", "dt_s", "0",
     "ScenarioConfig.dt must be > 0, got 0.0"),
    ("scenario", "scenario", "aircraft", "ghost.ini",
     "file not found: ghost.ini among the aircraft (looked for "
     "{tmp}/ghost.ini and {data}/ghost.ini)"),
    ("scenario", "scenario", "plan", "ghost.ini",
     "file not found: ghost.ini among the plans (looked for "
     "{tmp}/ghost.ini and {data}/plans/ghost.ini)"),
]


@pytest.mark.parametrize(
    "written, section, key, value, fault", FILE_ERROR_CASES,
    ids=[f"{case[0].split()[-1]}.{case[2]}" for case in FILE_ERROR_CASES])
def test_each_file_error_starts_with_the_files_path(tmp_path, written,
                                                    section, key, value,
                                                    fault):
    # An error in a referenced file names that file after the scenario.
    files = {"scenario": tmp_path / "survey.ini",
             "aircraft": tmp_path / "craft.ini",
             "plan": tmp_path / "route.ini"}
    plan = "circle.ini" if written == "orbit plan" else "rectangle.ini"
    texts = {"scenario": MINIMAL_SCENARIO.replace(
                 "aerosonde.ini", "craft.ini").replace(
                 "rectangle.ini", "route.ini"),
             "aircraft": base_text(DATA_DIR / "aerosonde.ini"),
             "plan": base_text(DATA_DIR / "plans" / plan)}
    kind = written.split()[-1]
    texts[kind] = set_key(texts[kind], section, key, value)
    for name, path in files.items():
        path.write_text(texts[name], encoding="utf-8")
    inner = "" if kind == "scenario" else f"{files[kind]}: "
    fault = fault.format(tmp=tmp_path, data=DATA_DIR)
    with pytest.raises(ConfigError) as caught:
        load_config(files["scenario"])
    assert str(caught.value) == f"{files['scenario']}: {inner}{fault}"
    if kind != "scenario":
        load = load_aircraft if kind == "aircraft" else load_plan
        with pytest.raises(ConfigError) as caught:
            load(files[kind])
        assert str(caught.value) == f"{files[kind]}: {fault}"


def test_comma_lists_skip_empty_items(tmp_path):
    # Each waypoint is a comma list whose empty items are skipped.
    text = base_text(DATA_DIR / "plans" / "rectangle.ini")
    for wp02 in ("400, 0,", "400, , 0", ", 400, 0"):
        plan = load_plan(write(tmp_path, "route.ini", set_key(
            text, "waypoints", "wp02", wp02)))
        assert plan == load_plan("rectangle.ini")


def valid_settings():
    """One valid instance of each settings type, from the bundled files."""
    cfg = load_config("rectangle_compare.ini")
    instances = (cfg.params, cfg.plan, load_plan("circle.ini").orbit,
                 GuidanceSettings(), cfg.env, cfg.ctrl, cfg)
    return {type(settings): settings for settings in instances}


# The fields that a check or the gain design squares.
SQUARED_FIELDS = [(AircraftParams, "ixz"), (AircraftParams, "wing_span"),
                  *((ControllerSettings, name)
                    for name in ("wn_psi", "wn_roll", "wn_pitch", "wn_alt"))]


@pytest.mark.parametrize(
    "cls, name", SQUARED_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, name in SQUARED_FIELDS])
def test_a_setting_whose_square_overflows_is_named(cls, name):
    valid = valid_settings()[cls]
    edge = math.sqrt(sys.float_info.max)   # the largest with a finite square
    signs = (1.0, -1.0) if name == "ixz" else (1.0,)   # the rest are > 0
    for bad in (sign * v for sign in signs
                for v in (1e200, math.nextafter(edge, math.inf))):
        with pytest.raises(ConfigError, match=re.escape(
                f"{cls.__name__}.{name} must have a finite square, got "
                f"{bad}")):
            replace(valid, **{name: bad})
    if name != "ixz":   # a huge ixz is a degenerate inertia tensor
        assert getattr(replace(valid, **{name: edge}), name) == edge


def test_the_squared_fields_are_marked_where_they_are_declared():
    assert {(cls, f.name) for cls in SETTINGS_TYPES for f in fields(cls)
            if "squared" in f.metadata} == set(SQUARED_FIELDS)


NON_FINITE = (math.nan, math.inf, -math.inf)
# An integer beyond the float range is not finite as a float either.
HUGE = pytest.param(10**400, id="1e400")
FLOAT_FIELDS = [(cls, f.name) for cls in SETTINGS_TYPES for f in fields(cls)
                if f.init and f.type in ("float", float)]


@pytest.mark.parametrize(
    "cls, name", FLOAT_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_settings_reject_non_finite_fields(cls, name):
    valid = valid_settings()[cls]
    for bad in (*NON_FINITE, 10**400):
        with pytest.raises(ConfigError, match=name):
            replace(valid, **{name: bad})


# A non-number item is rejected as a non-finite one is.
@pytest.mark.parametrize("bad", [*NON_FINITE, HUGE, "150", None, True])
def test_non_finite_waypoint_rejected(bad):
    cfg = load_config("rectangle_compare.ini")
    for axis in range(2):
        waypoint = [400.0, 0.0]
        waypoint[axis] = bad
        with pytest.raises(ConfigError, match="waypoint 1"):
            replace(cfg.plan, waypoints=[(0.0, 0.0), tuple(waypoint)])


def test_nan_heading_gain_never_runs():
    # A nan gain once passed every check, and min/max clamped it to full
    # rudder: 20 s of ratc flew with no fault and wrong statistics.
    cfg = load_config("rectangle_compare.ini")
    with pytest.raises(ConfigError, match="wn_psi"):
        run_scenario(replace(cfg, ctrl=replace(cfg.ctrl, wn_psi=math.nan)),
                     "ratc", duration_override=20.0)


# Each single-field bound, as a value just outside it, with the settings
# type whose loaded value of valid_settings it is set on.
TINY = 5e-324
POSITIVE = {
    AircraftParams: ("mass", "ixx", "iyy", "izz", "wing_area", "wing_span",
                     "mean_chord", "rho", "gravity", "delta_a_max",
                     "delta_e_max", "delta_r_max", "rate_limit"),
    GuidanceSettings: ("intercept_angle", "capture_gain", "orbit_gain",
                       "slew_rate"),
    FlightPlan: ("nominal_agl",),
    OrbitPlan: ("radius",),
    EnvironmentSettings: ("gust_tau",),
    ControllerSettings: ("wn_psi", "zeta_psi", "wn_roll", "zeta_roll",
                         "zeta_course", "bank_limit", "wn_pitch",
                         "zeta_pitch", "wn_alt", "zeta_alt", "kp_airspeed",
                         "ki_airspeed", "pitch_limit"),
    ScenarioConfig: ("dt", "duration", "va_cmd"),
}
BOUND_CASES = [
    *((cls, name, 0.0) for cls, names in POSITIVE.items() for name in names),
    (FlightPlan, "fillet_radius", -TINY),
    (OrbitPlan, "revolutions", -TINY),
    (EnvironmentSettings, "gust_intensity", -TINY),
    (ControllerSettings, "ki_roll", -TINY),
    (ControllerSettings, "course_separation", math.nextafter(1.0, 0.0)),
    (ControllerSettings, "bank_limit",
     math.nextafter(math.radians(80.0), math.inf)),
    (GuidanceSettings, "intercept_angle",
     math.nextafter(math.pi / 2, math.inf)),
    (ScenarioConfig, "warmup", -TINY),
    (ScenarioConfig, "seed", -1),
    (OrbitPlan, "lam", 0),
]
# The values on those bounds that are accepted.
BOUNDARY_CASES = [
    (ControllerSettings, "ki_roll", 0.0),
    (ControllerSettings, "course_separation", 1.0),
    (ControllerSettings, "bank_limit", math.radians(80.0)),
    (GuidanceSettings, "intercept_angle", math.radians(90.0)),
    (EnvironmentSettings, "gust_intensity", 0.0),
    (ScenarioConfig, "warmup", 0.0),
    (ScenarioConfig, "seed", 0),
    (OrbitPlan, "revolutions", 0.0),
    (FlightPlan, "fillet_radius", 0.0),
]


def bound_id(case):
    cls, name, value = case
    return f"{cls.__name__}.{name}={value!r}"


@pytest.mark.parametrize("cls, name, bad", BOUND_CASES,
                         ids=map(bound_id, BOUND_CASES))
def test_each_bound_rejects_the_value_just_outside_it(cls, name, bad):
    with pytest.raises(ConfigError):
        replace(valid_settings()[cls], **{name: bad})


@pytest.mark.parametrize("cls, name, value", BOUNDARY_CASES,
                         ids=map(bound_id, BOUNDARY_CASES))
def test_each_bound_accepts_its_boundary_value(cls, name, value):
    valid = valid_settings()[cls]
    assert getattr(replace(valid, **{name: value}), name) == value


def test_boundary_values_load_from_files(tmp_path):
    cfg = load_config(write(tmp_path, "edge.ini", MINIMAL_SCENARIO + """
warmup_s = 0
seed = 0
[environment]
gust_intensity_mps = 0
[controller]
ki_roll = 0
course_separation = 1
bank_limit_deg = 80
intercept_angle_deg = 90
"""))
    assert (cfg.warmup, cfg.seed, cfg.env.gust_intensity, cfg.ctrl.ki_roll,
            cfg.ctrl.course_separation) == (0.0, 0, 0.0, 0.0, 1.0)
    assert cfg.ctrl.bank_limit == math.radians(80.0)
    assert cfg.ctrl.guidance.intercept_angle == math.pi / 2
    orbit = load_plan(write(tmp_path, "endless.ini", set_key(base_text(
        DATA_DIR / "plans" / "circle.ini"), "orbit", "revolutions", "0")))
    assert orbit.orbit.revolutions == 0.0
    sharp = load_plan(write(tmp_path, "sharp.ini", set_key(base_text(
        DATA_DIR / "plans" / "rectangle.ini"), "plan", "fillet_radius_m",
        "0")))
    assert sharp.fillet_radius == 0.0


def wrong_kinds(f):
    """Values of the wrong kind for field f: None, a numeric string, a
    flag where no flag belongs, a fraction for an integer and an empty
    dict for a settings value or a path."""
    kind = f.type
    values = [] if kind.endswith("| None") else [None]
    if kind != "str":
        values.append("4")
    if kind != "bool":
        values.append(True)
    if kind == "int":
        values.append(1.5)
    if kind[:1].isupper():
        values.append({})
    return values


KIND_CASES = [(cls, f.name, value) for cls in SETTINGS_TYPES
              for f in fields(cls) if f.init for value in wrong_kinds(f)]


@pytest.mark.parametrize(
    "cls, name, value", KIND_CASES,
    ids=[f"{cls.__name__}.{name}={value!r}"
         for cls, name, value in KIND_CASES])
def test_wrong_kind_is_a_config_error_naming_the_field(cls, name, value):
    with pytest.raises(ConfigError, match=rf"\b{cls.__name__}\.{name}\b"):
        replace(valid_settings()[cls], **{name: value})


def test_numpy_numbers_are_accepted():
    for cls, valid in valid_settings().items():
        changes = {f.name: (np.int64 if f.type == "int" else np.float64)(
                   getattr(valid, f.name))
                   for f in fields(cls) if f.init and f.type in ("float",
                                                                  "int")}
        assert replace(valid, **changes) == valid, cls



@pytest.mark.parametrize("overrides, named", [
    ({"slew": "off"}, "GuidanceSettings.slew_enabled"),
    ({"slew": 1}, "GuidanceSettings.slew_enabled"),
    ({"seed": 2.9}, "ScenarioConfig.seed"),
    ({"seed": "x"}, "ScenarioConfig.seed"),
])
def test_load_config_overrides_are_checked_not_coerced(tmp_path, overrides,
                                                       named):
    with pytest.raises(ConfigError, match=named):
        load_config(write(tmp_path, "ovr.ini", MINIMAL_SCENARIO), **overrides)


@pytest.mark.parametrize("overrides, message", [
    ({"slew": "off"}, "GuidanceSettings.slew_enabled must be bool, got 'off'"),
    ({"seed": 2.9}, "ScenarioConfig.seed must be int, got 2.9"),
    ({"seed": -1}, "ScenarioConfig.seed must be >= 0, got -1"),
])
def test_override_errors_do_not_name_the_file(tmp_path, overrides, message):
    # The file is valid; only the override is wrong.
    path = write(tmp_path, "ovr.ini", MINIMAL_SCENARIO)
    with pytest.raises(ConfigError) as info:
        load_config(path, **overrides)
    assert str(info.value) == message
