"""INI loading: defaults, unit conversion, references, and error reporting."""

import math
from dataclasses import fields, replace

import pytest

from conftest import DATA_DIR, SETTINGS_TYPES
from levelwing.config import (
    bundled_data_dir,
    load_aircraft,
    load_config,
    load_plan,
    resolve_input_path,
)
from levelwing.errors import ConfigError
from levelwing.guidance import GuidanceGains, SlewSettings
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
    assert cfg.dt == 0.01
    assert cfg.duration == 120.0
    assert cfg.va_cmd == 20.0
    assert cfg.h_refs == (150.0, 450.0)
    assert cfg.warmup == 5.0
    assert cfg.seed == 0
    assert (cfg.env.wind_n, cfg.env.wind_e, cfg.env.wind_d) == (0.0, 0.0, 0.0)
    assert cfg.env.gust_intensity == 0.0
    assert cfg.ctrl.mode == "ratc"
    assert cfg.ctrl.wn_psi == 4.0
    assert not cfg.ctrl.slew_enabled


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


def test_stored_config_validation_bounds(tmp_path):
    cfg = load_config(write(tmp_path, "v.ini", MINIMAL_SCENARIO))
    for changes in ({"dt": 0.0}, {"duration": 0.0}, {"va_cmd": -1.0},
                    {"warmup": -1.0}, {"h_refs": ()}):
        with pytest.raises(ConfigError):
            replace(cfg, **changes)


def test_describe_echoes_effective_settings(tmp_path):
    cfg = load_config(write(tmp_path, "desc.ini", MINIMAL_SCENARIO))
    text = cfg.describe()
    assert "desc" in text
    assert "ratc" in text
    assert "120" in text          # default duration
    assert "slew limiter   off" in text


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
