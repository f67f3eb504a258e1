"""Fuzzing the INI boundary and the run behind it: whatever lines a
bundled file gains, loading it returns a settings value or raises
ConfigError; whatever finite number one of its keys is set to, flying and
designing the gains of what loads returns or raises a SimulatorError,
never anything else."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, rectangle_with
from levelwing.config import (
    AIRCRAFT_KEYS,
    CONTROLLER_KEYS,
    ENVIRONMENT_KEYS,
    GUIDANCE_KEYS,
    ORBIT_KEYS,
    PLAN_KEYS,
    REFERENCE_KEYS,
    SCENARIO_KEYS,
    load_aircraft,
    load_config,
    load_plan,
)
from levelwing.control import make_gain_schedule
from levelwing.dynamics import make_airframe
from levelwing.errors import ConfigError, SimulatorError
from levelwing.scenario import run_scenario

FILES = {
    "rectangle_compare.ini": (DATA_DIR / "scenarios" / "rectangle_compare.ini",
                              load_config),
    "rectangle.ini": (DATA_DIR / "plans" / "rectangle.ini", load_plan),
    "aerosonde.ini": (DATA_DIR / "aircraft" / "aerosonde.ini",
                      load_aircraft),
}
KNOWN_KEYS = sorted(
    {key for table in AIRCRAFT_KEYS.values() for key in table}
    | {*PLAN_KEYS, *ORBIT_KEYS, *SCENARIO_KEYS, *ENVIRONMENT_KEYS,
       *CONTROLLER_KEYS, *GUIDANCE_KEYS, *REFERENCE_KEYS,
       "name", "direction", "wp07"})
UNKNOWN_KEYS = ["duration", "wn_psi", "orbit_gain", "Mode", "x", "kind",
                "h_ref_m", "slew_threshold_dps"]
SECTIONS = [*AIRCRAFT_KEYS, "plan", "orbit", "waypoints", "scenario",
            "environment", "controller", "DEFAULT", "enviroment", "Plan"]
VALUES = st.one_of(
    st.sampled_from(["", "%", "50%", "%(name)s", "nan", "inf", "-inf",
                     "1e999", "0", "-1", "2.5", "true", "ccw", "orbit",
                     "aotc", "aerosonde.ini", "circle.ini",
                     "rectangle_compare.ini", "1, 2", "0, 0, 150"]),
    st.text(alphabet="0123456789.-+e, %()nafity[]=:;#é", max_size=12),
)
LINES = st.one_of(
    st.sampled_from(SECTIONS).map(lambda name: f"[{name}]"),
    st.builds(lambda key, value: f"{key} = {value}",
              st.sampled_from(KNOWN_KEYS + UNKNOWN_KEYS), VALUES),
)


@pytest.mark.parametrize("name", sorted(FILES))
@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inserts=st.lists(st.tuples(st.integers(0, 200), LINES), max_size=4))
def test_any_inserted_lines_load_or_raise_config_error(tmp_path, name,
                                                       inserts):
    source, load = FILES[name]
    lines = source.read_text(encoding="utf-8").splitlines()
    for position, line in inserts:
        lines.insert(position % (len(lines) + 1), line)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        load(path)
    except ConfigError:
        pass


# Every key a table reads as one number, by the section it belongs in; the
# slew flag is a boolean and the seed an integer.
NUMBER_KEYS = {
    "rectangle_compare.ini": {
        **{key: "scenario" for key in SCENARIO_KEYS},
        **{key: "environment" for key in ENVIRONMENT_KEYS},
        **{key: "controller" for key in (*CONTROLLER_KEYS, *GUIDANCE_KEYS)
           if key != "slew_enabled"},
    },
    "aerosonde.ini": {key: section
                      for section, table in AIRCRAFT_KEYS.items()
                      for key in table},
}
# Finite numbers up to 1e300 in magnitude, evenly and by decade.
NUMBERS = st.one_of(
    st.floats(-1e300, 1e300),
    st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
              st.floats(-10.0, 10.0), st.integers(-300, 299)))
# A run of more steps than this is skipped, to keep each draw short.
MAX_FUZZ_STEPS = 300
FUZZ_DURATION = 0.05


@pytest.mark.parametrize("name", sorted(NUMBER_KEYS))
@settings(derandomize=True, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_number_in_a_bundled_file_runs_or_raises_simulator_error(
        tmp_path, name, data):
    # What each command does with a file: simulate and compare fly each
    # law, gains designs both schedules at the commanded airspeed.
    key = data.draw(st.sampled_from(sorted(NUMBER_KEYS[name])), label="key")
    number = data.draw(NUMBERS, label="value")
    value = str(int(number)) if key == "seed" else repr(number)
    path = rectangle_with(tmp_path, name, NUMBER_KEYS[name][key], key, value)
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    if FUZZ_DURATION / cfg.dt > MAX_FUZZ_STEPS:
        return
    for mode in ("aotc", "ratc"):
        try:
            run_scenario(cfg, mode, duration_override=FUZZ_DURATION)
        except SimulatorError:
            pass
        try:
            make_gain_schedule(mode, make_airframe(cfg.params),
                               cfg.ctrl)(cfg.va_cmd, cfg.va_cmd)
        except SimulatorError:
            pass
