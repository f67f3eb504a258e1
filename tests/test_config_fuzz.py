"""Fuzzing the INI boundary: whatever lines a bundled file gains, loading
it returns a settings value or raises ConfigError, never anything else."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from levelwing.config import (
    AIRCRAFT_KEYS,
    CONTROLLER_KEYS,
    ENVIRONMENT_KEYS,
    GUIDANCE_KEYS,
    ORBIT_KEYS,
    PLAN_KEYS,
    SCENARIO_KEYS,
    SCENARIO_OWN_KEYS,
    SLEW_KEYS,
    load_aircraft,
    load_config,
    load_plan,
)
from levelwing.errors import ConfigError

FILES = {
    "rectangle_compare.ini": (DATA_DIR / "scenarios" / "rectangle_compare.ini",
                              load_config),
    "rectangle.ini": (DATA_DIR / "plans" / "rectangle.ini", load_plan),
    "aerosonde.ini": (DATA_DIR / "aerosonde.ini", load_aircraft),
}
KNOWN_KEYS = sorted(
    {key for table in AIRCRAFT_KEYS.values() for key in table}
    | {*PLAN_KEYS, *ORBIT_KEYS, *SCENARIO_KEYS, *ENVIRONMENT_KEYS,
       *CONTROLLER_KEYS, *GUIDANCE_KEYS, *SLEW_KEYS, *SCENARIO_OWN_KEYS,
       "kind", "direction", "wp07"})
UNKNOWN_KEYS = ["duration", "wn_psi", "orbit_gain", "Mode", "x"]
SECTIONS = [*AIRCRAFT_KEYS, "plan", "orbit", "waypoints", "scenario",
            "environment", "controller", "DEFAULT", "enviroment", "Plan"]
VALUES = st.one_of(
    st.sampled_from(["", "%", "50%", "%(name)s", "nan", "inf", "-inf",
                     "1e999", "0", "-1", "2.5", "true", "ccw", "orbit",
                     "aotc", "aerosonde.ini", "circle.ini",
                     "rectangle_compare.ini", "1, 2, 3", "0, 0, 150"]),
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
