"""The paper's claim as a property of a grid, not of one trajectory.

Rudder-augmented correction (ratc) should cut the roll angle, and with it
the image error, against the aileron-only autopilot (aotc) across plans,
gusts and wind directions. Each member of a small fixed grid is flown
through compare_controllers, which raises if either run faults, and
every member must keep ratc's rms image error at 450 m and its mean
|roll| well below aotc's. The margins are properties with room to spare,
not goldens: on this grid the rms ratio spans about 0.15-0.25 and the
roll ratio about 0.01-0.08.

A plan and its wind reflected across the north axis reflect the whole
closed loop, because the airframe is laterally symmetric, so a mirrored
steady-wind member must give the same ratios. Gusty members are not
mirrored: the gust model does not reflect its draws.
"""

import functools
import math
from dataclasses import replace

import pytest

from levelwing.config import load_config
from levelwing.scenario import compare_controllers

SCENARIOS = ("rectangle_compare", "circle")
GUSTS_MPS = (0.0, 1.0)
WIND_TOWARD_DEG = (45.0, 225.0)
WIND_MPS = 3.0
SEED = 7
DURATION_S = 30.0

# ratc's rms_450 over aotc's, and its mean |roll| over aotc's, stay below
# these on every member.
RMS_450_MARGIN = 0.35
ABS_ROLL_FRACTION = 0.15

MEMBERS = [(scenario, gust, toward) for scenario in SCENARIOS
           for gust in GUSTS_MPS for toward in WIND_TOWARD_DEG]


def member_config(scenario, gust, toward, mirrored=False):
    """The bundled scenario in the member's wind and gusts, at the grid's
    seed; mirrored reflects its plan and wind across the north axis."""
    cfg = load_config(f"{scenario}.ini")
    rad = math.radians(toward)
    env = replace(cfg.env, wind_n=WIND_MPS * math.cos(rad),
                  wind_e=WIND_MPS * math.sin(rad), gust_intensity=gust)
    plan = cfg.plan
    if mirrored:
        env = replace(env, wind_e=-env.wind_e)
        if plan.orbit is None:
            plan = replace(plan, waypoints=[(n, -e, h)
                                            for n, e, h in plan.waypoints])
        else:
            orbit = plan.orbit
            plan = replace(plan, orbit=replace(
                orbit, center_e=-orbit.center_e, lam=-orbit.lam,
                start_bearing=-orbit.start_bearing))
    return replace(cfg, env=env, plan=plan, seed=SEED)


@functools.cache
def ratios(scenario, gust, toward, mirrored=False) -> dict[str, float]:
    """The member's comparison ratios; a faulting run raises here."""
    cfg = member_config(scenario, gust, toward, mirrored)
    return compare_controllers(cfg, duration_override=DURATION_S).ratios


@pytest.mark.parametrize("scenario, gust, toward", MEMBERS)
def test_ratc_cuts_image_error_and_roll(scenario, gust, toward):
    got = ratios(scenario, gust, toward)
    assert got["rms_450_ratc_over_aotc"] < RMS_450_MARGIN
    assert got["mean_abs_roll_ratc_over_aotc"] < ABS_ROLL_FRACTION


@pytest.mark.parametrize("scenario, toward", [
    (scenario, toward) for scenario in SCENARIOS
    for toward in WIND_TOWARD_DEG])
def test_mirrored_member_gives_the_same_ratios(scenario, toward):
    assert ratios(scenario, 0.0, toward, mirrored=True) == \
        ratios(scenario, 0.0, toward)
