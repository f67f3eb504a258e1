"""Golden lock on every bundled scenario flown by both controllers.

Each entry pins the summary-row statistics at rel 1e-9, the step count,
completion, and the number of segment_id changes in the log. The values
are those of the seed implementation; an intentional change to any of
them is recorded in CHANGES.md with its reason.
"""

import numpy as np
import pytest

from levelwing.config import load_config
from levelwing.scenario import run_scenario

ROW_FIELDS = (
    "mean_150", "std_150", "mean_450", "std_450", "rms_450", "lat_mean",
    "lat_std", "roll_mean_deg", "roll_std_deg", "beta_mean_deg",
    "beta_std_deg",
)

# (scenario, controller): (steps, completed, segment changes, row values)
GOLDEN = {
    ("rectangle_compare", "aotc"): (9404, True, 8, (
        26.84320840935263, 46.368335463201134, 76.54306804121816,
        138.05107576501788, 157.8510081850644, 1.9932785934198591,
        2.158112930946568, 8.351184302087807, 15.169647393230589,
        0.8499667965610213, 6.992442270609234,
    )),
    ("rectangle_compare", "ratc"): (10184, True, 8, (
        0.3571964734586137, 29.19633859334801, 0.3345051126161541,
        33.64055155877246, 33.642214594892444, 0.3685421538798435,
        27.23009433766445, -0.004373445380397393, 1.1805845966738102,
        -6.326796800118833, 12.734035526769096,
    )),
    ("figure_eight", "aotc"): (14994, True, 13, (
        -0.05330996798852586, 53.365038549589414, -0.06041165874536584,
        157.24688844470785, 157.24690004928843, -0.04975912261010549,
        2.883632802210982, 0.0227419144118704, 17.195424829874796,
        0.4702230671245243, 4.920634213429051,
    )),
    ("figure_eight", "ratc"): (16195, True, 13, (
        -1.9728874146349307, 28.041036082712385, -2.0375193110251075,
        32.620683257335, 32.68425402419606, -1.940571466439843,
        26.00164103153902, -0.01233599956832238, 1.1807221630492752,
        0.27583641437714435, 13.280300004066953,
    )),
    ("circle", "aotc"): (6282, True, 0, (
        77.86084126116155, 48.28298768144479, 231.6482660531112,
        141.9391239632037, 271.6756044934007, 0.9671288651867133,
        1.772198992192433, 25.452745202012146, 13.772700748092538,
        -1.4399046486491909, 2.911133332568293,
    )),
    ("circle", "ratc"): (8606, True, 0, (
        37.77039114230606, 1.5516772039142068, 37.68184509865355,
        0.7878334204120877, 37.69008001500181, 37.81466416413232,
        1.9429869666101192, -0.016911289773749727, 0.15182287909145414,
        -17.479588887379887, 1.4692265411742775,
    )),
    ("corner90", "aotc"): (6329, True, 1, (
        0.8015503073125206, 38.14809499601717, 18.937948634611075,
        134.0676066181981, 135.398556280409, -8.266648856336756,
        16.284185175506515, 2.553135006528293, 15.170723310539465,
        -0.2560465819019919, 1.8565030327256464,
    )),
    ("corner90", "ratc"): (6232, True, 1, (
        -5.481611894012477, 23.929389588704566, -2.4101804740515926,
        59.12997907649731, 59.17907903562296, -7.0173276039929195,
        14.465570688774028, 0.4391924920118523, 6.447320687719995,
        -2.6369014183964588, 8.019840110797588,
    )),
}


def _flown(request, scenario, mode):
    """Reuse a session-fixture run where one exists, else fly it here."""
    if scenario == "rectangle_compare":
        return getattr(request.getfixturevalue("rect_comparison")[0], mode)
    if (scenario, mode) == ("circle", "ratc"):
        return request.getfixturevalue("circle_run")[0]
    if (scenario, mode) == ("corner90", "ratc"):
        # corner90.ini sets slew_enabled = false.
        return request.getfixturevalue("corner_runs")[0][False]
    return run_scenario(load_config(f"{scenario}.ini"), mode)


@pytest.mark.parametrize("scenario, mode", sorted(GOLDEN))
def test_bundled_scenario_matches_golden(request, scenario, mode):
    steps, completed, segment_changes, row = GOLDEN[scenario, mode]
    result = _flown(request, scenario, mode)
    assert result.steps == steps
    assert result.completed is completed
    assert result.fault is None
    assert np.count_nonzero(np.diff(result.log["segment_id"])) == \
        segment_changes
    got = result.summary_row()
    for name, want in zip(ROW_FIELDS, row):
        assert getattr(got, name) == pytest.approx(want, rel=1e-9,
                                                   abs=1e-12), name
