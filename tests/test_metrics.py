"""Image-error projection, sideslip estimate, and series statistics."""

import math

import numpy as np
import pytest

from levelwing.dynamics import body_to_ned
from levelwing.errors import InsufficientDataError
from levelwing.guidance import FlightPlan, line_error
from levelwing.metrics import (
    SUMMARY_COLUMNS,
    SummaryRow,
    beta_estimate,
    render_summary_table,
    series_stats,
    summary_csv_lines,
    total_image_error,
)


def test_total_image_error_wings_level_is_lateral():
    assert total_image_error(7.5, 0.0, 150.0) == pytest.approx(7.5,
                                                               rel=1e-12)


def test_total_image_error_forty_five_degree_bank():
    # tan(45 deg) = 1: the projection adds exactly the reference altitude.
    assert total_image_error(0.0, math.radians(45.0), 150.0) == \
        pytest.approx(150.0, rel=1e-12)
    assert total_image_error(-30.0, math.radians(45.0), 150.0) == \
        pytest.approx(120.0, rel=1e-12)


def test_total_image_error_golden_ten_degrees():
    got = total_image_error(0.0, math.radians(10.0), 450.0)
    assert got == pytest.approx(79.347141318809238, rel=1e-12)


def test_on_a_line_the_score_adds_the_roll_term_a_projection_subtracts():
    # Flying north with phi = +10 deg at 450 m, the body +z boresight
    # lands 79.3 m west, left of travel, where a line's lateral error is
    # negative; the score reads +79.3 m from the line itself.
    phi = math.radians(10.0)
    _, east, down = body_to_ned(0.0, 0.0, 1.0, math.sin(phi), math.cos(phi),
                                0.0, 1.0, 0.0, 1.0)
    north_line = FlightPlan(waypoints=[(0.0, 0.0), (1000.0, 0.0)]).segments[0]
    landed = line_error((0.0, 450.0 * east / down), north_line)
    assert landed == pytest.approx(-79.347141318809238, rel=1e-12)
    assert total_image_error(0.0, phi, 450.0) == pytest.approx(-landed,
                                                               rel=1e-12)


def test_total_image_error_altitude_rescaling():
    # The roll term scales linearly in h_ref; the lateral term does not.
    phi = math.radians(12.0)
    e1 = total_image_error(5.0, phi, 150.0)
    e3 = total_image_error(5.0, phi, 450.0)
    assert e3 - e1 == pytest.approx(300.0 * math.tan(phi), rel=1e-12)


def test_beta_estimate_wraps_course_heading_split():
    assert beta_estimate(0.3, 0.1) == pytest.approx(0.2, rel=1e-12)
    # 350 deg course against a 10 deg heading is a -20 deg split.
    got = beta_estimate(math.radians(350.0), math.radians(10.0))
    assert got == pytest.approx(math.radians(-20.0), rel=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(300):
        b = beta_estimate(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        assert -math.pi <= b <= math.pi


def test_series_stats_examples():
    s = series_stats([5.0, 5.0, 5.0])
    assert (s.mean, s.std, s.rms) == (pytest.approx(5.0),
                                      pytest.approx(0.0, abs=1e-12),
                                      pytest.approx(5.0))
    s = series_stats([-1.0, 1.0])
    assert s.mean == pytest.approx(0.0, abs=1e-12)
    assert s.std == pytest.approx(1.0, rel=1e-12)
    assert s.rms == pytest.approx(1.0, rel=1e-12)
    s = series_stats([1.0, 2.0, 3.0])
    assert s.mean == pytest.approx(2.0, rel=1e-12)
    assert s.std == pytest.approx(0.81649658092772603, rel=1e-12)
    assert s.rms == pytest.approx(2.1602468994692867, rel=1e-12)
    assert s.count == 3


def test_series_stats_requires_two_samples():
    with pytest.raises(InsufficientDataError):
        series_stats([1.0])
    with pytest.raises(InsufficientDataError):
        series_stats([])


def test_series_stats_rms_identity_randomized():
    # Population convention: rms^2 = mean^2 + std^2 exactly.
    rng = np.random.default_rng(12)
    for _ in range(300):
        x = rng.normal(rng.uniform(-10.0, 10.0), rng.uniform(0.1, 5.0),
                       size=rng.integers(2, 400))
        s = series_stats(x)
        assert math.isclose(s.rms**2, s.mean**2 + s.std**2, rel_tol=1e-9)
        assert s.count == x.size


def test_series_stats_shift_and_scale_covariance():
    rng = np.random.default_rng(13)
    x = rng.normal(2.0, 3.0, 500)
    base = series_stats(x)
    shifted = series_stats(x + 10.0)
    assert shifted.mean == pytest.approx(base.mean + 10.0, rel=1e-12)
    assert shifted.std == pytest.approx(base.std, rel=1e-9)
    scaled = series_stats(4.0 * x)
    assert scaled.mean == pytest.approx(4.0 * base.mean, rel=1e-12)
    assert scaled.std == pytest.approx(4.0 * base.std, rel=1e-12)


def test_series_stats_flattens_columns():
    flat = series_stats(np.arange(12.0))
    stacked = series_stats(np.arange(12.0).reshape(3, 4))
    assert flat == stacked


def make_row(tag):
    return SummaryRow(scenario="rect", controller=tag, mean_150=1.0,
                      std_150=2.0, mean_450=3.0, std_450=4.0, rms_450=5.0,
                      lat_mean=0.5, lat_std=0.25, roll_mean_deg=1.5,
                      roll_std_deg=2.5, beta_mean_deg=3.5, beta_std_deg=4.5)


# Captured from the hand-written table and CSV layouts before they were
# derived from the SummaryRow fields; widths and formats must not drift.
PINNED_TABLE = (
    "scenario        controller   mean_150    std_150   mean_450    std_450"
    "    rms_450   lat_mean    lat_std   roll_mean   roll_std   beta_mean"
    "   beta_std\n"
    "rect            aotc             1.00       2.00       3.00       4.00"
    "       5.00       0.50       0.25        1.50       2.50        3.50"
    "       4.50\n"
    "rect            ratc             1.00       2.00       3.00       4.00"
    "       5.00       0.50       0.25        1.50       2.50        3.50"
    "       4.50"
)

PINNED_CSV = [
    "scenario,controller,mean_150,std_150,mean_450,std_450,rms_450,lat_mean,"
    "lat_std,roll_mean_deg,roll_std_deg,beta_mean_deg,beta_std_deg",
    "rect,aotc,1.000000,2.000000,3.000000,4.000000,5.000000,0.500000,"
    "0.250000,1.500000,2.500000,3.500000,4.500000",
    "rect,ratc,1.000000,2.000000,3.000000,4.000000,5.000000,0.500000,"
    "0.250000,1.500000,2.500000,3.500000,4.500000",
]


def test_summary_table_renders_all_columns():
    text = render_summary_table([make_row("aotc"), make_row("ratc")])
    lines = text.splitlines()
    assert len(lines) == 3
    for col in ("scenario", "controller", "mean_150", "std_450", "rms_450",
                "lat_mean", "roll_mean", "beta_mean"):
        assert col in lines[0]
    assert "aotc" in text and "ratc" in text
    assert text == PINNED_TABLE


def test_summary_csv_lines_parse_back():
    lines = summary_csv_lines([make_row("aotc")])
    assert lines[0].split(",") == list(SUMMARY_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "rect" and cells[1] == "aotc"
    assert float(cells[2]) == pytest.approx(1.0)
    assert float(cells[6]) == pytest.approx(5.0)
    assert summary_csv_lines([make_row("aotc"), make_row("ratc")]) == \
        PINNED_CSV
