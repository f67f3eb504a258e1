"""Image-error metrics and summary statistics.

The body-fixed camera looks straight down, so its ground footprint
displaces by the lateral tracking error plus the roll-induced shift
h_ref*tan(phi) at the imaging reference altitude. Statistics use the
population standard deviation, which keeps rms^2 = mean^2 + std^2 exact.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .angles import wrap_pi
from .errors import InsufficientDataError


@dataclass
class ErrorStats:
    """Signed-series statistics: mean, population std, rms, sample count."""

    mean: float
    std: float
    rms: float
    count: int


def total_image_error(e_lateral: float | np.ndarray, phi: float | np.ndarray,
                      h_ref: float) -> float | np.ndarray:
    """Ground image displacement: lateral error plus h_ref*tan(phi).

    Takes floats or equal-length arrays. A roll past +/-90 deg has no
    ground intersection, but departed runs are still scored, so no
    domain check is made here.
    """
    return e_lateral + h_ref * np.tan(phi)


def beta_estimate(chi: float, psi: float) -> float:
    """Sideslip estimate as the wrapped course/heading split.

    Equals the true sideslip in zero wind; with wind it also absorbs the
    crab angle, matching what a GPS-course-minus-heading flight log shows.
    """
    return wrap_pi(chi - psi)


def series_stats(values) -> ErrorStats:
    """Mean, population standard deviation, and rms of a signed series."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size < 2:
        raise InsufficientDataError(
            f"need at least 2 samples for statistics, got {arr.size}"
        )
    mean = float(np.mean(arr))
    std = float(np.std(arr))  # population: rms^2 == mean^2 + std^2
    rms = float(np.sqrt(np.mean(arr**2)))
    return ErrorStats(mean=mean, std=std, rms=rms, count=int(arr.size))


class RunStats(NamedTuple):
    """A run's statistics after its warmup: the image error (m) at each
    of the TABLE_H_REFS, the lateral path error (m), the roll and
    sideslip estimate (deg), and their mean magnitudes (deg)."""

    image_by_href: dict[float, ErrorStats]
    lateral: ErrorStats
    roll_deg: ErrorStats
    beta_deg: ErrorStats
    abs_roll_mean_deg: float
    abs_beta_mean_deg: float


@dataclass
class SummaryRow:
    """One controller's row of the comparison table."""

    scenario: str
    controller: str
    mean_150: float
    std_150: float
    mean_450: float
    std_450: float
    rms_450: float
    lat_mean: float
    lat_std: float
    roll_mean_deg: float
    roll_std_deg: float
    beta_mean_deg: float
    beta_std_deg: float


SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))

# The reference altitudes (m) that SummaryRow's fields name; the roll term
# is linear in h_ref, so each is scored from the logged series, not flown.
TABLE_H_REFS = (150.0, 450.0)

# Every field after scenario and controller is a float statistic.
_STATS = SUMMARY_COLUMNS[2:]


def render_summary_table(rows: list[SummaryRow]) -> str:
    """Fixed-width plain-text comparison table; a statistic's label drops
    any _deg suffix and its column is at least 9 characters wide."""
    labels = [name.removesuffix("_deg") for name in _STATS]
    widths = [max(9, len(label) + 1) for label in labels]
    header = [f"{'scenario':<14}", f"{'controller':<10}"]
    header += [f"{label:>{w}}" for label, w in zip(labels, widths)]
    lines = ["  ".join(header)]
    for row in rows:
        cells = [f"{row.scenario:<14}", f"{row.controller:<10}"]
        cells += [f"{getattr(row, name):>{w}.2f}"
                  for name, w in zip(_STATS, widths)]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def summary_csv_lines(rows: list[SummaryRow]) -> list[str]:
    """Machine-readable form of the comparison table."""
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        stats = [f"{getattr(row, name):.6f}" for name in _STATS]
        lines.append(",".join([row.scenario, row.controller, *stats]))
    return lines
