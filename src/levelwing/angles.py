"""Angle wrapping helpers.

All course and heading arithmetic in this package uses shortest-path
differences wrapped onto (-pi, pi].
"""

import math


def wrap_pi(angle: float) -> float:
    """Wrap an angle in radians onto (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    # math.remainder lands in [-pi, pi]; only the -pi endpoint needs moving.
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped

