"""Scalar helpers of the closed-loop step: angle wrapping and clamping.

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


def clamp(x: float, lo: float, hi: float) -> float:
    """x limited to [lo, hi]: max(lo, min(hi, x)) bit for bit, ties,
    signed zeros and nan included, without the builtins' call cost."""
    m = x if x < hi else hi
    return m if m > lo else lo
