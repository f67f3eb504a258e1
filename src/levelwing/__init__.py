"""Deterministic fixed-wing flight simulator and lateral guidance stack.

Compares two lateral trajectory-correction strategies over scripted
flight plans: aileron-only course steering (banking to correct) and
rudder-augmented heading steering (yawing while holding wings level),
scoring each by the image error of a rigidly mounted downward camera.
"""

__version__ = "0.1.0"
