"""Unit helpers and constants shared across the library.

All quantities in the library are plain floats in SI-ish base units with
the unit spelled out in the variable name (``_s``, ``_w``, ``_usd``,
``_gbps``, ``_bytes``).  This module centralizes the conversion factors so
call sites never hand-roll powers of ten.
"""

from __future__ import annotations

# --- data sizes ---------------------------------------------------------

MB = 1_000_000
GB = 1_000_000_000

# --- rates --------------------------------------------------------------

TFLOPS = 1e12

# --- time ---------------------------------------------------------------

US = 1e-6
DAY = 86_400.0
YEAR = 365.0 * DAY

# --- energy / power -----------------------------------------------------

KWH_J = 3.6e6  # joules in one kilowatt-hour


def joules_to_kwh(energy_j: float) -> float:
    """Convert joules to kilowatt-hours."""
    return energy_j / KWH_J
