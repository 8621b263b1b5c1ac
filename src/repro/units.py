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

GBPS = 1e9  # bits per second in one gigabit/s
TFLOPS = 1e12

# --- time ---------------------------------------------------------------

US = 1e-6
DAY = 86_400.0
YEAR = 365.0 * DAY

# --- energy / power -----------------------------------------------------

KWH_J = 3.6e6  # joules in one kilowatt-hour


def bits(n_bytes: float) -> float:
    """Convert a byte count to bits."""
    return n_bytes * 8.0


def joules_to_kwh(energy_j: float) -> float:
    """Convert joules to kilowatt-hours."""
    return energy_j / KWH_J


def transfer_time_s(size_bytes: float, rate_gbps: float) -> float:
    """Serialization time of ``size_bytes`` on a ``rate_gbps`` link."""
    if rate_gbps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_gbps}")
    return bits(size_bytes) / (rate_gbps * GBPS)
