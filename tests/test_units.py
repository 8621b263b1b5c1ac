"""Tests for unit helpers."""

import pytest

from repro import units


class TestConversions:
    def test_energy_roundtrip(self):
        assert units.joules_to_kwh(2.5 * units.KWH_J) == pytest.approx(2.5)
        assert units.joules_to_kwh(3.6e6) == pytest.approx(1.0)

    def test_year_is_365_days(self):
        assert units.YEAR == pytest.approx(365 * 24 * 3600)
