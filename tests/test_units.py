"""Tests for unit helpers."""

import pytest

from repro import units


class TestConversions:
    def test_bits(self):
        assert units.bits(1) == 8.0
        assert units.bits(units.GB) == 8e9

    def test_energy_roundtrip(self):
        assert units.joules_to_kwh(2.5 * units.KWH_J) == pytest.approx(2.5)
        assert units.joules_to_kwh(3.6e6) == pytest.approx(1.0)

    def test_transfer_time_10gbe(self):
        # 1 GB over 10 GbE: 8e9 bits / 1e10 bps = 0.8 s.
        assert units.transfer_time_s(units.GB, 10.0) == pytest.approx(0.8)

    def test_transfer_time_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            units.transfer_time_s(100, 0.0)

    def test_year_is_365_days(self):
        assert units.YEAR == pytest.approx(365 * 24 * 3600)
