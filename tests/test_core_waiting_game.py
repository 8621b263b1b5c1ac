"""Tests for the wait-for-commodity coordination game."""

import pytest

from repro.core import (
    WaitingGameConfig,
    minimum_seed_for_takeoff,
    simulate_waiting_game,
)
from repro.errors import ModelError


class TestConfig:
    def test_price_at_base_is_launch_price(self):
        config = WaitingGameConfig()
        assert config.price_at(0.0) == pytest.approx(config.launch_price_usd)

    def test_price_falls_with_volume(self):
        config = WaitingGameConfig()
        assert config.price_at(config.base_volume_units) == pytest.approx(
            config.launch_price_usd * config.learning_rate
        )

    def test_validation(self):
        with pytest.raises(ModelError):
            WaitingGameConfig(n_firms=0)
        with pytest.raises(ModelError):
            WaitingGameConfig(learning_rate=0.0)
        with pytest.raises(ModelError):
            WaitingGameConfig(base_volume_units=0.0)
        with pytest.raises(ModelError):
            WaitingGameConfig().price_at(-1.0)


class TestSimulation:
    def test_unaided_market_stalls(self):
        # Finding 2's equilibrium: everyone waits, nothing happens.
        result = simulate_waiting_game(WaitingGameConfig(), seed_units=0.0)
        assert result.stalled
        assert result.adoption_by_round[-1] == 0
        assert result.price_by_round[-1] == pytest.approx(50_000.0)

    def test_large_seed_triggers_cascade(self):
        result = simulate_waiting_game(
            WaitingGameConfig(), seed_units=100_000.0
        )
        assert not result.stalled
        assert result.adoption_by_round[-1] > 100
        # Prices fell along the way.
        assert result.price_by_round[-1] < result.price_by_round[0]

    def test_adoption_monotone_nondecreasing(self):
        result = simulate_waiting_game(
            WaitingGameConfig(), seed_units=100_000.0
        )
        counts = result.adoption_by_round
        assert counts == sorted(counts)

    def test_prices_monotone_nonincreasing(self):
        result = simulate_waiting_game(
            WaitingGameConfig(), seed_units=100_000.0
        )
        prices = result.price_by_round
        assert all(b <= a + 1e-9 for a, b in zip(prices, prices[1:]))

    def test_more_seed_never_reduces_adoption(self):
        config = WaitingGameConfig()
        adoption = [
            simulate_waiting_game(config, s).adoption_by_round[-1]
            for s in (0.0, 20_000.0, 60_000.0, 120_000.0)
        ]
        assert adoption == sorted(adoption)

    def test_deterministic_given_seed(self):
        config = WaitingGameConfig()
        a = simulate_waiting_game(config, 50_000.0, rng_seed=9)
        b = simulate_waiting_game(config, 50_000.0, rng_seed=9)
        assert a.adoption_by_round == b.adoption_by_round

    def test_negative_seed_rejected(self):
        with pytest.raises(ModelError):
            simulate_waiting_game(WaitingGameConfig(), seed_units=-1.0)

class TestMinimumSeed:
    def test_minimum_seed_exists_and_separates(self):
        config = WaitingGameConfig()
        seed = minimum_seed_for_takeoff(config)
        assert seed is not None
        assert simulate_waiting_game(config, seed * 1.05).stalled is False
        assert simulate_waiting_game(config, seed * 0.5).stalled is True

    def test_no_seed_needed_for_cheap_technology(self):
        # Launch price already at the median WTP: cascades unaided.
        config = WaitingGameConfig(launch_price_usd=14_000.0)
        assert minimum_seed_for_takeoff(config) is None
        assert not simulate_waiting_game(config, 0.0).stalled

    def test_hopeless_market_returns_none(self):
        # Nobody would pay even the fully-learned price.
        config = WaitingGameConfig(wtp_median_usd=10.0, wtp_sigma=0.1)
        assert minimum_seed_for_takeoff(config, max_seed_units=1e5) is None
