"""Tests for the NLP kernel."""

from repro.analytics import tokenize


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Big Data, Big Deal!") == ["big", "data", "big", "deal"]

    def test_keeps_digits_and_apostrophes(self):
        assert tokenize("it's 400GbE") == ["it's", "400gbe"]

    def test_empty(self):
        assert tokenize("") == []

