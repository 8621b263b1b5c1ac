"""Tests for naive Bayes classifiers and evaluation metrics."""

import pytest

from repro.analytics import (
    MultinomialNaiveBayes,
    accuracy,
    confusion_matrix,
)
from repro.errors import ModelError


class TestMetrics:
    def test_confusion_matrix_counts(self):
        table = confusion_matrix(["a", "a", "b"], ["a", "b", "b"])
        assert table == {("a", "a"): 1, ("a", "b"): 1, ("b", "b"): 1}

    def test_accuracy(self):
        assert accuracy([1, 1, 0, 0], [1, 0, 0, 0]) == 0.75
        assert accuracy([1], [1]) == 1.0

    def test_validation(self):
        with pytest.raises(ModelError):
            confusion_matrix([1], [1, 2])
        with pytest.raises(ModelError):
            confusion_matrix([], [])


class TestMultinomialNaiveBayes:
    DOCS = [
        ("gpu cuda kernel tensor deep learning", "ml"),
        ("cuda gpu training model tensor", "ml"),
        ("deep model learning gpu", "ml"),
        ("switch router packet ethernet port", "net"),
        ("packet routing switch fabric port", "net"),
        ("ethernet switch bandwidth port packet", "net"),
    ]

    def test_classifies_held_out_docs(self):
        docs, labels = zip(*self.DOCS)
        model = MultinomialNaiveBayes().fit(docs, labels)
        assert model.predict(["tensor training gpu"]) == ["ml"]
        assert model.predict(["port switch packet"]) == ["net"]

    def test_unknown_tokens_are_smoothed(self):
        docs, labels = zip(*self.DOCS)
        model = MultinomialNaiveBayes().fit(docs, labels)
        # Entirely novel vocabulary: falls back to priors, no crash.
        assert model.predict(["zzz qqq"])[0] in ("ml", "net")

    def test_alpha_validation(self):
        with pytest.raises(ModelError):
            MultinomialNaiveBayes(alpha=0.0)

    def test_empty_training_rejected(self):
        with pytest.raises(ModelError):
            MultinomialNaiveBayes().fit([], [])

    def test_single_class_rejected(self):
        with pytest.raises(ModelError):
            MultinomialNaiveBayes().fit(["a b"], ["only"])

    def test_unfitted_predict_rejected(self):
        with pytest.raises(ModelError):
            MultinomialNaiveBayes().predict(["x"])
