"""Multinomial naive Bayes classifier.

Rounding out the ML building blocks: the text-classification workhorse
(multinomial NB over token counts, the NLP side of §IV.C.1).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence

from repro.analytics.nlp import tokenize
from repro.errors import ModelError


@dataclass
class MultinomialNaiveBayes:
    """Token-count naive Bayes with Laplace smoothing (text classifier)."""

    alpha: float = 1.0
    class_priors: Dict[Hashable, float] = field(default_factory=dict)
    token_log_probs: Dict[Hashable, Dict[str, float]] = field(
        default_factory=dict
    )
    _default_log_prob: Dict[Hashable, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ModelError("alpha must be positive")

    def fit(
        self, documents: Sequence[str], labels: Sequence
    ) -> "MultinomialNaiveBayes":
        """Estimate priors and smoothed token probabilities."""
        if len(documents) != len(labels):
            raise ModelError("documents and labels length mismatch")
        if not documents:
            raise ModelError("empty training set")
        classes = sorted(set(labels), key=repr)
        if len(classes) < 2:
            raise ModelError("need at least two classes")
        vocabulary = set()
        counts: Dict[Hashable, Counter] = defaultdict(Counter)
        class_sizes: Counter = Counter()
        for doc, label in zip(documents, labels):
            tokens = tokenize(doc)
            counts[label].update(tokens)
            vocabulary.update(tokens)
            class_sizes[label] += 1
        if not vocabulary:
            raise ModelError("no tokens in training documents")
        v = len(vocabulary)
        n = len(documents)
        for cls in classes:
            self.class_priors[cls] = class_sizes[cls] / n
            total = sum(counts[cls].values())
            denominator = total + self.alpha * v
            self.token_log_probs[cls] = {
                token: math.log(
                    (counts[cls][token] + self.alpha) / denominator
                )
                for token in vocabulary
            }
            self._default_log_prob[cls] = math.log(self.alpha / denominator)
        return self

    def predict(self, documents: Sequence[str]) -> List[Hashable]:
        """Maximum-posterior class per document (unknown tokens smoothed)."""
        if not self.class_priors:
            raise ModelError("classifier not fitted")
        out = []
        for doc in documents:
            tokens = tokenize(doc)
            best_cls, best_score = None, -math.inf
            for cls, prior in sorted(self.class_priors.items(),
                                     key=lambda kv: repr(kv[0])):
                table = self.token_log_probs[cls]
                default = self._default_log_prob[cls]
                score = math.log(prior) + sum(
                    table.get(token, default) for token in tokens
                )
                if score > best_score:
                    best_cls, best_score = cls, score
            out.append(best_cls)
        return out
