"""Model-evaluation metrics.

Recommendation 9's benchmark suite needs more than wall-clock numbers:
comparing analytics quality across architectures requires the standard
classification metrics. Pure-python/numpy implementations, cross-checked
by tests against hand-computed confusion tables.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.errors import ModelError


def confusion_matrix(
    truth: Sequence, predicted: Sequence
) -> Dict[Tuple, int]:
    """(true label, predicted label) -> count."""
    truth = list(truth)
    predicted = list(predicted)
    if len(truth) != len(predicted):
        raise ModelError("truth and prediction length mismatch")
    if not truth:
        raise ModelError("empty inputs")
    table: Dict[Tuple, int] = {}
    for t, p in zip(truth, predicted):
        table[(t, p)] = table.get((t, p), 0) + 1
    return table


def accuracy(truth: Sequence, predicted: Sequence) -> float:
    """Fraction of exact matches."""
    table = confusion_matrix(truth, predicted)
    correct = sum(count for (t, p), count in table.items() if t == p)
    return correct / sum(table.values())
