"""Analytics building blocks: k-means and naive Bayes, tokenization and
classification metrics, plus the accelerated-building-block registry of
Recommendation 10. Relational queries live in
:mod:`repro.frameworks.query`."""

from repro.analytics.bayes import (
    MultinomialNaiveBayes,
)
from repro.analytics.blocks import (
    BlockCost,
    BlockRegistry,
    BuildingBlock,
    best_device_for_block,
    default_blocks,
)
from repro.analytics.metrics import (
    accuracy,
    confusion_matrix,
)
from repro.analytics.ml import (
    KMeansResult,
    kmeans,
)
from repro.analytics.nlp import (
    tokenize,
)

__all__ = [
    "BlockCost",
    "BlockRegistry",
    "BuildingBlock",
    "KMeansResult",
    "MultinomialNaiveBayes",
    "accuracy",
    "best_device_for_block",
    "confusion_matrix",
    "default_blocks",
    "kmeans",
    "tokenize",
]
