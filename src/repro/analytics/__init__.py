"""Analytics building blocks: k-means and naive Bayes, tokenization,
relational operators, PageRank and connected components, plus the
accelerated-building-block registry of Recommendation 10."""

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
from repro.analytics.graph import (
    connected_components,
    pagerank,
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
from repro.analytics.relational import (
    AGGREGATES,
    group_aggregate,
    hash_join,
    limit,
    order_by,
    project,
    select,
)

__all__ = [
    "AGGREGATES",
    "BlockCost",
    "BlockRegistry",
    "BuildingBlock",
    "KMeansResult",
    "MultinomialNaiveBayes",
    "accuracy",
    "best_device_for_block",
    "confusion_matrix",
    "connected_components",
    "default_blocks",
    "group_aggregate",
    "hash_join",
    "kmeans",
    "limit",
    "order_by",
    "pagerank",
    "project",
    "select",
    "tokenize",
]
