"""Machine-learning kernel: k-means (numpy implementation).

A real, working algorithm used both as library functionality and as the
computational payload of the benchmark suite (R9) and the
accelerated-building-block experiments (R10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError


@dataclass
class KMeansResult:
    """Outcome of a k-means run."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int


def kmeans(
    points: np.ndarray,
    k: int,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    seed: int = 0,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++-style seeding.

    ``points`` is (n, d). Deterministic given ``seed``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ModelError("points must be a 2-D array")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ModelError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)

    # k-means++ seeding.
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    for i in range(1, k):
        d2 = np.min(
            ((points[:, None, :] - centroids[None, :i, :]) ** 2).sum(-1), axis=1
        )
        total = d2.sum()
        if total <= 0:
            centroids[i] = points[rng.integers(n)]
        else:
            centroids[i] = points[rng.choice(n, p=d2 / total)]

    labels = np.zeros(n, dtype=int)
    for iteration in range(1, max_iterations + 1):
        distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
        labels = distances.argmin(axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = points[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < tolerance:
            break
    inertia = float(
        ((points - centroids[labels]) ** 2).sum()
    )
    return KMeansResult(centroids, labels, inertia, iteration)
