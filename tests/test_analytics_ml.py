"""Tests for ML kernels."""

import numpy as np
import pytest

from repro.analytics import (
    kmeans,
)
from repro.errors import ModelError


def _blobs(seed=0, n=60):
    rng = np.random.default_rng(seed)
    a = rng.normal([0, 0], 0.3, size=(n, 2))
    b = rng.normal([5, 5], 0.3, size=(n, 2))
    c = rng.normal([0, 5], 0.3, size=(n, 2))
    return np.vstack([a, b, c])


class TestKMeans:
    def test_recovers_three_blobs(self):
        points = _blobs()
        result = kmeans(points, k=3, seed=1)
        centers = sorted(result.centroids.round(0).tolist())
        assert centers == [[0.0, 0.0], [0.0, 5.0], [5.0, 5.0]]

    def test_labels_partition_points(self):
        points = _blobs()
        result = kmeans(points, k=3, seed=1)
        assert set(result.labels) == {0, 1, 2}
        assert len(result.labels) == len(points)

    def test_inertia_decreases_with_k(self):
        points = _blobs()
        inertia_1 = kmeans(points, k=1, seed=1).inertia
        inertia_3 = kmeans(points, k=3, seed=1).inertia
        assert inertia_3 < inertia_1 / 10

    def test_deterministic(self):
        points = _blobs()
        a = kmeans(points, k=3, seed=5)
        b = kmeans(points, k=3, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_k_equals_n(self):
        points = _blobs(n=2)  # 6 points total
        result = kmeans(points, k=6, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ModelError):
            kmeans(np.zeros(5), k=2)
        with pytest.raises(ModelError):
            kmeans(np.zeros((5, 2)), k=0)
        with pytest.raises(ModelError):
            kmeans(np.zeros((5, 2)), k=6)
