"""Shared test utilities.

The energy functions here recompute the total squared error directly from
per-cluster means. They deliberately avoid the library's running-statistics
route so that formula tests compare two independent computations.
"""

from __future__ import annotations

import numpy as np

from khcluster.core import Dataset


def energy_by_means(points: np.ndarray) -> float:
    """Squared error of one cluster, straight from its mean."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[0] == 0:
        return 0.0
    mu = pts.mean(axis=0)
    return float(((pts - mu) ** 2).sum())


def labeled_energy(points: np.ndarray, labels) -> float:
    """Total squared error of a labeling, cluster by cluster."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    lab = np.asarray(labels)
    return sum(energy_by_means(pts[lab == c]) for c in np.unique(lab))


def random_dataset(rng: np.random.Generator, n: int, d: int,
                   spread: float = 5.0) -> Dataset:
    """Mixture-style data: a few random centers plus noise."""
    g = max(1, int(rng.integers(1, 5)))
    centers = rng.uniform(-spread, spread, (g, d))
    pts = centers[rng.integers(0, g, n)] + rng.normal(0, rng.uniform(0.2, 2.0), (n, d))
    return Dataset(np.round(pts, 3))


def random_labels(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Random surjective labeling of n points onto m clusters."""
    if m > n:
        raise ValueError("cannot cover more clusters than points")
    lab = rng.integers(0, m, n)
    lab[rng.choice(n, m, replace=False)] = np.arange(m)
    return lab.astype(np.int64)


def random_move_instance(rng: np.random.Generator):
    """Donor points, acceptor points and a proper donor subset.

    Returns (donor_pts, acceptor_pts, subset_idx) with 1 <= k < n1.
    """
    d = int(rng.integers(1, 5))
    n1 = int(rng.integers(2, 25))
    n2 = int(rng.integers(1, 25))
    donor = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3.0), (n1, d))
    acceptor = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3.0), (n2, d))
    k = int(rng.integers(1, n1))
    idx = rng.choice(n1, k, replace=False)
    return donor, acceptor, idx


def assert_same_bits(got, want) -> None:
    """Two partitions agree bit for bit: labels, statistics and total E."""
    assert np.array_equal(got.labels, want.labels)
    assert got.total_e.hex() == want.total_e.hex()
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.sums, want.sums)
    assert np.array_equal(got.sumsqs, want.sumsqs)
