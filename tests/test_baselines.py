"""Lloyd iteration, incremental K-means sequences, and the fixed-point predicate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import labeled_energy, random_dataset, random_labels
from khcluster import baselines
from khcluster.baselines import (KMeansConfig, is_lloyd_fixed_point,
                                 kmeans_sequence, lloyd)
from khcluster.core import Dataset, PreconditionError


def two_vals_dataset():
    # 0 and 6 sit with each other; one hundred points at 10
    return Dataset(np.array([0.0, 6.0] + [10.0] * 100))


def test_lloyd_fixed_point_at_e_eighteen():
    """From centers {3, 10} Lloyd settles at E = 18 and stays there."""
    ds = two_vals_dataset()
    res = lloyd(ds, KMeansConfig(m=2, init_centers=np.array([[3.0], [10.0]])))
    assert res.converged
    assert res.partition.total_e == pytest.approx(18.0)
    assert res.partition.labels[0] == res.partition.labels[1]
    assert is_lloyd_fixed_point(res.partition)


def test_lloyd_two_blobs():
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.normal(0, 0.3, (20, 2)), rng.normal(8, 0.3, (20, 2))])
    ds = Dataset(pts)
    res = lloyd(ds, KMeansConfig(m=2, init_centers=np.array([[0.0, 0.0], [8.0, 8.0]])))
    assert res.converged
    lab = res.partition.labels
    assert len(set(lab[:20].tolist())) == 1
    assert len(set(lab[20:].tolist())) == 1
    assert lab[0] != lab[-1]
    assert res.partition.total_e == pytest.approx(labeled_energy(pts, lab), rel=1e-9)


def test_lloyd_from_labels_never_worse_than_start():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 40, 2)
    lab = random_labels(rng, 40, 4)
    start_e = labeled_energy(ds.points, lab)
    res = lloyd(ds, KMeansConfig(m=4, init_labels=lab))
    assert res.partition.total_e <= start_e + 1e-9 * (1 + start_e)


def test_lloyd_repairs_empty_clusters():
    ds = Dataset([0.0, 1.0, 2.0])
    res = lloyd(ds, KMeansConfig(m=2, init_centers=np.array([[0.5], [50.0]])))
    assert (np.bincount(res.partition.labels, minlength=2) > 0).all()
    assert res.partition.total_e == pytest.approx(0.5)


def test_lloyd_validation():
    ds = Dataset([0.0, 1.0])
    with pytest.raises(PreconditionError):
        lloyd(ds, KMeansConfig(m=3, init_labels=[0, 1]))
    with pytest.raises(PreconditionError):
        lloyd(ds, KMeansConfig(m=2, init_centers=np.zeros((3, 1))))
    with pytest.raises(PreconditionError):
        lloyd(ds, KMeansConfig(m=2, init_labels=[0, 5]))
    with pytest.raises(PreconditionError):
        KMeansConfig(m=0)


def test_candidate_subsample_above_the_limit(monkeypatch):
    """Above SUBSAMPLE_ABOVE distinct points the candidate centers are a
    sorted SUBSAMPLE_SIZE-row subset of unique_rows(), fixed by rng_seed."""
    monkeypatch.setattr(baselines, "SUBSAMPLE_ABOVE", 8)
    monkeypatch.setattr(baselines, "SUBSAMPLE_SIZE", 5)
    rng = np.random.default_rng(4)
    ds = Dataset(np.round(rng.normal(0.0, 2.0, (40, 2)), 2))
    uniq = ds.unique_rows()
    cands = baselines._candidate_rows(ds, 7)
    assert cands.shape == (5, 2)
    pos = [int(np.flatnonzero((uniq == c).all(axis=1))[0]) for c in cands]
    assert pos == sorted(set(pos))
    assert np.array_equal(baselines._candidate_rows(ds, 7), cands)
    a, b = kmeans_sequence(ds, 4, rng_seed=7), kmeans_sequence(ds, 4, rng_seed=7)
    for m in a.cluster_counts():
        assert np.array_equal(a.by_cluster_count[m].labels, b.by_cluster_count[m].labels)
        assert a.energy(m) == b.energy(m)


def test_config_seeding_priority():
    c = KMeansConfig(m=2, init_centers=np.zeros((2, 1)), init_labels=[0, 1])
    assert c.seeding == "provided_centers"
    assert KMeansConfig(m=2, init_labels=[0, 1]).seeding == "provided_labels"
    with pytest.raises(PreconditionError):
        KMeansConfig(m=2)  # kmeans_sequence is the incremental grower


def test_incremental_seed_four_points():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    part = kmeans_sequence(ds, 2).by_cluster_count[2]
    assert part.total_e == pytest.approx(1.0)
    assert part.labels[0] == part.labels[1]
    assert part.labels[2] == part.labels[3]


def test_kmeans_sequence_energies():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    seq = kmeans_sequence(ds, 4)
    assert seq.cluster_counts() == [1, 2, 3, 4]
    assert seq.energy(1) == pytest.approx(82.0)
    assert seq.energy(2) == pytest.approx(1.0)
    assert seq.energy(3) == pytest.approx(0.5)
    assert seq.energy(4) == pytest.approx(0.0)
    assert seq.info[2]["iterations"] >= 1


def test_kmeans_sequence_monotone():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 25, 3)
    seq = kmeans_sequence(ds, 6)
    es = [seq.energy(m) for m in seq.cluster_counts()]
    assert all(a >= b - 1e-9 * (1 + abs(a)) for a, b in zip(es, es[1:]))


def test_fixed_point_predicate_detects_misassignment():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    from khcluster.core import Partition
    good = Partition.from_labels(ds, [0, 0, 1, 1])
    assert is_lloyd_fixed_point(good)
    # point 1 sits closer to the {0, 9} centroid than to {1, 10}'s
    crossed = Partition.from_labels(ds, [0, 1, 0, 1])
    assert not is_lloyd_fixed_point(crossed)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_converged_lloyd_is_fixed_point(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    ds = random_dataset(rng, n, int(rng.integers(1, 4)))
    m = int(rng.integers(2, min(n, 6) + 1))
    res = lloyd(ds, KMeansConfig(m=m, init_labels=random_labels(rng, n, m)))
    if res.converged:
        assert is_lloyd_fixed_point(res.partition)
    res.partition.check_consistency()
