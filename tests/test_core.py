"""Datasets, partitions, and the exact error bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import energy_by_means, labeled_energy, random_dataset, random_labels
from khcluster import core
from khcluster.core import (ClusterStats, Dataset, InternalConsistencyError,
                            Partition, PartitionStack, PreconditionError,
                            clamped_cluster_energy, partition_energy, sigma)


def test_dataset_reshapes_flat_input():
    ds = Dataset([0.0, 2.0])
    assert ds.n == 2 and ds.d == 1
    assert ds.points.shape == (2, 1)


def test_dataset_rejects_bad_input():
    with pytest.raises(PreconditionError):
        Dataset(np.empty((0, 2)))
    with pytest.raises(PreconditionError):
        Dataset([[0.0, np.nan]])
    with pytest.raises(PreconditionError):
        Dataset([[np.inf], [1.0]])
    with pytest.raises(PreconditionError):
        Dataset([1e200, -1e200, 0.0, 5.0])  # squared sums overflow
    Dataset([1e100, -1e100, 0.0, 5.0])


def test_dataset_points_are_frozen():
    ds = Dataset([[1.0], [2.0]])
    with pytest.raises(ValueError):
        ds.points[0, 0] = 5.0


def test_identical_group_labels():
    ds = Dataset([[1.0], [3.0], [1.0], [2.0]])
    lab = ds.identical_group_labels()
    assert lab[0] == lab[2]
    assert len(set(lab.tolist())) == 3


def test_single_cluster_energy():
    # {0, 2}: mean 1, deviations 1 and 1
    assert partition_energy(Dataset([0.0, 2.0]), [0, 0]) == pytest.approx(2.0)
    # {0, 1, 9, 10}: mean 5, deviations 25 + 16 + 16 + 25
    assert partition_energy(Dataset([0.0, 1.0, 9.0, 10.0]), [0, 0, 0, 0]) == pytest.approx(82.0)


def test_two_cluster_energy():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    assert partition_energy(ds, [0, 0, 1, 1]) == pytest.approx(1.0)


def test_partition_energy_rejects_empty_cluster():
    ds = Dataset([0.0, 1.0])
    with pytest.raises(PreconditionError):
        partition_energy(ds, [0, 0], m=2)
    with pytest.raises(PreconditionError):
        partition_energy(ds, [0, 2])


def test_clamp_tolerates_noise_but_not_bugs():
    assert clamped_cluster_energy(4.0, 4.0 * (1 + 1e-12), 1) == 0.0
    with pytest.raises(InternalConsistencyError):
        clamped_cluster_energy(4.0, 8.0, 1)


def test_cluster_stats_arithmetic():
    a = ClusterStats.from_points([[1.0, 0.0], [3.0, 0.0]])
    b = ClusterStats.from_points([[5.0, 2.0]])
    both = a + b
    assert both.n == 3
    assert np.allclose(both.centroid, [3.0, 2.0 / 3.0])
    back = both - b
    assert back.n == a.n
    assert np.allclose(back.sum, a.sum)
    assert back.sumsq == pytest.approx(a.sumsq)
    with pytest.raises(PreconditionError):
        b - a


def test_cluster_stats_energy_matches_direct():
    pts = np.array([[0.0, 1.0], [2.0, -1.0], [4.0, 3.0]])
    assert ClusterStats.from_points(pts).energy == pytest.approx(energy_by_means(pts))


def test_move_updates_energy_exactly():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    p = Partition.from_labels(ds, [0, 0, 0, 1])
    p.move([2], 0, 1)
    assert p.labels.tolist() == [0, 0, 1, 1]
    assert p.total_e == pytest.approx(1.0)
    p.check_consistency()


def test_moved_stats_is_what_move_applies():
    """PartitionStack.moved_stats changes nothing in place, and move then
    applies exactly its donor and acceptor statistics and change of E."""
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    st = PartitionStack.from_labels(ds, np.array([[0, 0, 0, 1], [0, 0, 1, 1]]), 2)
    b, donor, acceptor = np.array([0, 1]), np.array([0, 1]), np.array([1, 0])
    moved = np.array([[False, False, True, False], [False, False, True, False]])
    sub_sum, sub_sq = np.array([[9.0], [9.0]]), np.array([81.0, 81.0])
    before = [a.copy() for a in (st.labels, st.counts, st.sums, st.sumsqs, st.total_e)]
    pair, counts, sums, sumsqs, change = st.moved_stats(b, donor, acceptor,
                                                        moved.sum(axis=1), sub_sum, sub_sq)
    for a, was in zip((st.labels, st.counts, st.sums, st.sumsqs, st.total_e), before):
        assert np.array_equal(a, was)
    st.move(b, donor, acceptor, moved, sub_sum, sub_sq)
    assert np.array_equal(st.counts[pair], counts)
    assert np.array_equal(st.sums[pair], sums)
    assert np.array_equal(st.sumsqs[pair], sumsqs)
    assert np.array_equal(st.total_e, before[-1] + change)
    assert st.labels.tolist() == [[0, 0, 1, 1], [0, 0, 0, 1]]


def test_move_rejects_bad_subsets():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    p = Partition.from_labels(ds, [0, 0, 1, 1])
    with pytest.raises(PreconditionError):
        p.move([0, 1], 0, 0)
    with pytest.raises(PreconditionError):
        p.move([2], 0, 1)  # point 2 is not in cluster 0
    with pytest.raises(PreconditionError):
        p.move([0, 1], 0, 1)  # would empty the donor
    with pytest.raises(PreconditionError):
        p.move([], 0, 1)
    with pytest.raises(PreconditionError):
        p.move([2, 2], 1, 0)  # repeated index
    with pytest.raises(PreconditionError):
        p.move([4], 1, 0)  # out of range


def _state(p: Partition):
    """Copies of everything a partition tracks, to compare bit for bit."""
    return (p.labels.copy(), p.counts.copy(), p.sums.copy(), p.sumsqs.copy(),
            p.total_e)


def _assert_same_state(a, b):
    for x, y in zip(a[:4], b[:4]):
        assert np.array_equal(x, y) and x.dtype == y.dtype
    assert a[4] == b[4]


def test_move_on_a_copy_leaves_source_untouched():
    """A partition views its stack's arrays, so a copy must own new ones:
    moving either side leaves the other bit for bit as it was."""
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    p = Partition.from_labels(ds, [0, 0, 0, 1])
    q = p.copy()
    before = _state(p)
    q.move([2], 0, 1)
    _assert_same_state(_state(p), before)
    assert p.labels.tolist() == [0, 0, 0, 1]
    assert p.total_e == pytest.approx(146.0 / 3.0)  # {0, 1, 9} about 10/3
    assert q.labels.tolist() == [0, 0, 1, 1]
    assert q.total_e == pytest.approx(1.0)
    before = _state(q)
    p.move([1], 0, 1)
    _assert_same_state(_state(q), before)


def test_from_labels_copies_the_callers_labels():
    """Moving points in a partition leaves the labels it was built from as
    they were."""
    lab = np.array([0, 0, 1, 1])
    p = Partition.from_labels(Dataset([0.0, 1.0, 9.0, 10.0]), lab)
    p.move([1], 0, 1)
    assert lab.tolist() == [0, 0, 1, 1]
    assert p.labels.tolist() == [0, 1, 1, 1]


def test_member_taken_from_a_stack_is_independent():
    ds = Dataset([0.0, 1.0, 3.0, 9.0, 10.0])
    st = PartitionStack.from_labels(ds, np.array([[0, 0, 0, 1, 1]]), 2)
    p = st.partition(0)
    before = _state(p)
    st.move(np.array([0]), np.array([0]), np.array([1]),
            np.array([[False, False, True, False, False]]), ds.points[[2]], np.array([9.0]))
    _assert_same_state(_state(p), before)
    member = _state(st.partition(0))
    assert member[0].tolist() == [0, 0, 1, 1, 1]
    p.move([1], 0, 1)
    _assert_same_state(_state(st.partition(0)), member)


def test_copy_restarts_and_partition_carries_the_refresh_count(monkeypatch):
    """Bit-identity of a corrected candidate depends on when it refreshes:
    copy() starts counting moves afresh, PartitionStack.partition(i) does not."""
    monkeypatch.setattr(core, "REFRESH_INTERVAL", 2)
    ds = Dataset([0.0, 1.0, 3.0, 9.0, 10.0, 11.0])
    p = Partition.from_labels(ds, [0, 0, 0, 1, 1, 1])
    p.move([2], 0, 1)
    parts = (p, p.copy(), p._stack.partition(0))
    assert [int(x._stack.since_refresh[0]) for x in parts] == [1, 0, 1]
    for x in parts:
        x.move([3], 1, 0)
    assert [int(x._stack.since_refresh[0]) for x in parts] == [0, 1, 0]
    for x in parts:
        x.check_consistency()


def test_periodic_refresh_keeps_statistics_exact(monkeypatch):
    monkeypatch.setattr(core, "REFRESH_INTERVAL", 4)
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 30, 2)
    p = Partition.from_labels(ds, random_labels(rng, 30, 3))
    for _ in range(40):
        donor = int(rng.integers(0, 3))
        if p.counts[donor] < 2:
            continue
        idx = np.flatnonzero(p.labels == donor)
        pick = rng.choice(idx, 1)
        acceptor = (donor + 1) % 3
        p.move(pick, donor, acceptor)
    p.check_consistency()
    assert p.total_e == pytest.approx(labeled_energy(ds.points, p.labels), rel=1e-9)


def test_sigma():
    assert sigma(82.0, 4) == pytest.approx(np.sqrt(20.5))
    assert sigma(0.0, 7) == 0.0
    with pytest.raises(PreconditionError):
        sigma(1.0, 0)
    with pytest.raises(PreconditionError):
        sigma(-1.0, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 4))
def test_partition_energy_matches_means_route(seed, n, d):
    """The sufficient-statistics energy agrees with the per-mean recomputation."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n, d)
    m = int(rng.integers(1, min(n, 6) + 1))
    lab = random_labels(rng, n, m)
    e = partition_energy(ds, lab)
    assert e == pytest.approx(labeled_energy(ds.points, lab), rel=1e-9, abs=1e-9)
    p = Partition.from_labels(ds, lab)
    assert p.total_e == pytest.approx(e, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_moves_stay_exact(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, 20, 2)
    p = Partition.from_labels(ds, random_labels(rng, 20, 4))
    for _ in range(10):
        donor = int(rng.integers(0, 4))
        if p.counts[donor] < 2:
            continue
        idx = np.flatnonzero(p.labels == donor)
        k = int(rng.integers(1, min(3, idx.size - 1) + 1))
        pick = rng.choice(idx, k, replace=False)
        acceptor = int((donor + rng.integers(1, 4)) % 4)
        p.move(pick, donor, acceptor)
        assert p.total_e == pytest.approx(
            labeled_energy(ds.points, p.labels), rel=1e-9, abs=1e-9)
