"""Reclassification engine: stability, correction loops, merge/split sequences."""

import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_bits, labeled_energy, random_dataset, random_labels
from khcluster import core, kh_engine
from khcluster.baselines import (KMeansConfig, is_lloyd_fixed_point,
                                 kmeans_sequence, lloyd)
from khcluster.core import Dataset, Partition, PreconditionError
from khcluster.kh_engine import (BOTH, IDENTICAL, SINGLETONS, SubsetPolicy,
                                 build_sequence, correct_pairs, correct_tuples,
                                 merge_step, split_step, verify_stability)
from khcluster.oracle import global_min
from khcluster.reclass import delta_e_merge


def test_policy_validation():
    with pytest.raises(PreconditionError):
        SubsetPolicy("pairs")


def test_correct_pairs_leaves_stable_partition_alone():
    ds = Dataset([0.0, 2.0, 10.0])
    p = Partition.from_labels(ds, [0, 0, 1])
    res = correct_pairs(p)
    assert res.n_moves == 0
    assert res.partition.labels.tolist() == [0, 0, 1]
    rep = verify_stability(p)
    assert rep.stable and not rep.violations


def test_verify_stability_is_pure():
    ds = Dataset([0.0, 6.0] + [10.0] * 100)
    res = lloyd(ds, KMeansConfig(m=2, init_centers=np.array([[3.0], [10.0]])))
    before = res.partition.labels.copy()
    verify_stability(res.partition)
    assert np.array_equal(res.partition.labels, before)


def test_identical_points_are_equal_values():
    """0.0 and -0.0 are one point: build_sequence on the oracle12 fixture,
    which holds both, gives the labels and E bits of the same points with
    -0.0 written as 0.0, and the audit moves the three zeros of
    [0, -0, 0 | 5, 6] as one group (which would empty their cluster), so it
    checks only the 5 single-point moves."""
    x = np.loadtxt(Path(__file__).parent / "data" / "cluster_oracle12" / "input.csv")
    assert np.signbit(x).any() and (x == 0.0).sum() > 1
    got, want = build_sequence(Dataset(x), 4), build_sequence(Dataset(x + 0.0), 4)
    for m in range(1, 5):
        assert_same_bits(got.by_cluster_count[m], want.by_cluster_count[m])
    p = Partition.from_labels(Dataset([[0.0], [-0.0], [0.0], [5.0], [6.0]]), [0, 0, 0, 1, 1])
    assert verify_stability(p).checked_subsets == 5


def _offset_instance(c=1e9):
    """{0, 6, 10 x 100} + c, labelled [0, 0, 1 x 100].
    The true E is 18, and moving the 6 to the tens lowers it to 1600/101.
    At c = 1e9 cancellation in the energies makes every cluster's E 0.0, so
    the move is predicted from the distances but its recomputed change of E
    is not below -move_tolerance(E); a loop that trusted the prediction
    would not know when to stop."""
    ds = Dataset(np.array([0.0, 6.0] + [10.0] * 100) + c)
    return Partition.from_labels(ds, np.array([0, 0] + [1] * 100))


def _count_moves(monkeypatch, limit=100):
    """Count PartitionStack.move calls (Partition.move makes one), failing
    after limit of them instead of hanging."""
    calls = []
    move = core.PartitionStack.move

    def counted(self, *args, **kwargs):
        calls.append(1)
        if len(calls) > limit:
            raise AssertionError("the correction loop does not end")
        return move(self, *args, **kwargs)

    monkeypatch.setattr(core.PartitionStack, "move", counted)
    return calls


def _count_proposals(monkeypatch):
    """The members of every pass's proposed moves (kh_engine._best_moves),
    made or refused."""
    proposed = []
    best_moves = kh_engine._best_moves

    def recorded(*args, **kwargs):
        found = best_moves(*args, **kwargs)
        if found is not None:
            proposed.append(found[0][0].tolist())
        return found

    monkeypatch.setattr(kh_engine, "_best_moves", recorded)
    return proposed


def test_correction_ends_when_the_predicted_delta_cancels(monkeypatch):
    """A move whose recomputed change of E is not below -move_tolerance(E)
    is refused, so correct_pairs ends on the offset instance at c = 1e9: the
    one move it proposes is refused, it reports the moves it made (none),
    and verify_stability still audits the result: the refused move leaves
    it reported unstable. At c = 1e7 the distances and energies agree: the
    6 joins the tens in one move and the result is stable."""
    calls = _count_moves(monkeypatch)
    proposed = _count_proposals(monkeypatch)
    p = _offset_instance()
    res = correct_pairs(p)
    assert proposed == [[0]]
    assert res.n_moves == len(calls) == 0
    assert np.array_equal(res.partition.labels, p.labels)
    res.partition.check_consistency()
    assert not verify_stability(res.partition).stable

    calls.clear()
    proposed.clear()
    p = _offset_instance(1e7)
    res = correct_pairs(p)
    assert res.n_moves == len(calls) == len(proposed) == 1
    assert res.partition.labels.tolist() == [0] + [1] * 101
    res.partition.check_consistency()
    assert res.partition.total_e < p.total_e
    assert verify_stability(res.partition).stable


def test_a_refused_member_leaves_the_stack_alone(monkeypatch):
    """In a stack, a member whose move is refused drops out while the others
    go on: on the offset data at c = 2e7, with one ten alone in cluster 1,
    the first member makes one move and its second is refused, and in the
    same pass the other makes its second. Each ends bit for bit as
    correct_pairs ends it alone."""
    ds = _offset_instance(2e7).ds
    rows = np.array([[0, 0] + [0] * 99 + [1], [1, 1] + [0] * 99 + [1]])
    _count_moves(monkeypatch)
    proposed = _count_proposals(monkeypatch)
    alone = [correct_pairs(Partition.from_labels(ds, row)) for row in rows]
    assert [res.n_moves for res in alone] == [1, 2]
    assert len(proposed) == 4  # member 0's move and its refused one, member 1's two
    move = core.PartitionStack.move
    members = []

    def recorded(self, b, *args, **kwargs):
        members.append(b.tolist())
        return move(self, b, *args, **kwargs)

    monkeypatch.setattr(core.PartitionStack, "move", recorded)
    proposed.clear()
    stack = core.PartitionStack.from_labels(ds, rows.copy(), 2)
    moves = kh_engine._correct_stack(stack, BOTH)
    assert moves.tolist() == [res.n_moves for res in alone] == [1, 2]
    assert proposed == [[0, 1], [0, 1]]
    assert members == [[0, 1], [1]]
    for i, res in enumerate(alone):
        assert_same_bits(stack.partition(i), res.partition)


def test_correction_beats_the_lloyd_fixed_point():
    """The E = 18 fixed point gives up its 6 and lands at 1600/101."""
    ds = Dataset([0.0, 6.0] + [10.0] * 100)
    res = lloyd(ds, KMeansConfig(m=2, init_centers=np.array([[3.0], [10.0]])))
    assert res.partition.total_e == pytest.approx(18.0)
    rep = verify_stability(res.partition)
    assert not rep.stable
    top = rep.violations[0]
    assert top.subset == (1,)
    assert top.predicted_delta == pytest.approx(1600.0 / 101.0 - 18.0)

    fixed = correct_pairs(res.partition)
    assert fixed.n_moves == 1
    e = fixed.partition.total_e
    assert e == pytest.approx(1600.0 / 101.0, rel=1e-9)
    assert verify_stability(fixed.partition).stable
    # the corrected partition is still a nearest-centroid fixed point
    assert is_lloyd_fixed_point(fixed.partition)
    # point 1 (the 6) now lives with the tens
    assert fixed.partition.labels[1] == fixed.partition.labels[2]


def test_identical_policy_moves_duplicate_pairs_together():
    ds = Dataset([7.0, 7.0, 0.0, 8.0])
    p = Partition.from_labels(ds, [0, 0, 0, 1])
    rep = verify_stability(p, IDENTICAL)
    subsets = {v.subset for v in rep.violations}
    assert (0, 1) in subsets       # the duplicate pair moves as one
    assert (0,) not in subsets     # but not half of it
    assert (2,) in subsets         # the lone 0 is its own group

    res = correct_pairs(p, IDENTICAL)
    assert res.n_moves == 1
    assert res.partition.total_e == pytest.approx(2.0 / 3.0)

    res_single = correct_pairs(p, SINGLETONS)
    assert res_single.n_moves == 2
    assert res_single.partition.total_e == pytest.approx(2.0 / 3.0)

    # with both subset kinds admissible the pair move wins outright
    res_both = correct_pairs(p, BOTH)
    assert res_both.n_moves == 1


def test_correct_tuples_validation_and_l2_agreement():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    p = Partition.from_labels(ds, [0, 0, 1, 1])
    with pytest.raises(PreconditionError):
        correct_tuples(p, 1)
    res = correct_tuples(p, 3)  # l exceeds the cluster count
    assert res.n_moves == 0 and res.partition.labels.tolist() == [0, 0, 1, 1]
    stable = correct_pairs(p).partition
    res = correct_tuples(stable, 2)
    assert res.n_moves == 0

    # with two clusters the only tuple is the whole partition
    rng = np.random.default_rng(41)
    moved = 0
    for trial in range(20):
        n = int(rng.integers(4, 30))
        ds = random_dataset(rng, n, int(rng.integers(1, 3)))
        if trial % 2:
            ds = Dataset(ds.points[rng.integers(0, n, n)])
        p = Partition.from_labels(ds, random_labels(rng, n, 2))
        for policy in (SINGLETONS, IDENTICAL, BOTH):
            pairs = correct_pairs(p, policy)
            tuples = correct_tuples(p, 2, policy)
            assert np.array_equal(tuples.partition.labels, pairs.partition.labels)
            assert tuples.partition.total_e == pairs.partition.total_e
            assert tuples.n_moves == pairs.n_moves
            moved += pairs.n_moves > 0
    assert moved > 0


def test_build_sequence_polishes_only_kmeans_partitions():
    """The kmeans route is correct_pairs of each k-means partition; split_step
    and merge_step already end in correct_pairs, so their records have 0 moves.

    On this 17-point grid the corrected k-means partition wins m = 5 under
    every policy, after one move; where it loses, the winner is no worse.
    """
    ds = Dataset([[-2, -2], [1, -1], [0, 3], [3, 1], [-1, -2], [-2, -1],
                  [0, -3], [-3, 1], [-6, -1], [1, -3], [-3, -2], [2, 0],
                  [-6, -1], [3, 3], [2, -1], [-6, 1], [-1, 0]])
    km = kmeans_sequence(ds, 5)
    for policy in (SINGLETONS, IDENTICAL, BOTH):
        seq = build_sequence(ds, 5, policy)
        assert seq.cluster_counts() == [1, 2, 3, 4, 5]
        moved_wins = 0
        for m in seq.cluster_counts():
            part, info = seq.by_cluster_count[m], seq.info[m]
            ref = correct_pairs(km.by_cluster_count[m], policy)
            if info["direction"] == "kmeans":
                assert np.array_equal(part.labels, ref.partition.labels)
                assert part.total_e == ref.partition.total_e
                assert info["moves"] == ref.n_moves
                moved_wins += ref.n_moves > 0
            else:
                assert info["moves"] == 0
                assert part.total_e <= ref.partition.total_e
            assert verify_stability(part, policy).stable
        assert moved_wins == 1


def test_merge_step_frozen_example():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    p = Partition.from_labels(ds, [0, 0, 1, 2])
    q = merge_step(p)
    assert q.m == 2
    assert q.labels.tolist() == [0, 0, 1, 1]
    assert q.total_e == pytest.approx(1.0)


def test_merge_step_minimizes_post_correction_energy():
    rng = np.random.default_rng(12)
    for _ in range(20):
        ds = random_dataset(rng, 18, 2)
        m = 4
        p = correct_pairs(Partition.from_labels(ds, random_labels(rng, 18, m))).partition
        stepped = merge_step(p)
        # enumerate what every pairwise merge could reach
        best = np.inf
        for a in range(m - 1):
            for b in range(a + 1, m):
                lbl = p.labels.copy()
                lbl[lbl == b] = a
                lbl[lbl > b] -= 1
                cand = correct_pairs(Partition.from_labels(ds, lbl, m - 1)).partition
                best = min(best, cand.total_e)
        assert stepped.total_e == pytest.approx(best, rel=1e-9)
        assert verify_stability(stepped).stable


def test_split_step_frozen_example():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    p = Partition.from_labels(ds, [0, 0, 0, 0])
    q = split_step(p)
    assert q.m == 2
    assert q.total_e == pytest.approx(1.0)
    assert q.labels[0] == q.labels[1] and q.labels[2] == q.labels[3]


def test_split_step_needs_distinct_points():
    ds = Dataset([5.0, 5.0, 5.0])
    p = Partition.from_labels(ds, [0, 0, 0])
    with pytest.raises(PreconditionError):
        split_step(p)


def test_build_sequence_frozen_curve():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    seq = build_sequence(ds, 4)
    assert seq.cluster_counts() == [1, 2, 3, 4]
    assert seq.energy(1) == pytest.approx(82.0)
    assert seq.energy(2) == pytest.approx(1.0)
    assert seq.energy(3) == pytest.approx(0.5)
    assert seq.energy(4) == pytest.approx(0.0)
    for m in seq.cluster_counts():
        assert verify_stability(seq.by_cluster_count[m]).stable
        assert seq.info[m]["direction"] in ("bottom_up", "top_down")


def test_farthest_pair_two_hop_path(monkeypatch):
    """Above the exact limit the seeds come from the two-hop search: an
    ordered pair of distinct points, the same on every call; sequences
    built on it still verify stable."""
    monkeypatch.setattr(kh_engine, "FARTHEST_PAIR_EXACT_LIMIT", 2)
    rng = np.random.default_rng(12)
    pts = np.round(rng.normal(0.0, 2.0, (20, 2)), 2)
    for sub in (pts, pts[::-1], pts[:3]):
        i, j = kh_engine._farthest_pair(sub)
        assert 0 <= i <= j < sub.shape[0]
        assert not np.array_equal(sub[i], sub[j])
        assert kh_engine._farthest_pair(sub) == (i, j)
    seq = build_sequence(Dataset(pts), 4)
    assert seq.cluster_counts() == [1, 2, 3, 4]
    for m in seq.cluster_counts():
        assert verify_stability(seq.by_cluster_count[m]).stable


def test_build_sequence_validation():
    ds = Dataset([0.0, 0.0, 1.0])  # two distinct values only
    with pytest.raises(PreconditionError):
        build_sequence(ds, 3)
    with pytest.raises(PreconditionError):
        build_sequence(ds, 0)
    # a given k-means sequence must be of ds, for counts 1..m_max
    with pytest.raises(PreconditionError):
        build_sequence(ds, 2, kmeans=kmeans_sequence(ds, 1))
    with pytest.raises(PreconditionError):
        build_sequence(ds, 2, kmeans=kmeans_sequence(Dataset([0.0, 0.0, 1.0]), 2))


def test_stable_partition_need_not_be_optimal():
    """Stability is necessary for optimality, not sufficient."""
    ds = Dataset([5.9, 9.0, 7.0, 2.9, 3.2])
    p = Partition.from_labels(ds, [1, 1, 1, 0, 2])
    assert verify_stability(p).stable
    assert p.total_e == pytest.approx(4.94)
    opt = global_min(ds, 3)
    assert opt.best_e == pytest.approx(0.65)
    assert opt.best_e < p.total_e


def test_sequence_partitions_need_not_nest():
    """Neighboring counts are independent solutions; clusters may cross."""
    ds = Dataset([0.7, 1.3, 9.5, 6.2, 3.7])
    seq = build_sequence(ds, 3)
    l2 = seq.by_cluster_count[2].labels.tolist()
    l3 = seq.by_cluster_count[3].labels.tolist()
    assert seq.energy(2) == pytest.approx(10.485)
    assert seq.energy(3) == pytest.approx(3.305)
    # the m = 3 cluster of point 4 straddles the m = 2 boundary
    fine_to_coarse = {}
    crossings = 0
    for f, c in zip(l3, l2):
        if f in fine_to_coarse and fine_to_coarse[f] != c:
            crossings += 1
        fine_to_coarse[f] = c
    assert crossings > 0


def test_proposal_deltas_match_applied_change():
    """Every violation's predicted delta is the E change of applying it.

    Half the datasets resample their rows with replacement, so identical
    groups with k >= 2 are candidates too.
    """
    rng = np.random.default_rng(21)
    group_moves = 0
    for trial in range(40):
        n = int(rng.integers(6, 30))
        ds = random_dataset(rng, n, int(rng.integers(1, 4)))
        if trial % 2:
            ds = Dataset(ds.points[rng.integers(0, n, n)])
        m = int(rng.integers(2, 5))
        p = Partition.from_labels(ds, random_labels(rng, n, m))
        for policy in (SINGLETONS, IDENTICAL, BOTH):
            violations = verify_stability(p, policy).violations
            keys = [(v.predicted_delta, v.donor, v.acceptor, v.subset) for v in violations]
            assert keys == sorted(keys)
            for prop in violations:
                sub = np.asarray(prop.subset)
                twins = np.flatnonzero((p.labels == prop.donor)
                                       & (ds.points == ds.points[sub[0]]).all(axis=1))
                if policy is SINGLETONS:
                    assert sub.size == 1
                elif policy is IDENTICAL or sub.size > 1:
                    assert np.array_equal(sub, twins)  # a whole group moves
                group_moves += sub.size > 1
                q = p.copy()
                q.move(sub, prop.donor, prop.acceptor)
                actual = q.total_e - p.total_e
                assert abs(actual - prop.predicted_delta) <= 1e-9 * (1.0 + p.total_e)
    assert group_moves > 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_correct_pairs_monotone_and_stable(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    ds = random_dataset(rng, n, int(rng.integers(1, 5)))
    m = int(rng.integers(2, min(n, 6) + 1))
    p = Partition.from_labels(ds, random_labels(rng, n, m))
    res = correct_pairs(p)
    assert res.partition.total_e <= p.total_e + 1e-12 * (1 + p.total_e)
    assert verify_stability(res.partition).stable
    res.partition.check_consistency()
    assert res.partition.total_e == pytest.approx(
        labeled_energy(ds.points, res.partition.labels), rel=1e-9, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_correction_after_kmeans_never_hurts(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 60))
    ds = random_dataset(rng, n, int(rng.integers(1, 4)))
    m = int(rng.integers(2, min(n, 6) + 1))
    km = lloyd(ds, KMeansConfig(m=m, init_labels=random_labels(rng, n, m)))
    res = correct_pairs(km.partition)
    assert res.partition.total_e <= km.partition.total_e + 1e-12 * (1 + km.partition.total_e)


def test_engine_is_deterministic():
    rng = np.random.default_rng(33)
    ds = random_dataset(rng, 30, 2)
    lab = random_labels(rng, 30, 4)
    a = correct_pairs(Partition.from_labels(ds, lab))
    b = correct_pairs(Partition.from_labels(ds, lab))
    assert np.array_equal(a.partition.labels, b.partition.labels)
    assert a.n_moves == b.n_moves
    s1 = build_sequence(ds, 4)
    s2 = build_sequence(ds, 4)
    s3 = build_sequence(ds, 4, kmeans=kmeans_sequence(ds, 4))  # the sequence it would build
    for m in s1.cluster_counts():
        assert np.array_equal(s1.by_cluster_count[m].labels,
                              s2.by_cluster_count[m].labels)
        assert_same_bits(s3.by_cluster_count[m], s1.by_cluster_count[m])
        assert s3.info[m] == s1.info[m]


def test_sequence_never_beats_exhaustive_search():
    """Exhaustive search is a true lower bound for the built sequence.

    The attained fraction is informational; only the bound is asserted.
    """
    rng = np.random.default_rng(8008)
    hits = total = 0
    for _ in range(500):
        n = int(rng.integers(3, 11))
        ds = random_dataset(rng, n, int(rng.integers(1, 3)))
        mm = min(4, ds.unique_rows().shape[0])
        seq = build_sequence(ds, mm)
        for m in range(1, mm + 1):
            e_kh = seq.energy(m)
            e_oracle = global_min(ds, m).best_e
            tol = 1e-9 * (1.0 + e_oracle)
            assert e_kh >= e_oracle - tol
            total += 1
            hits += e_kh <= e_oracle + tol
    print(f"sequence attains the exhaustive minimum on {hits}/{total} curve points")


def _one_move_at_a_time(p, policy):
    """correct_pairs as its definition reads: apply the first violation that
    verify_stability ranks, through Partition.move, until there is none.
    Returns the partition and the size of each move's subset."""
    q, sizes = p.copy(), []
    while violations := verify_stability(q, policy).violations:
        v = violations[0]
        q.move(np.asarray(v.subset), v.donor, v.acceptor)
        sizes.append(len(v.subset))
    return q, sizes


def _merge_one_pair_at_a_time(p, policy):
    best = None
    for a in range(p.m - 1):
        for b in range(a + 1, p.m):
            lbl = p.labels.copy()
            lbl[lbl == b] = a
            lbl[lbl > b] -= 1
            q = correct_pairs(Partition.from_labels(p.ds, lbl, p.m - 1), policy).partition
            key = (q.total_e, delta_e_merge(p.cluster_stats(a), p.cluster_stats(b)))
            if best is None or key < best[0]:
                best = (key, q)
    return best[1]


def _split_one_cluster_at_a_time(p, policy):
    best = None
    for c in range(p.m):
        idx = np.flatnonzero(p.labels == c)
        sub = p.ds.points[idx]
        if np.unique(sub, axis=0).shape[0] < 2:
            continue
        lbl = p.labels.copy()
        lbl[idx[kh_engine._bisect_labels(sub) == 1]] = p.m
        q = correct_pairs(Partition.from_labels(p.ds, lbl, p.m + 1), policy).partition
        if best is None or q.total_e < best.total_e:
            best = q
    return best


def _reference_sets(rng, d):
    """(dataset, labels) pairs in d dimensions, with signed zeros: distinct
    points, duplicate-heavy points, small integers, a partition that a
    reflection of the last coordinate maps onto itself with clusters 1 and 2
    swapped, so that moves tie exactly across points and acceptors, and six
    groups of twelve copies of a multiple of 0.1 (sums of copies are not
    exact), each mostly in one cluster with two or three copies elsewhere,
    so that whole groups of nine or more points move. The last case draws
    from its own generator, so the earlier ones draw from rng as before."""
    n = 24
    for kind in ("distinct", "duplicates", "grid"):
        pts = np.round(rng.normal(0.0, 3.0, (n, d)), 3)
        if kind == "duplicates":
            pts = np.round(pts, 0)[rng.integers(0, 7, n)]
        elif kind == "grid":
            pts = rng.integers(-2, 3, (n, d)).astype(np.float64)
        pts[rng.random((n, d)) < 0.1] = 0.0
        pts[rng.random((n, d)) < 0.1] = -0.0
        yield Dataset(pts), random_labels(rng, n, 4)
    upper = rng.integers(-3, 4, (8, d)).astype(np.float64)
    upper[:, -1] = rng.integers(1, 4, 8)
    lower = upper * np.r_[np.ones(d - 1), -1.0]
    axis = rng.integers(-3, 4, (6, d)).astype(np.float64)
    axis[:, -1] = 0.0
    lab_up = np.r_[1, 0, 3, rng.integers(0, 4, 5)]
    lab = np.r_[lab_up, np.array([0, 2, 1, 3])[lab_up], rng.integers(0, 2, 6) * 3]
    yield Dataset(np.concatenate((upper, lower, axis))), lab
    own = np.random.default_rng(d)
    group = own.permutation(np.repeat(np.arange(6), 12))
    lab = np.r_[0, 1, 2, 3, own.integers(0, 4, 2)][group]
    for g in range(6):  # two or three copies of each group stray together
        stray = np.flatnonzero(group == g)[:own.integers(2, 4)]
        lab[stray] = (lab[stray[0]] + own.integers(1, 4)) % 4
    yield Dataset(own.integers(-20, 21, (6, d))[group] * 0.1), lab


@pytest.mark.parametrize("refresh, wave", [
    pytest.param(None, None, id="None-None"),
    pytest.param(2, None, id="2-None"),
    pytest.param(None, 500, id="None-wave-500")])
def test_stacked_correction_matches_one_candidate_at_a_time(monkeypatch, refresh, wave):
    """The stacked kernel reproduces, bit for bit, correct_pairs as one move
    at a time, and merge_step and split_step as one candidate at a time
    from both the case's labels and their correction, on every
    _reference_sets case under every policy; also with a step's candidates
    split into several waves of several members each (wave), and with
    statistics rebuilt from the labels every second move (refresh)."""
    if refresh is not None:
        monkeypatch.setattr(core, "REFRESH_INTERVAL", refresh)
    if wave is not None:
        monkeypatch.setattr(core, "WAVE_BUDGET", wave)
    stacks, waves = [], []
    correct = kh_engine._correct_stack

    def recorded_correct(st, *args, **kwargs):
        stacks.append(st.labels.shape[0])
        return correct(st, *args, **kwargs)

    monkeypatch.setattr(kh_engine, "_correct_stack", recorded_correct)
    rng = np.random.default_rng(808)
    moved = group_moves = large_moves = refreshed = 0
    for d in (1, 2, 3):
        for ds, lab in _reference_sets(rng, d):
            for policy in (SINGLETONS, IDENTICAL, BOTH):
                p = Partition.from_labels(ds, lab)
                want, sizes = _one_move_at_a_time(p, policy)
                got = correct_pairs(p, policy)
                assert_same_bits(got.partition, want)
                moves = len(sizes)
                assert got.n_moves == moves
                moved += moves > 0
                group_moves += sum(k > 1 for k in sizes)
                large_moves += sum(k >= 9 for k in sizes)
                if refresh is not None and moves and moves % refresh == 0:
                    assert_same_bits(got.partition,
                                      Partition.from_labels(ds, got.partition.labels))
                    refreshed += 1
                for q in (p, got.partition):
                    for step, one_at_a_time in ((merge_step, _merge_one_pair_at_a_time),
                                                (split_step, _split_one_cluster_at_a_time)):
                        start = len(stacks)
                        stepped = step(q, policy)
                        waves.append(stacks[start:])
                        assert_same_bits(stepped, one_at_a_time(q, policy))
    assert moved > 10 and group_moves > 0 and large_moves > 0
    assert refreshed > 0 or refresh is None
    if wave is not None:  # a step in several waves of several members
        assert any(len(w) > 1 and w[0] > 1 for w in waves)
    else:
        assert all(len(w) == 1 for w in waves)


@pytest.mark.parametrize("per_wave", [None, 1, 2])
def test_step_winner_rule_on_planted_exact_ties(monkeypatch, per_wave):
    """merge_step and split_step keep the candidate of lowest (corrected E,
    tie key), the earlier one on an exact tie, also when the tied
    candidates lie in different waves of per_wave members (all in one wave
    when None). Cases, each with the winner the rule must give:
    - four evenly spaced singletons: merging any two neighbours gives
      E = 50 at raw cost 50, so the first pair (0, 1) wins;
    - three distinct values in four clusters: every merge corrects to
      E = 0, so the raw Ward cost decides, and the pair (1, 2) of lowest
      raw cost wins over the first pair, which ends elsewhere;
    - two equal two-point clusters: either bisection gives E = 2, so the
      lower donor id, cluster 0, is split."""
    loops = []
    correct = kh_engine._correct_stack

    def counted(st, *args, **kwargs):
        loops.append(st.labels.shape[0])
        return correct(st, *args, **kwargs)

    monkeypatch.setattr(kh_engine, "_correct_stack", counted)
    first_pair = correct_pairs(Partition.from_labels(
        Dataset([5.0, 4.0, 3.0, 3.0, 3.0, 5.0]), [0, 0, 1, 2, 0, 2])).partition
    cases = ((merge_step, [0.0, 10.0, 20.0, 30.0], [0, 1, 2, 3], [0, 0, 1, 2]),
             (merge_step, [5.0, 4.0, 3.0, 3.0, 3.0, 5.0], [0, 1, 2, 3, 1, 3],
              [0, 1, 2, 2, 2, 0]),
             (split_step, [0.0, 2.0, 10.0, 12.0], [0, 0, 1, 1], [0, 2, 1, 1]))
    assert first_pair.labels.tolist() != cases[1][3]
    for step, points, labels, want in cases:
        ds = Dataset(points)
        if per_wave is not None:  # a candidate's cells, as _corrected_winner counts them
            rows = len(set(zip(labels, ds.identical_group_labels().tolist())))
            m = len(set(labels)) + (1 if step is split_step else -1)
            monkeypatch.setattr(core, "WAVE_BUDGET",
                                per_wave * max(ds.n * (ds.d + 1), 2 * rows * m))
        loops.clear()
        got = step(Partition.from_labels(ds, labels))
        assert max(loops) == (per_wave or sum(loops))
        assert got.labels.tolist() == want
        assert_same_bits(got, correct_pairs(Partition.from_labels(ds, want)).partition)


def _blobs(per_blob: int) -> Dataset:
    """Four blobs of per_blob distinct points in 2-D."""
    rng = np.random.default_rng(7)
    pts = np.repeat([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]], per_blob, axis=0)
    ds = Dataset(np.round(pts + rng.normal(0.0, 1.5, pts.shape), 2))
    assert ds.unique_rows().shape[0] == ds.n
    return ds


@pytest.mark.parametrize("waves", [4, 3])
def test_one_correction_loop_per_step_and_wave(monkeypatch, waves):
    """build_sequence runs one correction loop per corrected merge step
    (from kh_engine.CORRECTED_SPAN x m_max clusters down), per split step
    and per record of the kmeans route at the default budgets, on 32 blob
    points. The merge step of the 32 singletons has 496 candidates of
    2 x 32 rows x 31 clusters cells each, the kernel's delta: the default
    wave budget runs it as 4 loops of at most 132 candidates, and a budget
    of 200 candidates as 3."""
    if waves == 3:
        monkeypatch.setattr(core, "WAVE_BUDGET", 200 * 2 * 32 * 31)
    loops = []
    correct = kh_engine._correct_stack

    def counted(st, *args, **kwargs):
        loops.append(st.labels.shape[0])
        return correct(st, *args, **kwargs)

    monkeypatch.setattr(kh_engine, "_correct_stack", counted)
    ds = _blobs(8)
    p = Partition.from_labels(ds, np.arange(ds.n))
    merge_step(p)
    assert loops == ([132, 132, 132, 100] if waves == 4 else [200, 200, 96])
    if waves == 4:
        loops.clear()
        build_sequence(ds, 6)
        assert len(loops) == (2 * 6 - 1) + (6 - 1) + 6


def test_a_step_takes_memory_by_the_wave(monkeypatch):
    """A merge step of 64 distinct 2-D points as singletons (2,016
    candidates of 2 x 64 rows x 63 clusters cells each) peaks under
    5.5 MiB of traced memory: its waves bound every array of a correction
    pass, the kernel's included. Waves sized by the tiled points alone,
    with each pass scored in member chunks, peaked at 7.6 MiB here. Each
    pass scores all the members still moving in one kernel call: the
    first call of a wave gets every member, each later one the members
    the pass before moved, and the last finds no move."""
    ds = _blobs(16)
    p = Partition.from_labels(ds, np.arange(ds.n))
    tracemalloc.start()
    try:
        merge_step(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20

    calls, stats = [], []
    best_moves, moved_stats = kh_engine._best_moves, core.PartitionStack.moved_stats

    def recorded(st, active, *args):
        found = best_moves(st, active, *args)
        calls.append((st, active.tolist(), None if found is None else found[0][0].tolist()))
        return found

    def counted(self, *args):
        stats.append(self)
        return moved_stats(self, *args)

    monkeypatch.setattr(kh_engine, "_best_moves", recorded)
    monkeypatch.setattr(core.PartitionStack, "moved_stats", counted)
    merge_step(p)
    stacks = list(dict.fromkeys(st for st, _, _ in calls))
    assert len(stacks) == 63 and len(calls) == len(stats) + len(stacks)
    for st in stacks:
        mine = [(active, members) for s, active, members in calls if s is st]
        assert mine[0][0] == list(range(st.labels.shape[0])) and mine[-1][1] is None
        assert all(members is not None for _, members in mine[:-1])
        assert all(nxt[0] == cur[1] for cur, nxt in zip(mine, mine[1:]))


def _top_down_reference_sets():
    """Blob sets of 24, 28 and 32 distinct points in 2-D, 60 points on 14
    values in 1-D, and 28 uniform points in 2-D."""
    rng = np.random.default_rng(2202)
    sets = []
    for per_blob in (6, 7, 8):
        pts = np.repeat([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]], per_blob, axis=0)
        sets.append(Dataset(np.round(pts + rng.normal(0.0, 1.5, pts.shape), 2)))
    sets.append(Dataset(rng.choice(np.arange(14.0), 60, p=np.arange(1.0, 15.0) / 105)))
    sets.append(Dataset(np.round(rng.uniform(0.0, 10.0, (28, 2)), 2)))
    return sets


def _same_clusters(a: np.ndarray, b: np.ndarray) -> bool:
    """Two labelings hold the same clusters, whatever their ids."""
    pairs = np.unique(np.stack([a, b]), axis=1)
    return pairs.shape[1] == np.unique(a).size == np.unique(b).size


def test_ward_levels_keep_the_full_search(monkeypatch):
    """The top_down route's uncorrected Ward levels above
    CORRECTED_SPAN x m_max clusters change no recorded partition: on
    _top_down_reference_sets, for m_max 2 to 6, build_sequence and its
    top_down route (the merge steps at m <= m_max) give the clusters (up to
    their ids) of the full search, in which every merge level is corrected,
    and E within 1e-12 relative. The full search is prefix-consistent in
    m_max (every route is), so it runs once, at 6."""
    wards, steps = [], []
    ward_step, step = kh_engine._ward_step, kh_engine.merge_step

    def recorded(p, policy=BOTH):
        steps.append(step(p, policy))
        return steps[-1]

    monkeypatch.setattr(kh_engine, "_ward_step", lambda p: wards.append(p.m) or ward_step(p))
    monkeypatch.setattr(kh_engine, "merge_step", recorded)
    for ds in _top_down_reference_sets():
        with monkeypatch.context() as full:
            full.setattr(kh_engine, "CORRECTED_SPAN", ds.n)
            ref = build_sequence(ds, 6)
        assert not wards
        ref_steps = {q.m: q for q in steps}
        for m_max in range(2, 7):
            steps.clear()
            seq = build_sequence(ds, m_max)
            route = {q.m: q for q in steps}
            for m in range(1, m_max + 1):
                for got, want in ((seq.by_cluster_count[m], ref.by_cluster_count[m]),
                                  (route[m], ref_steps[m])):
                    assert _same_clusters(got.labels, want.labels), (ds.n, m_max, m)
                    assert got.total_e == pytest.approx(want.total_e, rel=1e-12, abs=0.0)
        assert min(wards) == 2 * 2 + 1 and max(wards) == ds.unique_rows().shape[0]
        wards.clear()
        steps.clear()


def test_recorded_top_down_partitions_are_stable(monkeypatch):
    """Every top_down partition build_sequence records comes from a
    corrected merge step, so it verifies stable, at every m_max: the Ward
    levels stop above m_max clusters."""
    steps = []
    step = kh_engine.merge_step

    def recorded(p, policy=BOTH):
        steps.append(step(p, policy))
        return steps[-1]

    monkeypatch.setattr(kh_engine, "merge_step", recorded)
    for ds in _top_down_reference_sets():
        for m_max in (2, 4, 6):
            steps.clear()
            build_sequence(ds, m_max)
            assert [q.m for q in steps] == list(range(2 * m_max - 1, 0, -1))
            for q in steps[-m_max:]:
                assert verify_stability(q).stable


def test_ward_step_takes_the_lower_pair_on_a_tied_raw_cost():
    """Merging the singletons 1 and 3 and merging the twin pairs 2 and 4
    both cost exactly 1 (2 x 1/2 and 1 x 2 x 2/4). The Ward step merges the
    lower pair, (1, 3): 3 joins 1 and 4 becomes 3, as in merge_step, which
    picks the same pair (equal corrected E, no move, equal raw cost)."""
    ds = Dataset([[100.0, 100.0], [0.0, 0.0], [50.0, 0.0], [50.0, 0.0], [1.0, 1.0],
                  [51.0, 0.0], [51.0, 0.0]])
    p = Partition.from_labels(ds, [0, 1, 2, 2, 3, 4, 4])
    raw, _ = kh_engine._merges(p)
    assert np.sort(raw)[:2].tolist() == [1.0, 1.0]
    q = kh_engine._ward_step(p)
    assert q.labels.tolist() == [0, 1, 2, 2, 1, 3, 3]
    assert_same_bits(q, Partition.from_labels(ds, q.labels, 4))
    r = merge_step(p)
    assert r.labels.tolist() == q.labels.tolist() and r.total_e == q.total_e == 1.0


def test_merge_relabel_rows_by_the_slice():
    """The relabel rows of a slice of merges are the full matrix's rows
    for that slice, and row (a, b) maps b to a and every id above b one
    down."""
    rng = np.random.default_rng(22)
    ds = random_dataset(rng, 30, 2)
    p = Partition.from_labels(ds, random_labels(rng, 30, 7))
    raw, relabel = kh_engine._merges(p)
    full = relabel(slice(None))
    a, b = np.triu_indices(7, 1)
    assert full.shape == (raw.size, 7) == (21, 7)
    for i in range(21):
        want = [a[i] if c == b[i] else c - (c > b[i]) for c in range(7)]
        assert full[i].tolist() == want
    for sel in (slice(0, 1), slice(5, 13), slice(20, 21), slice(17, 40)):
        assert np.array_equal(relabel(sel), full[sel])


def _tuples_one_move_at_a_time(p, l, policy):
    """correct_tuples as its definition reads: for each l-tuple of clusters
    in lexicographic order, apply the first violation that verify_stability
    ranks with donor and acceptor in the tuple, through Partition.move,
    until there is none; repeat the passes until one makes no move."""
    q, moves = p.copy(), 0
    while True:
        before = moves
        for t in itertools.combinations(range(q.m), l):
            while inside := [v for v in verify_stability(q, policy).violations
                             if v.donor in t and v.acceptor in t]:
                q.move(np.asarray(inside[0].subset), inside[0].donor, inside[0].acceptor)
                moves += 1
        if moves == before:
            return q, moves


def test_correct_tuples_matches_one_move_at_a_time():
    """correct_tuples for l = 3 and 4 reproduces the plain sweep through
    Partition.move bit for bit, in labels, E and moves, on every
    _reference_sets case under every policy."""
    rng = np.random.default_rng(909)
    moved = 0
    for d in (1, 2, 3):
        for ds, lab in _reference_sets(rng, d):
            for policy in (SINGLETONS, IDENTICAL, BOTH):
                p = Partition.from_labels(ds, lab)
                for l in (3, 4):
                    want, moves = _tuples_one_move_at_a_time(p, l, policy)
                    got = correct_tuples(p, l, policy)
                    assert_same_bits(got.partition, want)
                    assert got.n_moves == moves
                    moved += moves > 0
    assert moved > 10


def test_pair_rows_match_np_unique():
    """The kernel's row table, built without a sort, is exactly np.unique of
    its (member, cluster, group) keys with first indices and counts, on
    random label stacks over heavily duplicated points, signed zeros (0.0
    and -0.0 are one group), a single value and all-distinct points; also
    for one member and for two clusters."""
    rng = np.random.default_rng(616)
    for kind in ("duplicates", "signed zeros", "one value", "distinct"):
        for b, m in ((1, 2), (1, 5), (6, 2), (6, 5)):
            n = int(rng.integers(8, 40))
            d = int(rng.integers(1, 3))
            if kind == "duplicates":
                pts = rng.integers(-2, 3, (4, d))[rng.integers(0, 4, n)] * 0.1
            elif kind == "signed zeros":
                pts = rng.choice([0.0, -0.0, 1.0], (n, d))
            elif kind == "one value":
                pts = np.full((n, d), 0.3)
            else:
                pts = rng.permutation(n * d).reshape(n, d) / 8.0
            ds = Dataset(pts)
            groups = kh_engine._group_rows(ds)
            gid, rep, _ = groups
            labels = np.stack([random_labels(rng, n, m) for _ in range(b)])
            key = (np.arange(b)[:, None] * m + labels) * rep.shape[0] + gid
            want = np.unique(key, return_index=True, return_counts=True)
            got = kh_engine._pair_rows(labels, m, groups)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
    zeros = Dataset([[0.0], [-0.0], [0.0]])
    assert zeros.identical_group_labels().tolist() == [0, 0, 0]
    assert zeros.group_leads().tolist() == [0]
