"""Reclassification engine: stability, correction loops, merge/split sequences."""

import itertools

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


def _offset_instance():
    """{0, 6, 10 x 100} + 1e7 with labels [0, 0, 1 x 100]. Cancellation in
    the predicted deltas makes the 100-point group move look improving,
    though it raises E by 84; a loop that trusted the prediction would
    cycle forever."""
    ds = Dataset(np.array([0.0, 6.0] + [10.0] * 100) + 1e7)
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


def test_correction_ends_when_the_predicted_delta_cancels(monkeypatch):
    """A move whose recomputed change of E is not below -move_tolerance(E)
    is refused, so correct_pairs ends on the offset instance; the moves it
    reports are the moves it made, and verify_stability still audits the
    result: the refused move leaves it reported unstable."""
    calls = _count_moves(monkeypatch)
    p = _offset_instance()
    res = correct_pairs(p)
    assert res.n_moves == len(calls) == 1
    res.partition.check_consistency()
    assert res.partition.total_e < p.total_e
    assert not verify_stability(res.partition).stable


def test_a_refused_member_leaves_the_stack_alone(monkeypatch):
    """In a stack, a member whose move is refused drops out while the others
    go on: on the offset data one member stops after one move, and in the
    same pass the other makes its second. Each ends bit for bit as
    correct_pairs ends it alone."""
    ds = _offset_instance().ds
    rows = np.array([[0, 0] + [1] * 100, [1, 1] + [0] * 99 + [1]])
    _count_moves(monkeypatch)
    alone = [correct_pairs(Partition.from_labels(ds, row)) for row in rows]
    move = core.PartitionStack.move
    members = []

    def recorded(self, b, *args, **kwargs):
        members.append(b.tolist())
        return move(self, b, *args, **kwargs)

    monkeypatch.setattr(core.PartitionStack, "move", recorded)
    stack = core.PartitionStack.from_labels(ds, rows.copy(), 2)
    moves = kh_engine._correct_stack(stack, BOTH)
    assert moves.tolist() == [res.n_moves for res in alone] == [1, 2]
    assert members[:2] == [[0, 1], [1]]
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


@pytest.mark.parametrize("refresh, budget", [(None, None), (None, 150), (2, None)])
def test_stacked_correction_matches_one_candidate_at_a_time(monkeypatch, refresh, budget):
    """The stacked kernel reproduces, bit for bit, correct_pairs as one move
    at a time, and merge_step and split_step as one candidate at a time
    from both the case's labels and their correction, on every
    _reference_sets case under every policy; also with candidates
    spread over several chunks (budget), and with statistics rebuilt from
    the labels every second move (refresh)."""
    if refresh is not None:
        monkeypatch.setattr(core, "REFRESH_INTERVAL", refresh)
    if budget is not None:
        monkeypatch.setattr(core, "STACK_BUDGET", budget)
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
                    assert_same_bits(merge_step(q, policy),
                                      _merge_one_pair_at_a_time(q, policy))
                    assert_same_bits(split_step(q, policy),
                                      _split_one_cluster_at_a_time(q, policy))
    assert moved > 10 and group_moves > 0 and large_moves > 0
    assert refreshed > 0 or refresh is None


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
    its (member, cluster, bit group) keys with first indices and counts, on
    random label stacks over heavily duplicated points, signed zeros (0.0
    and -0.0 are two groups), a single value and all-distinct points; also
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
    assert zeros.bit_group_ids().tolist() == [1, 0, 1]
    assert zeros.bit_group_leads().tolist() == [1, 0]
