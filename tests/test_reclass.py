"""Closed-form reclassification deltas against direct recomputation.

Every formula is checked two ways: on small instances whose numbers were
worked out by hand, and against the means-based energy recomputation from
helpers on randomized instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import energy_by_means, random_move_instance
from khcluster import reclass
from khcluster.core import ClusterStats, PreconditionError

# worked example used throughout: donor {0, 2}, acceptor {10}, subset {2}
DONOR = ClusterStats.from_points([[0.0], [2.0]])
ACCEPTOR = ClusterStats.from_points([[10.0]])
SUB = ClusterStats.from_points([[2.0]])


def test_merge_of_hand_checked_pair():
    # centroids 1 and 10, counts 2 and 1: 81 * 2/3
    assert reclass.delta_e_merge(DONOR, ACCEPTOR) == pytest.approx(54.0)


def test_merge_is_symmetric_and_zero_on_equal_centroids():
    assert reclass.delta_e_merge(ACCEPTOR, DONOR) == pytest.approx(54.0)
    a = ClusterStats.from_points([[1.0], [3.0]])
    b = ClusterStats.from_points([[2.0]])
    assert reclass.delta_e_merge(a, b) == 0.0


def test_correct_of_hand_checked_subset():
    # 64 * (1/2) - 1 * (2/1) = 30: moving the 2 toward the 10 costs error
    assert reclass.delta_e_correct(SUB, DONOR, ACCEPTOR) == pytest.approx(30.0)


def test_correct_rejects_full_cluster():
    with pytest.raises(PreconditionError):
        reclass.delta_e_correct(DONOR, DONOR, ACCEPTOR)
    with pytest.raises(PreconditionError):
        reclass.delta_e_correct(ACCEPTOR + DONOR, DONOR, ACCEPTOR)


def test_alpha_hand_value_and_bounds():
    assert reclass.alpha(1, 2, 1) == pytest.approx(0.5)
    assert reclass.alpha(2, 2, 5) == 0.0  # k = n1 degenerates into a merge
    with pytest.raises(PreconditionError):
        reclass.alpha(0, 2, 1)
    with pytest.raises(PreconditionError):
        reclass.alpha(3, 2, 1)
    with pytest.raises(PreconditionError):
        reclass.alpha(1, 2, 0)


def test_gap_identity_hand_value():
    gap = reclass.gap_identity(SUB, DONOR, ACCEPTOR)
    assert gap == pytest.approx(54.0 - 30.0)


def test_decomposition_hand_value():
    # correct(S) = merge(D, A) - merge(D - S, A + S)
    converted = reclass.delta_e_merge(DONOR - SUB, ACCEPTOR + SUB)
    assert converted == pytest.approx(24.0)
    assert reclass.delta_e_correct(SUB, DONOR, ACCEPTOR) == pytest.approx(54.0 - converted)


def test_merge_many_three_singletons():
    stats = [ClusterStats.from_points([[v]]) for v in (0.0, 3.0, 9.0)]
    # union {0, 3, 9} has mean 4 and energy 42; parts have energy 0
    assert reclass.merge_many(stats) == pytest.approx(42.0)
    with pytest.raises(PreconditionError):
        reclass.merge_many(stats[:1])


def test_merge_many_two_clusters_equals_pairwise():
    rng = np.random.default_rng(1)
    a = ClusterStats.from_points(rng.normal(0, 1, (4, 3)))
    b = ClusterStats.from_points(rng.normal(2, 1, (7, 3)))
    assert reclass.merge_many([a, b]) == pytest.approx(
        reclass.delta_e_merge(a, b), rel=1e-12)


def test_move_tolerance_scales_with_energy():
    assert reclass.move_tolerance(0.0) == pytest.approx(1e-12)
    assert reclass.move_tolerance(1e6) == pytest.approx(1e-12 * (1 + 1e6))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_correct_matches_recomputation(seed):
    """Formula delta equals the recomputed before/after energy difference."""
    rng = np.random.default_rng(seed)
    donor_pts, acc_pts, idx = random_move_instance(rng)
    keep = np.setdiff1d(np.arange(len(donor_pts)), idx)
    s_sub = ClusterStats.from_points(donor_pts[idx])
    s_don = ClusterStats.from_points(donor_pts)
    s_acc = ClusterStats.from_points(acc_pts)
    e_before = energy_by_means(donor_pts) + energy_by_means(acc_pts)
    e_after = energy_by_means(donor_pts[keep]) + energy_by_means(
        np.vstack([acc_pts, donor_pts[idx]]))
    exact = e_after - e_before
    formula = reclass.delta_e_correct(s_sub, s_don, s_acc)
    assert abs(formula - exact) <= 1e-9 * (1.0 + e_before)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_merge_matches_recomputation(seed):
    rng = np.random.default_rng(seed)
    donor_pts, acc_pts, _ = random_move_instance(rng)
    exact = (energy_by_means(np.vstack([donor_pts, acc_pts]))
             - energy_by_means(donor_pts) - energy_by_means(acc_pts))
    formula = reclass.delta_e_merge(ClusterStats.from_points(donor_pts),
                                    ClusterStats.from_points(acc_pts))
    e_scale = energy_by_means(donor_pts) + energy_by_means(acc_pts)
    assert abs(formula - exact) <= 1e-9 * (1.0 + e_scale)
    assert formula >= 0.0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gap_identity_and_decomposition(seed):
    """merge - correct equals the perfect-square gap and is never negative."""
    rng = np.random.default_rng(seed)
    donor_pts, acc_pts, idx = random_move_instance(rng)
    s_sub = ClusterStats.from_points(donor_pts[idx])
    s_don = ClusterStats.from_points(donor_pts)
    s_acc = ClusterStats.from_points(acc_pts)
    merge = reclass.delta_e_merge(s_don, s_acc)
    correct = reclass.delta_e_correct(s_sub, s_don, s_acc)
    gap = merge - correct
    identity = reclass.gap_identity(s_sub, s_don, s_acc)
    assert gap >= -1e-12
    assert abs(gap - identity) <= 1e-9 * (1.0 + abs(identity))
    converted = reclass.delta_e_merge(s_don - s_sub, s_acc + s_sub)
    assert abs(correct - (merge - converted)) <= 1e-9 * (1.0 + abs(correct))


def test_alpha_monotone_in_k_small_grid():
    for n1 in range(2, 12):
        for n2 in range(1, 12):
            vals = [reclass.alpha(k, n1, n2) for k in range(1, n1 + 1)]
            assert all(0.0 <= v < 1.0 for v in vals)
            assert vals[-1] == 0.0
            assert all(a > b for a, b in zip(vals, vals[1:]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_merge_many_matches_recomputation(seed):
    rng = np.random.default_rng(seed)
    l = int(rng.integers(2, 6))
    d = int(rng.integers(1, 4))
    groups = [rng.normal(rng.uniform(-5, 5), 1.0, (int(rng.integers(1, 10)), d))
              for _ in range(l)]
    exact = (energy_by_means(np.vstack(groups))
             - sum(energy_by_means(g) for g in groups))
    formula = reclass.merge_many([ClusterStats.from_points(g) for g in groups])
    assert abs(formula - exact) <= 1e-9 * (1.0 + abs(exact))


def test_scalar_transfer_delta_matches_the_array_form_bit_for_bit():
    """transfer_delta on Python numbers gives the bits transfer_deltas gives
    on numpy arrays, +inf included where the move would empty the donor."""
    rng = np.random.default_rng(3)
    home, away = rng.uniform(0.0, 1e4, (2, 2000))
    k, n1, n2 = rng.integers(1, 60, (3, 2000))
    want = reclass.transfer_deltas(home, away, k, n1, n2)
    got = np.array([reclass.transfer_delta(*args) for args in zip(
        home.tolist(), away.tolist(), k.tolist(), n1.tolist(), n2.tolist())])
    assert np.isinf(want).any() and np.isfinite(want).any()
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_merge_deltas_on_python_numbers_matches_the_array_form():
    """merge_deltas on Python floats and ints, as segment calls it, gives
    the bits of the same call on numpy arrays, as kh_engine makes it."""
    rng = np.random.default_rng(5)
    d_sq = rng.uniform(0.0, 1e4, 2000) * 10.0 ** rng.integers(-6, 7, 2000)
    na, nb = rng.integers(1, 10**6 + 1, (2, 2000))
    na[:20], nb[:20] = 1, 10**6
    want = reclass.merge_deltas(d_sq, na, nb)
    got = np.array([reclass.merge_deltas(*args) for args in zip(
        d_sq.tolist(), na.tolist(), nb.tolist())])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
