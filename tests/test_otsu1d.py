"""Exact multilevel thresholding via dynamic programming over distinct values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import energy_by_means, labeled_energy
from khcluster import core, otsu1d
from khcluster.core import Dataset, PreconditionError, SizeGuardError, partition_energy
from khcluster.oracle import global_min
from khcluster.otsu1d import (MAX_DISTINCT, assign_classes, build_histogram,
                              curve, optimal_thresholds)


def test_histogram_aggregates_duplicates():
    h = build_histogram(np.array([0.0, 0.0, 0.0, 10.0]))
    assert h.v == 2 and h.n == 4
    assert h.values.tolist() == [0.0, 10.0]
    assert h.counts.tolist() == [3, 1]


def test_histogram_values_do_not_depend_on_signed_zero_order():
    """0.0 and -0.0 are one value, stored as 0.0, whichever comes first, so
    the histograms and thresholds of both orders have the same bytes."""
    hists = [build_histogram(np.array(x)) for x in
             ([-0.0, 0.0, 0.0, 5.0, 6.0], [0.0, -0.0, 0.0, 5.0, 6.0])]
    assert hists[0].values.tobytes() == hists[1].values.tobytes()
    assert not np.signbit(hists[0].values).any()
    cuts = [optimal_thresholds(h, 2)[0] for h in hists]
    assert cuts[0].tobytes() == cuts[1].tobytes() == np.array([0.0]).tobytes()


def test_histogram_from_dataset_requires_1d():
    h = build_histogram(Dataset([0.0, 1.0]))
    assert h.n == 2
    with pytest.raises(PreconditionError):
        build_histogram(Dataset([[0.0, 1.0]]))
    with pytest.raises(PreconditionError):
        build_histogram(np.array([]))
    with pytest.raises(PreconditionError):
        build_histogram(np.array([0.0, np.nan]))


def test_distinct_value_guard():
    with pytest.raises(SizeGuardError):
        build_histogram(np.arange(MAX_DISTINCT + 1, dtype=np.float64))


def test_interval_error_matches_direct():
    h = build_histogram(np.array([0.0, 1.0, 9.0, 10.0]))
    whole = h.interval_error(np.array([0]), np.array([4]))
    assert whole[0] == pytest.approx(82.0)
    # slots [0, 2) cover the multiset {0, 1}
    assert h.interval_error(np.array([0]), np.array([2]))[0] == pytest.approx(0.5)
    h2 = build_histogram(np.array([0.0, 0.0, 0.0, 10.0]))
    assert h2.interval_error(np.array([0]), np.array([2]))[0] == pytest.approx(
        energy_by_means(np.array([0.0, 0.0, 0.0, 10.0])))


def test_thresholds_frozen_curve():
    h = build_histogram(np.array([0.0, 1.0, 9.0, 10.0]))
    th, e = optimal_thresholds(h, 1)
    assert th.size == 0 and e == pytest.approx(82.0)
    th, e = optimal_thresholds(h, 2)
    assert th.tolist() == [1.0] and e == pytest.approx(1.0)
    # ties prefer the earliest cuts: {0} | {1} | {9, 10}
    th, e = optimal_thresholds(h, 3)
    assert th.tolist() == [0.0, 1.0] and e == pytest.approx(0.5)
    th, e = optimal_thresholds(h, 4)
    assert th.tolist() == [0.0, 1.0, 9.0] and e == pytest.approx(0.0)


def test_thresholds_validation():
    h = build_histogram(np.array([0.0, 1.0]))
    with pytest.raises(PreconditionError):
        optimal_thresholds(h, 0)
    with pytest.raises(PreconditionError):
        optimal_thresholds(h, 3)  # more classes than distinct values


def test_assign_classes_inclusive_upper_edges():
    h = build_histogram(np.array([0.0, 1.0, 9.0, 10.0]))
    x = np.array([0.0, 1.0, 9.0, 10.0])
    assert assign_classes(x, np.array([1.0])).tolist() == [0, 0, 1, 1]
    assert assign_classes(x, np.array([0.0, 1.0])).tolist() == [0, 1, 2, 2]


def test_assignment_reproduces_dp_energy():
    rng = np.random.default_rng(9)
    for _ in range(30):
        x = np.round(rng.uniform(0, 15, int(rng.integers(2, 30))), 1)
        h = build_histogram(x)
        m = int(rng.integers(1, h.v + 1))
        th, e = optimal_thresholds(h, m)
        lab = assign_classes(x, th)
        assert partition_energy(Dataset(x), lab) == pytest.approx(e, rel=1e-9, abs=1e-9)
        assert labeled_energy(x, lab) == pytest.approx(e, rel=1e-9, abs=1e-9)


def test_curve_frozen_and_monotone():
    h = build_histogram(np.array([0.0, 1.0, 9.0, 10.0]))
    pts = curve(h, 4)
    assert [(p.m, p.error) for p in pts] == [(1, 82.0), (2, 1.0), (3, 0.5), (4, 0.0)]
    assert pts[0].sigma == pytest.approx(np.sqrt(82.0 / 4.0))
    assert pts[1].thresholds == (1.0,)


def test_curve_monotone_random():
    rng = np.random.default_rng(14)
    x = np.round(rng.uniform(0, 100, 40), 1)
    h = build_histogram(x)
    pts = curve(h, min(8, h.v))
    es = [p.error for p in pts]
    assert all(a >= b - 1e-12 for a, b in zip(es, es[1:]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dp_matches_exhaustive_oracle(seed):
    """Interval classes attain the unrestricted 1-D optimum."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    x = np.round(rng.uniform(0, 10, n), 2)
    h = build_histogram(x)
    m = int(rng.integers(1, h.v + 1))
    _, e = optimal_thresholds(h, m)
    opt = global_min(Dataset(x), m)
    assert e == pytest.approx(opt.best_e, rel=1e-9, abs=1e-9)


# The DP as it ran before its rows were scored in blocks: one chain of
# numpy calls per (class count, end) cell. The blocked tables must have its
# bits.

def _ref_dp_tables(h, m_max):
    v = h.v
    slots = np.arange(v + 1)
    cost = np.full((m_max + 1, v + 1), np.inf)
    arg = np.zeros((m_max + 1, v + 1), dtype=np.int64)
    cost[1] = h.interval_error(np.zeros(v + 1, dtype=np.int64), slots)
    cost[1, 0] = np.inf
    for j in range(2, m_max + 1):
        for end in range(j, v + 1):
            starts = np.arange(j - 1, end)
            totals = cost[j - 1, starts] + h.interval_error(starts, np.full(starts.shape, end))
            k = int(np.argmin(totals))
            cost[j, end] = totals[k]
            arg[j, end] = starts[k]
    return cost, arg


def _dp_histograms(rng):
    """Heavy ties, integer grids and values offset by 1e6, V from 1 to
    about 300. On the narrow offset ranges the prefix moments cancel, so
    the rounded costs are not monotone in the end slot and an unmasked
    start at or past its end could win a row."""
    yield build_histogram(np.array([4.0]))
    yield build_histogram(np.array([2.0, 2.0, 5.0]))
    for v in (3, 17, 64, 150, 300):
        yield build_histogram(np.round(rng.normal(0.0, 2.0, 4 * v), 0)[:v]
                              .repeat(rng.integers(1, 9, v)))
        yield build_histogram(rng.integers(0, v, 3 * v).astype(np.float64))
        yield build_histogram(np.round(rng.uniform(-50.0, 50.0, v), 2) + 1e6)
        yield build_histogram(np.round(rng.uniform(-1.0, 1.0, v), 3) + 1e6)


@pytest.mark.parametrize("budget", [1, 7, None])
def test_blocked_dp_has_the_bits_of_the_per_end_loop(monkeypatch, budget):
    """cost and arg have the bits of the per-end loop, and so do curve and
    optimal_thresholds, with one end per block (budget 1), small blocks
    (budget 7) and the default budget."""
    if budget is not None:
        monkeypatch.setattr(core, "STACK_BUDGET", budget)
    rng = np.random.default_rng(31)
    sizes = set()
    for h in _dp_histograms(rng):
        m_max = min(h.v, 8)
        sizes.add(h.v)
        cost, arg = otsu1d._dp_tables(h, m_max)
        ref_cost, ref_arg = _ref_dp_tables(h, m_max)
        assert np.array_equal(cost.view(np.int64), ref_cost.view(np.int64))
        assert np.array_equal(arg, ref_arg)
        for p in curve(h, m_max):
            ref_th = otsu1d._thresholds_from(ref_arg, h, p.m)
            assert p.error == float(ref_cost[p.m, h.v])
            assert p.thresholds == tuple(float(t) for t in ref_th)
            th, e = optimal_thresholds(h, p.m)
            assert np.array_equal(th, ref_th) and e == p.error
    assert min(sizes) == 1 and max(sizes) >= 250
