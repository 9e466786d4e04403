"""Exact multilevel thresholding via dynamic programming over distinct values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import energy_by_means, labeled_energy
from khcluster.core import Dataset, PreconditionError, SizeGuardError, partition_energy
from khcluster.oracle import global_min
from khcluster.otsu1d import (MAX_DISTINCT, assign_classes, build_histogram,
                              curve, optimal_thresholds)


def test_histogram_aggregates_duplicates():
    h = build_histogram(np.array([0.0, 0.0, 0.0, 10.0]))
    assert h.v == 2 and h.n == 4
    assert h.values.tolist() == [0.0, 10.0]
    assert h.counts.tolist() == [3, 1]


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
