"""Exact minimum-error thresholding of one-dimensional data.

Partitions of a line that minimize within-class squared error are
contiguous in sorted order, so the search space is cut positions between
distinct values. A dynamic program over prefix sums finds, for every class
count, the thresholds with globally minimal error. This is the multilevel
extension of Otsu's criterion, and it serves as the exact reference that
reclassification results are compared against in one dimension. Each row
of the DP is scored a block of ends at a time, at most core.STACK_BUDGET
(end, start) cells per block, so a row costs one chain of numpy calls per
block rather than one per end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Dataset, PreconditionError, SizeGuardError, _chunks,
                   frozen_floats, sigma)

MAX_DISTINCT = 4096  # the DP is O(m * V^2); keep V desk-scale


@dataclass(frozen=True)
class Histogram:
    """Distinct sorted values with multiplicities and prefix moments."""

    values: np.ndarray   # (V,) strictly increasing
    counts: np.ndarray   # (V,) positive ints
    cum_n: np.ndarray    # (V+1,) prefix counts, cum_n[0] = 0
    cum_s: np.ndarray    # (V+1,) prefix sums of value * count
    cum_ss: np.ndarray   # (V+1,) prefix sums of value^2 * count

    @property
    def n(self) -> int:
        return int(self.cum_n[-1])

    @property
    def v(self) -> int:
        return int(self.values.shape[0])

    def interval_error(self, lo: np.ndarray, hi: np.ndarray):
        """Squared error of the classes covering value slots [lo, hi)."""
        cn = self.cum_n[hi] - self.cum_n[lo]
        cs = self.cum_s[hi] - self.cum_s[lo]
        css = self.cum_ss[hi] - self.cum_ss[lo]
        return np.maximum(css - cs * cs / np.maximum(cn, 1), 0.0)


def build_histogram(data) -> Histogram:
    """Histogram of a 1-D array or a one-dimensional Dataset, its values
    stored as a Dataset stores them (core.frozen_floats)."""
    if isinstance(data, Dataset):
        if data.d != 1:
            raise PreconditionError("thresholding requires one-dimensional data")
        x = data.points[:, 0]
    else:
        x = frozen_floats(data)
        if x.ndim != 1:
            raise PreconditionError("expected a flat array of values")
        if x.size == 0:
            raise PreconditionError("dataset must contain at least one point")
        if not np.all(np.isfinite(x)):
            raise PreconditionError("values must be finite")
    values, counts = np.unique(x, return_counts=True)
    if values.shape[0] > MAX_DISTINCT:
        raise SizeGuardError(
            f"{values.shape[0]} distinct values exceed the limit of {MAX_DISTINCT}")
    cum_n = np.concatenate(([0.0], np.cumsum(counts.astype(np.float64))))
    cum_s = np.concatenate(([0.0], np.cumsum(values * counts)))
    cum_ss = np.concatenate(([0.0], np.cumsum(values * values * counts)))
    return Histogram(values, counts, cum_n, cum_s, cum_ss)


def _dp_tables(h: Histogram, m_max: int):
    """cost[j][v]: minimal error of splitting the first v slots into j classes.

    arg[j][v] is the slot where the last class begins, taken as small as
    possible so equal-error solutions resolve to the same thresholds.

    Row j is scored a block of ends at a time: one (ends x starts) matrix
    of cost[j - 1, start] + interval_error(start, end), with +inf where a
    start does not lie below its end, and the first minimum of each row.
    Every cell is the elementwise expression a single end would compute,
    so the bits do not depend on the blocks; each block holds at most
    core.STACK_BUDGET cells, or one end.
    """
    v = h.v
    slots = np.arange(v + 1)
    cost = np.full((m_max + 1, v + 1), np.inf)
    arg = np.zeros((m_max + 1, v + 1), dtype=np.int64)
    cost[1] = h.interval_error(np.zeros(v + 1, dtype=np.int64), slots)
    cost[1, 0] = np.inf
    for j in range(2, m_max + 1):
        ends = slots[j:]
        for sel in _chunks(ends.size, ends.size):
            end = ends[sel]
            starts = slots[j - 1:end[-1]]
            totals = cost[j - 1, starts] + h.interval_error(starts, end[:, None])
            totals[starts >= end[:, None]] = np.inf
            k = totals.argmin(axis=1)  # first minimum = lowest start slot
            cost[j, end] = totals[np.arange(end.size), k]
            arg[j, end] = starts[k]
    return cost, arg


def _thresholds_from(arg: np.ndarray, h: Histogram, m: int) -> np.ndarray:
    cuts = []
    end = h.v
    for j in range(m, 1, -1):
        start = int(arg[j, end])
        cuts.append(start)
        end = start
    cuts.reverse()
    # a class beginning at slot c makes values[c - 1] the inclusive upper
    # edge of the class below
    return h.values[np.asarray(cuts, dtype=np.int64) - 1]


def optimal_thresholds(h: Histogram, m: int) -> tuple[np.ndarray, float]:
    """Thresholds (inclusive upper class edges) and the minimal error for m classes."""
    if m < 1:
        raise PreconditionError("class count must be positive")
    if m > h.v:
        raise PreconditionError(
            f"cannot split {h.v} distinct values into {m} classes")
    cost, arg = _dp_tables(h, m)
    return _thresholds_from(arg, h, m), float(cost[m, h.v])


def assign_classes(x: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Class index per value: class c holds values <= thresholds[c]."""
    return np.searchsorted(thresholds, np.asarray(x, dtype=np.float64), side="left")


@dataclass(frozen=True)
class CurvePoint:
    m: int
    error: float
    sigma: float
    thresholds: tuple[float, ...]


def curve(h: Histogram, m_max: int) -> list[CurvePoint]:
    """Exact minimal error for every class count 1..m_max, one DP sweep."""
    if not 1 <= m_max <= h.v:
        raise PreconditionError("m_max must lie between 1 and the distinct value count")
    cost, arg = _dp_tables(h, m_max)
    out = []
    for m in range(1, m_max + 1):
        e = float(cost[m, h.v])
        th = _thresholds_from(arg, h, m)
        out.append(CurvePoint(m, e, sigma(e, h.n), tuple(float(t) for t in th)))
    return out
