"""Datasets, partitions, and exact bookkeeping of the within-cluster squared error.

The total squared error E of a partition is the sum over clusters of
``sum(|x|^2) - |sum(x)|^2 / n``, which equals the sum of squared distances
of the points to their cluster centroid. Everything here maintains the
per-cluster sufficient statistics (count, coordinate sum, sum of squared
norms) so that moving a k-point subset costs O(k*d) instead of a rescan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# A mutated partition refreshes its statistics from scratch after this many
# accepted moves, which bounds floating-point drift.
REFRESH_INTERVAL = 1024

# Cluster energies are clamped to zero when they come out negative within
# this relative band; anything more negative is a bookkeeping bug.
ENERGY_CLAMP_REL = 1e-9


class PreconditionError(ValueError):
    """An operation was called outside its contract."""


class SizeGuardError(ValueError):
    """Input exceeds the size bound an exact algorithm is guarded by."""


class InputFormatError(ValueError):
    """Malformed external input (CSV or PGM)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class InternalConsistencyError(RuntimeError):
    """Cluster statistics violated an identity they must satisfy."""


def clamped_cluster_energy(sumsq: float, sq_norm_of_sum: float, n: int) -> float:
    """Cluster energy sumsq - |sum|^2/n, clamped to zero inside numerical noise."""
    e = float(sumsq - sq_norm_of_sum / n)
    if e < 0.0:
        if e >= -(ENERGY_CLAMP_REL * (1.0 + abs(sumsq))):
            return 0.0
        raise InternalConsistencyError(
            f"cluster energy {e!r} is negative beyond the numerical floor"
        )
    return e


class Dataset:
    """Immutable N x d matrix of finite real feature vectors.

    Duplicate rows are allowed and meaningful: identical points can be moved
    between clusters as one subset.
    """

    __slots__ = ("points", "_bit_ids")

    def __init__(self, points):
        pts = np.array(points, dtype=np.float64, copy=True)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise PreconditionError("dataset must be a nonempty 2-D array of points")
        if not np.all(np.isfinite(pts)):
            raise PreconditionError("dataset coordinates must be finite")
        pts.setflags(write=False)
        self.points = pts
        self._bit_ids = None

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def unique_rows(self) -> np.ndarray:
        return np.unique(self.points, axis=0)

    def identical_group_labels(self) -> np.ndarray:
        """Label vector putting equal-valued rows into the same cluster.

        Rows compare by value, so 0.0 and -0.0 share a cluster.
        """
        _, inverse = np.unique(self.points, axis=0, return_inverse=True)
        return inverse.reshape(-1).astype(np.int64)

    def bit_group_ids(self) -> np.ndarray:
        """Ids putting bit-identical rows together (0.0 and -0.0 differ).

        Computed on first use and kept, since the points never change.
        """
        if self._bit_ids is None:
            _, inverse = np.unique(self.points.view(np.int64), axis=0,
                                   return_inverse=True)
            self._bit_ids = inverse.reshape(-1)
        return self._bit_ids


@dataclass(frozen=True)
class ClusterStats:
    """Exact sufficient statistics of a point set: count, coordinate sum, sum of |x|^2."""

    n: int
    sum: np.ndarray
    sumsq: float

    @classmethod
    def from_points(cls, points) -> "ClusterStats":
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return cls(int(pts.shape[0]), pts.sum(axis=0), float((pts * pts).sum()))

    @property
    def centroid(self) -> np.ndarray:
        if self.n < 1:
            raise PreconditionError("centroid undefined for an empty cluster")
        return self.sum / self.n

    @property
    def energy(self) -> float:
        if self.n == 0:
            return 0.0
        return clamped_cluster_energy(float(self.sumsq), float(self.sum @ self.sum), self.n)

    def __add__(self, other: "ClusterStats") -> "ClusterStats":
        return ClusterStats(self.n + other.n, self.sum + other.sum, self.sumsq + other.sumsq)

    def __sub__(self, other: "ClusterStats") -> "ClusterStats":
        if other.n > self.n:
            raise PreconditionError("cannot remove more points than the cluster holds")
        return ClusterStats(self.n - other.n, self.sum - other.sum, self.sumsq - other.sumsq)


def _validated_labels(ds: Dataset, labels, m: int | None) -> tuple[np.ndarray, int]:
    lab = np.asarray(labels, dtype=np.int64).reshape(-1)
    if lab.shape[0] != ds.n:
        raise PreconditionError("labels must assign every point")
    if lab.size and lab.min() < 0:
        raise PreconditionError("labels must be nonnegative")
    if m is None:
        m = int(lab.max()) + 1
    if lab.max() >= m:
        raise PreconditionError("label out of range")
    counts = np.bincount(lab, minlength=m)
    if (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        raise PreconditionError(f"cluster {empty} is empty")
    return lab, m


def coordinate_sums(points: np.ndarray, labels: np.ndarray, m: int) -> np.ndarray:
    """(m, d) per-cluster coordinate sums; empty clusters sum to zero."""
    sums = np.empty((m, points.shape[1]))
    for j in range(points.shape[1]):
        sums[:, j] = np.bincount(labels, weights=points[:, j], minlength=m)
    return sums


def _stats_arrays(points: np.ndarray, labels: np.ndarray, m: int):
    counts = np.bincount(labels, minlength=m)
    sums = coordinate_sums(points, labels, m)
    sumsqs = np.bincount(labels, weights=(points * points).sum(axis=1), minlength=m)
    return counts, sums, sumsqs


def _total_energy(counts: np.ndarray, sums: np.ndarray, sumsqs: np.ndarray) -> float:
    """Sum of the clamped cluster energies, in cluster order."""
    total = 0.0
    for c in range(counts.shape[0]):
        total += clamped_cluster_energy(
            float(sumsqs[c]), float(sums[c] @ sums[c]), int(counts[c])
        )
    return total


def partition_energy(ds: Dataset, labels, m: int | None = None) -> float:
    """Total squared error of a labeling, computed fresh from the points."""
    lab, m = _validated_labels(ds, labels, m)
    return _total_energy(*_stats_arrays(ds.points, lab, m))


class Partition:
    """A point-to-cluster assignment with exact incremental statistics.

    The instance owns its labels array. Callers mutate it only through
    move(); engines that need a scratch copy take copy() first.
    """

    __slots__ = ("ds", "labels", "counts", "sums", "sumsqs", "total_e",
                 "_moves_since_refresh")

    def __init__(self, ds, labels, counts, sums, sumsqs, total_e):
        self.ds = ds
        self.labels = labels
        self.counts = counts
        self.sums = sums
        self.sumsqs = sumsqs
        self.total_e = total_e
        self._moves_since_refresh = 0

    @classmethod
    def from_labels(cls, ds: Dataset, labels, m: int | None = None) -> "Partition":
        lab, m = _validated_labels(ds, labels, m)
        counts, sums, sumsqs = _stats_arrays(ds.points, lab, m)
        return cls(ds, lab, counts, sums, sumsqs, _total_energy(counts, sums, sumsqs))

    @property
    def m(self) -> int:
        return int(self.counts.shape[0])

    @property
    def n(self) -> int:
        return self.ds.n

    def cluster_energy(self, c: int) -> float:
        return clamped_cluster_energy(
            float(self.sumsqs[c]), float(self.sums[c] @ self.sums[c]), int(self.counts[c])
        )

    def cluster_stats(self, c: int) -> ClusterStats:
        if not 0 <= c < self.m:
            raise PreconditionError("cluster id out of range")
        return ClusterStats(int(self.counts[c]), self.sums[c].copy(), float(self.sumsqs[c]))

    def centroids(self) -> np.ndarray:
        return self.sums / self.counts[:, None]

    def move(self, idx, donor: int, acceptor: int) -> None:
        """Reassign the subset idx from donor to acceptor, in place.

        The total error is updated by the exactly recomputed donor and
        acceptor energies, not by a predicted delta.
        """
        ii = np.asarray(idx, dtype=np.int64).reshape(-1)
        if ii.size == 0:
            raise PreconditionError("subset must be nonempty")
        if np.unique(ii).size != ii.size:
            raise PreconditionError("subset indices must be distinct")
        if not (0 <= donor < self.m and 0 <= acceptor < self.m):
            raise PreconditionError("cluster id out of range")
        if donor == acceptor:
            raise PreconditionError("donor and acceptor must differ")
        if ii.min() < 0 or ii.max() >= self.n:
            raise PreconditionError("subset index out of range")
        if not (self.labels[ii] == donor).all():
            raise PreconditionError("subset must lie wholly inside the donor cluster")
        k = int(ii.size)
        if k == int(self.counts[donor]):
            raise PreconditionError("subset equals the donor cluster; use a merge instead")

        pts = self.ds.points[ii]
        sub_sum = pts.sum(axis=0)
        sub_sq = float((pts * pts).sum())

        e_old = self.cluster_energy(donor) + self.cluster_energy(acceptor)
        self.counts[donor] -= k
        self.counts[acceptor] += k
        self.sums[donor] -= sub_sum
        self.sums[acceptor] += sub_sum
        self.sumsqs[donor] -= sub_sq
        self.sumsqs[acceptor] += sub_sq
        e_new = self.cluster_energy(donor) + self.cluster_energy(acceptor)
        self.total_e += e_new - e_old
        self.labels[ii] = acceptor

        self._moves_since_refresh += 1
        if self._moves_since_refresh >= REFRESH_INTERVAL:
            self.recompute()

    def recompute(self) -> None:
        """Rebuild statistics and total error from the labels."""
        counts, sums, sumsqs = _stats_arrays(self.ds.points, self.labels, self.m)
        self.counts, self.sums, self.sumsqs = counts, sums, sumsqs
        self.total_e = _total_energy(counts, sums, sumsqs)
        self._moves_since_refresh = 0

    def copy(self) -> "Partition":
        return Partition(self.ds, self.labels.copy(), self.counts.copy(),
                         self.sums.copy(), self.sumsqs.copy(), self.total_e)

    def check_consistency(self, rel_tol: float = 1e-9) -> None:
        """Raise if the tracked total error drifted from a fresh computation."""
        fresh = partition_energy(self.ds, self.labels, self.m)
        if abs(fresh - self.total_e) > rel_tol * (1.0 + fresh):
            raise InternalConsistencyError(
                f"tracked E {self.total_e!r} drifted from recomputed E {fresh!r}"
            )


def sigma(e: float, n_points: int) -> float:
    """Root mean squared deviation sqrt(E / N) of an N-point partition."""
    if n_points < 1:
        raise PreconditionError("sigma needs at least one point")
    if e < 0.0:
        raise PreconditionError("total error must be nonnegative")
    return math.sqrt(e / n_points)


@dataclass
class PartitionSequence:
    """Partitions indexed by cluster count.

    Entries are independent solutions of the same dataset; clusters across
    neighboring counts need not nest.
    """

    by_cluster_count: dict[int, Partition] = field(default_factory=dict)
    method: str = ""
    info: dict[int, dict] = field(default_factory=dict)

    def cluster_counts(self) -> list[int]:
        return sorted(self.by_cluster_count)

    def energy(self, m: int) -> float:
        return self.by_cluster_count[m].total_e


def squared_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (N, m), clipped at zero."""
    d2 = ((x * x).sum(axis=1)[:, None]
          - 2.0 * (x @ centers.T)
          + (centers * centers).sum(axis=1)[None, :])
    np.maximum(d2, 0.0, out=d2)
    return d2
