"""Datasets, partitions, and exact bookkeeping of the within-cluster squared error.

The total squared error E of a partition is the sum over clusters of
``sum(|x|^2) - |sum(x)|^2 / n``, which equals the sum of squared distances
of the points to their cluster centroid. Everything here maintains the
per-cluster sufficient statistics (count, coordinate sum, sum of squared
norms) so that moving a k-point subset needs no rescan of the points.
PartitionStack holds many partitions of one dataset as stacked arrays and
moves subsets in all of them at once; a Partition is a stack of one.
Statistics are built from labels in one place, stacked_sums, an offset
bincount over a stack of labelings that the K-means baseline shares.
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

# Cells that a blocked kernel works on in one chunk: members x rows x
# clusters in the correction passes of kh_engine and the Lloyd distances
# and assignments of baselines, ends x starts in a block of the Otsu DP.
# It bounds the kernels' temporary arrays. The waves of Lloyd runs have a
# bound of their own (baselines.WAVE_BUDGET): on 200 points in 1-D, peak
# memory rose with this chunk, not with the wave.
STACK_BUDGET = 8192


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
    """Immutable N x d matrix of finite real feature vectors, small enough
    that 4 d (N max|x|)^2 is finite.

    Duplicate rows are allowed and meaningful: identical points can be moved
    between clusters as one subset.
    """

    __slots__ = ("points", "_bit_ids", "_bit_leads")

    def __init__(self, points):
        pts = np.array(points, dtype=np.float64, copy=True)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise PreconditionError("dataset must be a nonempty 2-D array of points")
        if not np.all(np.isfinite(pts)):
            raise PreconditionError("dataset coordinates must be finite")
        # bounds every squared coordinate sum, squared distance and move delta
        scale = pts.shape[0] * float(np.abs(pts).max())
        if not math.isfinite(4.0 * pts.shape[1] * scale * scale):
            raise PreconditionError("dataset coordinates are too large: squared sums overflow")
        pts.setflags(write=False)
        self.points = pts
        self._bit_ids = self._bit_leads = None

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

        Computed on first use and kept, with bit_group_leads, since the
        points never change.
        """
        if self._bit_ids is None:
            _, self._bit_leads, inverse = np.unique(
                self.points.view(np.int64), axis=0, return_index=True, return_inverse=True)
            self._bit_ids = inverse.reshape(-1)
        return self._bit_ids

    def bit_group_leads(self) -> np.ndarray:
        """The first row of each bit group, in id order."""
        self.bit_group_ids()
        return self._bit_leads


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
    """A checked copy of the labels, never the caller's array, and m."""
    lab = np.array(labels, dtype=np.int64).reshape(-1)
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


def sq_norms(v: np.ndarray) -> np.ndarray:
    """|v|^2 of every row of a stack of vectors, bit for bit as v @ v sums
    one row (einsum and (v * v).sum(-1) can round differently)."""
    return np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]


def stacked_sums(points: np.ndarray, labels: np.ndarray, m: int):
    """Counts (B, m) and coordinate sums (B, m, d) of B labelings (B, N) of
    the points (N, d); empty clusters count and sum to zero.

    One bincount per column over B copies of the points under the labels
    offset by member, so every cluster adds its points in index order, as a
    single labeling does.
    """
    b = labels.shape[0]
    flat = (labels + m * np.arange(b)[:, None]).reshape(-1)
    return (np.bincount(flat, minlength=b * m).reshape(b, m),
            coordinate_sums(np.tile(points, (b, 1)), flat, b * m).reshape(b, m, -1))


def _stacked_stats(points: np.ndarray, labels: np.ndarray, m: int):
    """Counts (B, m), sums (B, m, d) and sums of |x|^2 (B, m) of B labelings:
    stacked_sums of the points with |x|^2 as one more column."""
    counts, sums = stacked_sums(np.column_stack((points, (points * points).sum(axis=1))),
                                labels, m)
    return counts, sums[..., :-1].copy(), sums[..., -1].copy()


def _cluster_energies(counts: np.ndarray, sums: np.ndarray,
                      sumsqs: np.ndarray) -> np.ndarray:
    """clamped_cluster_energy, elementwise over any stack of clusters."""
    e = sumsqs - sq_norms(sums) / counts
    if e.min() < 0.0:
        beyond = e < -(ENERGY_CLAMP_REL * (1.0 + np.abs(sumsqs)))
        if beyond.any():
            raise InternalConsistencyError(
                f"cluster energy {float(e[beyond][0])!r} is negative "
                "beyond the numerical floor")
        e = np.where(e < 0.0, 0.0, e)
    return e


def _total_energy(counts: np.ndarray, sums: np.ndarray, sumsqs: np.ndarray):
    """Sum of the clamped cluster energies in cluster order (the last axis),
    per member of a stack."""
    return np.cumsum(_cluster_energies(counts, sums, sumsqs), axis=-1)[..., -1]


def partition_energy(ds: Dataset, labels, m: int | None = None) -> float:
    """Total squared error of a labeling, computed fresh from the points."""
    lab, m = _validated_labels(ds, labels, m)
    return float(_total_energy(*_stacked_stats(ds.points, lab[None], m))[0])


def _chunks(count: int, per_member: int, budget: int | None = None):
    """Slices of at most budget // per_member members (at least one); the
    budget is STACK_BUDGET unless given."""
    size = max(1, (STACK_BUDGET if budget is None else budget) // per_member)
    return (slice(lo, lo + size) for lo in range(0, count, size))


class Partition:
    """A point-to-cluster assignment with exact incremental statistics.

    A partition is a PartitionStack of one, so a partition and a member of
    a stack are updated the same way, bit for bit. The instance owns its
    stack. Callers mutate it only through move(); engines that need a
    scratch copy take copy() first.
    """

    __slots__ = ("_stack",)

    def __init__(self, stack: "PartitionStack"):
        self._stack = stack

    @classmethod
    def from_labels(cls, ds: Dataset, labels, m: int | None = None) -> "Partition":
        lab, m = _validated_labels(ds, labels, m)
        return cls(PartitionStack.from_labels(ds, lab[None], m))

    # views of the stack's member 0
    ds = property(lambda self: self._stack.ds)
    labels = property(lambda self: self._stack.labels[0])
    counts = property(lambda self: self._stack.counts[0])
    sums = property(lambda self: self._stack.sums[0])
    sumsqs = property(lambda self: self._stack.sumsqs[0])
    total_e = property(lambda self: float(self._stack.total_e[0]))

    @property
    def m(self) -> int:
        return int(self._stack.counts.shape[1])

    @property
    def n(self) -> int:
        return self.ds.n

    def cluster_stats(self, c: int) -> ClusterStats:
        if not 0 <= c < self.m:
            raise PreconditionError("cluster id out of range")
        return ClusterStats(int(self.counts[c]), self.sums[c].copy(), float(self.sumsqs[c]))

    def centroids(self) -> np.ndarray:
        return self.sums / self.counts[:, None]

    def move(self, idx, donor: int, acceptor: int) -> None:
        """Reassign the subset idx from donor to acceptor, in place.

        The total error is updated by the exactly recomputed donor and
        acceptor energies, not by a predicted delta (PartitionStack.move).
        """
        ii = np.asarray(idx, dtype=np.int64).reshape(-1)
        if ii.size == 0:
            raise PreconditionError("subset must be nonempty")
        if np.unique(ii).size != ii.size:
            raise PreconditionError("subset indices must be distinct")
        if not (0 <= donor < self.m and 0 <= acceptor < self.m):
            raise PreconditionError("cluster id out of range")
        if ii.min() < 0 or ii.max() >= self.n:
            raise PreconditionError("subset index out of range")
        moved = np.zeros((1, self.n), dtype=bool)
        moved[0, ii] = True
        pts = self.ds.points[ii]
        self._stack.move(np.zeros(1, dtype=np.int64), np.array([donor]), np.array([acceptor]),
                         moved, pts.sum(axis=0)[None], np.array([(pts * pts).sum()]))

    def copy(self) -> "Partition":
        """An independent copy; its count of moves since refresh restarts at 0."""
        p = self._stack.partition(0)
        p._stack.since_refresh[0] = 0
        return p

    def check_consistency(self) -> None:
        """Raise if the tracked total error drifted from a fresh computation."""
        fresh = partition_energy(self.ds, self.labels, self.m)
        if abs(fresh - self.total_e) > 1e-9 * (1.0 + fresh):
            raise InternalConsistencyError(
                f"tracked E {self.total_e!r} drifted from recomputed E {fresh!r}"
            )


class PartitionStack:
    """B partitions of one dataset into the same m clusters, as stacked arrays.

    Member i has labels[i] (N,), counts[i] (m,), sums[i] (m, d), sumsqs[i]
    (m,), total_e[i], and since_refresh[i], its moves since statistics were
    last rebuilt.
    """

    __slots__ = ("ds", "labels", "counts", "sums", "sumsqs", "total_e",
                 "since_refresh")

    def __init__(self, ds, labels, counts, sums, sumsqs, total_e, since_refresh):
        self.ds = ds
        self.labels = labels
        self.counts = counts
        self.sums = sums
        self.sumsqs = sumsqs
        self.total_e = total_e
        self.since_refresh = since_refresh

    @classmethod
    def from_labels(cls, ds: Dataset, labels: np.ndarray, m: int) -> "PartitionStack":
        """Stack of the (B, N) labelings, each onto m nonempty clusters."""
        counts, sums, sumsqs = _stacked_stats(ds.points, labels, m)
        if (counts == 0).any():
            empty = int(np.flatnonzero((counts == 0).any(axis=0))[0])
            raise PreconditionError(f"cluster {empty} is empty")
        return cls(ds, labels, counts, sums, sumsqs, _total_energy(counts, sums, sumsqs),
                   np.zeros(labels.shape[0], dtype=np.int64))

    def partition(self, i: int) -> Partition:
        """A copy of member i, with its count of moves since refresh."""
        b = slice(i, i + 1)
        return Partition(PartitionStack(self.ds, self.labels[b].copy(), self.counts[b].copy(),
                                        self.sums[b].copy(), self.sumsqs[b].copy(),
                                        self.total_e[b].copy(), self.since_refresh[b].copy()))

    def moved_stats(self, b, donor, acceptor, k, sub_sum, sub_sq):
        """What each move does to its member, nothing changed in place: the
        index pair of its donor and acceptor entries, their counts, sums
        and sums of |x|^2 after it (B, 2, ...), and the move's change of
        total error, their energies after minus before. move applies
        exactly these numbers."""
        pair = (b[:, None], np.stack((donor, acceptor), axis=1))
        counts, sums, sumsqs = self.counts[pair], self.sums[pair], self.sumsqs[pair]
        e_old = _cluster_energies(counts, sums, sumsqs)
        sign = np.array([-1, 1])  # x + (-1 * y) has the bits of x - y
        counts = counts + k[:, None] * sign
        sums = sums + sub_sum[:, None] * sign[:, None]
        sumsqs = sumsqs + sub_sq[:, None] * sign
        e_new = _cluster_energies(counts, sums, sumsqs)
        change = (e_new[:, 0] + e_new[:, 1]) - (e_old[:, 0] + e_old[:, 1])
        return pair, counts, sums, sumsqs, change

    def move(self, b, donor, acceptor, moved, sub_sum, sub_sq, stats=None) -> None:
        """In each member b[i], move the points flagged in moved[i] from
        cluster donor[i] to acceptor[i], in place; sub_sum[i] and sub_sq[i]
        are their coordinate sum and sum of |x|^2. The members are distinct.

        The total error changes by the recomputed donor and acceptor
        energies, e_new - e_old: the moved_stats of these moves, or stats
        when the caller computed them already. A member rebuilds its
        statistics from its labels after every REFRESH_INTERVAL moves,
        which bounds drift.
        """
        k = moved.sum(axis=1)
        if (donor == acceptor).any():
            raise PreconditionError("donor and acceptor must differ")
        if (moved & (self.labels[b] != donor[:, None])).any():
            raise PreconditionError("subset must lie wholly inside the donor cluster")
        if (k >= self.counts[b, donor]).any():
            raise PreconditionError("subset equals the donor cluster; use a merge instead")

        if stats is None:
            stats = self.moved_stats(b, donor, acceptor, k, sub_sum, sub_sq)
        pair, counts, sums, sumsqs, change = stats
        self.counts[pair], self.sums[pair], self.sumsqs[pair] = counts, sums, sumsqs
        self.total_e[b] += change
        self.labels[b] = np.where(moved, acceptor[:, None], self.labels[b])

        self.since_refresh[b] += 1
        due = b[self.since_refresh[b] >= REFRESH_INTERVAL]
        if due.size:
            self.refresh(due)

    def refresh(self, b) -> None:
        """Rebuild the statistics and total error of members b from their labels."""
        counts, sums, sumsqs = _stacked_stats(self.ds.points, self.labels[b],
                                              self.counts.shape[1])
        self.counts[b], self.sums[b], self.sumsqs[b] = counts, sums, sumsqs
        self.total_e[b] = _total_energy(counts, sums, sumsqs)
        self.since_refresh[b] = 0


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
    info: dict[int, dict] = field(default_factory=dict)

    def cluster_counts(self) -> list[int]:
        return sorted(self.by_cluster_count)

    def energy(self, m: int) -> float:
        return self.by_cluster_count[m].total_e


def squared_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances of x (N, d) to centers (m, d),
    or to each of a stack of them (B, m, d): (N, m) or (B, N, m), clipped at zero.

    Built in place in the product's array, with no temporary of the
    output's size: -2 x.c + |x|^2 + |c|^2 has the bits of
    |x|^2 - 2 x.c + |c|^2, since doubling and negation are exact and
    addition commutes."""
    d2 = x @ centers.swapaxes(-1, -2)
    d2 *= -2.0
    d2 += (x * x).sum(axis=1)[:, None]
    d2 += (centers * centers).sum(axis=-1)[..., None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2
