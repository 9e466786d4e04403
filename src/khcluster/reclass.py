"""Closed-form changes of the total squared error under subset reclassification.

Moving k points with mean I out of a donor cluster (n1 points, centroid I1)
into an acceptor cluster (n2 points, centroid I2) changes the total squared
error by an amount that depends only on (k, I, n1, I1, n2, I2). These
functions evaluate that change exactly from cluster statistics, without
touching the points. The move improves the partition precisely when
|I - I1| > alpha * |I - I2| for the scale factor alpha below, which is the
strict sharpening of the nearest-centroid rule that plain K-means uses.

Merging two clusters costs Ward's |Ia - Ib|^2 * na*nb / (na + nb).
merge_deltas is the one place that factor is written; like
transfer_deltas, it takes the squared centroid distance, so the engine's
arrays and segment's Python numbers share it.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ClusterStats, PreconditionError, sq_norms, squared_distances

# A move is accepted only when its predicted delta lies below
# -move_tolerance(total error of the partition); kh_engine and segment both
# use that one scale, so near-zero deltas never count as improvements.
TOLERANCE_SCALE = 1e-12


def move_tolerance(energy_scale: float) -> float:
    """Acceptance threshold for a move, relative to a squared-error magnitude."""
    return TOLERANCE_SCALE * (1.0 + energy_scale)


def _transfer(home_sq, away_sq, k, n1, n2, rest):
    # the closed form; rest is n1 - k, or a positive stand-in where k >= n1
    return away_sq * (k * n2 / (k + n2)) - home_sq * (k * n1 / rest)


def transfer_deltas(home_sq, away_sq, k, n1, n2):
    """Error change of moving k identical-mean points from donor to acceptor.

    home_sq and away_sq are the squared distances of the subset mean to the
    donor and acceptor centroids, n1 and n2 the cluster sizes. Broadcasts
    over numpy arrays. Moves that would empty the donor (k >= n1) get +inf.
    """
    k, n1, n2 = np.asarray(k), np.asarray(n1), np.asarray(n2)
    return np.where(k < n1, _transfer(home_sq, away_sq, k, n1, n2,
                                      np.maximum(n1 - k, 1)), np.inf)


def transfer_delta(home_sq: float, away_sq: float, k: int, n1: int, n2: int) -> float:
    """transfer_deltas of one move, on Python floats and ints, bit for bit:
    an int quotient rounds once, as numpy's quotient of two exact doubles."""
    return _transfer(home_sq, away_sq, k, n1, n2, n1 - k) if k < n1 else math.inf


def _require_cluster(stats: ClusterStats, name: str) -> None:
    if stats.n < 1:
        raise PreconditionError(f"{name} cluster must be nonempty")


def delta_e_merge(a: ClusterStats, b: ClusterStats) -> float:
    """Error increase from replacing clusters a and b by their union.

    Equals |Ia - Ib|^2 * (na*nb / (na+nb)), always nonnegative and zero
    exactly when the centroids coincide.
    """
    _require_cluster(a, "first")
    _require_cluster(b, "second")
    return float(merge_deltas(sq_norms(a.centroid - b.centroid), a.n, b.n))


def merge_deltas(d_sq, na, nb):
    """delta_e_merge from the squared centroid distance and the sizes, the
    one place Ward's factor is written. Broadcasts over numpy arrays; on
    Python numbers it gives the same bits, as transfer_delta does."""
    return d_sq * (na * nb / (na + nb))


def delta_e_correct(sub: ClusterStats, donor: ClusterStats, acceptor: ClusterStats) -> float:
    """Error change from moving a proper subset out of donor into acceptor.

    Negative values mean the move improves the partition. The subset
    statistics must be a true sub-statistic of the donor; only the size
    relation is checked here.
    """
    k, n1, n2 = sub.n, donor.n, acceptor.n
    if k < 1:
        raise PreconditionError("subset must be nonempty")
    _require_cluster(donor, "donor")
    _require_cluster(acceptor, "acceptor")
    if k > n1:
        raise PreconditionError("subset is larger than its donor cluster")
    if k == n1:
        raise PreconditionError("subset equals the donor cluster; use delta_e_merge")
    i = sub.centroid
    dd = i - donor.centroid
    da = i - acceptor.centroid
    return float(transfer_deltas(dd @ dd, da @ da, k, n1, n2))


def alpha(k: int, n1: int, n2: int) -> float:
    """Scale factor on the acceptor distance in the improvement test.

    Lies in [0, 1), decreases strictly in the subset size k, and vanishes
    at k = n1, where the move degenerates into a merge.
    """
    if not 1 <= k <= n1:
        raise PreconditionError("subset size must satisfy 1 <= k <= n1")
    if n2 < 1:
        raise PreconditionError("acceptor cluster must be nonempty")
    return math.sqrt(n2 * (n1 - k) / (n1 * (n2 + k)))


def merge_many(clusters: list[ClusterStats]) -> float:
    """Error increase from replacing several clusters by their union.

    Equals sum over pairs of ni*nj*|Ii - Ij|^2, divided by the total count.
    """
    if len(clusters) < 2:
        raise PreconditionError("merging needs at least two clusters")
    for c in clusters:
        _require_cluster(c, "every")
    ns = np.array([c.n for c in clusters], dtype=np.float64)
    cents = np.stack([c.centroid for c in clusters])
    d2 = squared_distances(cents, cents)
    iu, ju = np.triu_indices(len(clusters), k=1)
    num = float((ns[iu] * ns[ju] * d2[iu, ju]).sum())
    return num / float(ns.sum())


def gap_identity(sub: ClusterStats, donor: ClusterStats, acceptor: ClusterStats) -> float:
    """The exact gap delta_merge(donor, acceptor) - delta_correct(sub, ...).

    Computed as the perfect square
    |alpha*(I - I2) - (I - I1)/alpha|^2 * (n1*n2 / (n1+n2)),
    hence nonnegative: correcting a proper subset never costs more than
    merging the whole donor into the acceptor.
    """
    k, n1, n2 = sub.n, donor.n, acceptor.n
    if not 1 <= k < n1:
        raise PreconditionError("gap is defined for proper subsets of the donor")
    _require_cluster(acceptor, "acceptor")
    a = alpha(k, n1, n2)
    i = sub.centroid
    v = a * (i - acceptor.centroid) - (i - donor.centroid) / a
    return float(merge_deltas(v @ v, n1, n2))
