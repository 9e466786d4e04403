"""Lloyd iteration and incremental K-means sequences, the baseline to surpass."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Dataset, InternalConsistencyError, Partition,
                   PartitionSequence, PreconditionError, coordinate_sums,
                   squared_distances)

# Relative tolerance for assignment ties; a point keeps its current cluster
# when the best alternative is not closer than this.
ASSIGN_TIE_REL = 1e-12

# Candidate centers are subsampled above this many points.
SUBSAMPLE_ABOVE = 2000
SUBSAMPLE_SIZE = 512

# Lloyd stops after this many iterations even when not yet converged.
MAX_ITERS = 200


@dataclass
class KMeansConfig:
    """Target cluster count plus one of two seeding modes.

    Seeding is taken from init_centers when given, else from init_labels;
    one of the two is required. kmeans_sequence grows centers incrementally.
    """

    m: int
    init_centers: np.ndarray | None = None
    init_labels: np.ndarray | None = None

    def __post_init__(self):
        if self.m < 1:
            raise PreconditionError("cluster count must be at least 1")
        if self.init_centers is None and self.init_labels is None:
            raise PreconditionError("give init_centers or init_labels")

    @property
    def seeding(self) -> str:
        if self.init_centers is not None:
            return "provided_centers"
        return "provided_labels"


@dataclass
class LloydResult:
    partition: Partition
    iterations: int
    converged: bool


def _means(points: np.ndarray, labels: np.ndarray, m: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=m).astype(np.float64)
    out = coordinate_sums(points, labels, m)
    # empty clusters keep their zero sum; callers repair them before use
    np.divide(out, counts[:, None], out=out, where=counts[:, None] > 0)
    return out


def _assign(d2: np.ndarray, current: np.ndarray | None) -> np.ndarray:
    # argmin takes the lowest cluster index on exact ties
    best = d2.argmin(axis=1)
    if current is None:
        return best
    rows = np.arange(d2.shape[0])
    dmin = d2[rows, best]
    dcur = d2[rows, current]
    keep = dcur - dmin <= ASSIGN_TIE_REL * (1.0 + dmin)
    return np.where(keep, current, best).astype(np.int64)


def _repair_empty(points: np.ndarray, labels: np.ndarray, m: int) -> np.ndarray:
    """Seize the globally farthest point into each empty cluster."""
    labels = labels.copy()
    counts = np.bincount(labels, minlength=m)
    while (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        centers = _means(points, labels, m)
        centers[counts == 0] = 0.0  # placeholder rows, never the argmax target
        rows = np.arange(points.shape[0])
        own = ((points - centers[labels]) ** 2).sum(axis=1)
        own[counts[labels] < 2] = -np.inf  # donors must keep at least one point
        pick = int(np.argmax(own))  # lowest index wins ties
        if not np.isfinite(own[pick]):
            raise PreconditionError("cannot repair empty cluster: too few points")
        counts[labels[pick]] -= 1
        labels[pick] = empty
        counts[empty] += 1
    return labels


def lloyd(ds: Dataset, cfg: KMeansConfig) -> LloydResult:
    """Alternate nearest-centroid assignment and mean updates to a fixed point.

    Ties keep the current assignment, empty clusters seize the farthest
    point, so the total error never increases between iterations.
    """
    if cfg.m > ds.n:
        raise PreconditionError("more clusters than points")
    points = ds.points
    if cfg.seeding == "provided_centers":
        centers = np.atleast_2d(np.asarray(cfg.init_centers, dtype=np.float64))
        if centers.shape != (cfg.m, ds.d):
            raise PreconditionError("init_centers must have shape (m, d)")
        labels = None
    else:
        labels = np.asarray(cfg.init_labels, dtype=np.int64).reshape(-1)
        if labels.shape[0] != ds.n or labels.min() < 0 or labels.max() >= cfg.m:
            raise PreconditionError("init_labels must map every point to 0..m-1")
        labels = _repair_empty(points, labels, cfg.m)
        centers = _means(points, labels, cfg.m)

    converged = False
    prev_e = np.inf
    it = 0
    for it in range(1, MAX_ITERS + 1):
        d2 = squared_distances(points, centers)
        new_labels = _assign(d2, labels)
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = _repair_empty(points, new_labels, cfg.m)
        centers = _means(points, labels, cfg.m)
        e = float(((points - centers[labels]) ** 2).sum())
        if e > prev_e + 1e-9 * (1.0 + prev_e):
            raise InternalConsistencyError("total error increased during iteration")
        prev_e = e

    part = Partition.from_labels(ds, labels, cfg.m)
    return LloydResult(part, it, converged)


def _candidate_rows(ds: Dataset, rng_seed: int) -> np.ndarray:
    cands = ds.unique_rows()
    if cands.shape[0] > SUBSAMPLE_ABOVE:
        rng = np.random.default_rng(rng_seed)
        pick = rng.choice(cands.shape[0], size=SUBSAMPLE_SIZE, replace=False)
        cands = cands[np.sort(pick)]
    return cands


def _grow_one(ds: Dataset, prev: Partition, rng_seed: int):
    """Best Lloyd run over all candidate placements of one extra center."""
    base = prev.centroids()
    best: LloydResult | None = None
    iters = 0
    for row in _candidate_rows(ds, rng_seed):
        centers = np.vstack([base, row])
        res = lloyd(ds, KMeansConfig(m=prev.m + 1, init_centers=centers))
        iters += res.iterations
        if best is None or res.partition.total_e < best.partition.total_e:
            best = res
    assert best is not None
    return best.partition, iters


def kmeans_sequence(ds: Dataset, m_max: int, rng_seed: int = 0) -> PartitionSequence:
    """Incremental K-means solutions for every count 1..m_max.

    Each count grows the previous solution by one center, trying every
    distinct point as the new center and keeping the first Lloyd run that
    attains the lowest error. Above SUBSAMPLE_ABOVE distinct points the
    candidates are a subsample of SUBSAMPLE_SIZE rows seeded by rng_seed,
    which must be nonnegative.
    """
    if not 1 <= m_max <= ds.n:
        raise PreconditionError("need 1 <= m_max <= N")
    if rng_seed < 0:
        raise PreconditionError("the seed must be nonnegative")
    seq = PartitionSequence(method="kmeans")
    part = Partition.from_labels(ds, np.zeros(ds.n, dtype=np.int64), 1)
    seq.by_cluster_count[1] = part
    seq.info[1] = {"iterations": 0}
    for m in range(2, m_max + 1):
        part, iters = _grow_one(ds, part, rng_seed)
        seq.by_cluster_count[m] = part
        seq.info[m] = {"iterations": iters}
    return seq


def is_lloyd_fixed_point(p: Partition) -> bool:
    """True iff no point is strictly closer to another cluster's centroid."""
    d2 = squared_distances(p.ds.points, p.centroids())
    rows = np.arange(p.n)
    own = d2[rows, p.labels]
    dmin = d2.min(axis=1)
    return not bool(np.any(own - dmin > ASSIGN_TIE_REL * (1.0 + dmin)))
