"""Lloyd iteration and incremental K-means sequences, the baseline to surpass.

There is one Lloyd loop, a kernel that runs a whole stack of center sets
together, each member bit for bit as if run alone. Members whose label
rows are equal after an assignment have the same future, so each distinct
trajectory runs once. A growth step of kmeans_sequence runs its candidate
placements in waves of at most WAVE_BUDGET members x rows x (d + 1)
cells, one wave on small inputs, with distances and assignments at most
core.STACK_BUDGET members x rows x clusters at a time; lloyd is a stack
of one. The wave has a bound of its own, since each wave pays the fixed
costs of every iteration again. The means of every member come from
core.stacked_sums, the builder of the partitions' statistics; the loop
needs no sums of squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Dataset, InternalConsistencyError, Partition,
                   PartitionSequence, PartitionStack, PreconditionError,
                   _chunks, squared_distances, stacked_sums)

# Relative tolerance for assignment ties; a point keeps its current cluster
# when the best alternative is not closer than this.
ASSIGN_TIE_REL = 1e-12

# Candidate centers are subsampled above this many points.
SUBSAMPLE_ABOVE = 2000
SUBSAMPLE_SIZE = 512

# Lloyd stops after this many iterations even when not yet converged.
MAX_ITERS = 200

# Cells in the largest arrays of one wave of the Lloyd runs of a growth
# step: members x rows x (d + 1), the tiled points and |x|^2 of
# PartitionStack.from_labels; the tiled points of the means and each
# point's own center are members x rows x d. A wave holds several such
# arrays of at most 2 MiB each, whatever d; every candidate of 200 points
# in 1-D goes in one wave.
WAVE_BUDGET = 262144


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


@dataclass
class LloydResult:
    partition: Partition
    iterations: int
    converged: bool


def _means(points: np.ndarray, labels: np.ndarray, m: int):
    """Counts (B, m) and means (B, m, d) of B labelings (B, N) of the points,
    from core.stacked_sums. Empty clusters keep a zero mean; callers repair
    them before use.
    """
    counts, sums = stacked_sums(points, labels, m)
    np.divide(sums, counts[..., None], out=sums, where=counts[..., None] > 0)
    return counts, sums


def _assign(d2: np.ndarray, current: np.ndarray | None) -> np.ndarray:
    """Nearest-center labels (B, N) from the stacked d2 (B, N, m)."""
    # argmin takes the lowest cluster index on exact ties
    best = d2.argmin(axis=-1)
    if current is None:
        return best
    flat = d2.reshape(-1)
    at = np.arange(0, flat.size, d2.shape[-1]).reshape(best.shape)
    dmin = flat[at + best]
    dcur = flat[at + current]
    keep = dcur - dmin <= ASSIGN_TIE_REL * (1.0 + dmin)
    return np.where(keep, current, best).astype(np.int64)


def _repair_empty(points: np.ndarray, labels: np.ndarray, m: int) -> np.ndarray:
    """Seize the globally farthest point into each empty cluster."""
    labels = labels.copy()
    counts = np.bincount(labels, minlength=m)
    while (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        centers = _means(points, labels[None], m)[1][0]
        centers[counts == 0] = 0.0  # placeholder rows, never the argmax target
        own = ((points - centers[labels]) ** 2).sum(axis=1)
        own[counts[labels] < 2] = -np.inf  # donors must keep at least one point
        pick = int(np.argmax(own))  # lowest index wins ties
        if not np.isfinite(own[pick]):
            raise PreconditionError("cannot repair empty cluster: too few points")
        counts[labels[pick]] -= 1
        labels[pick] = empty
        counts[empty] += 1
    return labels


def _first_equal_rows(rows: np.ndarray) -> np.ndarray:
    """For each row of rows (B, N), the index of the first row equal to it."""
    first: dict[bytes, int] = {}
    return np.array([first.setdefault(row.tobytes(), k) for k, row in enumerate(rows)])


def _lloyd_stack(points: np.ndarray, centers: np.ndarray, labels: np.ndarray | None):
    """Lloyd runs from a stack of B center sets (B, m, d), each member bit
    for bit as if run alone.

    labels (B, N) are the members' current labels, or None before the first
    assignment. A member stops when its labels repeat, or after MAX_ITERS
    iterations; until then its total error must not increase. Distances and
    assignments go core.STACK_BUDGET members x rows x clusters at a time.
    Returns the final labels (B, N), each member's iteration count and
    whether it converged.

    Once assigned, a member's future (means, repair, next assignment, stop)
    depends on its labels alone, so live members with equal label rows run
    once, as the first of them; the others take its final labels, iteration
    count and convergence. The first takes the group's smallest previous
    error, and the error bound grows with it, so the check fails for it
    exactly when it would fail for some member of the group.
    """
    n = points.shape[0]
    b, m, _ = centers.shape
    final = np.empty((b, n), dtype=np.int64)
    iterations = np.full(b, MAX_ITERS)
    converged = np.zeros(b, dtype=bool)
    runs_as = np.arange(b)  # the member whose run each member's run repeats
    live = np.arange(b)
    prev_e = np.full(b, np.inf)
    for it in range(1, MAX_ITERS + 1):
        new = np.concatenate([_assign(squared_distances(points, centers[sel]),
                                      None if labels is None else labels[sel])
                              for sel in _chunks(live.size, n * m)])
        if labels is not None:
            done = (new == labels).all(axis=1)
            if done.any():
                final[live[done]] = labels[done]
                iterations[live[done]] = it
                converged[live[done]] = True
                live, new, prev_e = live[~done], new[~done], prev_e[~done]
                if live.size == 0:
                    break
        if live.size > 1:
            rep = _first_equal_rows(new)
            fold = rep != np.arange(live.size)
            if fold.any():
                np.minimum.at(prev_e, rep[fold], prev_e[fold])
                runs_as[live[fold]] = live[rep[fold]]
                runs_as = runs_as[runs_as]  # who repeated a folded member repeats its first
                live, new, prev_e = live[~fold], new[~fold], prev_e[~fold]
        labels = new
        counts, centers = _means(points, labels, m)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            labels[i] = _repair_empty(points, labels[i], m)
            centers[i] = _means(points, labels[i][None], m)[1][0]
        own = centers.reshape(live.size * m, -1)[labels + m * np.arange(live.size)[:, None]]
        e = ((points - own) ** 2).reshape(live.size, -1).sum(axis=1)
        if (e > prev_e + 1e-9 * (1.0 + prev_e)).any():
            raise InternalConsistencyError("total error increased during iteration")
        prev_e = e
    else:
        final[live] = labels
    return final[runs_as], iterations[runs_as], converged[runs_as]


def lloyd(ds: Dataset, cfg: KMeansConfig) -> LloydResult:
    """Alternate nearest-centroid assignment and mean updates to a fixed point.

    Ties keep the current assignment, empty clusters seize the farthest
    point, so the total error never increases between iterations. The run
    is the stacked kernel of kmeans_sequence on a stack of one.
    """
    if cfg.m > ds.n:
        raise PreconditionError("more clusters than points")
    points = ds.points
    if cfg.init_centers is not None:
        centers = np.atleast_2d(np.asarray(cfg.init_centers, dtype=np.float64))
        if centers.shape != (cfg.m, ds.d):
            raise PreconditionError("init_centers must have shape (m, d)")
        centers, labels = centers[None], None
    else:
        labels = np.asarray(cfg.init_labels, dtype=np.int64).reshape(-1)
        if labels.shape[0] != ds.n or labels.min() < 0 or labels.max() >= cfg.m:
            raise PreconditionError("init_labels must map every point to 0..m-1")
        labels = _repair_empty(points, labels, cfg.m)[None]
        centers = _means(points, labels, cfg.m)[1]

    labels, iterations, converged = _lloyd_stack(points, centers, labels)
    part = Partition.from_labels(ds, labels[0], cfg.m)
    return LloydResult(part, int(iterations[0]), bool(converged[0]))


def _candidate_rows(ds: Dataset, rng_seed: int) -> np.ndarray:
    cands = ds.unique_rows()
    if cands.shape[0] > SUBSAMPLE_ABOVE:
        rng = np.random.default_rng(rng_seed)
        pick = rng.choice(cands.shape[0], size=SUBSAMPLE_SIZE, replace=False)
        cands = cands[np.sort(pick)]
    return cands


def _grow_one(ds: Dataset, prev: Partition, rng_seed: int):
    """Best Lloyd run over all candidate placements of one extra center.

    The runs go as one stack, in waves of WAVE_BUDGET members x rows x
    (d + 1) cells (runs with equal label rows go once); the first run
    that attains the lowest error wins, and only it becomes a Partition.
    Only the first of each distinct final label row gets statistics:
    equal rows have equal error bits, so the first minimum is always such
    a first row.
    """
    cands = _candidate_rows(ds, rng_seed)
    m = prev.m + 1
    base = np.broadcast_to(prev.centroids(), (cands.shape[0], prev.m, ds.d))
    centers = np.concatenate((base, cands[:, None, :]), axis=1)
    best_e = best = None
    iters = 0
    for sel in _chunks(cands.shape[0], ds.n * (ds.d + 1), WAVE_BUDGET):
        labels, iterations, _ = _lloyd_stack(ds.points, centers[sel], None)
        iters += int(iterations.sum())
        first = np.flatnonzero(_first_equal_rows(labels) == np.arange(labels.shape[0]))
        st = PartitionStack.from_labels(ds, labels[first], m)
        i = int(np.argmin(st.total_e))  # first minimum = first candidate
        if best is None or st.total_e[i] < best_e:
            best_e, best = st.total_e[i], st.partition(i)
    return best, iters


def kmeans_sequence(ds: Dataset, m_max: int, rng_seed: int = 0) -> PartitionSequence:
    """Incremental K-means solutions for every count 1..m_max.

    Each count grows the previous solution by one center, trying every
    distinct point as the new center and keeping the first Lloyd run that
    attains the lowest error; the runs of a count go together, as one
    stack in waves of WAVE_BUDGET members x rows x (d + 1) cells, and
    runs whose labels become equal go on as one. info[m]["iterations"]
    sums the iterations of every run, as if each ran alone. Above
    SUBSAMPLE_ABOVE distinct points the candidates are a subsample of
    SUBSAMPLE_SIZE rows seeded by rng_seed, which must be nonnegative.
    """
    if not 1 <= m_max <= ds.n:
        raise PreconditionError("need 1 <= m_max <= N")
    if rng_seed < 0:
        raise PreconditionError("the seed must be nonnegative")
    seq = PartitionSequence()
    part = Partition.from_labels(ds, np.zeros(ds.n, dtype=np.int64), 1)
    seq.by_cluster_count[1] = part
    seq.info[1] = {"iterations": 0}
    for m in range(2, m_max + 1):
        part, iters = _grow_one(ds, part, rng_seed)
        seq.by_cluster_count[m] = part
        seq.info[m] = {"iterations": iters}
    return seq


def is_lloyd_fixed_point(p: Partition) -> bool:
    """True iff one Lloyd assignment, with its tie rule, keeps every label."""
    d2 = squared_distances(p.ds.points, p.centroids())
    return bool((_assign(d2[None], p.labels[None]) == p.labels).all())
