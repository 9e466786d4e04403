"""Lloyd iteration and incremental K-means sequences, the baseline to surpass.

There is one Lloyd loop, a kernel that runs a whole stack of center sets
together, each member bit for bit as if run alone. Once assigned, a run's
future depends on its labels alone, so the runs of a stack walk one graph
of label states: each distinct state is assigned once, and every member
steps along its own path through the graph. The check that no run's error
rises reads each state's error from its assignment. A growth step of
kmeans_sequence runs its candidate placements in waves of at most
core.WAVE_BUDGET members x rows x (d + 1) cells, one wave on small inputs.
A wave's first assignment comes from one matrix of distances to the kept
centroids and the wave's candidates; later distances and assignments go
at most core.STACK_BUDGET members x rows x clusters at a time. lloyd is a
stack of one. The wave has a bound of its own, since each wave pays the
fixed costs of every iteration again. The first run of lowest error wins,
by kh's step winner rule (core._step_winner). The means of every member
come from core.stacked_sums, the builder of the partitions' statistics;
the loop needs no sums of squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Dataset, InternalConsistencyError, Partition,
                   PartitionSequence, PartitionStack, PreconditionError,
                   _chunks, _integer_labels, _step_winner, _waves,
                   squared_distances, stacked_sums)

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


def _assign(d2: np.ndarray, current: np.ndarray | None):
    """Nearest-center labels (B, N) from the stacked d2 (B, N, m), and, when
    current labels (B, N) are given, each member's total error under them:
    the sum of its points' d2 to their current centers (else None)."""
    # argmin takes the lowest cluster index on exact ties
    best = d2.argmin(axis=-1)
    if current is None:
        return best, None
    flat = d2.reshape(-1)
    at = np.arange(0, flat.size, d2.shape[-1]).reshape(best.shape)
    dmin = flat[at + best]
    dcur = flat[at + current]
    keep = dcur - dmin <= ASSIGN_TIE_REL * (1.0 + dmin)
    return np.where(keep, current, best).astype(np.int64), dcur.sum(axis=-1)


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


def _row_keys(labels: np.ndarray, m: int) -> list[bytes]:
    """One bytes key per row of labels (B, N) in 0..m-1: the row in the
    smallest unsigned dtype that holds m - 1."""
    packed = labels.astype(np.min_scalar_type(m - 1), order="C")
    return packed.view(np.dtype((np.void, packed.shape[1] * packed.itemsize))).ravel().tolist()


def _first_equal_rows(labels: np.ndarray, m: int) -> np.ndarray:
    """For each row of labels (B, N) in 0..m-1, the index of the first row
    equal to it."""
    first: dict[bytes, int] = {}
    return np.array([first.setdefault(key, k) for k, key in enumerate(_row_keys(labels, m))])


def _check_error(e, prev_e) -> None:
    """Raise where a state's total error e exceeds its previous state's,
    prev_e, beyond a relative slack of 1e-9."""
    if (e > prev_e + 1e-9 * (1.0 + prev_e)).any():
        raise InternalConsistencyError("total error increased during iteration")


def _assign_stack(points: np.ndarray, centers: np.ndarray, current: np.ndarray | None):
    """_assign on the distances to a stack of center sets (B, m, d), taken
    core.STACK_BUDGET members x rows x clusters at a time."""
    n, m = points.shape[0], centers.shape[1]
    out = [_assign(squared_distances(points, centers[sel]),
                   None if current is None else current[sel])
           for sel in _chunks(centers.shape[0], n * m)]
    if len(out) == 1:
        return out[0]
    rows = np.concatenate([r for r, _ in out])
    return rows, None if current is None else np.concatenate([e for _, e in out])


def _grown(a: np.ndarray, size: int, fill) -> np.ndarray:
    """A copy of a with room for 2 size rows, the new ones set to fill."""
    out = np.full((2 * size,) + a.shape[1:], fill, dtype=a.dtype)
    out[:a.shape[0]] = a
    return out


def _lloyd_stack(points: np.ndarray, centers: np.ndarray, labels: np.ndarray | None,
                 first: np.ndarray | None = None):
    """Lloyd runs from a stack of B center sets (B, m, d), each member bit
    for bit as if run alone.

    labels (B, N) are the members' current labels, or None before the first
    assignment. first (B, N), when given, is the first assignment to the
    centers, made by the caller (_grow_one scores a wave's from one
    matrix); it counts as the first iteration. A member stops when its
    labels repeat, or after MAX_ITERS iterations; until then its total
    error must not increase. Distances and assignments go core.STACK_BUDGET
    members x rows x clusters at a time. Returns the final labels (B, N),
    each member's iteration count and whether it converged.

    Once assigned, a run's future depends on its labels after repair alone,
    so the runs walk one graph of label states. States 0..B-1 are the
    members' starts; every other state is a distinct repaired labeling
    that an assignment reached, kept in the smallest unsigned dtype that
    holds m - 1. (A stack of one makes no row keys: each of its rows is a
    new state.) Each state is assigned once, which gives its error (the sum
    of each point's d2 to its own center) and its successor, or that it
    kept its labels. Only the states the last round made, the frontier, are
    unassigned; their labels and means are kept apart. Every round assigns
    the frontier, then moves each member one state on (cur = succ[cur]), so
    its iteration count, convergence and cut-off at MAX_ITERS are those of
    its own path. No state may have more error than one that steps to it
    (a start's error counts as infinite): each such edge is checked in the
    round that makes it, and again in the next, once its end is assigned;
    these are the checks of every run alone. A frontier cut off at
    MAX_ITERS takes its errors from its means.
    At d = 1 an error has the bits of summing (x - c)^2 over the points; at
    d >= 2 it may differ in its last bits. It feeds no result, and the
    check keeps its 1e-9 relative slack.
    """
    n = points.shape[0]
    b, m, _ = centers.shape
    final = np.empty((b, n), dtype=np.int64)
    iterations = np.full(b, MAX_ITERS)
    converged = np.zeros(b, dtype=bool)
    room = 2 * b + 16  # rows of the state tables, doubled when full; the last holds no state
    lab = np.zeros((room, n), dtype=np.min_scalar_type(m - 1))  # each state's labels
    if labels is not None:
        lab[:b] = labels
    # each state's successor, or -1 where it kept its labels: err[-1] is -inf
    succ = np.empty(room, dtype=np.int64)
    err = np.full(room, -np.inf)  # each state's error, -inf (passes every check) until known
    err[:b] = np.inf  # a start's: its edges pass every check
    ids: dict = {}  # row key -> state
    size, checked = b, b  # states made; every edge from below checked is checked
    live = cur = front = np.arange(b)  # members, their states, the unassigned states
    flab, fmeans = labels, centers  # the labels and means of the unassigned states
    for it in range(1, MAX_ITERS + 1):
        if front.size:
            start, end = size - front.size, size  # the frontier: the states made last
            if it == 1 and first is not None:
                rows = first
            else:
                rows, e = _assign_stack(points, fmeans, flab)
                if it > 1:
                    err[start:end] = e
            if flab is not None:  # a state that keeps its labels ends its runs
                kept = (rows == flab).all(axis=1)
                if kept.any():
                    succ[front[kept]] = -1
                    front, rows = front[~kept], rows[~kept]
        if front.size:  # the frontier's successors
            # a stack of one makes no row keys: its states are keyed by their ids
            keys = _row_keys(rows, m) if b > 1 else range(size, size + len(rows))
            new: dict = {}  # each row key not seen before -> its first row
            made = []
            for k, key in enumerate(keys):
                if key not in ids:
                    new.setdefault(key, k)
            if new:
                flab = rows[list(new.values())]
                counts, fmeans = _means(points, flab, m)
                skeys = list(new)  # each new row's state key: that of its labels after repair
                for i in np.flatnonzero((counts == 0).any(axis=1)):
                    flab[i] = _repair_empty(points, flab[i], m)
                    fmeans[i] = _means(points, flab[i][None], m)[1][0]
                    if b > 1:
                        skeys[i] = _row_keys(flab[i][None], m)[0]
                for i, (key, skey) in enumerate(zip(new, skeys)):
                    ids[key] = ids.setdefault(skey, size + len(made))
                    if ids[key] == size + len(made):
                        made.append(i)
                if len(made) < len(new):
                    flab, fmeans = flab[made], fmeans[made]
            succ[front] = [ids[key] for key in keys]
            front = np.arange(size, size + len(made))
            if made:
                size += len(made)
                if size >= succ.shape[0]:
                    lab, succ, err = (_grown(lab, size, 0), _grown(succ, size, -1),
                                      _grown(err, size, -np.inf))
                lab[end:size] = flab
                if it == MAX_ITERS:  # cut off: no assignment reads these errors
                    own = np.take_along_axis(fmeans, flab[..., None], axis=1)
                    err[end:size] = ((points - own) ** 2).sum(axis=(1, 2))
        if checked < end:  # each edge once made, and again once its end is assigned
            _check_error(err[succ[checked:end]], err[checked:end])
            checked = start if size > end else end
        nxt = succ[cur]
        done = nxt < 0
        if done.any():
            final[live[done]] = lab[cur[done]]
            iterations[live[done]] = it
            converged[live[done]] = True
            live, nxt = live[~done], nxt[~done]
            if live.size == 0:
                break
        cur = nxt
    else:
        final[live] = lab[cur]
    return final, iterations, converged


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
        if not np.isfinite(centers).all():
            raise PreconditionError("init_centers must be finite")
        centers, labels = centers[None], None
    else:
        labels = _integer_labels(cfg.init_labels).reshape(-1)
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


def _first_labels(points: np.ndarray, kept: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """The first assignment (B, N) of the center sets kept + one row of
    cands (B, d), from one (N, m - 1 + B) matrix of squared distances.

    A point joins the new center, id m - 1, exactly when its distance to
    it is strictly below its kept minimum: the first minimum argmin takes
    on the member's own row, whose columns (core.squared_distances) have
    the bits of this matrix's.
    """
    d2 = squared_distances(points, np.concatenate((kept, cands)))
    m1 = kept.shape[0]
    near = d2[:, :m1].argmin(axis=1)
    return np.where(d2[:, m1:].T < d2[np.arange(points.shape[0]), near], m1, near)


def _grow_one(ds: Dataset, prev: Partition, rng_seed: int):
    """Best Lloyd run over all candidate placements of one extra center.

    The runs go as one stack, in waves of core.WAVE_BUDGET members x rows x
    (d + 1) cells (runs with equal label rows go once), each wave's first
    assignment from one matrix (_first_labels); the first run that attains
    the lowest error wins (core._step_winner), and only it becomes a
    Partition. Only the first of each distinct final label row gets
    statistics: equal rows have equal error bits, so the first minimum is
    always such a first row.
    """
    cands = _candidate_rows(ds, rng_seed)
    m = prev.m + 1
    kept = prev.centroids()
    base = np.broadcast_to(kept, (cands.shape[0], prev.m, ds.d))
    centers = np.concatenate((base, cands[:, None, :]), axis=1)
    best, iters = None, 0
    for sel in _waves(cands.shape[0], ds.n * (ds.d + 1)):
        labels, iterations, _ = _lloyd_stack(ds.points, centers[sel], None,
                                             _first_labels(ds.points, kept, cands[sel]))
        iters += int(iterations.sum())
        first = np.flatnonzero(_first_equal_rows(labels, m) == np.arange(labels.shape[0]))
        st = PartitionStack.from_labels(ds, labels[first], m)
        best = _step_winner(st, best=best)
    return best[1], iters


def kmeans_sequence(ds: Dataset, m_max: int, rng_seed: int = 0) -> PartitionSequence:
    """Incremental K-means solutions for every count 1..m_max.

    Each count grows the previous solution by one center, trying every
    distinct point as the new center and keeping the first Lloyd run that
    attains the lowest error; the runs of a count go together, as one
    stack in waves of core.WAVE_BUDGET members x rows x (d + 1) cells, and
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
    return bool((_assign(d2[None], p.labels[None])[0] == p.labels).all())
