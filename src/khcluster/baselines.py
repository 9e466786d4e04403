"""Lloyd iteration and incremental K-means sequences, the baseline to surpass.

There is one Lloyd loop, a kernel that runs a whole stack of center sets
together, each member bit for bit as if run alone. Once assigned, a run's
future depends on its label row alone, so a member that reaches a row
another run of the stack reached, at the same iteration or an earlier
one, follows that run: each distinct trajectory runs once. The check
that no run's error rises reads each state's error from the next
assignment. A growth step of kmeans_sequence runs its candidate
placements in waves of at most core.WAVE_BUDGET members x rows x (d + 1)
cells, one wave on small inputs. A wave's first assignment comes from one
matrix of distances to the kept centroids and the wave's candidates; later
distances and assignments go at most core.STACK_BUDGET members x rows x
clusters at a time. lloyd is a stack of one. The wave has a bound of its
own, since each wave pays the fixed costs of every iteration again. The
first run of lowest error wins, by kh's step winner rule
(core._step_winner). The means of every member come from
core.stacked_sums, the builder of the partitions' statistics; the loop
needs no sums of squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Dataset, InternalConsistencyError, Partition,
                   PartitionSequence, PartitionStack, PreconditionError,
                   _chunks, _step_winner, _waves, squared_distances,
                   stacked_sums)

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
    if np.any(e > prev_e + 1e-9 * (1.0 + prev_e)):
        raise InternalConsistencyError("total error increased during iteration")


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

    Once assigned, a run's future (repair, means, next assignment, stop)
    depends on its assigned label row alone. So a member whose new row
    equals one that a run of the stack reached, at this iteration or an
    earlier one, stops and follows that run: it takes the run's final
    labels and convergence, and the run's iteration count plus the shift
    between the two visits. Where that passes MAX_ITERS it ends there,
    unconverged, in the state the run had MAX_ITERS - shift iterations in.
    Each live row makes one key per iteration, its labels in the smallest
    unsigned dtype that holds m - 1, kept by run and iteration; a stack of
    one makes none. Members that meet at the same iteration follow the
    first of them, which takes their smallest previous error, so its error
    check fails exactly when one of theirs would. A run never follows
    itself or a run that follows it: a cycle runs on.

    A state's error is read from the next assignment (_assign's sum of
    each point's d2 to its current center), so the check fires one
    assignment after the state is made, and the last state of a run cut
    off at MAX_ITERS is checked after the loop. A member that follows a
    run checks the error of the run's state against its own previous one,
    the comparison it would have made itself. At d = 1 the sum has the bits
    of summing (x - c)^2 over the points; at d >= 2 each point's d2 is
    summed over its coordinates first, so the checked number may differ in
    its last bits. It feeds no result, and the check keeps its 1e-9
    relative slack.
    """
    n = points.shape[0]
    b, m, _ = centers.shape
    final = np.empty((b, n), dtype=np.int64)
    iterations = np.full(b, MAX_ITERS)
    converged = np.zeros(b, dtype=bool)
    live = np.arange(b)
    prev_e = np.full(b, np.inf)  # the error of each live member's last checked state
    seen: dict[bytes, tuple[int, int]] = {}  # key -> (run, iteration) of its first visit
    keys: list[list[bytes]] = [[] for _ in range(b)]  # each run's keys, by iteration
    errs: list[list[float]] = [[] for _ in range(b)]  # its states' errors, by iteration
    follows: dict[int, tuple[int, int, int]] = {}  # member -> (run, iteration, shift)
    for it in range(1, MAX_ITERS + 1):
        if it == 1 and first is not None:
            new, e = first, None
        else:
            out = [_assign(squared_distances(points, centers[sel]),
                           None if labels is None else labels[sel])
                   for sel in _chunks(live.size, n * m)]
            new = np.concatenate([lab for lab, _ in out])
            e = None if labels is None or it == 1 else np.concatenate([s for _, s in out])
        if e is not None:  # the errors of the states of iteration it - 1
            _check_error(e, prev_e)
            prev_e = e
            if b > 1:
                for r, x in zip(live.tolist(), e.tolist()):
                    errs[r].append(x)
        if labels is not None:
            done = (new == labels).all(axis=1)
            if done.any():
                final[live[done]] = labels[done]
                iterations[live[done]] = it
                converged[live[done]] = True
                live, new, prev_e = live[~done], new[~done], prev_e[~done]
                if live.size == 0:
                    break
        if b > 1:
            stay = np.ones(live.size, dtype=bool)
            here, joined, joined_e = {}, [], []
            for k, (r, key) in enumerate(zip(live.tolist(), _row_keys(new, m))):
                here[r] = k
                keys[r].append(key)
                run, at = seen.setdefault(key, (r, it))
                lead = run
                while lead in follows:
                    lead = follows[lead][0]
                if lead == r:  # a new row, or a cycle
                    continue
                if at == it:
                    j = here[run]
                    prev_e[j] = min(prev_e[j], prev_e[k])
                else:
                    joined.append(k)
                    joined_e.append(errs[run][at - 1])
                follows[r] = (run, it, it - at)
                stay[k] = False
            if joined:
                _check_error(np.array(joined_e), prev_e[joined])
            if not stay.all():
                live, new, prev_e = live[stay], new[stay], prev_e[stay]
                if live.size == 0:
                    break
        labels = new
        counts, centers = _means(points, labels, m)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            labels[i] = _repair_empty(points, labels[i], m)
            centers[i] = _means(points, labels[i][None], m)[1][0]
    else:
        final[live] = labels
        own = centers.reshape(live.size * m, -1)[labels + m * np.arange(live.size)[:, None]]
        _check_error(((points - own) ** 2).reshape(live.size, -1).sum(axis=1), prev_e)
    for r, (run, _, shift) in follows.items():
        while run in follows:
            shift += follows[run][2]
            run = follows[run][0]
        if iterations[run] + shift <= MAX_ITERS:
            final[r] = final[run]
            iterations[r] = iterations[run] + shift
            converged[r] = converged[run]
            continue
        at, lead = MAX_ITERS, r  # cut off: the state its leaders had at MAX_ITERS - shift
        while lead in follows and at >= follows[lead][1]:
            at -= follows[lead][2]
            lead = follows[lead][0]
        row = np.frombuffer(keys[lead][at - 1], dtype=np.min_scalar_type(m - 1))
        final[r] = _repair_empty(points, row.astype(np.int64), m)
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
    for sel in _waves(cands.shape[0], ds):
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
