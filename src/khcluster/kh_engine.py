"""Greatest-reduction subset reclassification, and merge/split sequence building.

A partition is stable when no admissible subset move lowers the total
squared error beyond the shared move tolerance. Every move has one donor
and one acceptor, so stability is pair stability. The one correction loop
repeatedly applies the single best move, and merge_step, split_step and
every route of build_sequence end in it. It ends by construction: a move
is made only when its change of E, recomputed from the statistics, lies
below -move_tolerance(E).

That loop is _correct_stack. Each of its passes finds the best move of
every member still moving in a stack of partitions (core.PartitionStack),
all of them in one call of the kernel, _best_moves, and applies them
together, so each member ends bit for bit as if corrected alone.
merge_step and split_step share one candidate loop, _corrected_winner;
each only labels its candidates and names its tie key. The loop stacks
the candidates in waves of at most core.WAVE_BUDGET cells, a candidate
counting the cells it adds to the wave's largest array, the kernel's
included; so the waves alone bound every pass's arrays. It corrects each
wave with one loop (a build_sequence step on tens of points is one
wave), and keeps the winner by the step winner rule of core._step_winner.
correct_pairs and correct_tuples are _correct_stack on one partition, a
stack of one whose moves are Partition.move calls, the latter with a mask
of the clusters of each tuple (it ends pair-stable too, and nothing in
the package calls it). Each pass recomputes d2 to every centroid
(core.squared_distances) and computes the size factors of the delta
(reclass.size_factors) on the shapes they depend on, not on every (row,
variant, acceptor) cell.

build_sequence's top_down route corrects its merges only near the counts
it records: while the partition has more than CORRECTED_SPAN x m_max
clusters it merges the pair of lowest raw Ward cost, uncorrected
(_ward_step; plain Ward agglomeration), and from that count down it runs
merge_step. merge_step and _ward_step read their pairs, raw costs and
relabel rows from one helper, _merges, which builds the rows only for
the pairs asked for: a wave's, or the Ward winner's.

Identical points have equal values, so equal bits (core.frozen_floats);
the audit, the kernel and the top_down start read one grouping of them,
made once per Dataset. A pass scores one row per occupied (member,
cluster, group) triple, which _pair_rows finds without a sort, by one
bincount over the key space members x clusters x groups. Every group
occupies some cluster of every member, so the key space is no larger than
the rows x clusters of deltas the pass scores, and the waves that bound
those bound it too. A group's sums of k points are computed once per
_correct_stack call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import reclass
from .baselines import _lloyd_stack, kmeans_sequence
from .core import (Dataset, Partition, PartitionSequence, PartitionStack,
                   PreconditionError, _step_winner, _waves,
                   sq_norms, squared_distances)

# Exact farthest-pair search is quadratic; larger clusters fall back to the
# deterministic two-hop approximation.
FARTHEST_PAIR_EXACT_LIMIT = 2048

# build_sequence's top_down route corrects its merges (merge_step) only
# from CORRECTED_SPAN x m_max clusters down; above that count, where no
# level is recorded, it merges by raw Ward cost alone (_ward_step).
CORRECTED_SPAN = 2


@dataclass(frozen=True)
class SubsetPolicy:
    """Which point subsets may move: single points, maximal groups of
    identical (equal-valued) points, or both."""

    mode: str = "both"

    def __post_init__(self):
        if self.mode not in ("singletons", "identical", "both"):
            raise PreconditionError(f"unknown subset policy {self.mode!r}")


SINGLETONS = SubsetPolicy("singletons")
IDENTICAL = SubsetPolicy("identical")
BOTH = SubsetPolicy("both")


@dataclass(frozen=True)
class MoveProposal:
    """A candidate subset move with its predicted error change."""

    donor: int
    acceptor: int
    subset: tuple[int, ...]
    predicted_delta: float


@dataclass
class StabilityReport:
    stable: bool
    violations: list[MoveProposal]
    checked_subsets: int


@dataclass
class CorrectionResult:
    partition: Partition
    n_moves: int


def verify_stability(p: Partition, policy: SubsetPolicy = BOTH) -> StabilityReport:
    """Exhaustively test every admissible move; pure, the partition is untouched.

    Candidates are single points and, unless the policy is singletons, the
    maximal groups of identical points of each cluster with k >= 2;
    under the identical policy a point moves alone only when no twin shares
    its cluster. A move into its own cluster, or one that would empty the
    donor, is not admissible. Violations are ranked on (delta, donor,
    acceptor, first index, subset size), and checked_subsets counts the
    (subset, acceptor) evaluations performed. This per-point scan shares
    only the delta formula with the correction kernel, _best_moves, and is
    the reference the kernel is tested against.
    """
    n, labels, counts = p.n, p.labels, p.counts
    lead = np.arange(n)
    k = np.ones(n, dtype=np.int64)
    gid = p.ds.identical_group_labels()
    key = labels * n + gid
    if policy.mode != "singletons" and gid.max() < n - 1:
        _, first, inv, size = np.unique(key, return_index=True,
                                        return_inverse=True, return_counts=True)
        if policy.mode == "identical":
            lead = lead[size[inv] == 1]
        multi = size >= 2
        k = np.concatenate((np.ones(lead.shape[0], dtype=np.int64), size[multi]))
        lead = np.concatenate((lead, first[multi]))

    donor = labels[lead]
    rows = np.arange(lead.shape[0])
    d2 = squared_distances(p.ds.points, p.centroids())[lead]
    delta = reclass.transfer_deltas(d2[rows, donor][:, None],
                                    d2, k[:, None], counts[donor][:, None], counts)
    delta[rows, donor] = np.inf

    rr, cc = np.nonzero(delta < -reclass.move_tolerance(p.total_e))
    order = np.lexsort((k[rr], lead[rr], cc, donor[rr], delta[rr, cc]))
    violations = [
        MoveProposal(int(donor[r]), int(a),
                     tuple(np.flatnonzero(key == key[lead[r]]).tolist()) if k[r] > 1
                     else (int(lead[r]),),
                     float(delta[r, a]))
        for r, a in zip(rr[order], cc[order])]
    return StabilityReport(not violations, violations, int(np.isfinite(delta).sum()))


def _group_rows(ds: Dataset):
    """Ids of the groups of identical points, one point per group, and
    those points' squared norms. The ids and first points are the
    Dataset's, computed once, so this only indexes."""
    rep = ds.unique_rows()
    return ds.identical_group_labels(), rep, (rep * rep).sum(axis=1)


def _pair_rows(labels: np.ndarray, m: int, groups):
    """The occupied (member, cluster, group) rows of the labelings
    labels (B, N) onto m clusters, found without a sort: exactly
    np.unique(key, return_index=True, return_counts=True) of the keys
    (member * m + label) * n_groups + group id.

    The keys lie below B * m * n_groups. One bincount over that space
    counts each key, its nonzero entries are the occupied keys in
    ascending order, and np.minimum.at of the flat indices gives each
    key's first one. groups is _group_rows of the dataset.
    """
    gid, rep, _ = groups
    n_groups = rep.shape[0]
    space = labels.shape[0] * m * n_groups
    key = ((np.arange(labels.shape[0])[:, None] * m + labels) * n_groups + gid).reshape(-1)
    size = np.bincount(key, minlength=space)
    pair = np.flatnonzero(size)
    first = np.full(space, key.size)
    np.minimum.at(first, key, np.arange(key.size))
    return pair, first[pair], size[pair]


def _best_moves(st: PartitionStack, active: np.ndarray, policy: SubsetPolicy,
                groups, group_sums: dict, allowed: np.ndarray | None = None):
    """The best admissible move of every member in active that beats
    -move_tolerance(E), all members scored at once.

    Returns (members, donor, acceptor, moved, sub_sum, sub_sq) for
    PartitionStack.move and each member's -move_tolerance(E), or None when
    no member has such a move. Moves are ranked on (delta, donor, acceptor,
    first index, subset size).
    A row per occupied (cluster, group) pair, led by its first point,
    carries the single-point move and, when the pair holds two or more
    points, the whole-group move: identical twins have equal bits, so in
    one cluster equal deltas, and the pair's first point stands for all.
    The rows come from _pair_rows, whose key space is no larger than the
    rows x clusters of deltas scored here. The size factors of the delta
    are computed on the shapes they depend on, a single point's on
    (members, clusters) and a group's on (rows, clusters) and rows, with
    the operations transfer_deltas applies to them. groups is
    _group_rows(st.ds); group_sums caches by (group, k) the coordinate sum
    and sum of |x|^2 of k points of a group, which any k identical rows
    give in the same bits; allowed, a mask over clusters, confines donors
    and acceptors.
    """
    if st.counts.shape[1] < 2:
        return None
    gid, rep, rep_sq = groups
    n_groups, n, m = rep.shape[0], st.labels.shape[1], st.counts.shape[1]
    pair, at, size = _pair_rows(st.labels[active], m, groups)
    mem, donor, g = pair // (m * n_groups), pair // n_groups % m, pair % n_groups
    lead = at % n
    rows = np.arange(pair.size)

    counts = st.counts[active]
    d2 = squared_distances(rep, st.sums[active] / counts[:, :, None])[mem, g]
    home_sq = d2[rows, donor]
    n1 = counts[mem, donor]
    variants = []  # (k, acceptor factor (rows, clusters), donor factor (rows,))
    if policy.mode != "identical" or size.max() == 1:
        away, home = reclass.size_factors(1, counts, counts)
        variants.append((np.ones_like(size), away[mem], home[mem, donor]))
    if policy.mode != "singletons" and size.max() > 1:
        away, home = reclass.size_factors(size[:, None], n1[:, None], counts[mem])
        variants.append((size, away, home[:, 0]))
    k = np.stack([v[0] for v in variants], axis=1)
    delta = np.empty((pair.size, k.shape[1], m))
    for v, (_, away, home) in enumerate(variants):
        np.multiply(d2, away, out=delta[:, v])
        delta[:, v] -= (home_sq * home)[:, None]
    delta[k >= n1[:, None]] = np.inf
    delta[rows, :, donor] = np.inf
    if k.shape[1] == 2:
        delta[size == 1, 1] = np.inf
    if allowed is not None:
        delta[~allowed[donor]] = np.inf
        delta[:, :, ~allowed] = np.inf

    starts = np.searchsorted(mem, np.arange(active.size))
    low = np.minimum.reduceat(delta.reshape(pair.size, -1).min(axis=1), starts)
    below = -reclass.move_tolerance(st.total_e[active])
    go = low < below
    if not go.any():
        return None
    target = np.where(go, low, np.nan)  # no delta equals nan
    r, s, c = np.nonzero(delta == target[mem][:, None, None])
    order = np.lexsort((k[r, s], lead[r], c, donor[r], mem[r]))
    best = order[np.searchsorted(mem[r[order]], np.flatnonzero(go))]  # first per member
    r, kk, acceptor = r[best], k[r[best], s[best]], c[best]
    members = active[mem[r]]

    moved = ((st.labels[members] == donor[r][:, None]) & (gid == g[r][:, None])
             & ((kk > 1)[:, None] | (np.arange(n) == lead[r][:, None])))
    sub_sum, sub_sq = rep[g[r]], rep_sq[g[r]]
    for i in np.flatnonzero(kk > 1):
        gk = (int(g[r[i]]), int(kk[i]))
        if gk not in group_sums:
            pts = st.ds.points[moved[i]]  # summed as Partition.move sums a subset
            group_sums[gk] = pts.sum(axis=0), (pts * pts).sum()
        sub_sum[i], sub_sq[i] = group_sums[gk]
    return (members, donor[r], acceptor, moved, sub_sum, sub_sq), below[mem[r]]


def _correct_stack(st: PartitionStack | Partition, policy: SubsetPolicy,
                   allowed: np.ndarray | None = None) -> np.ndarray:
    """Correct every member of st in place, each bit for bit as alone, and
    return each member's moves; a member drops out of the passes when it
    has no improving move. allowed, a mask over clusters, confines donors
    and acceptors. Each pass scores all the members still moving with one
    kernel call (_best_moves), then checks and applies their moves
    together; the stack's size bounds the pass's arrays (_corrected_winner
    sizes its waves by them).

    The loop ends by construction: a move is made only when its change of
    E, recomputed from the donor and acceptor energies as the move applies
    it, lies below -move_tolerance(E), so E falls by more than the
    tolerance with every move. A move predicted to improve that fails this
    (cancellation in the predicted delta) is refused, and its member drops
    out as if it had no improving move; verify_stability can still report
    such a member unstable.

    A Partition is scored as its stack of one and each of its moves is one
    Partition.move call, made only after the check passed, so the moves
    correct_pairs and correct_tuples report are the Partition.move calls
    the benchmark's tracer counts. Partition.move recomputes the checked
    statistics; a stack's move applies them as checked.
    """
    stack = st._stack if isinstance(st, Partition) else st
    groups, group_sums = _group_rows(stack.ds), {}
    moves = np.zeros(stack.labels.shape[0], dtype=np.int64)
    active = np.arange(moves.size)
    while (found := _best_moves(stack, active, policy, groups, group_sums,
                                allowed)) is not None:
        best, below = found
        members, donor, acceptor, moved, sub_sum, sub_sq = best
        stats = stack.moved_stats(members, donor, acceptor, moved.sum(axis=1),
                                  sub_sum, sub_sq)
        made = stats[-1] < below
        if not made.any():
            break
        if stack is not st:
            st.move(np.flatnonzero(moved[0]), int(donor[0]), int(acceptor[0]))
        elif made.all():
            stack.move(*best, stats=stats)
        else:
            stack.move(*(a[made] for a in best))
        active = members[made]
        moves[active] += 1
    return moves


def correct_pairs(p: Partition, policy: SubsetPolicy = BOTH) -> CorrectionResult:
    """Apply the globally best improving move until none remains.

    Each accepted move lowers E by more than the move tolerance, so the
    loop terminates; the result verifies stable under the same policy,
    unless a move predicted to improve was refused on its recomputed
    change (see _correct_stack).
    Ties break on the lowest (donor, acceptor, first index, subset).
    """
    q = p.copy()
    return CorrectionResult(q, int(_correct_stack(q, policy)[0]))


def correct_tuples(p: Partition, l: int, policy: SubsetPolicy = BOTH) -> CorrectionResult:
    """Locally minimize E inside every l-tuple of clusters.

    Tuples are taken in lexicographic order, and each is corrected in turn
    by repeated best single-subset moves between its own clusters; passes
    over all tuples repeat until one makes no move. For l = 2 the admissible
    move set coincides with correct_pairs.
    """
    if l < 2:
        raise PreconditionError("tuples need at least two clusters")
    q = p.copy()
    masks = []
    for t in itertools.combinations(range(q.m), l):
        allowed = np.zeros(q.m, dtype=bool)
        allowed[list(t)] = True
        masks.append(allowed)
    total_moves = 0
    while True:
        moves = sum(int(_correct_stack(q, policy, allowed)[0]) for allowed in masks)
        total_moves += moves
        if moves == 0:
            return CorrectionResult(q, total_moves)


def _corrected_winner(p: Partition, count: int, labelled, m: int,
                      policy: SubsetPolicy, tie: np.ndarray | None = None) -> Partition:
    """The candidate loop of merge_step and split_step. labelled(sel) gives
    the labels (members, N) onto m clusters of the candidates in the slice
    sel of range(count). They go as one stack, in waves of core.WAVE_BUDGET
    cells, each corrected by one loop. A candidate adds the larger of
    N x (d + 1) cells, the points a stack tiles for its statistics, and
    2 x rows x m, the two variants of the kernel's delta over the occupied
    (cluster, group) rows of p, which no candidate exceeds; the lowest
    (E, tie) wins (core._step_winner).
    """
    rows = _pair_rows(p.labels[None], p.m, _group_rows(p.ds))[0].size
    best = None
    for sel in _waves(count, max(p.ds.n * (p.ds.d + 1), 2 * rows * m)):
        st = PartitionStack.from_labels(p.ds, labelled(sel), m)
        _correct_stack(st, policy)
        best = _step_winner(st, None if tie is None else tie[sel], best)
    return best[1]


def _merges(p: Partition):
    """The merges of p's cluster pairs (a, b), a < b, in np.triu_indices
    order: their raw Ward costs (reclass.merge_deltas of the centroids),
    and relabel(sel), the label maps (pairs in the slice sel, m) of those
    merges, built only for the pairs asked for. In the merge of (a, b),
    cluster c becomes c, a, or c - 1 below, at, above b.
    """
    if p.m < 2:
        raise PreconditionError("merging needs at least two clusters")
    a, b = np.triu_indices(p.m, 1)
    cent = p.centroids()
    raw = reclass.merge_deltas(sq_norms(cent[a] - cent[b]), p.counts[a], p.counts[b])

    def relabel(sel: slice) -> np.ndarray:
        rows = np.arange(p.m) - (np.arange(p.m) > b[sel][:, None])
        rows[np.arange(rows.shape[0]), b[sel]] = a[sel]
        return rows

    return raw, relabel


def merge_step(p: Partition, policy: SubsetPolicy = BOTH) -> Partition:
    """Merge the pair whose post-correction error is lowest.

    Every pair is tentatively merged and corrected to pair stability; the
    candidate with minimal corrected E wins. Exact ties fall back to the
    smaller raw merge cost, then the lower pair of ids (_corrected_winner).
    The relabel rows are built a wave at a time (_merges).
    """
    raw, relabel = _merges(p)
    return _corrected_winner(p, raw.size, lambda sel: relabel(sel)[:, p.labels],
                             p.m - 1, policy, raw)


def _ward_step(p: Partition) -> Partition:
    """Merge the pair of lowest raw Ward cost, uncorrected, the lower pair
    of ids on an exact tie (the first minimum in _merges order), with the
    ids of merge_step; the result's statistics are computed fresh."""
    raw, relabel = _merges(p)
    i = int(np.argmin(raw))
    return Partition.from_labels(p.ds, relabel(slice(i, i + 1))[0][p.labels], p.m - 1)


def _farthest_pair(sub: np.ndarray) -> tuple[int, int]:
    k = sub.shape[0]
    if k <= FARTHEST_PAIR_EXACT_LIMIT:
        d2 = squared_distances(sub, sub)
        flat = int(np.argmax(d2))  # first maximum = lowest (i, j)
        return flat // k, flat % k
    center = sub.mean(axis=0)
    i = int(np.argmax(((sub - center) ** 2).sum(axis=1)))
    j = int(np.argmax(((sub - sub[i]) ** 2).sum(axis=1)))
    return (i, j) if i <= j else (j, i)


def _bisect_labels(sub: np.ndarray) -> np.ndarray:
    """0/1 labels of a two-means split seeded by the farthest pair: a Lloyd
    run of one member on rows of a Dataset's points."""
    i, j = _farthest_pair(sub)
    return _lloyd_stack(sub, sub[[i, j]][None], None)[0][0]


def split_step(p: Partition, policy: SubsetPolicy = BOTH) -> Partition:
    """Split the cluster whose bisection gives the lowest post-correction error.

    Clusters of identical points have zero internal error and are never
    candidates. The new cluster takes id m; ties keep the lowest donor id
    (_corrected_winner).
    """
    labels = []
    for c in range(p.m):
        idx = np.flatnonzero(p.labels == c)
        sub = p.ds.points[idx]
        if (sub == sub[0]).all():
            continue
        half = _bisect_labels(sub)
        lbl = p.labels.copy()
        lbl[idx[half == 1]] = p.m
        labels.append(lbl)
    if not labels:
        raise PreconditionError("no cluster with two distinct points to split")
    return _corrected_winner(p, len(labels), lambda sel: np.stack(labels[sel]),
                             p.m + 1, policy)


def build_sequence(ds: Dataset, m_max: int, policy: SubsetPolicy = BOTH,
                   kmeans: PartitionSequence | None = None) -> PartitionSequence:
    """Stable partitions for every count 1..m_max.

    Three routes run: bottom_up splits from the single cluster, top_down
    merges from the partition into groups of identical points (zero error),
    and kmeans stabilizes each incrementally seeded k-means partition with
    correct_pairs. top_down merges by raw Ward cost alone (_ward_step)
    while more than CORRECTED_SPAN x m_max clusters remain, and by
    merge_step from there, so every partition it records comes from a
    corrected step. The lowest error per count is kept, preferring the
    routes in that order on exact ties. The k-means route is what
    guarantees the sequence never ends above the k-means baseline; the
    greedy split/merge constructions alone can lose to incremental seeding
    on rare instances. split_step and merge_step already correct their
    candidates as correct_pairs would, so their partitions are recorded
    with 0 moves.
    info[m] holds the winning route under "direction" (the benchmark's
    tracer counts route wins from that key) and its "moves".
    kmeans is the k-means sequence of ds for counts 1..m_max that the kmeans
    route stabilizes, kmeans_sequence(ds, m_max) when not given; a caller
    that already has it passes it in.
    """
    v = ds.group_leads().size
    if not 1 <= m_max <= v:
        raise PreconditionError("m_max must lie between 1 and the distinct point count")
    if kmeans is None:
        kmeans = kmeans_sequence(ds, m_max)
    elif kmeans.cluster_counts() != list(range(1, m_max + 1)) or any(
            p.ds is not ds for p in kmeans.by_cluster_count.values()):
        raise PreconditionError("kmeans must be a sequence of ds for counts 1..m_max")

    found: dict[int, tuple[Partition, str, int]] = {}

    def record(m: int, part: Partition, tag: str, moves: int) -> None:
        cur = found.get(m)
        if cur is None or part.total_e < cur[0].total_e:
            found[m] = (part, tag, moves)

    part = Partition.from_labels(ds, np.zeros(ds.n, dtype=np.int64), 1)
    record(1, part, "bottom_up", 0)
    for _ in range(2, m_max + 1):
        part = split_step(part, policy)
        record(part.m, part, "bottom_up", 0)

    part = Partition.from_labels(ds, ds.identical_group_labels(), v)
    if v <= m_max:
        record(v, part, "top_down", 0)
    while part.m > CORRECTED_SPAN * m_max:
        part = _ward_step(part)
    while part.m > 1:
        part = merge_step(part, policy)
        if part.m <= m_max:
            record(part.m, part, "top_down", 0)

    for part in kmeans.by_cluster_count.values():
        r = correct_pairs(part, policy)
        record(part.m, r.partition, "kmeans", r.n_moves)

    seq = PartitionSequence()
    for m, (part, tag, moves) in sorted(found.items()):
        seq.by_cluster_count[m] = part
        seq.info[m] = {"direction": tag, "moves": moves}
    return seq
