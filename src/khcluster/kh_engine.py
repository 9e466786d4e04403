"""Greatest-reduction subset reclassification, and merge/split sequence building.

A partition is stable when no admissible subset move lowers the total
squared error beyond the shared move tolerance. Every move has one donor
and one acceptor, so stability is pair stability. The one correction loop
repeatedly applies the single best move, and merge_step, split_step and
every route of build_sequence end in it. It ends by construction: a move
is made only when its change of E, recomputed from the statistics, lies
below -move_tolerance(E).

That loop is _correct_stack, and each of its passes is one kernel,
_best_moves, which finds the best move of every member of a stack of
partitions (core.PartitionStack) at once, so each member ends bit for bit
as if corrected alone. merge_step stacks its merged candidates and
split_step its bisected ones, at most core.STACK_BUDGET members x rows x
clusters at a time; correct_pairs and correct_tuples are _correct_stack on
one partition, a stack of one whose moves are Partition.move calls, the
latter with a mask of the clusters of each tuple (it ends pair-stable
too, and nothing in the package calls it). Each pass recomputes d2 to
every centroid with one stacked matmul, since numpy computes a one-column
product as a matrix-vector product that rounds differently from the same
column of a wider one.

A pass scores one row per occupied (member, cluster, bit group) triple.
_pair_rows finds these rows without a sort, by one bincount over the key
space members x clusters x bit groups. Every group occupies some cluster
of every member, so the key space is no larger than the rows x clusters
of deltas the pass scores, and the chunks that bound those bound it too.
The bit groups and their first points are computed once per Dataset, and
the sums of k points of a group once per _correct_stack call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import reclass
from .baselines import KMeansConfig, kmeans_sequence, lloyd
from .core import (Dataset, Partition, PartitionSequence, PartitionStack,
                   PreconditionError, _chunks, sq_norms, squared_distances)

# Exact farthest-pair search is quadratic; larger clusters fall back to the
# deterministic two-hop approximation.
FARTHEST_PAIR_EXACT_LIMIT = 2048


@dataclass(frozen=True)
class SubsetPolicy:
    """Which point subsets may move: single points, maximal groups of
    bit-identical points, or both."""

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
    maximal groups of bit-identical points of each cluster with k >= 2;
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
    gid = p.ds.bit_group_ids()
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
    """Bit group ids, one point per group (at least two rows: a one-row
    product is a vector-matrix product, which rounds differently), and
    those points' squared norms. The ids and each group's first point are
    the Dataset's, computed once, so this only indexes."""
    first = ds.bit_group_leads()
    rep = ds.points[first] if first.size > 1 else ds.points[[0, 0]]
    return ds.bit_group_ids(), rep, (rep * rep).sum(axis=1)


def _pair_rows(labels: np.ndarray, m: int, groups):
    """The occupied (member, cluster, bit group) rows of the labelings
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
    -move_tolerance(E), scored all at once.

    Returns (members, donor, acceptor, moved, sub_sum, sub_sq) for
    PartitionStack.move and each member's -move_tolerance(E), or None when
    no member has such a move. Moves are ranked on (delta, donor,
    acceptor, first index, subset size). A row per occupied (cluster, bit
    group) pair, led by its first point, carries the single-point move
    and, when the pair holds two or more points, the whole-group move:
    bit-identical twins in one cluster have bit-identical deltas, so the
    pair's first point stands for all of them. The rows come from
    _pair_rows, whose key space is no larger than the rows x clusters of
    deltas scored here. groups is _group_rows(st.ds);
    group_sums caches by (group, k) the coordinate sum and sum of |x|^2
    of k points of a group, which any k bit-identical rows give in the
    same bits; allowed, a mask over clusters, confines donors and
    acceptors.
    """
    gid, rep, rep_sq = groups
    n_groups, n, m = rep.shape[0], st.labels.shape[1], st.counts.shape[1]
    if m < 2:
        return None
    pair, at, size = _pair_rows(st.labels[active], m, groups)
    mem, donor, g = pair // (m * n_groups), pair // n_groups % m, pair % n_groups
    lead = at % n
    rows = np.arange(pair.size)

    counts = st.counts[active]
    d2 = squared_distances(rep, st.sums[active] / counts[:, :, None])[mem, g]
    n2 = counts[mem]
    n1 = n2[rows, donor]
    if policy.mode == "singletons" or size.max() == 1:
        k = np.ones((pair.size, 1), dtype=np.int64)
    elif policy.mode == "identical":
        k = size[:, None]
    else:
        k = np.stack((np.ones_like(size), size), axis=1)
    delta = reclass.transfer_deltas(d2[rows, donor][:, None, None], d2[:, None, :],
                                    k[:, :, None], n1[:, None, None], n2[:, None, :])
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
    r, s, c = np.nonzero((delta == low[mem][:, None, None]) & go[mem][:, None, None])
    order = np.lexsort((k[r, s], lead[r], c, donor[r], mem[r]))
    owner = mem[r[order]]
    best = order[np.r_[True, owner[1:] != owner[:-1]]]  # first per member
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
    and acceptors.

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


def _occupied_pairs(p: Partition) -> int:
    """Rows the kernel scores for p: its occupied (cluster, bit group) pairs."""
    return int(_pair_rows(p.labels[None], p.m, _group_rows(p.ds))[0].size)


def merge_step(p: Partition, policy: SubsetPolicy = BOTH) -> Partition:
    """Merge the pair whose post-correction error is lowest.

    Every pair is tentatively merged and corrected to pair
    stability; the candidate with minimal corrected E wins. Exact ties fall
    back to the smaller raw merge cost, then the lower pair of ids.
    Candidates are built and corrected a chunk at a time, as one stack.
    """
    if p.m < 2:
        raise PreconditionError("merging needs at least two clusters")
    a, b = np.triu_indices(p.m, 1)
    cent = p.centroids()
    raw = reclass.merge_deltas(sq_norms(cent[a] - cent[b]), p.counts[a], p.counts[b])
    # cluster c of the pair (a, b) becomes c, a, or c - 1 below, at, above b
    relabel = np.arange(p.m) - (np.arange(p.m) > b[:, None])
    relabel[np.arange(a.size), b] = a
    best_key = best_part = None
    for sel in _chunks(a.size, _occupied_pairs(p) * (p.m - 1)):
        st = PartitionStack.from_labels(p.ds, relabel[sel][:, p.labels], p.m - 1)
        _correct_stack(st, policy)
        i = np.lexsort((raw[sel], st.total_e))[0]
        key = (st.total_e[i], raw[sel][i])
        if best_key is None or key < best_key:
            best_key, best_part = key, st.partition(i)
    return best_part


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
    """0/1 labels of a two-means split seeded by the farthest pair."""
    i, j = _farthest_pair(sub)
    seeds = sub[[i, j]]
    res = lloyd(Dataset(sub), KMeansConfig(m=2, init_centers=seeds))
    return res.partition.labels


def split_step(p: Partition, policy: SubsetPolicy = BOTH) -> Partition:
    """Split the cluster whose bisection gives the lowest post-correction error.

    Clusters of identical points have zero internal error and are never
    candidates. The new cluster takes id m; ties keep the lowest donor id.
    The bisected candidates are corrected together, as one stack.
    """
    labels = []
    for c in range(p.m):
        idx = np.flatnonzero(p.labels == c)
        sub = p.ds.points[idx]
        if np.unique(sub, axis=0).shape[0] < 2:
            continue
        half = _bisect_labels(sub)
        lbl = p.labels.copy()
        lbl[idx[half == 1]] = p.m
        labels.append(lbl)
    if not labels:
        raise PreconditionError("no cluster with two distinct points to split")
    best_key = best_part = None
    for sel in _chunks(len(labels), _occupied_pairs(p) * (p.m + 1)):
        st = PartitionStack.from_labels(p.ds, np.stack(labels[sel]), p.m + 1)
        _correct_stack(st, policy)
        i = int(np.argmin(st.total_e))  # first minimum = lowest donor id
        if best_key is None or st.total_e[i] < best_key:
            best_key, best_part = st.total_e[i], st.partition(i)
    return best_part


def build_sequence(ds: Dataset, m_max: int, policy: SubsetPolicy = BOTH,
                   kmeans: PartitionSequence | None = None) -> PartitionSequence:
    """Stable partitions for every count 1..m_max.

    Three routes run: bottom_up splits from the single cluster, top_down
    merges from the partition into groups of identical points (zero error),
    and kmeans stabilizes each incrementally seeded k-means partition with
    correct_pairs. The lowest error per count is kept, preferring the
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
    groups = ds.identical_group_labels()
    v = int(groups.max()) + 1
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

    part = Partition.from_labels(ds, groups, v)
    if v <= m_max:
        record(v, part, "top_down", 0)
    for _ in range(v - 1, 0, -1):
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
