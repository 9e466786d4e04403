"""Greatest-reduction subset reclassification, and merge/split sequence building.

A partition is stable when no admissible subset move lowers the total
squared error beyond the shared move tolerance. Every move has one donor
and one acceptor, so stability is pair stability, and correct_pairs, which
repeatedly applies the single best move, is the one correction loop:
merge_step, split_step and every route of build_sequence end in it.
correct_tuples localizes the same search inside small groups of clusters;
it ends pair-stable too, and nothing in the package calls it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import reclass
from .baselines import KMeansConfig, kmeans_sequence, lloyd
from .core import (Dataset, Partition, PartitionSequence, PreconditionError,
                   squared_distances)

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


@dataclass
class _MoveScan:
    """Every admissible move of one partition version.

    One row per movable subset: lead is its first point, k its size, donor
    its cluster; key is the (cluster, bit group) key of every point, or None
    when no groups were formed. delta holds the rows x m error changes,
    +inf where the move is not admissible.
    """

    lead: np.ndarray
    k: np.ndarray
    key: np.ndarray | None
    donor: np.ndarray
    delta: np.ndarray

    def subset(self, r) -> tuple[int, ...]:
        if self.k[r] == 1:
            return (int(self.lead[r]),)
        return tuple(np.flatnonzero(self.key == self.key[self.lead[r]]).tolist())

    def ranked(self, rr, cc):
        """Rows and acceptors sorted on (delta, donor, acceptor, first index, subset)."""
        order = np.lexsort((self.k[rr], self.lead[rr], cc, self.donor[rr],
                            self.delta[rr, cc]))
        return rr[order], cc[order]


def _scan_moves(part: Partition, policy: SubsetPolicy,
                clusters: np.ndarray | None = None) -> _MoveScan:
    """Evaluate the admissible moves between the given clusters (all when None).

    Candidates are single points and, unless the policy is singletons, the
    maximal groups of bit-identical points of each cluster with k >= 2;
    under the identical policy a point moves alone only when no twin shares
    its cluster. A move into its own cluster, or one that would empty the
    donor, is not admissible.
    """
    n, m, labels, counts = part.n, part.m, part.labels, part.counts
    lead = np.arange(n)
    k = np.ones(n, dtype=np.int64)
    key = None
    gid = part.ds.bit_group_ids()
    if policy.mode != "singletons" and gid.max() < n - 1:
        key = labels * n + gid
        _, first, inv, size = np.unique(key, return_index=True,
                                        return_inverse=True, return_counts=True)
        if policy.mode == "identical":
            lead = lead[size[inv] == 1]
        multi = size >= 2
        k = np.concatenate((np.ones(lead.shape[0], dtype=np.int64), size[multi]))
        lead = np.concatenate((lead, first[multi]))

    donor = labels[lead]
    rows = np.arange(lead.shape[0])
    d2 = squared_distances(part.ds.points, part.centroids())[lead]
    delta = reclass.transfer_deltas(d2[rows, donor][:, None],
                                    d2, k[:, None], counts[donor][:, None], counts)
    delta[rows, donor] = np.inf
    if clusters is not None:
        out = np.ones(m, dtype=bool)
        out[clusters] = False
        delta[out[donor]] = np.inf
        delta[:, out] = np.inf
    return _MoveScan(lead, k, key, donor, delta)


def _best_admissible(part: Partition, policy: SubsetPolicy,
                     clusters: np.ndarray | None = None) -> MoveProposal | None:
    """The lexicographically first most-negative move, if it beats the tolerance."""
    tau = reclass.move_tolerance(part.total_e)
    scan = _scan_moves(part, policy, clusters)
    low = scan.delta.min()
    if not low < -tau:
        return None
    rr, cc = scan.ranked(*np.nonzero(scan.delta == low))
    r, a = rr[0], cc[0]
    return MoveProposal(int(scan.donor[r]), int(a), scan.subset(r), float(low))


def verify_stability(p: Partition, policy: SubsetPolicy = BOTH) -> StabilityReport:
    """Exhaustively test every admissible move; pure, the partition is untouched.

    checked_subsets counts the (subset, acceptor) evaluations performed.
    """
    tau = reclass.move_tolerance(p.total_e)
    scan = _scan_moves(p, policy)
    violations = [MoveProposal(int(scan.donor[r]), int(a), scan.subset(r),
                               float(scan.delta[r, a]))
                  for r, a in zip(*scan.ranked(*np.nonzero(scan.delta < -tau)))]
    return StabilityReport(not violations, violations,
                           int(np.isfinite(scan.delta).sum()))


def correct_pairs(p: Partition, policy: SubsetPolicy = BOTH) -> CorrectionResult:
    """Apply the globally best improving move until none remains.

    Each accepted move lowers E by more than the move tolerance, so the
    loop terminates; the result verifies stable under the same policy.
    Ties break on the lowest (donor, acceptor, first index, subset).
    """
    if p.m < 2:
        return CorrectionResult(p.copy(), 0)
    q = p.copy()
    moves = 0
    while True:
        prop = _best_admissible(q, policy)
        if prop is None:
            break
        q.move(np.asarray(prop.subset), prop.donor, prop.acceptor)
        moves += 1
    return CorrectionResult(q, moves)


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
    tuples = [np.asarray(t) for t in itertools.combinations(range(q.m), l)]
    total_moves = 0
    while True:
        moves = 0
        for sel in tuples:
            while (prop := _best_admissible(q, policy, clusters=sel)) is not None:
                q.move(np.asarray(prop.subset), prop.donor, prop.acceptor)
                moves += 1
        total_moves += moves
        if moves == 0:
            return CorrectionResult(q, total_moves)


def _merged_partition(p: Partition, a: int, b: int) -> Partition:
    lbl = p.labels.copy()
    lbl[lbl == b] = a
    lbl[lbl > b] -= 1
    return Partition.from_labels(p.ds, lbl, p.m - 1)


def merge_step(p: Partition, policy: SubsetPolicy = BOTH) -> Partition:
    """Merge the pair whose post-correction error is lowest.

    Every pair is tentatively merged and corrected to pair
    stability; the candidate with minimal corrected E wins. Exact ties fall
    back to the smaller raw merge cost, then the lower pair of ids.
    """
    if p.m < 2:
        raise PreconditionError("merging needs at least two clusters")
    best_key = None
    best_part = None
    for a in range(p.m - 1):
        for b in range(a + 1, p.m):
            raw = reclass.delta_e_merge(p.cluster_stats(a), p.cluster_stats(b))
            res = correct_pairs(_merged_partition(p, a, b), policy)
            key = (res.partition.total_e, raw, a, b)
            if best_key is None or key < best_key:
                best_key = key
                best_part = res.partition
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
    """
    best_key = None
    best_part = None
    for c in range(p.m):
        idx = np.flatnonzero(p.labels == c)
        sub = p.ds.points[idx]
        if np.unique(sub, axis=0).shape[0] < 2:
            continue
        half = _bisect_labels(sub)
        lbl = p.labels.copy()
        lbl[idx[half == 1]] = p.m
        res = correct_pairs(Partition.from_labels(p.ds, lbl, p.m + 1), policy)
        key = (res.partition.total_e, c)
        if best_key is None or key < best_key:
            best_key = key
            best_part = res.partition
    if best_part is None:
        raise PreconditionError("no cluster with two distinct points to split")
    return best_part


def build_sequence(ds: Dataset, m_max: int,
                   policy: SubsetPolicy = BOTH) -> PartitionSequence:
    """Stable partitions for every count 1..m_max.

    Three routes run: bottom_up splits from the single cluster, top_down
    merges from the partition into groups of identical points (zero error),
    and kmeans stabilizes each incrementally seeded k-means partition with
    correct_pairs. The lowest error per count is kept, preferring the
    routes in that order on exact ties. The k-means route is what
    guarantees the sequence never ends above the k-means baseline; the
    greedy split/merge constructions alone can lose to incremental seeding
    on rare instances. split_step and merge_step already end in
    correct_pairs, so their partitions are recorded with 0 moves.
    info[m] holds the winning route under "direction" (the benchmark's
    tracer counts route wins from that key), its "E" and its "moves".
    """
    groups = ds.identical_group_labels()
    v = int(groups.max()) + 1
    if not 1 <= m_max <= v:
        raise PreconditionError("m_max must lie between 1 and the distinct point count")

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

    for part in kmeans_sequence(ds, m_max).by_cluster_count.values():
        r = correct_pairs(part, policy)
        record(part.m, r.partition, "kmeans", r.n_moves)

    seq = PartitionSequence(method="kh")
    for m, (part, tag, moves) in sorted(found.items()):
        seq.by_cluster_count[m] = part
        seq.info[m] = {"direction": tag, "E": part.total_e, "moves": moves}
    return seq
