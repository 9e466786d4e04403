"""Lloyd iteration, incremental K-means sequences, and the fixed-point predicate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_bits, labeled_energy, random_dataset, random_labels
from khcluster import baselines, core, otsu1d
from khcluster.baselines import (KMeansConfig, is_lloyd_fixed_point,
                                 kmeans_sequence, lloyd)
from khcluster.core import (Dataset, InternalConsistencyError, Partition,
                            PreconditionError, coordinate_sums, squared_distances)


def two_vals_dataset():
    # 0 and 6 sit with each other; one hundred points at 10
    return Dataset(np.array([0.0, 6.0] + [10.0] * 100))


def test_lloyd_fixed_point_at_e_eighteen():
    """From centers {3, 10} Lloyd settles at E = 18 and stays there."""
    ds = two_vals_dataset()
    res = lloyd(ds, KMeansConfig(m=2, init_centers=np.array([[3.0], [10.0]])))
    assert res.converged
    assert res.partition.total_e == pytest.approx(18.0)
    assert res.partition.labels[0] == res.partition.labels[1]
    assert is_lloyd_fixed_point(res.partition)


def test_lloyd_two_blobs():
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.normal(0, 0.3, (20, 2)), rng.normal(8, 0.3, (20, 2))])
    ds = Dataset(pts)
    res = lloyd(ds, KMeansConfig(m=2, init_centers=np.array([[0.0, 0.0], [8.0, 8.0]])))
    assert res.converged
    lab = res.partition.labels
    assert len(set(lab[:20].tolist())) == 1
    assert len(set(lab[20:].tolist())) == 1
    assert lab[0] != lab[-1]
    assert res.partition.total_e == pytest.approx(labeled_energy(pts, lab), rel=1e-9)


def test_lloyd_from_labels_never_worse_than_start():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 40, 2)
    lab = random_labels(rng, 40, 4)
    start_e = labeled_energy(ds.points, lab)
    res = lloyd(ds, KMeansConfig(m=4, init_labels=lab))
    assert res.partition.total_e <= start_e + 1e-9 * (1 + start_e)


def test_lloyd_repairs_empty_clusters():
    ds = Dataset([0.0, 1.0, 2.0])
    res = lloyd(ds, KMeansConfig(m=2, init_centers=np.array([[0.5], [50.0]])))
    assert (np.bincount(res.partition.labels, minlength=2) > 0).all()
    assert res.partition.total_e == pytest.approx(0.5)


def test_lloyd_validation():
    ds = Dataset([0.0, 1.0])
    with pytest.raises(PreconditionError):
        lloyd(ds, KMeansConfig(m=3, init_labels=[0, 1]))
    with pytest.raises(PreconditionError):
        lloyd(ds, KMeansConfig(m=2, init_centers=np.zeros((3, 1))))
    with pytest.raises(PreconditionError):
        lloyd(ds, KMeansConfig(m=2, init_labels=[0, 5]))
    with pytest.raises(PreconditionError):
        KMeansConfig(m=0)


def test_candidate_subsample_above_the_limit(monkeypatch):
    """Above SUBSAMPLE_ABOVE distinct points the candidate centers are a
    sorted SUBSAMPLE_SIZE-row subset of unique_rows(), fixed by rng_seed."""
    monkeypatch.setattr(baselines, "SUBSAMPLE_ABOVE", 8)
    monkeypatch.setattr(baselines, "SUBSAMPLE_SIZE", 5)
    rng = np.random.default_rng(4)
    ds = Dataset(np.round(rng.normal(0.0, 2.0, (40, 2)), 2))
    uniq = ds.unique_rows()
    cands = baselines._candidate_rows(ds, 7)
    assert cands.shape == (5, 2)
    pos = [int(np.flatnonzero((uniq == c).all(axis=1))[0]) for c in cands]
    assert pos == sorted(set(pos))
    assert np.array_equal(baselines._candidate_rows(ds, 7), cands)
    a, b = kmeans_sequence(ds, 4, rng_seed=7), kmeans_sequence(ds, 4, rng_seed=7)
    for m in a.cluster_counts():
        assert np.array_equal(a.by_cluster_count[m].labels, b.by_cluster_count[m].labels)
        assert a.energy(m) == b.energy(m)


def test_kmeans_sequence_rejects_a_negative_seed(monkeypatch):
    """A negative seed is refused whether or not the candidates are
    subsampled, that is, whether or not the seed would be used."""
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    with pytest.raises(PreconditionError):
        kmeans_sequence(ds, 2, rng_seed=-1)
    monkeypatch.setattr(baselines, "SUBSAMPLE_ABOVE", 2)
    monkeypatch.setattr(baselines, "SUBSAMPLE_SIZE", 2)
    with pytest.raises(PreconditionError):
        kmeans_sequence(ds, 2, rng_seed=-1)
    assert kmeans_sequence(ds, 2, rng_seed=0).cluster_counts() == [1, 2]


def test_config_seeding_priority():
    """init_centers wins over init_labels: from these labels alone Lloyd
    keeps the clusters numbered the other way round."""
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    labels = [1, 1, 0, 0]
    assert lloyd(ds, KMeansConfig(m=2, init_labels=labels)).partition.labels.tolist() == labels
    both = KMeansConfig(m=2, init_centers=[[0.0], [10.0]], init_labels=labels)
    assert lloyd(ds, both).partition.labels.tolist() == [0, 0, 1, 1]
    with pytest.raises(PreconditionError):
        KMeansConfig(m=2)  # kmeans_sequence is the incremental grower


def test_incremental_seed_four_points():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    part = kmeans_sequence(ds, 2).by_cluster_count[2]
    assert part.total_e == pytest.approx(1.0)
    assert part.labels[0] == part.labels[1]
    assert part.labels[2] == part.labels[3]


def test_kmeans_sequence_energies():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    seq = kmeans_sequence(ds, 4)
    assert seq.cluster_counts() == [1, 2, 3, 4]
    assert seq.energy(1) == pytest.approx(82.0)
    assert seq.energy(2) == pytest.approx(1.0)
    assert seq.energy(3) == pytest.approx(0.5)
    assert seq.energy(4) == pytest.approx(0.0)
    assert seq.info[2]["iterations"] >= 1


def test_kmeans_sequence_monotone():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 25, 3)
    seq = kmeans_sequence(ds, 6)
    es = [seq.energy(m) for m in seq.cluster_counts()]
    assert all(a >= b - 1e-9 * (1 + abs(a)) for a, b in zip(es, es[1:]))


def test_fixed_point_predicate_detects_misassignment():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    from khcluster.core import Partition
    good = Partition.from_labels(ds, [0, 0, 1, 1])
    assert is_lloyd_fixed_point(good)
    # point 1 sits closer to the {0, 9} centroid than to {1, 10}'s
    crossed = Partition.from_labels(ds, [0, 1, 0, 1])
    assert not is_lloyd_fixed_point(crossed)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_converged_lloyd_is_fixed_point(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    ds = random_dataset(rng, n, int(rng.integers(1, 4)))
    m = int(rng.integers(2, min(n, 6) + 1))
    res = lloyd(ds, KMeansConfig(m=m, init_labels=random_labels(rng, n, m)))
    if res.converged:
        assert is_lloyd_fixed_point(res.partition)
    res.partition.check_consistency()


def test_fixed_point_predicate_is_one_assignment_step_on_ties():
    """is_lloyd_fixed_point is True exactly when one _ref_assign step keeps
    every label, on Lloyd results with points planted on the bisector of
    two centroids: exactly on it, 1e-14 relative to either side (inside
    ASSIGN_TIE_REL), and 1e-3 past it."""
    rng = np.random.default_rng(52)
    seen = {"kept on a tie": 0, "kept inside the tolerance": 0, "moved": 0}
    for _ in range(300):
        n, d, m = int(rng.integers(6, 30)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
        ds = random_dataset(rng, n, d)
        base = lloyd(ds, KMeansConfig(m=m, init_labels=random_labels(rng, n, m))).partition
        cent = base.centroids()
        pts, labels = [ds.points], [base.labels]
        for _ in range(int(rng.integers(1, 4))):
            a, b = rng.choice(m, 2, replace=False)
            axis = cent[b] - cent[a]
            side = rng.normal(0.0, 1.0, d)
            side -= axis * (side @ axis) / (axis @ axis)  # along the bisector
            t = rng.choice([0.0, 1e-14, -1e-14, 1e-3])
            x = (cent[a] + cent[b]) / 2 + side + t * axis
            pts.append(np.stack((x, 2 * cent[a] - x)))  # a's centroid stays
            labels.append(np.array([a, a]))
        p = Partition.from_labels(Dataset(np.concatenate(pts)), np.concatenate(labels), m)
        d2 = squared_distances(p.ds.points, p.centroids())
        keep = np.array_equal(_ref_assign(d2, p.labels), p.labels)
        assert is_lloyd_fixed_point(p) == keep
        own, dmin = d2[np.arange(p.n), p.labels], d2.min(axis=1)
        if not keep:
            seen["moved"] += 1
        elif (own > dmin).any():
            seen["kept inside the tolerance"] += 1
        elif ((d2 == dmin[:, None]).sum(axis=1) > 1).any():
            seen["kept on a tie"] += 1
    assert min(seen.values()) >= 5, seen


# The Lloyd loop as it ran before the candidates of a growth step were
# stacked: one run per candidate, each ending in its own Partition. The
# stacked kernel must reproduce it bit for bit.

def _ref_means(points, labels, m):
    counts = np.bincount(labels, minlength=m).astype(np.float64)
    out = coordinate_sums(points, labels, m)
    np.divide(out, counts[:, None], out=out, where=counts[:, None] > 0)
    return out


def _ref_assign(d2, current):
    best = d2.argmin(axis=1)
    if current is None:
        return best
    rows = np.arange(d2.shape[0])
    dmin = d2[rows, best]
    dcur = d2[rows, current]
    keep = dcur - dmin <= baselines.ASSIGN_TIE_REL * (1.0 + dmin)
    return np.where(keep, current, best).astype(np.int64)


def _ref_repair_empty(points, labels, m):
    labels = labels.copy()
    counts = np.bincount(labels, minlength=m)
    while (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        centers = _ref_means(points, labels, m)
        centers[counts == 0] = 0.0
        own = ((points - centers[labels]) ** 2).sum(axis=1)
        own[counts[labels] < 2] = -np.inf
        pick = int(np.argmax(own))
        counts[labels[pick]] -= 1
        labels[pick] = empty
        counts[empty] += 1
    return labels


def _ref_lloyd(ds, m, centers=None, labels=None):
    points = ds.points
    if labels is not None:
        labels = _ref_repair_empty(points, labels, m)
        centers = _ref_means(points, labels, m)
    converged = False
    prev_e = np.inf
    it = 0
    for it in range(1, baselines.MAX_ITERS + 1):
        new_labels = _ref_assign(squared_distances(points, centers), labels)
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = _ref_repair_empty(points, new_labels, m)
        centers = _ref_means(points, labels, m)
        e = float(((points - centers[labels]) ** 2).sum())
        assert e <= prev_e + 1e-9 * (1.0 + prev_e)
        prev_e = e
    return Partition.from_labels(ds, labels, m), it, converged


def _ref_kmeans_sequence(ds, m_max, rng_seed=0):
    parts = {1: Partition.from_labels(ds, np.zeros(ds.n, dtype=np.int64), 1)}
    iters = {1: 0}
    for m in range(2, m_max + 1):
        base = parts[m - 1].centroids()
        best, total = None, 0
        for row in baselines._candidate_rows(ds, rng_seed):
            part, it, _ = _ref_lloyd(ds, m, centers=np.vstack([base, row]))
            total += it
            if best is None or part.total_e < best.total_e:
                best = part
        parts[m], iters[m] = best, total
    return parts, iters


def _kmeans_reference_sets(rng):
    """Datasets in d = 1, 2, 3 with duplicates and signed zeros, and one
    whose centroid is a data point, so that the candidate placed there ties
    with the centroid, captures no point and must be repaired."""
    for d in (1, 2, 3):
        for kind in ("distinct", "duplicates", "grid"):
            n = int(rng.integers(12, 30))
            pts = np.round(rng.normal(0.0, 3.0, (n, d)), 3)
            if kind == "duplicates":
                pts = np.round(pts, 0)[rng.integers(0, 7, n)]
            elif kind == "grid":
                pts = rng.integers(-2, 3, (n, d)).astype(np.float64)
            pts[rng.random((n, d)) < 0.1] = 0.0
            pts[rng.random((n, d)) < 0.1] = -0.0
            yield Dataset(pts)
    yield Dataset([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 7.0, -7.0])


@pytest.mark.parametrize("max_iters, budget, wave, subsample", [
    pytest.param(None, None, None, False, id="None-None-False"),
    pytest.param(1, None, None, False, id="1-None-False"),
    pytest.param(2, None, None, False, id="2-None-False"),
    pytest.param(None, 1, 1, False, id="None-1-False"),
    pytest.param(None, 700, 200, False, id="None-700-False"),
    pytest.param(None, None, None, True, id="None-None-True"),
    pytest.param(None, None, 1, False, id="wave-1"),
    pytest.param(None, 1, None, False, id="budget-1-whole-wave"),
    pytest.param(None, None, 200, False, id="wave-200")])
def test_stacked_lloyd_matches_one_candidate_at_a_time(monkeypatch, max_iters,
                                                       budget, wave, subsample):
    """kmeans_sequence and lloyd reproduce the per-candidate Lloyd loop bit
    for bit: labels, statistics, total_e bits, iteration counts and
    convergence. Also for runs cut off after one or two iterations (members
    that never converge), one member per chunk (budget 1), one member per
    wave (wave 1), partial last chunks (budget 700) and waves (wave 200), a
    whole growth step in one wave (the default wave bound), and subsampled
    candidates."""
    if max_iters is not None:
        monkeypatch.setattr(baselines, "MAX_ITERS", max_iters)
    if budget is not None:
        monkeypatch.setattr(core, "STACK_BUDGET", budget)
    if wave is not None:
        monkeypatch.setattr(baselines, "WAVE_BUDGET", wave)
    if subsample:
        monkeypatch.setattr(baselines, "SUBSAMPLE_ABOVE", 8)
        monkeypatch.setattr(baselines, "SUBSAMPLE_SIZE", 6)
    repairs = []
    repair = baselines._repair_empty

    def counted(points, labels, m):
        repairs.append(m)
        return repair(points, labels, m)

    monkeypatch.setattr(baselines, "_repair_empty", counted)
    rng = np.random.default_rng(909)
    partial = whole = unconverged = 0
    for ds in _kmeans_reference_sets(rng):
        m_max = min(5, ds.unique_rows().shape[0])
        seq = kmeans_sequence(ds, m_max, rng_seed=3)
        parts, iters = _ref_kmeans_sequence(ds, m_max, rng_seed=3)
        for m in range(1, m_max + 1):
            assert_same_bits(seq.by_cluster_count[m], parts[m])
            assert seq.info[m]["iterations"] == iters[m]
            cands = baselines._candidate_rows(ds, 3).shape[0]
            per_wave = max(1, baselines.WAVE_BUDGET // (ds.n * (ds.d + 1)))
            partial += m > 1 and cands > per_wave and cands % per_wave > 0
            whole += m > 1 and cands <= per_wave
        for m in range(2, m_max + 1):
            start = random_labels(rng, ds.n, m)
            centers = ds.points[rng.choice(ds.n, m, replace=False)]
            for cfg, ref in ((KMeansConfig(m=m, init_labels=start),
                              _ref_lloyd(ds, m, labels=start)),
                             (KMeansConfig(m=m, init_centers=centers),
                              _ref_lloyd(ds, m, centers=centers))):
                res = lloyd(ds, cfg)
                assert_same_bits(res.partition, ref[0])
                assert (res.iterations, res.converged) == ref[1:]
                unconverged += not res.converged
    assert repairs
    assert partial > 0 or wave != 200
    assert whole > 0 or wave is not None
    assert unconverged > 0 or max_iters is None


@pytest.mark.parametrize("budget, wave", [(None, None), (7, 1), (100, 90), (1, 1000)])
def test_chunks_waves_and_dp_blocks_keep_their_bounds(monkeypatch, budget, wave):
    """Every stack of distances the Lloyd kernel computes holds at most
    core.STACK_BUDGET members x rows x clusters (or one member), every
    block of the Otsu DP at most core.STACK_BUDGET (end, start) cells (or
    one end), and every wave of Lloyd runs at most WAVE_BUDGET members x
    rows x (d + 1) (or one member). So do the points a wave tiles for its
    means and statistics, which have the shape of each point's own center
    too. With the default bounds a growth step of 200 points in 1-D runs
    in one wave, and one of 100 points in 32-D in two."""
    if budget is not None:
        monkeypatch.setattr(core, "STACK_BUDGET", budget)
    if wave is not None:
        monkeypatch.setattr(baselines, "WAVE_BUDGET", wave)
    chunks, waves, blocks, tiled = [], [], [], []
    distances, lloyd_stack = baselines.squared_distances, baselines._lloyd_stack
    interval_error = otsu1d.Histogram.interval_error
    sums = core.stacked_sums

    def recorded_distances(x, centers):
        chunks.append((centers.shape[0], x.shape[0], centers.shape[1]))
        return distances(x, centers)

    def recorded_stack(points, centers, labels):
        out = lloyd_stack(points, centers, labels)
        waves.append(out[0].shape + (points.shape[1],))
        return out

    def recorded_block(self, lo, hi):
        shape = np.broadcast_shapes(np.shape(lo), np.shape(hi))
        if len(shape) == 2:  # row 1 is one vector: one start, every end
            blocks.append(shape)
        return interval_error(self, lo, hi)

    def recorded_sums(points, labels, m):
        tiled.append((labels.shape[0], points.shape[0], points.shape[1]))
        return sums(points, labels, m)

    monkeypatch.setattr(baselines, "squared_distances", recorded_distances)
    monkeypatch.setattr(baselines, "_lloyd_stack", recorded_stack)
    monkeypatch.setattr(otsu1d.Histogram, "interval_error", recorded_block)
    monkeypatch.setattr(baselines, "stacked_sums", recorded_sums)
    monkeypatch.setattr(core, "stacked_sums", recorded_sums)
    rng = np.random.default_rng(41)
    x = np.round(rng.normal(0.0, 20.0, 200), 3)
    ds = Dataset(x)
    assert ds.unique_rows().shape[0] == 200
    kmeans_sequence(ds, 6)
    otsu1d.curve(otsu1d.build_histogram(x), 6)
    assert chunks and waves and blocks and tiled
    assert all(b * n * m <= core.STACK_BUDGET or b == 1 for b, n, m in chunks)
    assert all(b * n * (d + 1) <= baselines.WAVE_BUDGET or b == 1 for b, n, d in waves)
    assert all(e * s <= core.STACK_BUDGET or e == 1 for e, s in blocks)
    assert max(b for b, _, _ in chunks) > 1 or core.STACK_BUDGET < 2 * 200 * 2
    assert max(e for e, _ in blocks) > 1 or core.STACK_BUDGET < 2 * 200
    if wave is None:
        assert len(waves) == 5 and all(b == 200 for b, _, _ in waves)

    waves.clear()
    tiled.clear()
    wide = Dataset(rng.normal(0.0, 1.0, (100, 32)))
    kmeans_sequence(wide, 2)
    assert waves and tiled
    assert all(b * n * (d + 1) <= baselines.WAVE_BUDGET or b == 1 for b, n, d in waves)
    assert all(b * n * c <= baselines.WAVE_BUDGET or b == 1 for b, n, c in tiled)
    assert max(c for _, _, c in tiled) == 33  # the statistics' tiled points
    if wave is None:
        assert [b for b, _, _ in waves] == [79, 21]


def test_a_member_whose_error_rises_raises(monkeypatch):
    """The monotone-error check is kept per member: scrambling the second
    assignment of one member of a stack of candidates raises, though every
    other member iterates normally. The second assignment sees one member
    per distinct first labeling, since equal label rows run once."""
    assign = baselines._assign
    calls = []

    def perturbed(d2, current):
        out = assign(d2, current)
        calls.append(out.shape[0])
        if len(calls) == 2:
            out[1] = np.arange(out.shape[1]) % d2.shape[-1]
        return out

    ds = Dataset(np.repeat([0.0, 10.0, 20.0], 5) + np.tile(np.arange(5) * 0.1, 3))
    cands = ds.unique_rows()
    base = kmeans_sequence(ds, 1).by_cluster_count[1].centroids()
    centers = np.stack([np.vstack((base, row)) for row in cands])
    first = squared_distances(ds.points, centers).argmin(axis=-1)
    distinct = len({row.tobytes() for row in first})
    assert 1 < distinct < cands.shape[0] == 15
    kmeans_sequence(ds, 3)
    monkeypatch.setattr(baselines, "_assign", perturbed)
    with pytest.raises(InternalConsistencyError):
        kmeans_sequence(ds, 3)
    assert calls == [15, distinct]


@pytest.mark.parametrize("max_iters", [None, 1, 2])
def test_equal_label_rows_run_once(monkeypatch, max_iters):
    """Members whose label rows agree run once: on mostly distinct 1-D
    points the kernel assigns fewer members than the runs' summed
    iterations, yet every member matches its run alone in labels, total_e
    bits, iteration count and convergence, also when runs are cut off
    after one or two iterations; a growth step builds statistics only for
    pairwise distinct final label rows."""
    if max_iters is not None:
        monkeypatch.setattr(baselines, "MAX_ITERS", max_iters)
    assign = baselines._assign
    assigned = []

    def counted(d2, current):
        assigned.append(d2.shape[0])
        return assign(d2, current)

    monkeypatch.setattr(baselines, "_assign", counted)
    stacked = []

    class Recorded(core.PartitionStack):
        @classmethod
        def from_labels(cls, ds, labels, m):
            stacked.append(labels)
            return core.PartitionStack.from_labels(ds, labels, m)

    monkeypatch.setattr(baselines, "PartitionStack", Recorded)
    ds = Dataset(np.round(np.random.default_rng(12).normal(0.0, 5.0, 60), 2))
    cands = ds.unique_rows()
    assert 50 < cands.shape[0] < 60
    seq = kmeans_sequence(ds, 5)
    assert len(stacked) == 4
    assert all(len({row.tobytes() for row in lab}) == lab.shape[0] for lab in stacked)
    parts, iters = _ref_kmeans_sequence(ds, 5)
    for m in range(1, 6):
        assert_same_bits(seq.by_cluster_count[m], parts[m])
        assert seq.info[m]["iterations"] == iters[m]
    assert sum(assigned) < sum(iters.values()) or max_iters == 1
    for m in range(2, 6):
        base = np.broadcast_to(parts[m - 1].centroids(), (cands.shape[0], m - 1, 1))
        centers = np.concatenate((base, cands[:, None, :]), axis=1)
        labels, iterations, converged = baselines._lloyd_stack(ds.points, centers, None)
        for k in range(cands.shape[0]):
            part, it, conv = _ref_lloyd(ds, m, centers=centers[k])
            assert np.array_equal(labels[k], part.labels)
            assert (iterations[k], converged[k]) == (it, conv)
