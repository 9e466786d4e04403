"""Lloyd iteration, incremental K-means sequences, and the fixed-point predicate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_bits, labeled_energy, random_dataset, random_labels
from khcluster import baselines, core, kh_engine, otsu1d
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


@pytest.mark.parametrize("seeding", [
    pytest.param({"init_labels": [0.7, 1.2, 1.9, 0.0]}, id="fractional-labels"),
    pytest.param({"init_labels": [0.0, 1.0, np.nan, 0.0]}, id="nan-label"),
    pytest.param({"init_centers": [[np.nan], [5.0]]}, id="nan-center"),
    pytest.param({"init_centers": [[0.0], [np.inf]]}, id="inf-center")])
def test_lloyd_rejects_seeds_that_are_not_integers_or_finite(seeding):
    """Lloyd refuses init_labels that are not integers (the fractional ones
    ran as [0, 1, 1, 0]) and init_centers that are not finite, as
    precondition errors."""
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    with pytest.raises(PreconditionError):
        lloyd(ds, KMeansConfig(m=2, **seeding))


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
    pytest.param(3, None, None, False, id="3-None-False"),
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
        monkeypatch.setattr(core, "WAVE_BUDGET", wave)
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
            per_wave = max(1, core.WAVE_BUDGET // (ds.n * (ds.d + 1)))
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
    one end), and every wave of Lloyd runs at most core.WAVE_BUDGET members x
    rows x (d + 1) (or one member). So do the points a wave tiles for its
    means and statistics, which have the shape of each point's own center
    too, and the stacks of kh's merge and split steps, whose correction
    passes compute distances at most core.WAVE_BUDGET / 2 members x groups
    x clusters (or one member), half a wave for the two variants of the
    delta. A wave's first-assignment matrix holds the rows x kept centroids
    and at most core.WAVE_BUDGET / (d + 1) cells of candidates (or one
    candidate). With the default bounds a growth step of 200 points in 1-D
    runs in one wave, one of 100 points in 32-D in two, and a merge step of
    24 singletons in 2-D in two."""
    if budget is not None:
        monkeypatch.setattr(core, "STACK_BUDGET", budget)
    if wave is not None:
        monkeypatch.setattr(core, "WAVE_BUDGET", wave)
    chunks, waves, blocks, tiled, firsts = [], [], [], [], []
    distances, lloyd_stack = baselines.squared_distances, baselines._lloyd_stack
    first_labels = baselines._first_labels
    interval_error = otsu1d.Histogram.interval_error
    sums = core.stacked_sums

    def recorded_distances(x, centers):
        if centers.ndim == 3:  # a stack; two dimensions are a first assignment
            chunks.append((centers.shape[0], x.shape[0], centers.shape[1]))
        return distances(x, centers)

    def recorded_stack(points, centers, labels, first=None):
        out = lloyd_stack(points, centers, labels, first)
        waves.append(out[0].shape + (points.shape[1],))
        return out

    def recorded_first(points, kept, cands):
        firsts.append((points.shape[0], kept.shape[0], cands.shape[0], points.shape[1]))
        return first_labels(points, kept, cands)

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
    monkeypatch.setattr(baselines, "_first_labels", recorded_first)
    monkeypatch.setattr(otsu1d.Histogram, "interval_error", recorded_block)
    monkeypatch.setattr(baselines, "stacked_sums", recorded_sums)
    monkeypatch.setattr(core, "stacked_sums", recorded_sums)
    rng = np.random.default_rng(41)
    x = np.round(rng.normal(0.0, 20.0, 200), 3)
    ds = Dataset(x)
    assert ds.unique_rows().shape[0] == 200
    kmeans_sequence(ds, 6)
    otsu1d.curve(otsu1d.build_histogram(x), 6)
    assert chunks and waves and blocks and tiled and firsts
    assert all(b * n * m <= core.STACK_BUDGET or b == 1 for b, n, m in chunks)
    assert all(b * n * (d + 1) <= core.WAVE_BUDGET or b == 1 for b, n, d in waves)
    assert all(n * (k + b) <= n * k + core.WAVE_BUDGET / (d + 1) or b == 1
               for n, k, b, d in firsts)
    assert len(firsts) == len(waves)
    assert all(e * s <= core.STACK_BUDGET or e == 1 for e, s in blocks)
    assert max(b for b, _, _ in chunks) > 1 or core.STACK_BUDGET < 2 * 200 * 2
    assert max(e for e, _ in blocks) > 1 or core.STACK_BUDGET < 2 * 200
    if wave is None:
        assert len(waves) == 5 and all(b == 200 for b, _, _ in waves)

    waves.clear()
    tiled.clear()
    firsts.clear()
    wide = Dataset(rng.normal(0.0, 1.0, (100, 32)))
    kmeans_sequence(wide, 2)
    assert waves and tiled and firsts
    assert all(b * n * (d + 1) <= core.WAVE_BUDGET or b == 1 for b, n, d in waves)
    assert all(n * (k + b) <= n * k + core.WAVE_BUDGET / (d + 1) or b == 1
               for n, k, b, d in firsts)
    assert all(b * n * c <= core.WAVE_BUDGET or b == 1 for b, n, c in tiled)
    assert max(c for _, _, c in tiled) == 33  # the statistics' tiled points
    if wave is None:
        assert [b for b, _, _ in waves] == [79, 21]

    tiled.clear()  # the stacks of kh's merge and split steps, and their chunks
    distances = kh_engine.squared_distances
    kh_chunks = []

    def recorded_kh_distances(x, centers):
        if centers.ndim == 3:
            kh_chunks.append((centers.shape[0], x.shape[0], centers.shape[1]))
        return distances(x, centers)

    monkeypatch.setattr(kh_engine, "squared_distances", recorded_kh_distances)
    blobs = Dataset(np.round(rng.normal(0.0, 1.0, (24, 2))
                             + np.repeat([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]], 8, axis=0), 2))
    kh_engine.build_sequence(blobs, 4)
    singletons = Partition.from_labels(blobs, np.arange(24))
    start = len(tiled)
    kh_engine.merge_step(singletons)
    assert tiled and kh_chunks
    assert all(b * n * c <= core.WAVE_BUDGET or b == 1 for b, n, c in tiled)
    assert all(b * n * m <= core.WAVE_BUDGET / 2 or b == 1 for b, n, m in kh_chunks)
    assert max(b for b, _, _ in tiled) > 1 or core.WAVE_BUDGET < 2 * 24 * 3
    if wave is None:  # the singletons' merge step, 2 x 24 x 23 cells a candidate
        assert [b for b, _, _ in tiled[start:]] == [237, 24 * 23 // 2 - 237]


def test_a_member_whose_error_rises_raises(monkeypatch):
    """The monotone-error check is kept per member: scrambling the second
    assignment of one member of a stack of candidates raises, though every
    other member iterates normally. The first assignment of a growth step
    comes from one matrix (_first_labels), and equal label rows are one
    state, so the first _assign call assigns one state per distinct first
    labeling; the scrambled row it returns becomes a new state. A state's
    error is read from its own assignment, so the edge into the scrambled
    state is checked once the second call has assigned it, and that call
    assigns it alone: every other state of the first call kept its labels
    or has as succ a state already in the graph."""
    assign = baselines._assign
    calls = []

    def perturbed(d2, current):
        out, e = assign(d2, current)
        calls.append(out.shape[0])
        if len(calls) == 1:
            out[1] = np.arange(out.shape[1]) % d2.shape[-1]
        return out, e

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
    assert calls == [distinct, 1]


@pytest.mark.parametrize("max_iters", [None, 1, 2, 3])
def test_equal_label_rows_run_once(monkeypatch, max_iters):
    """Members whose label rows agree run once: on mostly distinct 1-D
    points the kernel assigns fewer members than the runs' summed
    iterations, yet every member matches its run alone in labels, total_e
    bits, iteration count and convergence, also when runs are cut off
    after one, two or three iterations; a growth step builds statistics
    only for pairwise distinct final label rows."""
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


def _states_after(monkeypatch, ds, m, centers, its):
    """The partitions of the run alone from centers after each of the
    iterations its, each a run cut off there."""
    default, rows = baselines.MAX_ITERS, []
    for it in its:
        monkeypatch.setattr(baselines, "MAX_ITERS", it)
        rows.append(_ref_lloyd(ds, m, centers=centers)[0])
    monkeypatch.setattr(baselines, "MAX_ITERS", default)
    return rows


@pytest.mark.parametrize("max_iters", [None, 3, 9])
def test_a_run_follows_one_that_reached_its_row_earlier(monkeypatch, max_iters):
    """A member that steps, at iteration t, onto the state another member
    was in at iteration t - 2 walks on along succ through states already
    assigned: it matches its run alone in labels, iteration count and
    convergence, also when its path is cut off at MAX_ITERS (3 and 9,
    where it ends unconverged in the state the other member was in at
    iteration MAX_ITERS - 2). Each state is assigned once, so the kernel
    assigns fewer member-rows than the runs' summed iterations, except at
    MAX_ITERS 3, where the shared state is reached at the last iteration."""
    ds = Dataset(np.round(np.random.default_rng(4).normal(0.0, 5.0, 24), 2))
    late = np.sort(ds.points, axis=0)[:3]  # a run of ten iterations
    r2, r3 = _states_after(monkeypatch, ds, 3, late, (2, 3))
    early = r2.centroids()  # starts where the late run is after two iterations
    (a1,) = _states_after(monkeypatch, ds, 3, early, (1,))
    assert np.array_equal(a1.labels, r3.labels)
    if max_iters is not None:
        monkeypatch.setattr(baselines, "MAX_ITERS", max_iters)
    refs = [_ref_lloyd(ds, 3, centers=c) for c in (early, late)]
    if max_iters is None:
        assert [ref[1] for ref in refs] == [8, 10]
    assign = baselines._assign
    assigned = []

    def counted(d2, current):
        assigned.append(d2.shape[0])
        return assign(d2, current)

    monkeypatch.setattr(baselines, "_assign", counted)
    labels, iterations, converged = baselines._lloyd_stack(
        ds.points, np.stack((early, late)), None)
    for k, (part, it, conv) in enumerate(refs):
        assert np.array_equal(labels[k], part.labels)
        assert (iterations[k], converged[k]) == (it, conv)
    assert sum(assigned) == refs[0][1] + 3
    assert sum(assigned) < sum(ref[1] for ref in refs) or max_iters == 3
    assert converged[1] == (max_iters is None)


@pytest.mark.parametrize("forced, max_iters, calls", [
    pytest.param("r1", None, [2, 2], id="follows-a-later-run"),
    pytest.param("r2", None, [2, 2, 1], id="meets-at-once"),
    pytest.param("scrambled", 2, [2, 2], id="last-state")])
def test_a_rise_raises_wherever_its_state_is_checked(monkeypatch, forced, max_iters,
                                                    calls):
    """An edge of the state graph is checked once both its states' errors
    are known, wherever that is. Of two runs, one from far off the
    optimum, one from its third state, the second's second assignment is
    forced to a labeling of higher error than its first state: the first
    run's first labeling, a state already assigned, so the edge is checked
    before the next assignment (follows-a-later-run); the first run's
    second labeling, the state the first run steps to in the same
    assignment, so both edges into it are checked once the third
    assignment has given its error, the second's against the smaller error
    (meets-at-once); or, with MAX_ITERS 2, a scrambled labeling, a frontier
    state cut off at MAX_ITERS whose error comes from its means, checked
    after the loop (last-state)."""
    ds = Dataset(np.round(np.random.default_rng(4).normal(0.0, 5.0, 24), 2))
    late = np.sort(ds.points, axis=0)[:3]
    r1, r2 = _states_after(monkeypatch, ds, 3, late, (1, 2))
    row = {"r1": r1.labels, "r2": r2.labels, "scrambled": np.arange(ds.n) % 3}[forced]
    if max_iters is not None:
        monkeypatch.setattr(baselines, "MAX_ITERS", max_iters)
    assign = baselines._assign
    seen = []

    def forcing(d2, current):
        out, e = assign(d2, current)
        seen.append(out.shape[0])
        if len(seen) == 2:
            out[1] = row
        return out, e

    monkeypatch.setattr(baselines, "_assign", forcing)
    with pytest.raises(InternalConsistencyError):
        baselines._lloyd_stack(ds.points, np.stack((late, r2.centroids())), None)
    assert seen == calls


@pytest.mark.parametrize("period", [2, 3])
@pytest.mark.parametrize("max_iters", [None, 7])
def test_cycles_run_to_max_iters(monkeypatch, max_iters, period):
    """With an assignment forced to turn two or three labelings of one
    partition (equal errors) into one another in a cycle, every member
    matches its run alone, a stack of one: the cycle's states form a loop
    of succ, and the member that enters it first walks round it to
    MAX_ITERS, unconverged, in its state of iteration MAX_ITERS. In the
    three-cycle a second member starts on the loop's third state and walks
    the same states one iteration behind the first; neither path changes
    the other. Each
    state is assigned once, so the stack assigns fewer member-rows than the
    runs alone, which assign the cycle's rows again on every lap."""
    if max_iters is not None:
        monkeypatch.setattr(baselines, "MAX_ITERS", max_iters)
    ds = Dataset([0.0, 1.0, 2.0, 8.0, 9.0, 10.0, 20.0, 21.0])
    cycle = np.array([[0, 0, 0, 1, 1, 1, 2, 2], [1, 1, 1, 2, 2, 2, 0, 0],
                      [2, 2, 2, 0, 0, 0, 1, 1]])[:period]
    assign = baselines._assign
    assigned = []

    def cycling(d2, current):
        out, e = assign(d2, current)
        assigned.append(out.shape[0])
        for k, row in enumerate([] if current is None else current):
            at = np.flatnonzero((cycle == row).all(axis=1))
            if at.size:
                out[k] = cycle[(at[0] + 1) % period]
        return out, e

    monkeypatch.setattr(baselines, "_assign", cycling)
    # first rows: the first labeling, the third, the first, and one that is
    # none of them
    centers = np.array([[1.0, 9.0, 20.5], [9.0, 20.5, 1.0], [0.0, 10.0, 21.0],
                        [0.0, 1.0, 2.0]])[..., None]
    alone = [baselines._lloyd_stack(ds.points, c[None], None) for c in centers]
    runs = len(assigned)
    labels, iterations, converged = baselines._lloyd_stack(ds.points, centers, None)
    for k, (lab, it, conv) in enumerate(alone):
        assert np.array_equal(labels[k], lab[0])
        assert (iterations[k], converged[k]) == (it[0], conv[0])
    assert (iterations[0], converged[0]) == (baselines.MAX_ITERS, False)
    assert np.array_equal(labels[0], cycle[(baselines.MAX_ITERS - 1) % period])
    assert converged[1] == (period == 2)
    assert sum(assigned[runs:]) < sum(assigned[:runs])


@pytest.mark.parametrize("max_iters", [None, 2, 3])
def test_each_state_is_assigned_once_per_stack(monkeypatch, max_iters):
    """No call of the Lloyd kernel on a stack of more than one member
    assigns a label row twice: not in the growth steps of the reference data
    sets, also cut off after two or three iterations, nor in the forced two-
    and three-cycles of test_cycles_run_to_max_iters, where a run that
    meets its own row again walks on through the states already assigned.
    (A stack of one makes no row keys, so a cycle alone assigns its rows
    again.)"""
    if max_iters is not None:
        monkeypatch.setattr(baselines, "MAX_ITERS", max_iters)
    stack, assign = baselines._lloyd_stack, baselines._assign
    calls, cycle = [], None

    def recorded_stack(points, centers, labels, first=None):
        calls.append((centers.shape[0], []))
        return stack(points, centers, labels, first)

    def recorded_assign(d2, current):
        out, e = assign(d2, current)
        for k, row in enumerate([] if current is None else current):
            calls[-1][1].append(row.tobytes())
            at = [] if cycle is None else np.flatnonzero((cycle == row).all(axis=1))
            if len(at):
                out[k] = cycle[(at[0] + 1) % cycle.shape[0]]
        return out, e

    monkeypatch.setattr(baselines, "_lloyd_stack", recorded_stack)
    monkeypatch.setattr(baselines, "_assign", recorded_assign)
    for ds in _kmeans_reference_sets(np.random.default_rng(909)):
        kmeans_sequence(ds, min(5, ds.unique_rows().shape[0]), rng_seed=3)
    ds = Dataset([0.0, 1.0, 2.0, 8.0, 9.0, 10.0, 20.0, 21.0])
    centers = np.array([[1.0, 9.0, 20.5], [9.0, 20.5, 1.0], [0.0, 10.0, 21.0],
                        [0.0, 1.0, 2.0]])[..., None]
    for period in (2, 3):
        cycle = np.array([[0, 0, 0, 1, 1, 1, 2, 2], [1, 1, 1, 2, 2, 2, 0, 0],
                          [2, 2, 2, 0, 0, 0, 1, 1]])[:period]
        converged = baselines._lloyd_stack(ds.points, centers, None)[2]
        assert not converged[0]
    stacks = [rows for b, rows in calls if b > 1]
    assert len(stacks) > 20 and sum(map(len, stacks)) > 300
    assert all(len(set(rows)) == len(rows) for rows in stacks)


@pytest.mark.parametrize("per_wave", [None, 1, 2])
def test_growth_winner_rule_on_planted_exact_ties(monkeypatch, per_wave):
    """A k-means growth step keeps the first run of lowest E, also when the
    tied runs lie in different waves of per_wave members (one wave when
    None): on {0, 1, 10, 11}, a new center at 0 or 1 and one at 10 or 11
    end in the same two clusters, E = 1, in opposite order, and the first
    candidate, 0, makes its points cluster 1."""
    ds = Dataset([0.0, 1.0, 10.0, 11.0])
    if per_wave is not None:
        monkeypatch.setattr(core, "WAVE_BUDGET", per_wave * ds.n * (ds.d + 1))
    got = kmeans_sequence(ds, 2).by_cluster_count[2]
    assert got.labels.tolist() == [1, 1, 0, 0] and got.total_e == 1.0


@pytest.mark.parametrize("d", [1, 2])
def test_first_assignment_from_one_matrix(d):
    """The first assignment of a growth step from one matrix of distances to
    the kept centroids and every candidate equals _assign on the stacked
    distances of each candidate's center set, also on duplicate points and
    for a candidate as far from some points as their nearest kept
    centroid, where the kept centroid wins."""
    rng = np.random.default_rng(30 + d)
    pts = rng.integers(-4, 5, (25, d)).astype(np.float64)[rng.integers(0, 25, 40)]
    kept = np.array([[0.5] * d, [-2.0] * d, [3.0] * d])
    tied = np.array([[1.0] + [0.5] * (d - 1)])  # 0.5 from kept[0] and from the last candidate
    pts = np.vstack((pts, tied, tied))
    cands = np.vstack((np.unique(pts, axis=0), tied + [[0.5] + [0.0] * (d - 1)]))
    centers = np.concatenate((np.broadcast_to(kept, (cands.shape[0], 3, d)),
                              cands[:, None, :]), axis=1)
    d2 = squared_distances(pts, centers)
    assert d2[-1, -1, 0] == d2[-1, -1, 3] == d2[-1, -1].min()
    got = baselines._first_labels(pts, kept, cands)
    assert np.array_equal(got, baselines._assign(d2, None)[0])
    assert (got[-1, -2:] == 0).all()
    assert (got == 3).any() and (got < 3).any()
