"""Connected segmentation: PGM I/O, merging, boundary correction, curves."""

import copy
import hashlib
import importlib.util
import itertools
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import labeled_energy
from khcluster import core, reclass
from khcluster.core import (ClusterStats, Dataset, InputFormatError,
                            InternalConsistencyError, PreconditionError, sigma)
from khcluster.kh_engine import build_sequence
from khcluster.otsu1d import build_histogram, curve as otsu_curve
from khcluster.segment import (GrayImage, SegmentMap, read_pgm, segment_curve,
                               write_pgm)


def test_gray_image_validation():
    with pytest.raises(PreconditionError):
        GrayImage(2, 2, np.array([0.0, 1.0, 2.0]))  # wrong buffer length
    with pytest.raises(PreconditionError):
        GrayImage.from_array(np.array([[-1.0, 0.0]]))
    with pytest.raises(PreconditionError):
        GrayImage.from_array(np.array([[256.0]]))
    with pytest.raises(PreconditionError):
        GrayImage.from_array(np.zeros(4))
    img = GrayImage.from_array(np.zeros((2, 3)))
    assert img.width == 3 and img.height == 2 and img.n_pixels == 6


def test_pgm_roundtrip_binary_and_ascii(tmp_path):
    """write_pgm writes P5; read_pgm reads it back, and reads the same
    raster written by hand as ASCII P2."""
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 256, size=(5, 7)).astype(np.float64)
    binary = tmp_path / "img.pgm"
    write_pgm(GrayImage.from_array(arr), binary)
    ascii_ = tmp_path / "img_ascii.pgm"
    rows = "\n".join(" ".join(str(int(v)) for v in r) for r in arr)
    ascii_.write_text(f"P2\n7 5\n255\n{rows}\n", encoding="ascii")
    assert binary.read_bytes().startswith(b"P5\n7 5\n255\n")
    for path in (binary, ascii_):
        back = read_pgm(path)
        assert back.width == 7 and back.height == 5
        assert np.array_equal(back.intensities.reshape(5, 7), arr)


def test_pgm_write_rounds_half_up(tmp_path):
    img = GrayImage.from_array(np.array([[4.75, 0.4, 254.5]]))
    path = tmp_path / "round.pgm"
    write_pgm(img, path)
    assert read_pgm(path).intensities.tolist() == [5.0, 0.0, 255.0]


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2 # ascii\n# a comment line\n2 1\n255\n7 9\n")
    img = read_pgm(path)
    assert img.intensities.tolist() == [7.0, 9.0]


def test_pgm_error_positions(tmp_path):
    p = tmp_path / "bad.pgm"

    p.write_bytes(b"P7\n1 1\n255\n0")
    with pytest.raises(InputFormatError, match="magic"):
        read_pgm(p)

    p.write_bytes(b"P2\n1 1\n300\n0\n")
    with pytest.raises(InputFormatError, match="maxval"):
        read_pgm(p)

    p.write_bytes(b"P2\n2 1\n255\n12 extra\n")
    with pytest.raises(InputFormatError) as exc:
        read_pgm(p)
    assert exc.value.line == 4 and exc.value.column == 4

    p.write_bytes(b"P2\n2 1\n10\n3 11\n")
    with pytest.raises(InputFormatError, match="outside"):
        read_pgm(p)

    p.write_bytes(b"P2\n2 2\n255\n1 2 3\n")
    with pytest.raises(InputFormatError, match="expected 4"):
        read_pgm(p)

    p.write_bytes(b"P5\n3 1\n255\nAB")
    with pytest.raises(InputFormatError, match="expected 3"):
        read_pgm(p)


def test_pgm_tokens_and_positions(tmp_path):
    """One tokenizer reads header and P2 raster: whitespace is space, TAB,
    LF, VT, FF and CR, comments run to the end of the line, and positions
    count bytes from the last LF."""
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P2\x0b2\x0c1 # VT and FF separate header fields\r\n255\r\n"
                  b"7\t9\x0b\r\n")
    assert read_pgm(p).intensities.tolist() == [7.0, 9.0]

    # the position of a truncated header counts a trailing comment's bytes
    p.write_bytes(b"P2\n2 1 # no maxval")
    with pytest.raises(InputFormatError, match="truncated") as exc:
        read_pgm(p)
    assert (exc.value.line, exc.value.column) == (2, 16)

    # control characters other than those six do not separate samples
    for raster, column in ((b"7\x1c9", 1), (b"7 \x1f 9", 3), (b"7\x1d\x1e9", 1)):
        p.write_bytes(b"P2\n3 1\n255\n" + raster + b"\n")
        with pytest.raises(InputFormatError, match="not an integer") as exc:
            read_pgm(p)
        assert (exc.value.line, exc.value.column) == (4, column)

    p.write_bytes(b"P2\r\n2 1\r\n255\r\n12\tx\r\n")
    with pytest.raises(InputFormatError, match="'x'") as exc:
        read_pgm(p)
    assert (exc.value.line, exc.value.column) == (4, 4)


def test_pgm_magic_is_one_exact_token(tmp_path):
    """The first header token is exactly P2 or P5, starting the file;
    anything else is reported at line 1, column 1."""
    p = tmp_path / "m.pgm"
    for data in (b"P2x\n2 1\n255\n1 2\n", b"P5abc 1 1 255\n\x07",
                 b" P2\n2 1\n255\n1 2\n", b"p2\n2 1\n255\n1 2\n", b"P\n"):
        p.write_bytes(data)
        with pytest.raises(InputFormatError, match="magic") as exc:
            read_pgm(p)
        assert (exc.value.line, exc.value.column) == (1, 1), data
    p.write_bytes(b"P5#c\n1 1 255\n\x07")
    assert read_pgm(p).intensities.tolist() == [7.0]


def test_pgm_numbers_are_ascii_digit_runs(tmp_path):
    """Header fields and P2 samples are runs of ASCII digits: a sign, an
    underscore or FS-US padding is malformed input at the token."""
    p = tmp_path / "n.pgm"
    cases = ((b"P2\n1_0 1\n255\n" + b"1 " * 10 + b"\n", 2, 1),
             (b"P2\n2 1\n+255\n1 2\n", 3, 1),
             (b"P2\n2 1\n255\n1 +2\n", 4, 3),
             (b"P2\n2 1\n255\n1 -0\n", 4, 3),
             (b"P2\n2 \x1c1\n255\n1 2\n", 2, 3),
             (b"P2\n2 1\n255\n1\x1f 2\n", 4, 1),
             (b"P5\n\x1e2 1\n255\n\x01\x02", 2, 1))
    for data, line, column in cases:
        p.write_bytes(data)
        with pytest.raises(InputFormatError, match="not an integer") as exc:
            read_pgm(p)
        assert (exc.value.line, exc.value.column) == (line, column), data
    p.write_bytes(b"P2\n2 1\n255\n007 12\n")
    assert read_pgm(p).intensities.tolist() == [7.0, 12.0]


def test_from_image_inits():
    img = GrayImage.from_array(np.array([[0.0, 0.0], [0.0, 5.0]]))
    assert SegmentMap.from_image(img, "pixels").segment_count == 4
    fz = SegmentMap.from_image(img, "flat_zones")
    assert fz.segment_count == 2
    assert fz.total_e == 0.0
    with pytest.raises(PreconditionError):
        SegmentMap.from_image(img, "grid")
    with pytest.raises(PreconditionError):
        SegmentMap(img, np.zeros(3, dtype=np.int64))


def test_labels_must_be_nonnegative_integers():
    """A negative or fractional label is a precondition error, not numpy's
    ValueError or a silent truncation; integral floats are taken as ids."""
    img = GrayImage.from_array(np.array([[0.0, 0.0], [0.0, 5.0]]))
    for labels, what in (([0, 0, 1, -1], "nonnegative"), ([0, 0, 1, 1.5], "integers"),
                         ([0, 0, 1, np.nan], "integers"), ([0, 0, 1, np.inf], "integers"),
                         ([0, 0, 1, 1e300], "integers"), (["0", "0", "1", "1"], "integers")):
        with pytest.raises(PreconditionError, match=what):
            SegmentMap(img, labels)
    sm = SegmentMap(img, np.array([0.0, 0.0, 1.0, 1.0]))
    assert sm.segment_count == 2 and sm.labels.tolist() == [0, 0, 1, 1]


def test_line_image_frozen_curve_matches_thresholding():
    """On a 1-pixel-high image contiguity costs nothing; the curve is optimal."""
    img = GrayImage.from_array(np.array([[0.0, 0.0, 9.0, 10.0]]))
    res = segment_curve(img)
    expect = [(4, 0.0), (3, 0.0), (2, 0.5), (1, 90.75)]
    assert [(r.count, r.error) for r in res.merge_only] == expect
    assert [(r.count, r.error) for r in res.corrected] == expect
    # the multiset has three distinct values; compare where both curves exist
    h = build_histogram(img.intensities)
    by_m = {p.m: p.error for p in otsu_curve(h, h.v)}
    for r in res.corrected:
        if r.count in by_m:
            assert r.error == pytest.approx(by_m[r.count], abs=1e-12)


def test_merge_best_prefers_zero_cost_pair():
    img = GrayImage.from_array(np.array([[0.0, 0.0, 9.0, 10.0]]))
    sm = SegmentMap.from_image(img)
    kept, absorbed = sm.merge_best()
    assert (kept, absorbed) == (0, 1)
    assert sm.segment_count == 3
    assert sm.total_e == 0.0


def test_boundary_correction_fixes_horizontal_split():
    # rows cut both columns in half; two single-pixel moves restore them
    img = GrayImage.from_array(np.array([[0.0, 10.0], [0.0, 10.0]]))
    sm = SegmentMap(img, np.array([0, 0, 1, 1]))
    assert sm.total_e == pytest.approx(100.0)
    assert sm.correct_boundaries() == 2
    assert sm.total_e == 0.0
    lab = sm.labels
    assert lab[0] == lab[2] and lab[1] == lab[3] and lab[0] != lab[1]
    sm.check_consistency()
    assert sm.correct_boundaries() == 0  # already stable


def test_a_move_the_recomputed_energies_deny_is_refused(monkeypatch):
    """When the ranking promises a gain that the donor and acceptor
    energies, recomputed as the move would apply them, deny, the candidate
    is refused like a lock refusal: nothing moves, E keeps its bits and the
    audit passes. Applying a move fails the test instead of looping."""
    rng = np.random.default_rng(23)
    maps = [SegmentMap(GrayImage.from_array(np.array([[0.0, 10.0], [0.0, 10.0]])),
                       np.array([0, 0, 1, 1]))]
    for _ in range(3):
        arr = rng.choice([20.0, 120.0, 220.0], size=(5, 6)) + rng.integers(0, 3, (5, 6))
        maps.append(SegmentMap.from_image(GrayImage.from_array(arr)))
    groups = 0
    for sm in maps:
        while sm.segment_count > 3:
            sm.merge_best()
        sm.correct_boundaries()
        sm = SegmentMap(sm.img, sm.labels)  # every segment dirty again
        labels, e = sm.labels, sm.total_e
        with monkeypatch.context() as patch:
            ranked_moves, moved_stats = SegmentMap._ranked_moves, SegmentMap._moved_stats

            def promised(self, below):
                # a gain for every single and group move that keeps its
                # donor nonempty, in the order of equal deltas
                return iter(sorted((-1.0, dn, ac, sub)
                                   for _, dn, ac, sub in ranked_moves(self, np.inf)))

            refused = []

            def recomputed(self, subset, don, acc):
                refused.append(subset)
                return moved_stats(self, subset, don, acc)

            def applied(self, *args):
                raise AssertionError("a move the energies deny was applied")

            patch.setattr(SegmentMap, "_ranked_moves", promised)
            patch.setattr(SegmentMap, "_moved_stats", recomputed)
            patch.setattr(SegmentMap, "_apply_move", applied)
            assert sm.correct_boundaries() == 0
        assert refused
        groups += any(len(subset) > 1 for subset in refused)
        assert np.array_equal(sm.labels, labels) and sm.total_e == e
        sm.check_consistency()
    assert groups > 0


def test_articulation_pixel_is_locked():
    """A move that would disconnect its donor is refused despite the gain."""
    img = GrayImage.from_array(np.array([[5.0, 100.0, 5.0],
                                         [100.0, 100.0, 100.0]]))
    sm = SegmentMap(img, np.array([0, 0, 0, 1, 1, 1]))
    e0 = sm.total_e
    assert sm.correct_boundaries() == 0
    assert sm.total_e == e0
    sm.check_consistency()


def test_consistency_audit_raises_on_each_fault():
    """The audit passes an intact map, and raises on a segment in two
    pieces, on a perturbed coordinate sum, on a dropped facing pixel, on a
    facing pixel of another segment and on a stale neighbour key."""
    img = GrayImage.from_array(np.array([[0.0, 5.0, 0.0],
                                         [1.0, 2.0, 3.0]]))
    intact = np.array([0, 1, 2, 3, 3, 3])
    SegmentMap(img, intact).check_consistency()
    with pytest.raises(InternalConsistencyError, match="3 segments lie in 4"):
        SegmentMap(img, np.array([0, 1, 0, 2, 2, 2])).check_consistency()
    sm = SegmentMap(img, intact)
    sm.sums[3] += 0.5
    with pytest.raises(InternalConsistencyError, match="statistics"):
        sm.check_consistency()
    faults = (lambda f: f[3][1].discard(4),   # pixel 4 of 3 still faces 1
              lambda f: f[0][3].add(4),       # pixel 4 belongs to 3, not 0
              lambda f: f[0].update({2: set()}),  # 0 and 2 do not touch
              lambda f: f[0].update({2: {0}}))
    for fault in faults:
        sm = SegmentMap(img, intact)
        fault(sm.facing)
        with pytest.raises(InternalConsistencyError, match="facing"):
            sm.check_consistency()


def _workload_image(seed: int, size: int) -> GrayImage:
    """The benchmark's seeded C9 image (perfbench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = sys.modules.setdefault("workloads", importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    return GrayImage.from_array(workloads.quadrant_image(np.random.default_rng(seed), size))


def test_consistency_audit_changes_nothing():
    """Auditing a map after every merge-and-correct step leaves the
    corrected curve bit for bit as it is without the audit; an audit that
    rebuilt the map in place refreshed its running sums and changed the E
    bits of later rows."""
    img = _workload_image(101, 24)
    curves = []
    for audit in (False, True):
        sm = SegmentMap.from_image(img)
        rows = [sm.total_e]
        while sm.segment_count > 1:
            sm.merge_best()
            sm.correct_boundaries()
            if audit:
                sm.check_consistency()
            rows.append(sm.total_e)
        curves.append((np.array(rows).view(np.int64), sm.labels))
    (e_plain, lab_plain), (e_audited, lab_audited) = curves
    assert np.array_equal(e_audited, e_plain)
    assert np.array_equal(lab_audited, lab_plain)


def test_a_short_refresh_interval_keeps_the_curve(monkeypatch):
    """With core.REFRESH_INTERVAL at 5, a map refreshes itself every five
    operations: the corrected curve of a 12x12 C9 image passes the audit
    after every merge-and-correct step, its rows stay within 1e-9 relative
    of the curve at the default interval, and it ends on the same labels."""
    img = _workload_image(101, 12)
    plain = segment_curve(img)
    refreshes = []
    refresh, correct = SegmentMap._refresh, SegmentMap.correct_boundaries

    def counted(self):
        refreshes.append(self._ops)
        return refresh(self)

    def audited(self):
        out = correct(self)
        self.check_consistency()
        return out

    monkeypatch.setattr(core, "REFRESH_INTERVAL", 5)
    monkeypatch.setattr(SegmentMap, "_refresh", counted)
    monkeypatch.setattr(SegmentMap, "correct_boundaries", audited)
    short = segment_curve(img)
    assert len(short.corrected) == len(plain.corrected) == 144
    assert [r.count for r in short.corrected] == [r.count for r in plain.corrected]
    assert np.allclose([r.error for r in short.corrected],
                       [r.error for r in plain.corrected],
                       rtol=1e-9, atol=0.0)
    assert np.array_equal(short.final_corrected.labels, plain.final_corrected.labels)
    assert len(refreshes) > 40


def _valid_entries(sm):
    """The heap entries whose versions are current, as (cost bits, ids)."""
    return sorted((cost.hex(), a, b) for cost, a, b, va, vb in sm.heap
                  if va == sm.version[a] and vb == sm.version[b])


def test_a_refresh_of_exact_sums_equals_a_rebuild():
    """Along the corrected curve of a 16x16 C9 image, whose sums stay
    exact, a refresh keeps the versions, and leaves total_e's bits, the
    pixel and facing sets, the dirty set and the heap's valid entries as a
    rebuild of a copy leaves them."""
    sm = SegmentMap.from_image(_workload_image(101, 16))
    checked = 0
    while sm.segment_count > 1:
        sm.merge_best()
        sm.correct_boundaries()
        if sm.segment_count % 16:
            continue
        twin = copy.deepcopy(sm)
        versions = list(sm.version)
        sm._refresh()
        twin._rebuild()
        assert sm.version == versions and twin.version != versions
        assert sm.total_e.hex() == twin.total_e.hex()
        assert sm.pixels == twin.pixels and sm.facing == twin.facing
        assert sm._dirty == twin._dirty
        assert _valid_entries(sm) == _valid_entries(twin)
        assert len(sm.heap) == len(_valid_entries(sm))
        checked += 1
    assert checked == 15


def test_a_restart_sums_the_live_energies_in_id_order():
    """A restart sets total_e to the sum of the live segments' energies in
    ascending id order, the order of a sum over every id with a nonzero
    count, whatever order the map met its labels in, and also once merges
    have left dead ids. On float images labelled in 2x2 blocks numbered
    backwards, the sum in the order the labels were met has other bits on
    most images."""
    rng = np.random.default_rng(3)
    blocks = ((np.arange(12)[:, None] // 2) * 6 + np.arange(12)[None, :] // 2).reshape(-1)
    other_order = 0
    for _ in range(8):
        sm = SegmentMap(GrayImage.from_array(rng.uniform(0, 255, (12, 12))), 35 - blocks)
        for merges in (0, 10):
            for _ in range(merges):
                sm.merge_best()
            sm._restart()
            by_id = float(sum(sm._seg_energy(s) for s in range(len(sm.counts))
                              if sm.counts[s]))
            assert sm.total_e.hex() == by_id.hex()
        met = float(sum(sm._seg_energy(s) for s in sm.pixels))
        other_order += met.hex() != by_id.hex()
    assert other_order >= 4


def _fresh_edge_costs(sm):
    """(cost, lower id, higher id) of every live edge, the cost by
    reclass.merge_deltas from the map's current statistics."""
    out = []
    for s, row in sm.facing.items():
        for t in row:
            if s < t:
                d = sm.sums[s] / sm.counts[s] - sm.sums[t] / sm.counts[t]
                out.append((reclass.merge_deltas(d * d, sm.counts[s], sm.counts[t]), s, t))
    return sorted(out)


@pytest.mark.parametrize("init", ["pixels", "flat_zones"])
@pytest.mark.parametrize("floats", [False, True], ids=["8bit", "float"])
def test_every_merge_takes_the_least_cost_live_pair(monkeypatch, init, floats):
    """Along corrected curves of random small images, every merge_best
    merges the live adjacent pair with the least (merge_deltas cost from
    the map's current statistics, lower id, higher id). Once every change
    is pushed, the heap holds exactly one valid entry per live edge, with
    that cost's bits. After every merge and move the heap holds at most
    twice its size at the last drop of stale entries, and such drops
    happen."""
    real_best, real_drop = SegmentMap.merge_best, SegmentMap._drop_stale
    counts = {"merge_best": 0, "drops": 0, "_merge": 0, "_apply_move": 0}

    def best(self):
        self._push_unpushed()
        v = self.version
        valid = sorted((cost.hex(), a, b) for cost, a, b, va, vb in self.heap
                       if va == v[a] and vb == v[b])
        fresh = _fresh_edge_costs(self)
        assert valid == sorted((cost.hex(), a, b) for cost, a, b in fresh)
        kept, gone = real_best(self)
        assert (min(kept, gone), max(kept, gone)) == fresh[0][1:]
        counts["merge_best"] += 1
        return kept, gone

    def drop(self):
        counts["drops"] += 1
        real_drop(self)

    for name in ("_merge", "_apply_move"):
        def bounded(self, *args, real=getattr(SegmentMap, name), name=name):
            out = real(self, *args)
            assert len(self.heap) <= 2 * self._heap_kept
            counts[name] += 1
            return out
        monkeypatch.setattr(SegmentMap, name, bounded)
    monkeypatch.setattr(SegmentMap, "merge_best", best)
    monkeypatch.setattr(SegmentMap, "_drop_stale", drop)
    rng = np.random.default_rng(43)
    for _ in range(6):
        h, w = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        if floats:
            arr = rng.uniform(0, 255, (h, w))
        else:
            arr = (rng.choice([20.0, 90.0, 150.0, 220.0], size=(h, w))
                   + rng.integers(0, 3, size=(h, w)))
        segment_curve(GrayImage.from_array(arr), init=init)
    assert counts["merge_best"] == counts["_merge"] > 300
    assert counts["_apply_move"] > 10 and counts["drops"] > 10


def test_a_refresh_rebuilds_drifted_sums(monkeypatch):
    """On float images, a refresh whose fresh sums differ from the running
    ones, here by a perturbation of one segment's sum, rebuilds the map,
    which then passes the audit."""
    rebuilds = []
    rebuild = SegmentMap._rebuild

    def counted(self):
        rebuilds.append(self._ops)
        rebuild(self)

    monkeypatch.setattr(SegmentMap, "_rebuild", counted)
    rng = np.random.default_rng(29)
    for _ in range(4):
        sm = SegmentMap.from_image(GrayImage.from_array(rng.uniform(0, 255, (7, 8))))
        while sm.segment_count > 20:
            sm.merge_best()
            sm.correct_boundaries()
        live = min(sm.pixels)
        sm.sums[live] += 0.5
        with pytest.raises(InternalConsistencyError, match="statistics"):
            sm.check_consistency()
        del rebuilds[:]
        sm._refresh()
        assert rebuilds == [sm._ops]
        sm.check_consistency()


def test_signed_zero_pixels_group_with_zero_pixels():
    """GrayImage.from_array stores -0.0 as 0.0, so a -0.0 pixel and a 0.0
    pixel on one border move together as one same-intensity group."""
    img = GrayImage.from_array(np.array([[-0.0, 255.0], [0.0, 255.0], [7.0, 255.0]]))
    assert not np.signbit(img.intensities).any()
    sm = SegmentMap(img, np.array([0, 1, 0, 1, 0, 1]))
    subsets = [sub for _, don, _, sub in sm._ranked_moves(np.inf) if don == 0]
    assert (0, 2) in subsets


def test_donor_never_empties():
    img = GrayImage.from_array(np.array([[0.0, 0.1]]))
    sm = SegmentMap(img, np.array([0, 1]))
    sm.correct_boundaries()
    assert sm.segment_count == 2


def test_approximation_and_pgm_emit(tmp_path):
    img = GrayImage.from_array(np.array([[0.0, 0.0, 9.0, 10.0]]))
    res = segment_curve(img, m_min=2)
    approx = res.final_corrected.approximation()
    assert approx.intensities.tolist() == [0.0, 0.0, 9.5, 9.5]
    path = tmp_path / "approx.pgm"
    write_pgm(approx, path)
    assert read_pgm(path).intensities.tolist() == [0.0, 0.0, 10.0, 10.0]


def test_segment_curve_validation():
    img = GrayImage.from_array(np.zeros((2, 2)))
    with pytest.raises(PreconditionError):
        segment_curve(img, m_min=0)
    with pytest.raises(PreconditionError):
        segment_curve(img, m_min=5)


def test_flat_image_curve_is_all_zero():
    img = GrayImage.from_array(np.full((4, 4), 7.0))
    res = segment_curve(img)
    assert all(r.error == 0.0 and r.sigma == 0.0 for r in res.merge_only)
    assert all(r.error == 0.0 for r in res.corrected)
    assert [r.count for r in res.merge_only] == list(range(16, 0, -1))


def test_sigma_column():
    img = GrayImage.from_array(np.array([[0.0, 10.0], [0.0, 10.0]]))
    sm = SegmentMap(img, np.array([0, 0, 1, 1]))
    assert sm.segment_sigma() == pytest.approx(sigma(sm.total_e, 4))


def test_ranked_move_deltas_match_applied_change():
    """Every ranked boundary candidate, single pixel or same-intensity group,
    predicts the E change of applying it."""
    rng = np.random.default_rng(9)
    group_moves = 0
    for _ in range(6):
        h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        arr = rng.choice([10.0, 90.0, 200.0], size=(h, w))
        sm = SegmentMap.from_image(GrayImage.from_array(arr))
        while sm.segment_count > max(2, h * w // 4):
            sm.merge_best()
        e = labeled_energy(arr.reshape(-1, 1), sm.labels)
        cands = list(sm._ranked_moves(np.inf))
        keys = [(d, dn, ac, sub) for d, dn, ac, sub in cands]
        assert keys == sorted(keys)
        rank = {s: k for k, s in enumerate(sorted(sm.pixels))}  # a new map's ids
        for delta, don, acc, subset in cands:
            trial = SegmentMap(sm.img, sm.labels)
            don, acc = rank[don], rank[acc]
            trial._apply_move(subset, don, acc, trial._moved_stats(subset, don, acc))
            actual = labeled_energy(arr.reshape(-1, 1), trial.labels) - e
            assert abs(actual - delta) <= 1e-9 * (1.0 + e)
            group_moves += len(subset) > 1
    assert group_moves > 0


def test_ranked_deltas_have_the_bits_of_the_array_kernel():
    """Along merge curves of float images, every ranked delta has the bits
    reclass.transfer_deltas gives on numpy arrays, whose `** 2` squares as
    `x * x`; C pow, which a Python float's `** 2` calls, differs in about
    one square in a thousand. No ranked move would empty its donor, where
    transfer_deltas gives +inf."""
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(4):
        sm = SegmentMap.from_image(GrayImage.from_array(rng.uniform(0, 255, (8, 8))))
        while sm.segment_count > 2:
            sm.merge_best()
            cands = list(sm._ranked_moves(np.inf))
            don, acc, k, lead = (np.array(col) for col in zip(
                *((dn, ac, len(sub), sub[0]) for _, dn, ac, sub in cands)))
            x = sm.img.intensities[lead]
            sums, counts = np.array(sm.sums), np.array(sm.counts)
            n1, n2 = counts[don], counts[acc]
            want = reclass.transfer_deltas((x - sums[don] / n1) ** 2,
                                           (x - sums[acc] / n2) ** 2, k, n1, n2)
            got = np.array([delta for delta, _, _, _ in cands])
            assert np.isfinite(want).all()
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            checked += len(cands)
    assert checked > 10000


def test_random_images_stay_consistent():
    rng = np.random.default_rng(77)
    for _ in range(8):
        h, w = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        arr = rng.integers(0, 256, size=(h, w)).astype(np.float64)
        sm = SegmentMap.from_image(GrayImage.from_array(arr))
        sm.correct_boundaries()
        while sm.segment_count > 1:
            sm.merge_best()
            sm.correct_boundaries()
            sm.check_consistency()
        assert sm.total_e == pytest.approx(
            labeled_energy(arr.reshape(-1, 1), sm.labels), rel=1e-9, abs=1e-9)


def test_correction_never_raises_energy_in_place():
    # each accepted boundary move strictly lowers E, so every call is monotone;
    # whole merge-only vs corrected curves may still cross on small images
    rng = np.random.default_rng(5)
    for _ in range(6):
        h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        arr = rng.integers(0, 256, size=(h, w)).astype(np.float64)
        sm = SegmentMap.from_image(GrayImage.from_array(arr))
        while sm.segment_count > 1:
            sm.merge_best()
            before = sm.total_e
            sm.correct_boundaries()
            assert sm.total_e <= before + 1e-12 * (1 + before)


def test_unconstrained_clustering_bounds_segments():
    """Dropping the connectivity requirement can only lower the error."""
    rng = np.random.default_rng(5)
    arr = np.zeros((6, 6))
    arr[:, :3] = 30.0
    arr[:, 3:] = 200.0
    arr[2:4, 2:5] = 110.0
    arr += 3.0 * rng.integers(-1, 2, arr.shape)
    img = GrayImage.from_array(np.clip(arr, 0, 255))
    res = segment_curve(img)
    seq = build_sequence(Dataset(img.intensities.reshape(-1, 1)), 6)
    for rows in (res.merge_only, res.corrected):
        by_count = {r.count: r.error for r in rows}
        for c in range(1, 7):
            assert seq.energy(c) <= by_count[c] + 1e-9 * (1 + by_count[c])


# sha256 of the reprs of each curve's E values, joined by spaces, as the
# curves were before segment state became plain Python numbers
_FLOAT_CURVES = {
    26: ("e59e72e7a14e0b1df320278f3f121b94041ccfea9bb94fab4a2077d9faea119e",
         "771269cab6737999719131552b4fa351e5c613ea55ba6ddac188123b9c2498fa"),
    43: ("d8d93bc39085d22a808ded3704a9dd2e18927b232a5481f4ec385d865a0f970e",
         "d7cbc79478dc294f48ad2fed04a43b444a1bbb072f48d6f4a645dc21fde89248"),
}


def test_segment_curve_frozen_on_float_intensities():
    """Every merge-only and corrected E on two images of float intensities
    keeps its exact repr. A segment's energy squares its sum with `** 2`
    (C pow, as on a numpy scalar); squaring it as `t * t` changes some of
    these bits."""
    for seed, want in _FLOAT_CURVES.items():
        rng = np.random.default_rng(seed)
        h, w = rng.integers(4, 12), rng.integers(4, 12)
        res = segment_curve(GrayImage.from_array(rng.uniform(0, 255, (h, w))))
        assert len(res.corrected) == h * w
        got = tuple(hashlib.sha256(" ".join(repr(r.error) for r in rows).encode())
                    .hexdigest() for rows in (res.merge_only, res.corrected))
        assert got == want, seed


def test_segment_curve_is_deterministic():
    rng = np.random.default_rng(13)
    arr = rng.integers(0, 256, size=(6, 6)).astype(np.float64)
    img = GrayImage.from_array(arr)
    a = segment_curve(img)
    b = segment_curve(img)
    assert [(r.count, r.error) for r in a.corrected] == \
           [(r.count, r.error) for r in b.corrected]
    assert np.array_equal(a.final_corrected.labels, b.final_corrected.labels)


def test_neighbor_table_matches_the_grid():
    for w in range(1, 7):
        for h in range(1, 7):
            sm = SegmentMap.from_image(GrayImage.from_array(np.zeros((h, w))))
            for p in range(w * h):
                r, c = divmod(p, w)
                want = [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]
                assert sm._neighbors(p) == tuple(
                    rr * w + cc for rr, cc in want if 0 <= rr < h and 0 <= cc < w)

def _stays_connected(sm, subset, don):
    """Plain search: is the donor minus the subset one 4-connected piece?"""
    rest = sm.pixels[don] - set(subset)
    seed = min(rest)
    seen, stack = {seed}, [seed]
    while stack:
        r, c = divmod(stack.pop(), sm.w)
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            q = rr * sm.w + cc
            if 0 <= rr < sm.h and 0 <= cc < sm.w and q in rest and q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen) == len(rest)


def test_lock_is_exact_on_random_images():
    """Along corrected curves, every ranked candidate's lock verdict equals
    a plain search over the donor minus the subset."""
    rng = np.random.default_rng(31)
    verdicts = dict.fromkeys(itertools.product((False, True), repeat=2), 0)
    for _ in range(14):
        h, w = int(rng.integers(3, 13)), int(rng.integers(3, 13))
        arr = (rng.choice([20.0, 90.0, 150.0, 220.0], size=(h, w))
               + rng.integers(0, 2, size=(h, w)))
        sm = SegmentMap.from_image(GrayImage.from_array(arr))
        while sm.segment_count > 1:
            sm.merge_best()
            for _, don, _, subset in sm._ranked_moves(np.inf):
                ok = sm._donor_survives_uncached(subset, don)
                assert ok == _stays_connected(sm, subset, don)
                verdicts[len(subset) > 1, ok] += 1
            sm.correct_boundaries()
    # single pixels and groups, each both kept and refused
    assert min(verdicts.values()) > 100


def test_piece_cache_verdicts_are_exact(monkeypatch):
    """Along corrected curves of random images, every verdict of the cached
    lock equals a plain search over the donor minus the subset and the
    uncached lock. Some refusals are answered from the piece cache, some of
    them after a merge into the donor since the refusal was cached, where a
    cache keyed on the donor's version would search again, and some after
    a pixel they watch changed label between two other segments, which
    keeps them. Every refresh leaves the lock caches empty."""
    survives, merge, refresh, forget = (SegmentMap._donor_survives, SegmentMap._merge,
                                        SegmentMap._refresh, SegmentMap._forget_refusals)
    cached_at, merged_at = {}, {}  # refusal -> ops when cached; survivor -> ops at merge
    kept = set()  # refusals a label change of a pixel they watch left cached
    hits = {"piece": 0, "after_merge": 0, "kept": 0}
    refreshes = []

    def checked(self, subset, don):
        key = (don, subset)
        size = self._refusals.get(key)
        from_piece = size is not None and self.counts[don] > len(subset) + size
        ok = survives(self, subset, don)
        assert ok == _stays_connected(self, subset, don)
        assert ok == self._donor_survives_uncached(subset, don)
        if from_piece:
            assert not ok
            hits["piece"] += 1
            hits["after_merge"] += merged_at.get(don, -1) > cached_at[key]
            hits["kept"] += key in kept
        elif not ok:
            cached_at[key] = self._ops
            kept.discard(key)
        return ok

    def forgot(self, ps, old, new):
        watched = {key for p in ps for key in self._watchers.get(p, ())
                   if key in self._refusals}
        forget(self, ps, old, new)
        kept.update(key for key in watched if key in self._refusals)

    def merged(self, a, b):
        kept, gone = merge(self, a, b)
        merged_at[kept] = self._ops
        return kept, gone

    def refreshed(self):
        refresh(self)
        assert not (self._passes or self._refusals or self._watchers)
        refreshes.append(self._ops)

    monkeypatch.setattr(core, "REFRESH_INTERVAL", 32)
    monkeypatch.setattr(SegmentMap, "_donor_survives", checked)
    monkeypatch.setattr(SegmentMap, "_merge", merged)
    monkeypatch.setattr(SegmentMap, "_refresh", refreshed)
    monkeypatch.setattr(SegmentMap, "_forget_refusals", forgot)
    rng = np.random.default_rng(37)
    for _ in range(14):
        h, w = int(rng.integers(3, 13)), int(rng.integers(3, 13))
        arr = (rng.choice([20.0, 90.0, 150.0, 220.0], size=(h, w))
               + rng.integers(0, 2, size=(h, w)))
        cached_at.clear()
        merged_at.clear()
        sm = SegmentMap.from_image(GrayImage.from_array(arr))
        while sm.segment_count > 1:
            sm.merge_best()
            sm.correct_boundaries()
    assert hits["piece"] > 100 and hits["after_merge"] > 40
    assert hits["kept"] > 40
    assert len(refreshes) > 10


@pytest.mark.parametrize("rows, subset, expect", [
    # ring: the pixel's two neighbours meet only the long way round
    (["000000000",
      "011111110",
      "012222210",
      "012222210",
      "012222210",
      "012222210",
      "012222210",
      "011111110",
      "000000000"], [(1, 4)], True),
    # 1-px path: an inner pixel cuts it, an end pixel does not
    (["0000000", "1111111", "2222222"], [(1, 3)], False),
    (["0000000", "1111111", "2222222"], [(1, 6)], True),
    # comb: spine on row 3, teeth on columns 0, 2, 4, 6
    (["1010101",
      "1010101",
      "1010101",
      "1111111",
      "0000000"], [(3, 1)], False),
    (["1010101",
      "1010101",
      "1010101",
      "1111111",
      "0000000"], [(0, 2)], True),
    (["1010101",
      "1010101",
      "1010101",
      "1111111",
      "0000000"], [(3, 4)], False),
    # groups: a whole inner column cuts the block, an edge column does not,
    # two pixels of the inner column leave a bridge
    (["111111", "111111", "111111", "000000"], [(0, 2), (1, 2), (2, 2)], False),
    (["111111", "111111", "111111", "000000"], [(0, 5), (1, 5), (2, 5)], True),
    (["111111", "111111", "111111", "000000"], [(0, 2), (1, 2)], True),
])
def test_lock_on_hand_built_shapes(rows, subset, expect):
    lab = np.array([[int(ch) for ch in row] for row in rows])
    img = GrayImage.from_array(lab * 50.0)
    sm = SegmentMap(img, lab.reshape(-1))
    flat = tuple(sorted(r * lab.shape[1] + c for r, c in subset))
    assert _stays_connected(sm, flat, 1) == expect
    assert sm._donor_survives_uncached(flat, 1) == expect
    assert sm._donor_survives(flat, 1) == expect


def test_lock_refusal_costs_the_short_side(monkeypatch):
    """Cutting a 200-pixel path next to its end walks only the short piece,
    though the lowest seed lies on the long one."""
    n = 200
    lab = np.repeat([[0], [1], [2]], n, axis=1)
    sm = SegmentMap(GrayImage.from_array(lab * 50.0), lab.reshape(-1))
    calls = []
    real = SegmentMap._neighbors

    def counting(self, p):
        calls.append(p)
        return real(self, p)

    monkeypatch.setattr(SegmentMap, "_neighbors", counting)
    cut = n + n - 3  # row 1, column 197: pieces of 197 and 2 pixels
    assert not sm._donor_survives_uncached((cut,), 1)
    assert len(calls) <= 20


def test_a_cached_refusal_lapses_with_the_rest_of_the_donor():
    """A refusal cached against the piece it cut off no longer answers once
    the donor holds only the subset and that piece: cutting a 1-px path at
    column 2 walks the 2-pixel piece on the left; after the right part
    moves away, away from that piece, the cut leaves the donor connected."""
    lab = np.repeat([[0], [1], [2]], 7, axis=1)
    sm = SegmentMap(GrayImage.from_array(lab * 50.0), lab.reshape(-1))
    cut = (9,)  # row 1, column 2
    assert not sm._donor_survives(cut, 1)
    assert sm._refusals[(1, cut)] == 2
    for p in (13, 12, 11, 10):
        sm._apply_move((p,), 1, 0, sm._moved_stats((p,), 1, 0))
        assert sm._donor_survives(cut, 1) == (p == 10)
    sm.check_consistency()


def test_a_refusal_outlives_label_changes_between_other_segments(monkeypatch):
    """A refusal cached against the piece its search cut off is kept
    through a move and a merge between two other segments next to that
    piece, and answers without a search; it lapses once a pixel next to
    the piece joins the donor. Rows: segment 0, a 1-px path (segment 1),
    segments 2 and 3; cutting the path at column 2 walks the 2-pixel piece
    on the left."""
    lab = np.repeat([[0], [1], [2], [3]], 7, axis=1)
    sm = SegmentMap(GrayImage.from_array(lab * 50.0), lab.reshape(-1))
    searches = []
    cut_piece = SegmentMap._cut_piece

    def counted(self, subset, don):
        searches.append(subset)
        return cut_piece(self, subset, don)

    monkeypatch.setattr(SegmentMap, "_cut_piece", counted)
    cut = (9,)  # row 1, column 2
    assert not sm._donor_survives(cut, 1)
    assert sm._refusals[(1, cut)] == 2 and len(searches) == 1
    # pixel 14 (row 2, column 0) lies next to the piece
    sm._apply_move((14,), 2, 3, sm._moved_stats((14,), 2, 3))
    assert not sm._donor_survives(cut, 1)
    assert sm._merge(2, 3) == (3, 2)  # pixels 15-20 pass from 2 to 3
    assert not sm._donor_survives(cut, 1)
    assert sm._refusals[(1, cut)] == 2 and len(searches) == 1
    sm.check_consistency()
    # pixel 15 (row 2, column 1), next to the piece, joins the donor
    sm._apply_move((15,), 3, 1, sm._moved_stats((15,), 3, 1))
    assert (1, cut) not in sm._refusals
    assert not sm._donor_survives(cut, 1)
    assert sm._refusals[(1, cut)] == 3 and len(searches) == 2
    sm.check_consistency()


def _grid_facing(lab: np.ndarray) -> dict[int, dict[int, set[int]]]:
    """facing[s][t] by a plain scan of the grid's 4-neighbour pairs, by row
    and column, for the (h, w) labelling lab."""
    h, w = lab.shape
    facing = {int(s): {} for s in np.unique(lab)}
    for r in range(h):
        for c in range(w):
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr == h or cc == w:
                    continue
                s, t = int(lab[r, c]), int(lab[rr, cc])
                if s != t:
                    facing[s].setdefault(t, set()).add(r * w + c)
                    facing[t].setdefault(s, set()).add(rr * w + cc)
    return facing


def test_dirty_borders_equal_a_filtered_full_rebuild(monkeypatch):
    """Along corrected curves, the candidates of every correction pass are
    those of a brute-force enumeration filtered to dirty segments (changed
    since the map was last boundary-stable): every pixel with a 4-neighbour
    in another segment, single and grouped by bit-identical intensity per
    donor and acceptor, the donor dirty or the acceptor dirty and the donor
    left nonempty, with the bits of reclass.transfer_deltas, in the same
    order."""
    real = SegmentMap._ranked_moves
    seen = {True: 0, False: 0}

    def checked(self, below):
        got = list(real(self, np.inf))
        dirty = self._dirty
        assert dirty <= self.pixels.keys()
        x = self.img.intensities
        groups = {}
        for don, row in _grid_facing(self.labels.reshape(self.h, self.w)).items():
            for acc, ps in row.items():
                if (don in dirty or acc in dirty) and len(self.pixels[don]) >= 2:
                    for p in ps:
                        groups.setdefault((don, acc, x[p].tobytes()), []).append(p)
        want = []
        for (don, acc, _), ps in groups.items():
            n1, n2 = len(self.pixels[don]), len(self.pixels[acc])
            h = float(x[ps[0]]) - self.sums[don] / n1
            g = float(x[ps[0]]) - self.sums[acc] / n2
            subsets = [(p,) for p in ps] + ([tuple(sorted(ps))] if len(ps) > 1 else [])
            want += [(float(reclass.transfer_deltas(h * h, g * g, len(sub), n1, n2)),
                      don, acc, sub[0], len(sub), sub) for sub in subsets]
        # below = inf drops only the moves that would empty their donor
        want = [(d, dn, ac, sub) for d, dn, ac, _, _, sub in sorted(want) if d < np.inf]
        assert [c[1:] for c in got] == [c[1:] for c in want]
        assert np.array_equal(np.array([c[0] for c in got]).view(np.int64),
                              np.array([c[0] for c in want]).view(np.int64))
        seen[len(dirty) == len(self.pixels)] += 1
        return real(self, below)

    monkeypatch.setattr(SegmentMap, "_ranked_moves", checked)
    rng = np.random.default_rng(41)
    for _ in range(6):
        h, w = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        arr = (rng.choice([20.0, 90.0, 150.0, 220.0], size=(h, w))
               + rng.integers(0, 2, size=(h, w)))
        segment_curve(GrayImage.from_array(arr))
    assert seen[True] > 0 and seen[False] > 100


def test_rebuild_matches_a_brute_force_grid_scan(monkeypatch):
    """On random labellings of every grid up to 6x6, strips included, the
    rebuilt facing sets and merge heap agree with a plain scan of the
    grid's 4-neighbour pairs by row and column, under the map's ids, the
    ranks of the labels; along corrected curves the facing sets agree with
    it after every merge and every applied move."""
    rng = np.random.default_rng(61)
    for w in range(1, 7):
        for h in range(1, 7):
            for _ in range(4):
                img = GrayImage.from_array(rng.integers(0, 256, (h, w)).astype(float))
                lab = rng.integers(0, int(rng.integers(1, 7)), w * h)
                sm = SegmentMap(img, lab)
                assert np.array_equal(sm.labels, lab)
                lab = np.unique(lab, return_inverse=True)[1]
                facing = _grid_facing(lab.reshape(h, w))
                assert sm.facing == facing
                want = []
                for s, t in ((s, t) for s in facing for t in facing[s] if s < t):
                    ns, nt = sm.counts[s], sm.counts[t]
                    d = sm.sums[s] / ns - sm.sums[t] / nt
                    want.append((reclass.merge_deltas(d * d, ns, nt), s, t,
                                 sm.version[s], sm.version[t]))
                want.sort()
                got = sorted(sm.heap)
                assert [e[1:] for e in got] == [e[1:] for e in want]
                assert [e[0].hex() for e in got] == [e[0].hex() for e in want]
                for cost, s, t, _, _ in want:
                    assert cost == pytest.approx(reclass.delta_e_merge(
                        *(ClusterStats.from_points(img.intensities[lab == u][:, None])
                          for u in (s, t))), rel=1e-9, abs=1e-9)

    steps = {"_merge": 0, "_apply_move": 0}
    for name in steps:
        def checked(self, *args, real=getattr(SegmentMap, name), name=name):
            out = real(self, *args)
            assert self.facing == _grid_facing(self.labels.reshape(self.h, self.w))
            steps[name] += 1
            return out
        monkeypatch.setattr(SegmentMap, name, checked)
    for _ in range(6):
        h, w = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        arr = (rng.choice([20.0, 90.0, 150.0, 220.0], size=(h, w))
               + rng.integers(0, 2, size=(h, w)))
        for init in ("pixels", "flat_zones"):
            segment_curve(GrayImage.from_array(arr), init=init)
    assert steps["_merge"] > 300 and steps["_apply_move"] > 30


def test_sparse_labels_take_memory_by_segment_count():
    """A map's per-segment lists are sized by the number of segments, not by
    the largest label: labels [0, 0, 0, 10**6] on a 2x2 image stay far below
    the 153 MiB that lists of 10**6 + 1 entries took, and labels gives the
    given values back."""
    img = GrayImage.from_array(np.array([[0.0, 1.0], [2.0, 3.0]]))
    lab = np.array([0, 0, 0, 10**6])
    tracemalloc.start()
    try:
        sm = SegmentMap(img, lab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert sm.segment_count == 2 and sm.labels.tolist() == lab.tolist()
    sm.check_consistency()


def test_sparse_labels_run_as_their_ranks():
    """On random connected labellings with large, unordered ids, a map of the
    labels and a map of their ranks (np.unique's inverse) merge and correct
    alike: the same E bits and moves at every step, and labels that are the
    given values of the ranks' labels."""
    rng = np.random.default_rng(52)
    for _ in range(5):
        h, w = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        arr = rng.choice([20.0, 90.0, 150.0, 220.0], size=(h, w)) + rng.integers(0, 2, (h, w))
        img = GrayImage.from_array(arr)
        zones = SegmentMap.from_image(img, "flat_zones").labels
        ids = rng.choice(10**4, int(zones.max()) + 1, replace=False)
        sparse = ids[zones]
        ranks = np.unique(sparse, return_inverse=True)[1]
        a, b = SegmentMap(img, sparse), SegmentMap(img, ranks)
        while a.segment_count > 1:
            a.merge_best()
            b.merge_best()
            assert a.correct_boundaries() == b.correct_boundaries()
            assert np.float64(a.total_e).view(np.int64) == np.float64(b.total_e).view(np.int64)
            assert np.array_equal(a.labels, np.sort(ids)[b.labels])
        a.check_consistency()
