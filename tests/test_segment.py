"""Connected segmentation: PGM I/O, merging, boundary correction, curves."""

import hashlib
import itertools

import numpy as np
import pytest

from helpers import labeled_energy
from khcluster import reclass
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
    """When transfer_delta promises a gain that the donor and acceptor
    energies, recomputed as the move would apply them, deny, the candidate
    is refused like a lock refusal: nothing moves, E keeps its bits and the
    audit passes. Applying a move fails the test instead of looping."""
    rng = np.random.default_rng(23)
    maps = [SegmentMap(GrayImage.from_array(np.array([[0.0, 10.0], [0.0, 10.0]])),
                       np.array([0, 0, 1, 1]))]
    for _ in range(3):
        arr = rng.choice([20.0, 120.0, 220.0], size=(5, 6)) + rng.integers(0, 3, (5, 6))
        maps.append(SegmentMap.from_image(GrayImage.from_array(arr)))
    for sm in maps:
        while sm.segment_count > 3:
            sm.merge_best()
        sm.correct_boundaries()
        sm = SegmentMap(sm.img, sm.labels)  # every segment dirty again
        labels, e = sm.labels, sm.total_e
        with monkeypatch.context() as patch:
            # a gain for every move that keeps its donor nonempty
            patch.setattr(reclass, "transfer_delta",
                          lambda hh, gg, k, n1, n2: -1.0 if k < n1 else np.inf)
            refused = []
            moved_stats = SegmentMap._moved_stats

            def recomputed(self, subset, don, acc):
                refused.append(subset)
                return moved_stats(self, subset, don, acc)

            def applied(self, *args):
                raise AssertionError("a move the energies deny was applied")

            patch.setattr(SegmentMap, "_moved_stats", recomputed)
            patch.setattr(SegmentMap, "_apply_move", applied)
            assert sm.correct_boundaries() == 0
        assert refused
        assert np.array_equal(sm.labels, labels) and sm.total_e == e
        sm.check_consistency()


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
    pieces, on a perturbed coordinate sum, on a perturbed contact count,
    on a dropped border pixel and on a border pixel of another segment."""
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
    sm = SegmentMap(img, intact)
    sm.adj[0][1] += 1
    with pytest.raises(InternalConsistencyError, match="contact"):
        sm.check_consistency()
    sm = SegmentMap(img, intact)
    sm.border[3].discard(4)
    with pytest.raises(InternalConsistencyError, match="border"):
        sm.check_consistency()
    sm = SegmentMap(img, intact)
    sm.border[0].add(1)
    with pytest.raises(InternalConsistencyError, match="border"):
        sm.check_consistency()


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
        for delta, don, acc, subset in cands:
            trial = SegmentMap(sm.img, sm.labels)
            trial._apply_move(subset, don, acc, trial._moved_stats(subset, don, acc))
            actual = labeled_energy(arr.reshape(-1, 1), trial.labels) - e
            assert abs(actual - delta) <= 1e-9 * (1.0 + e)
            group_moves += len(subset) > 1
    assert group_moves > 0


def test_ranked_deltas_have_the_bits_of_the_array_kernel():
    """Along merge curves of float images, every ranked delta has the bits
    reclass.transfer_deltas gives on numpy arrays, whose `** 2` squares as
    `x * x`; C pow, which a Python float's `** 2` calls, differs in about
    one square in a thousand."""
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


def test_dirty_borders_equal_a_filtered_full_rebuild(monkeypatch):
    """Every border listing along corrected curves equals a full rebuild,
    filtered to pairs that touch a dirty segment: one changed since the map
    was last boundary-stable."""
    real = SegmentMap._boundary_candidates
    seen = {True: 0, False: 0}

    def checked(self):
        got = real(self)
        lab = self.labels.reshape(self.h, self.w)
        pairs = set()
        for r in range(self.h):
            for c in range(self.w):
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= rr < self.h and 0 <= cc < self.w \
                            and lab[rr, cc] != lab[r, c]:
                        pairs.add((r * self.w + c, int(lab[rr, cc])))
        dirty = self._dirty
        assert dirty <= self.pixels.keys()
        pairs = {(q, a) for q, a in pairs if self.labels[q] in dirty or a in dirty}
        assert sorted(got) == sorted(pairs)
        seen[len(dirty) == len(self.pixels)] += 1
        return got

    monkeypatch.setattr(SegmentMap, "_boundary_candidates", checked)
    rng = np.random.default_rng(41)
    for _ in range(6):
        h, w = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        arr = (rng.choice([20.0, 90.0, 150.0, 220.0], size=(h, w))
               + rng.integers(0, 2, size=(h, w)))
        segment_curve(GrayImage.from_array(arr))
    assert seen[True] > 0 and seen[False] > 100


def test_rebuild_matches_a_brute_force_grid_scan():
    """On random labellings of every grid up to 6x6, strips included, the
    rebuilt contact counts, border sets and merge heap agree with a plain
    scan of the grid's 4-neighbour pairs by row and column."""
    rng = np.random.default_rng(61)
    for w in range(1, 7):
        for h in range(1, 7):
            for _ in range(4):
                img = GrayImage.from_array(rng.integers(0, 256, (h, w)).astype(float))
                lab = rng.integers(0, int(rng.integers(1, 7)), w * h)
                sm = SegmentMap(img, lab)
                ids = set(lab.tolist())
                adj = {s: {} for s in ids}
                border = {s: set() for s in ids}
                for r in range(h):
                    for c in range(w):
                        for rr, cc in ((r, c + 1), (r + 1, c)):
                            if rr == h or cc == w:
                                continue
                            p, q = r * w + c, rr * w + cc
                            s, t = int(lab[p]), int(lab[q])
                            if s != t:
                                adj[s][t] = adj[t][s] = adj[s].get(t, 0) + 1
                                border[s].add(p)
                                border[t].add(q)
                assert sm.adj == adj
                assert sm.border == border
                want = sorted(sm._edge(s, t) for s in adj for t in adj[s] if s < t)
                assert sorted(sm.heap) == want
                for cost, s, t, _, _ in want:
                    assert cost == pytest.approx(reclass.delta_e_merge(
                        *(ClusterStats.from_points(img.intensities[lab == u][:, None])
                          for u in (s, t))), rel=1e-9, abs=1e-9)
