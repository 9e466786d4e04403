"""Connected-segment approximation of grayscale images.

Segments are 4-connected pixel sets. A merging pass greedily unites the
adjacent pair with the smallest error increase, tracked with a lazily
invalidated heap over the region adjacency graph. Between merges, boundary
correction moves single pixels or same-intensity pixel groups across
segment borders whenever that lowers the total squared error, subject to a
connectivity lock: a move that would tear the donor apart is refused even
when its error delta is favorable. The lock is exact, with no window
heuristics: searches from the donor pixels next to the moved ones run in
turn and stop at the smaller side of a cut. Every segment carries a
version, bumped whenever its pixels change; it keys the heap entries and
the lock's passes. A lock refusal is keyed by the piece its search cut
off instead, and holds until a pixel of that piece, next to it or of the
moved subset changes label, so a merge or move elsewhere in the donor
leaves it cached. The segments changed since the map was last
boundary-stable form a dirty set. One structure holds the borders, the
facing sets: for adjacent segments s and t, the pixels of s with a
4-neighbour in t. Kept exact, they give the adjacency graph (their keys)
and every boundary candidate (their pixels), so a correction pass scores
the pairs of the dirty segments alone, in O(dirty border) rather than
O(image). The labelling and the per-segment statistics are plain Python
lists, squared so that their int and float arithmetic gives the bits of
the numpy kernels (see SegmentMap). One table of every pixel's
4-neighbours is the only description of the grid: the facing sets, the
connectivity lock and the region labeller all read it. One labeller of
4-connected regions of equal value finds the flat zones (regions of equal
intensity) and audits connectivity (regions of equal label, one per
segment). A pixel group is the pixels of equal intensity, which have
equal bits too (core.frozen_floats). The audit, check_consistency,
compares the map with a fresh one and changes nothing.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

import numpy as np

from . import core, reclass
from .core import (InputFormatError, InternalConsistencyError, PreconditionError,
                   _integer_labels, clamped_cluster_energy, frozen_floats, sigma)


@dataclass(frozen=True)
class GrayImage:
    """Grayscale raster, intensities in [0, 255], row-major flat storage.

    Stored through core.frozen_floats, so equal intensities have equal bits.
    """

    width: int
    height: int
    intensities: np.ndarray  # (width * height,) float64, read only

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise PreconditionError("image must have positive dimensions")
        px = frozen_floats(self.intensities)
        if px.shape != (self.width * self.height,):
            raise PreconditionError("intensity buffer does not match dimensions")
        if not np.all(np.isfinite(px)):
            raise PreconditionError("intensities must be finite")
        if px.min() < 0.0 or px.max() > 255.0:
            raise PreconditionError("intensities must lie in [0, 255]")
        object.__setattr__(self, "intensities", px)

    @classmethod
    def from_array(cls, arr) -> "GrayImage":
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim != 2:
            raise PreconditionError("expected a 2-D array of intensities")
        return cls(a.shape[1], a.shape[0], a.reshape(-1))

    @property
    def n_pixels(self) -> int:
        return self.width * self.height


# ---------------------------------------------------------------- PGM I/O

# Whitespace is space, TAB, LF, VT, FF and CR (\s of a bytes pattern); a
# comment runs from '#' up to the next of LF, VT, FF or CR. Tokens are the
# runs between them; finditer skips the whitespace between matches.
_PGM_TOKEN = re.compile(rb"#[^\n\v\f\r]*|([^\s#]+)")


def _position(buf: bytes, at: int) -> dict[str, int]:
    """1-based line and column of byte offset at; lines end at LF."""
    return {"line": buf.count(b"\n", 0, at) + 1,
            "column": at - buf.rfind(b"\n", 0, at)}


def _int_token(buf: bytes, tok: re.Match, lo: int, hi: int, what: str) -> int:
    """The integer a header field or P2 sample holds, checked to lie in [lo, hi].

    The token must be a run of ASCII digits: no sign, underscore or padding.
    """
    text = tok.group()
    if not text.isdigit():
        raise InputFormatError(
            f"{what} is not an integer: {text.decode('ascii', 'replace')!r}",
            **_position(buf, tok.start()))
    val = int(text)
    if not lo <= val <= hi:
        raise InputFormatError(f"{what} {val} outside [{lo}, {hi}]",
                               **_position(buf, tok.start()))
    return val


def read_pgm(path) -> GrayImage:
    """Read a P2 or P5 PGM file. Sample depth above 8 bits is rejected.

    Header fields, and P2 samples, are separated by whitespace (space, TAB,
    LF, VT, FF, CR) and comments, which run from '#' to the next LF, VT, FF
    or CR. The file starts with the magic token, exactly P2 or P5; header
    fields and P2 samples are runs of ASCII digits. A P5 raster starts right
    after the one whitespace byte that ends maxval. Malformed fields are
    reported with their line and column.
    """
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 2:
        raise InputFormatError("file too short for a PGM header", line=1, column=1)
    tokens = (t for t in _PGM_TOKEN.finditer(buf) if t.group(1))
    header = [next(tokens, None) for _ in range(4)]  # magic, width, height, maxval
    magic = buf[:header[0].end()] if header[0] is not None else buf
    if magic not in (b"P2", b"P5"):
        raise InputFormatError(
            f"unsupported magic {magic[:16].decode('ascii', 'replace')!r}, "
            "expected P2 or P5", line=1, column=1)
    if header[3] is None:
        raise InputFormatError("truncated header", **_position(buf, len(buf)))
    width = _int_token(buf, header[1], 1, 1 << 20, "width")
    height = _int_token(buf, header[2], 1, 1 << 20, "height")
    maxval = _int_token(buf, header[3], 1, 255, "maxval")
    n = width * height

    if magic == b"P5":
        data_at = header[3].end()
        data_at += buf[data_at:data_at + 1].isspace()
        raw = buf[data_at:data_at + n]
        if len(raw) < n:
            raise InputFormatError(
                f"raster holds {len(raw)} bytes, expected {n}")
        px = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
        if px.max(initial=0.0) > maxval:
            raise InputFormatError(f"sample exceeds declared maxval {maxval}")
        return GrayImage(width, height, px)

    vals = [_int_token(buf, t, 0, maxval, "sample") for t in tokens]
    if len(vals) != n:
        raise InputFormatError(f"raster holds {len(vals)} samples, expected {n}")
    return GrayImage(width, height, np.asarray(vals, dtype=np.float64))


def write_pgm(img: GrayImage, path) -> None:
    """Write 8-bit binary (P5) PGM; intensities round half up to the nearest integer."""
    px = np.clip(np.floor(img.intensities + 0.5), 0, 255).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(px.tobytes())


# ------------------------------------------------------------- segment map

def _neighbor_table(w: int, h: int) -> tuple[tuple[int, ...], ...]:
    """The 4-neighbours of every pixel, in the order up, down, left, right."""
    n = w * h
    table = list(zip(range(-w, n - w), range(w, n + w),
                     range(-1, n - 1), range(1, n + 1)))
    edge = {*range(w), *range(n - w, n), *range(0, n, w), *range(w - 1, n, w)}
    for p in edge:
        r, c = divmod(p, w)
        table[p] = tuple(q for q, inside in ((p - w, r > 0), (p + w, r < h - 1),
                                             (p - 1, c > 0), (p + 1, c < w - 1))
                         if inside)
    return tuple(table)


@dataclass(frozen=True)
class CurveRow:
    count: int
    error: float
    sigma: float


class SegmentMap:
    """Mutable segmentation with exact sufficient statistics per segment.

    The labelling and the per-segment counts, sums, sums of squares and
    versions are Python lists, so merges, heap entries, moves and the lock
    cache do plain int and float arithmetic; labels is a read-only numpy
    copy made on demand. A segment's energy squares its sum with `** 2`
    (C pow, as on a numpy scalar) and a move's delta squares with `h * h`
    (as numpy squares an array), which keeps every E bit the same as the
    numpy kernels give.

    Segment ids are dense at construction: the ranks of the given labels,
    so every comparison of ids keeps its result, and labels maps them back
    to the given values. Merging kills ids but never creates them; the
    live ids are the keys of pixels. The merge heap is
    lazily invalidated: every entry carries the version of both endpoints
    and is discarded when either version moved on, which also discards
    every entry of a merged-away id. facing[s][t] is the set of pixels of s
    that have a 4-neighbour in t, so the keys of facing[s] are the
    neighbours of s. The sets are exact: a merge unites them, a move takes
    the moved pixels and their neighbours out and puts them back by the
    new labelling, and a set that empties is deleted with its key.
    _dirty holds the live segments changed since the map was last
    boundary-stable; after a refresh, every segment that can donate (two or
    more pixels). Every admissible move has such a donor, and the facing
    sets of a dirty segment hold all its moves, so the moves found are
    those of a map with every segment dirty.

    Every core.REFRESH_INTERVAL merges and moves, a refresh recomputes the
    statistics from the labelling. When they have the bits of the running
    ones (on 8-bit images, whose sums stay exact), it only sets total_e to
    the fresh sum of the segment energies, marks every donor dirty, empties
    the lock caches and drops the heap's stale entries: a rebuild would
    change nothing else, since the heap holds one valid entry per edge,
    costed from the same statistics, and valid entries pop in the order of
    their (cost, ids). Otherwise (drift, as on float images) it rebuilds.

    The lock caches a pass against the donor's version, and a refusal
    against the piece C of the donor minus the subset that its search
    walked: the refusal holds while no pixel of C, next to C or of the
    subset has changed label and the donor holds pixels outside the
    subset and C. Each of those pixels watches the refusal, and a label
    change drops the refusals its pixel watches.
    """

    def __init__(self, img: GrayImage, labels: np.ndarray):
        self.img = img
        self.w, self.h = img.width, img.height
        self._nbrs = _neighbor_table(self.w, self.h)
        if np.shape(labels) != (img.n_pixels,):
            raise PreconditionError("label buffer does not match the image")
        ints = _integer_labels(labels)
        if ints.min() < 0:
            raise PreconditionError("labels must be nonnegative integers")
        self._ids, dense = np.unique(ints, return_inverse=True)  # id -> given label
        self._labels: list[int] = dense.reshape(-1).tolist()
        self._px: list[float] = img.intensities.tolist()
        self.version = [0] * self._ids.size
        self._ops = 0
        self._rebuild()

    # -- construction

    @classmethod
    def from_image(cls, img: GrayImage, init: str = "pixels") -> "SegmentMap":
        if init == "pixels":
            return cls(img, np.arange(img.n_pixels, dtype=np.int64))
        if init == "flat_zones":
            return cls(img, _regions(_neighbor_table(img.width, img.height),
                                     img.intensities))
        raise PreconditionError(f"unknown init {init!r}")

    def _fresh_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The count, sum and sum of squares of every segment id, recomputed
        from the labelling."""
        lab = np.fromiter(self._labels, np.int64, len(self._labels))
        px = self.img.intensities
        cap = len(self.version)
        return (np.bincount(lab, minlength=cap), np.bincount(lab, weights=px, minlength=cap),
                np.bincount(lab, weights=px * px, minlength=cap))

    def _rebuild(self) -> None:
        """Recompute every derived structure from the labelling; every
        segment gets a new version, and those that can donate become dirty."""
        counts, sums, sumsqs = self._fresh_stats()
        self.counts: list[int] = counts.tolist()
        self.sums: list[float] = sums.tolist()
        self.sumsqs: list[float] = sumsqs.tolist()
        pixels: dict[int, set[int]] = {}
        for p, s in enumerate(self._labels):
            if s in pixels:
                pixels[s].add(p)
            else:
                pixels[s] = {p}
        self.pixels = pixels
        self.facing: dict[int, dict[int, set[int]]] = {s: {} for s in pixels}
        self._file(range(len(self._labels)))
        self.version = [v + 1 for v in self.version]
        self.heap: list[tuple] = []
        for u, row in self.facing.items():
            self._push_edges(u, [v for v in row if u < v])
        self._restart()

    def _restart(self) -> None:
        """Restart from fresh statistics: total_e becomes the fresh sum of
        the segment energies, every segment that can donate becomes dirty,
        and the lock caches empty."""
        self.total_e = float(sum(self._seg_energy(s) for s in range(len(self.counts))
                                 if self.counts[s]))
        self._dirty = {s for s in self.pixels if self.counts[s] >= 2}
        self._passes: dict[tuple[int, tuple[int, ...]], int] = {}  # -> donor version
        self._refusals: dict[tuple[int, tuple[int, ...]], int] = {}  # -> piece size
        self._watchers: dict[int, list[tuple[int, tuple[int, ...]]]] = {}  # pixel -> keys

    def _refresh(self) -> None:
        """Rebuild, unless the fresh statistics have the bits of the running
        ones; then a rebuild would change nothing but what _restart sets,
        and the heap keeps its valid entries only."""
        fresh = self._fresh_stats()
        if all(f.tobytes() == np.array(run, f.dtype).tobytes()
               for f, run in zip(fresh, (self.counts, self.sums, self.sumsqs))):
            v = self.version
            self.heap = [e for e in self.heap if e[3] == v[e[1]] and e[4] == v[e[2]]]
            heapq.heapify(self.heap)
            self._restart()
        else:
            self._rebuild()

    # -- bookkeeping primitives

    @property
    def labels(self) -> np.ndarray:
        """The label of every pixel's segment, in the values the map was
        given, as a read-only copy."""
        lab = self._ids[np.fromiter(self._labels, np.int64, len(self._labels))]
        lab.setflags(write=False)
        return lab

    def _seg_energy(self, s: int) -> float:
        return clamped_cluster_energy(self.sumsqs[s], self.sums[s] ** 2, self.counts[s])

    def _push_edges(self, s: int, ts) -> None:
        """Push the heap entry of the merge of s with each segment of ts:
        (cost, lower id, higher id, their versions). The centroid
        difference is negated when s is the higher id, which keeps its
        square's bits."""
        counts, sums, version, heap = self.counts, self.sums, self.version, self.heap
        n, mean, v = counts[s], sums[s] / counts[s], version[s]
        for t in ts:
            m = counts[t]
            d = mean - sums[t] / m
            cost = reclass.merge_deltas(d * d, n, m)
            heapq.heappush(heap, (cost, s, t, v, version[t]) if s < t
                           else (cost, t, s, version[t], v))

    def _file(self, ps) -> None:
        """Put each pixel of ps into facing[s][t], s its segment, for every
        other segment t among its 4-neighbours."""
        lab, nbrs, facing = self._labels, self._nbrs, self.facing
        for p in ps:
            s = lab[p]
            row = facing[s]
            for q in nbrs[p]:
                t = lab[q]
                if t != s:
                    if t in row:
                        row[t].add(p)
                    else:
                        row[t] = {p}

    def _neighbors(self, p: int) -> tuple[int, ...]:
        return self._nbrs[p]

    def _tick(self) -> None:
        self._ops += 1
        if self._ops % core.REFRESH_INTERVAL == 0:
            self._refresh()

    @property
    def segment_count(self) -> int:
        return len(self.pixels)

    def segment_sigma(self) -> float:
        return sigma(self.total_e, self.img.n_pixels)

    # -- merging

    def merge_best(self) -> tuple[int, int]:
        """Merge the adjacent pair with minimal error increase.

        Returns (kept, absorbed). Cost ties resolve to the lowest id pair,
        the survivor is the larger segment, equal sizes keep the lower id.
        """
        if self.segment_count < 2:
            raise PreconditionError("merging needs at least two segments")
        while self.heap:
            cost, a, b, va, vb = heapq.heappop(self.heap)
            if va == self.version[a] and vb == self.version[b]:
                return self._merge(a, b)
        raise InternalConsistencyError("adjacency exists but the heap ran dry")

    def _merge(self, a: int, b: int) -> tuple[int, int]:
        counts = self.counts
        if counts[b] > counts[a] or (counts[b] == counts[a] and b < a):
            a, b = b, a
        # a survives, b dies
        e_before = self._seg_energy(a) + self._seg_energy(b)
        lab, moved = self._labels, self.pixels.pop(b)
        for p in moved:
            lab[p] = a
        self._forget_refusals(moved)
        self.pixels[a] |= moved
        counts[a] += counts[b]
        self.sums[a] += self.sums[b]
        self.sumsqs[a] += self.sumsqs[b]
        counts[b] = 0
        self.sums[b] = 0.0
        self.sumsqs[b] = 0.0
        self.total_e += self._seg_energy(a) - e_before

        facing = self.facing
        row_a, row_b = facing[a], facing.pop(b)
        del row_a[b], row_b[a]
        for t, from_b in row_b.items():
            row_t = facing[t]
            to_b = row_t.pop(b)
            if t in row_a:  # t borders both
                row_a[t] = _union(row_a[t], from_b)
                row_t[a] = _union(row_t[a], to_b)
            else:
                row_a[t], row_t[a] = from_b, to_b
        self.version[a] += 1
        self.version[b] += 1
        self._dirty.discard(b)
        self._dirty.add(a)
        self._push_edges(a, row_a)
        self._tick()
        return a, b

    # -- boundary correction

    def _ranked_moves(self, below: float):
        """Boundary moves predicted to change the error by less than below.

        Candidates are single border pixels and groups (k >= 2) of equal
        intensity that share donor and acceptor. Yields (delta, donor,
        acceptor, subset) in (delta, donor, acceptor, lead pixel, k)
        order. Only pairs that touch a dirty segment are scored:
        statistics elsewhere are unchanged since the map was last
        boundary-stable, so a new improving move must take from or give to
        a dirty segment. Each pair (s, t) with s dirty is visited once and
        scored both ways, from facing[s][t] and facing[t][s]. The pixels of
        a group share one single move delta, so it is computed once per
        group, and the single move's size factors once per direction.

        The delta is the closed form of reclass.transfer_deltas, written
        out on Python numbers with the same bits: each size factor is an
        int quotient, which rounds once, as numpy's quotient of two exact
        doubles does. A move that would empty its donor (k = n1) is not
        scored; transfer_deltas gives it +inf.
        """
        counts, sums, px, facing = self.counts, self.sums, self._px, self.facing
        dirty = self._dirty
        ranked = []
        for s in dirty:
            for t, toward_t in facing[s].items():
                if t < s and t in dirty:
                    continue  # visited from t
                for don, acc, border in ((s, t, toward_t), (t, s, facing[t][s])):
                    n1 = counts[don]
                    if n1 < 2:  # a move may not empty its donor
                        continue
                    n2 = counts[acc]
                    mean_d, mean_a = sums[don] / n1, sums[acc] / n2
                    away, home = n2 / (1 + n2), n1 / (n1 - 1)  # k = 1
                    groups: dict[float, list[int]] = {}
                    for p in border:
                        if (ps := groups.get(px[p])) is None:
                            groups[px[p]] = [p]
                        else:
                            ps.append(p)
                    for ps in groups.values():
                        x = px[ps[0]]
                        h = x - mean_d
                        g = x - mean_a
                        hh, gg = h * h, g * g
                        delta = gg * away - hh * home
                        if delta < below:
                            ranked += [(delta, don, acc, p, 1, (p,)) for p in ps]
                        k = len(ps)
                        if 2 <= k < n1:
                            delta = gg * (k * n2 / (k + n2)) - hh * (k * n1 / (n1 - k))
                            if delta < below:
                                ps.sort()
                                ranked.append((delta, don, acc, ps[0], k, tuple(ps)))
        ranked.sort()
        for delta, don, acc, _, _, subset in ranked:
            yield delta, don, acc, subset

    def _donor_survives(self, subset: tuple[int, ...], don: int) -> bool:
        """True when removing the subset keeps the donor 4-connected.

        Exact: one search starts from each donor pixel next to the subset
        (at most 4k seeds), all over the donor minus the subset, and they
        advance in turn, one pixel each. Searches that meet join. The
        answer is yes once a single search is left, and no as soon as a
        search runs dry while others remain, i.e. it has walked a whole
        piece that holds no other seed. A refusal thus costs about
        (seeds) x (size of the smallest piece), not the whole donor.
        A pass is cached against the donor's version, a refusal against
        the piece it walked (see SegmentMap).
        """
        key = (don, subset)
        size = self._refusals.get(key)
        if size is not None and self.counts[don] > len(subset) + size:
            return False
        if self._passes.get(key) == self.version[don]:
            return True
        piece = self._cut_piece(subset, don)
        if piece is None:
            self._passes[key] = self.version[don]
            return True
        self._refusals[key] = len(piece)
        watchers, nbrs = self._watchers, self._nbrs
        for p in {q for p in piece for q in nbrs[p]}.union(piece, subset):
            watchers.setdefault(p, []).append(key)
        return False

    def _forget_refusals(self, ps) -> None:
        """Drop the cached refusals that a pixel of ps watches; ps change label."""
        watchers, refusals = self._watchers, self._refusals
        if not watchers:
            return
        for p in ps:
            for key in watchers.pop(p, ()):
                refusals.pop(key, None)

    def _donor_survives_uncached(self, subset: tuple[int, ...], don: int) -> bool:
        """The lock's verdict, searched afresh."""
        return self._cut_piece(subset, don) is None

    def _cut_piece(self, subset: tuple[int, ...], don: int) -> list[int] | None:
        """None when removing the subset keeps the donor 4-connected, else
        the pixels of the piece whose search ran dry: a whole 4-connected
        piece of the donor minus the subset, with other donor pixels
        outside it."""
        pix = self.pixels[don]
        moved = set(subset)
        seeds = sorted({q for p in subset for q in self._neighbors(p)
                        if q in pix and q not in moved})
        if len(seeds) <= 1:
            # nothing to reconnect; the rest of the donor was not touching
            # the subset, so its connectivity is unchanged
            return None
        owner = dict(zip(seeds, range(len(seeds))))  # pixel -> search that took it
        parent = list(range(len(seeds)))
        stacks = [[q] for q in seeds]
        live = len(seeds)

        def root(j: int) -> int:
            while parent[j] != j:
                j = parent[j]
            return j

        while True:
            for i, stack in enumerate(stacks):
                if parent[i] != i:
                    continue
                if not stack:
                    mine = {j for j in range(len(seeds)) if root(j) == i}
                    return [q for q, j in owner.items() if j in mine]
                for q in self._neighbors(stack.pop()):
                    if q not in pix or q in moved:
                        continue
                    j = owner.get(q)
                    if j is None:
                        owner[q] = i
                        stack.append(q)
                        continue
                    while parent[j] != j:
                        j = parent[j]
                    if j != i:
                        parent[j] = i
                        stack.extend(stacks[j])
                        stacks[j] = []
                        live -= 1
                        if live == 1:
                            return None

    def _moved_stats(self, subset: tuple[int, ...], don: int, acc: int):
        """The count, sum and sum of squares of the donor and of the
        acceptor after moving the subset, and the change of E from their
        energies after minus before: the numbers _apply_move applies."""
        # numpy sums the subset, so the statistics keep numpy's bits
        x = self.img.intensities[list(subset)]
        k, s, ss = len(subset), float(x.sum()), float((x * x).sum())
        counts, sums, sumsqs = self.counts, self.sums, self.sumsqs
        n_d, s_d, ss_d = counts[don] - k, sums[don] - s, sumsqs[don] - ss
        n_a, s_a, ss_a = counts[acc] + k, sums[acc] + s, sumsqs[acc] + ss
        e_after = (clamped_cluster_energy(ss_d, s_d ** 2, n_d)
                   + clamped_cluster_energy(ss_a, s_a ** 2, n_a))
        change = e_after - (self._seg_energy(don) + self._seg_energy(acc))
        return n_d, s_d, ss_d, n_a, s_a, ss_a, change

    def _apply_move(self, subset: tuple[int, ...], don: int, acc: int,
                    stats: tuple) -> None:
        """Move the subset from don to acc; stats is its _moved_stats.

        Only the moved pixels and their neighbours can change which facing
        sets hold them: they leave every set by the old labelling and
        rejoin by the new one, and the sets left empty go with their keys.
        """
        lab, nbrs, facing = self._labels, self._nbrs, self.facing
        touched = {q for p in subset for q in (p, *nbrs[p])}
        for p in touched:
            s = lab[p]
            row = facing[s]
            for q in nbrs[p]:
                if lab[q] != s:
                    row[lab[q]].discard(p)
        for p in subset:
            lab[p] = acc
            self.pixels[don].discard(p)
            self.pixels[acc].add(p)
        self._forget_refusals(subset)
        self._file(touched)
        for s in (don, acc):
            for t in [t for t, f in facing[s].items() if not f]:
                del facing[s][t], facing[t][s]
        (self.counts[don], self.sums[don], self.sumsqs[don],
         self.counts[acc], self.sums[acc], self.sumsqs[acc], change) = stats
        self.total_e += change
        self.version[don] += 1
        self.version[acc] += 1
        self._dirty.update((don, acc))
        self._push_edges(don, facing[don])
        self._push_edges(acc, [t for t in facing[acc] if t != don])
        self._tick()

    def correct_boundaries(self) -> int:
        """Apply improving boundary moves, best first, until none is admissible.

        Candidates are single border pixels and same-intensity groups of
        them; a candidate is applied only if the donor stays connected and
        its change of E, recomputed from the donor and acceptor energies
        as _apply_move applies it, lies below -move_tolerance(E). So E falls
        by more than the tolerance with every move, and the loop ends by
        construction. A refused candidate passes to the next, as after a
        lock refusal. Returns the number of moves performed.
        """
        n_moves = 0
        while self.segment_count >= 2:
            tau = reclass.move_tolerance(self.total_e)
            for _, dn, ac, subset in self._ranked_moves(-tau):
                if self._donor_survives(subset, dn) and \
                        (stats := self._moved_stats(subset, dn, ac))[-1] < -tau:
                    self._apply_move(subset, dn, ac, stats)
                    n_moves += 1
                    break
            else:
                self._dirty.clear()
                break
        return n_moves

    # -- outputs

    def approximation(self) -> GrayImage:
        sums, counts = np.array(self.sums), np.array(self.counts)
        means = np.zeros_like(sums)
        np.divide(sums, counts, out=means, where=counts > 0)
        return GrayImage(self.w, self.h, means[self._labels])

    def check_consistency(self) -> None:
        """Compare the live segments with a fresh map of the same labelling;
        the map itself is left untouched. The fresh map's ids are the ranks
        of the live ids, so its id k is the k-th live id here."""
        fresh = SegmentMap(self.img, self.labels)
        live = sorted(self.pixels)
        if self.pixels != {live[k]: pix for k, pix in fresh.pixels.items()}:
            raise InternalConsistencyError("segment membership drifted")
        if [self.counts[s] for s in live] != fresh.counts:
            raise InternalConsistencyError("segment counts drifted")
        if self.facing != {live[k]: {live[t]: pix for t, pix in row.items()}
                           for k, row in fresh.facing.items()}:
            raise InternalConsistencyError("facing sets drifted")
        sums, want = np.array([self.sums[s] for s in live]), np.array(fresh.sums)
        if abs(self.total_e - fresh.total_e) > 1e-9 * (1.0 + abs(fresh.total_e)) or \
                np.abs(sums - want).max() > 1e-9 * (1.0 + np.abs(want).max()):
            raise InternalConsistencyError("running statistics drifted")
        # each segment is one region of equal label iff the regions number
        # as many as the segments
        pieces = int(_regions(self._nbrs, self.labels).max()) + 1
        if pieces != self.segment_count:
            raise InternalConsistencyError(
                f"{self.segment_count} segments lie in {pieces} connected pieces")


def _union(kept: set[int], other: set[int]) -> set[int]:
    """kept | other, built by adding the smaller set to the larger."""
    if len(kept) < len(other):
        kept, other = other, kept
    kept |= other
    return kept


def _regions(nbrs: tuple[tuple[int, ...], ...], values: np.ndarray) -> np.ndarray:
    """Labels of the 4-connected regions of equal value, ids in scan order.

    nbrs is a _neighbor_table and values an array of one value per pixel.
    """
    vals = values.tolist()
    labels = [-1] * len(vals)
    nxt = 0
    for start, v in enumerate(vals):
        if labels[start] >= 0:
            continue
        labels[start] = nxt
        stack = [start]
        while stack:
            for q in nbrs[stack.pop()]:
                if labels[q] < 0 and vals[q] == v:
                    labels[q] = nxt
                    stack.append(q)
        nxt += 1
    return np.array(labels, dtype=np.int64)


@dataclass
class SegmentCurveResult:
    merge_only: list[CurveRow] = field(default_factory=list)
    corrected: list[CurveRow] = field(default_factory=list)
    final_merge_only: SegmentMap | None = None
    final_corrected: SegmentMap | None = None


def segment_curve(img: GrayImage, m_min: int = 1,
                  init: str = "pixels") -> SegmentCurveResult:
    """Merge down to m_min segments, with and without boundary correction.

    The two runs are independent; corrections change segment statistics, so
    later merge choices may diverge between them. Each run records one row
    per segment count from the initial count down to m_min.
    """
    if m_min < 1:
        raise PreconditionError("cannot stop below one segment")
    out = SegmentCurveResult()

    for correct, rows in ((False, out.merge_only), (True, out.corrected)):
        sm = SegmentMap.from_image(img, init)
        if sm.segment_count < m_min:
            raise PreconditionError(f"the image starts at {sm.segment_count} "
                                    f"segments, fewer than the {m_min} to stop at")
        rows.append(CurveRow(sm.segment_count, sm.total_e, sm.segment_sigma()))
        while sm.segment_count > m_min:
            sm.merge_best()
            if correct:
                sm.correct_boundaries()
            rows.append(CurveRow(sm.segment_count, sm.total_e, sm.segment_sigma()))
        if correct:
            out.final_corrected = sm
        else:
            out.final_merge_only = sm
    return out
