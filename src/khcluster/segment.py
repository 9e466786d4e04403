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
the lock cache. The segments changed since the map was last
boundary-stable form a dirty set, and each segment keeps a superset of its
border pixels, so a correction pass lists the candidates of the dirty
borders alone, in O(dirty border) rather than O(image). The labelling and
the per-segment statistics are plain Python lists, squared so that their
int and float arithmetic gives the bits of the numpy kernels (see
SegmentMap). Contact counts (the number of adjacent pixel pairs
straddling each segment border) are maintained exactly so the adjacency
graph never drifts from the labelling. One table of every pixel's
4-neighbours is the only description of the grid: the rebuild of the
derived state, the border scans, the connectivity lock and the region
labeller all read it. One labeller of 4-connected regions of equal value
finds the flat zones (regions of equal intensity) and audits connectivity
(regions of equal label, one per segment).
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

import numpy as np

from . import reclass
from .core import (REFRESH_INTERVAL, InputFormatError,
                   InternalConsistencyError, PreconditionError,
                   clamped_cluster_energy, sigma)


@dataclass(frozen=True)
class GrayImage:
    """Grayscale raster, intensities in [0, 255], row-major flat storage."""

    width: int
    height: int
    intensities: np.ndarray  # (width * height,) float64, read only

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise PreconditionError("image must have positive dimensions")
        px = np.asarray(self.intensities, dtype=np.float64)
        if px.shape != (self.width * self.height,):
            raise PreconditionError("intensity buffer does not match dimensions")
        if not np.all(np.isfinite(px)):
            raise PreconditionError("intensities must be finite")
        if px.min() < 0.0 or px.max() > 255.0:
            raise PreconditionError("intensities must lie in [0, 255]")
        px = px.copy()
        px.setflags(write=False)
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

    Segment ids are dense at construction; merging kills ids but never
    creates them; the live ids are the keys of pixels. The merge heap is
    lazily invalidated: every entry carries the version of both endpoints
    and is discarded when either version moved on, which also discards
    every entry of a merged-away id. adj[s][t] is the number of 4-neighbour
    pixel pairs straddling the border of s and t, kept in both directions.
    Each pixel move and merge updates it from the labelling before it
    changes, so adjacency stays exact. border[s] is a superset of the
    pixels of s that have a foreign 4-neighbour, and holds only pixels of
    s: a merge unites the two sets, a move adds the moved pixels and their
    neighbours, and a border scan drops the pixels it finds interior.
    _dirty holds the live segments changed since the map was last
    boundary-stable (all of them after a rebuild).
    """

    def __init__(self, img: GrayImage, labels: np.ndarray):
        self.img = img
        self.w, self.h = img.width, img.height
        self._nbrs = _neighbor_table(self.w, self.h)
        lab = np.asarray(labels, dtype=np.int64)
        if lab.shape != (img.n_pixels,):
            raise PreconditionError("label buffer does not match the image")
        self._labels: list[int] = lab.tolist()
        self._px: list[float] = img.intensities.tolist()
        self._bits: list[int] = img.intensities.view(np.int64).tolist()
        self.version = [0] * (int(lab.max()) + 1)
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

    def _rebuild(self) -> None:
        """Recompute every derived structure from the labelling; every
        segment becomes dirty and gets a new version."""
        lab = self.labels
        px = self.img.intensities
        cap = len(self.version)
        self.counts: list[int] = np.bincount(lab, minlength=cap).tolist()
        self.sums: list[float] = np.bincount(lab, weights=px, minlength=cap).tolist()
        self.sumsqs: list[float] = np.bincount(lab, weights=px * px,
                                               minlength=cap).tolist()
        pixels: dict[int, set[int]] = {}
        adj: dict[int, dict[int, int]] = {}
        border: dict[int, set[int]] = {}
        labels, nbrs = self._labels, self._nbrs
        for p, s in enumerate(labels):
            if s not in pixels:
                pixels[s], adj[s], border[s] = set(), {}, set()
            pixels[s].add(p)
            for q in nbrs[p]:
                t = labels[q]
                if t != s:  # a straddling pair counts in adj[s][t] from the side of s
                    border[s].add(p)
                    adj[s][t] = adj[s].get(t, 0) + 1
        self.pixels, self.adj, self.border = pixels, adj, border
        self.total_e = float(sum(self._seg_energy(s) for s in range(cap)
                                 if self.counts[s]))
        self.version = [v + 1 for v in self.version]
        self._dirty = set(self.pixels)
        self._lock_cache: dict[tuple[int, tuple[int, ...]], tuple[int, bool]] = {}
        self.heap = [self._edge(u, v) for u, row in self.adj.items() for v in row if u < v]
        heapq.heapify(self.heap)

    # -- bookkeeping primitives

    @property
    def labels(self) -> np.ndarray:
        """The segment id of every pixel, as a read-only copy."""
        lab = np.fromiter(self._labels, np.int64, len(self._labels))
        lab.setflags(write=False)
        return lab

    def _seg_energy(self, s: int) -> float:
        return clamped_cluster_energy(self.sumsqs[s], self.sums[s] ** 2, self.counts[s])

    def _edge(self, a: int, b: int) -> tuple:
        """The heap entry of the merge of a and b, a < b."""
        na, nb = self.counts[a], self.counts[b]
        d = self.sums[a] / na - self.sums[b] / nb
        return reclass.merge_deltas(d * d, na, nb), a, b, self.version[a], self.version[b]

    def _push_edge(self, a: int, b: int) -> None:
        heapq.heappush(self.heap, self._edge(a, b) if a < b else self._edge(b, a))

    def _neighbors(self, p: int) -> tuple[int, ...]:
        return self._nbrs[p]

    def _tick(self) -> None:
        self._ops += 1
        if self._ops % REFRESH_INTERVAL == 0:
            self._rebuild()

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
        lab = self._labels
        for p in self.pixels[b]:
            lab[p] = a
        self.pixels[a] |= self.pixels.pop(b)
        self.border[a] |= self.border.pop(b)
        counts[a] += counts[b]
        self.sums[a] += self.sums[b]
        self.sumsqs[a] += self.sumsqs[b]
        counts[b] = 0
        self.sums[b] = 0.0
        self.sumsqs[b] = 0.0
        self.total_e += self._seg_energy(a) - e_before

        for t, c in self.adj.pop(b).items():
            del self.adj[t][b]
            if t != a:
                self.adj[a][t] = self.adj[t][a] = self.adj[a].get(t, 0) + c
        self.version[a] += 1
        self.version[b] += 1
        self._dirty.discard(b)
        self._dirty.add(a)
        for t in self.adj[a]:
            self._push_edge(a, t)
        self._tick()
        return a, b

    # -- boundary correction

    def _boundary_candidates(self) -> set[tuple[int, int]]:
        """(pixel, acceptor) pairs where a pixel borders a foreign segment.

        Only pairs that touch a dirty segment are listed: stats elsewhere
        are unchanged since the map was last boundary-stable, so a new
        improving move must take from or give to a dirty segment. They are
        found from the border sets of the dirty segments alone, in
        O(dirty border): a border pixel p of s lists (p, t) for every
        foreign neighbour's segment t, and that neighbour q lists (q, s).
        Pixels found interior leave the border set.
        """
        lab, nbrs = self._labels, self._nbrs
        pairs = set()
        for s in self._dirty:
            inner = []
            for p in self.border[s]:
                foreign = False
                for q in nbrs[p]:
                    t = lab[q]
                    if t != s:
                        foreign = True
                        pairs.add((p, t))
                        pairs.add((q, s))
                if not foreign:
                    inner.append(p)
            self.border[s].difference_update(inner)
        return pairs

    def _ranked_moves(self, below: float):
        """Boundary moves predicted to change the error by less than below.

        Candidates are single border pixels and groups (k >= 2) of
        bit-identical intensity that share donor and acceptor. Yields
        (delta, donor, acceptor, subset) in (delta, donor, acceptor, lead
        pixel, k) order. Only borders of dirty segments are considered (see
        _boundary_candidates); a group shares its donor and acceptor, so it
        is kept or dropped whole. The pixels of a group share one single
        move delta, so it is computed once per group.
        """
        lab, counts, sums, px = self._labels, self.counts, self.sums, self._px
        groups: dict[tuple[int, int, int], list[int]] = {}
        for p, acc in self._boundary_candidates():
            don = lab[p]
            if counts[don] >= 2:  # a move may not empty its donor
                groups.setdefault((don, acc, self._bits[p]), []).append(p)
        ranked = []
        for (don, acc, _), ps in groups.items():
            n1, n2 = counts[don], counts[acc]
            x = px[ps[0]]
            h = x - sums[don] / n1
            g = x - sums[acc] / n2
            hh, gg = h * h, g * g
            delta = reclass.transfer_delta(hh, gg, 1, n1, n2)
            if delta < below:
                ranked += [(delta, don, acc, p, 1, (p,)) for p in ps]
            k = len(ps)
            if k >= 2:
                delta = reclass.transfer_delta(hh, gg, k, n1, n2)
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
        Results are cached against the donor's version: a verdict stays
        valid until the donor's pixel set changes.
        """
        key = (don, subset)
        hit = self._lock_cache.get(key)
        if hit is not None and hit[0] == self.version[don]:
            return hit[1]
        ok = self._donor_survives_uncached(subset, don)
        self._lock_cache[key] = (self.version[don], ok)
        return ok

    def _donor_survives_uncached(self, subset: tuple[int, ...], don: int) -> bool:
        pix = self.pixels[don]
        moved = set(subset)
        seeds = sorted({q for p in subset for q in self._neighbors(p)
                        if q in pix and q not in moved})
        if len(seeds) <= 1:
            # nothing to reconnect; the rest of the donor was not touching
            # the subset, so its connectivity is unchanged
            return True
        owner = dict(zip(seeds, range(len(seeds))))  # pixel -> search that took it
        parent = list(range(len(seeds)))
        stacks = [[q] for q in seeds]
        live = len(seeds)
        while True:
            for i, stack in enumerate(stacks):
                if parent[i] != i:
                    continue
                if not stack:
                    return False
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
                            return True

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
        """Move the subset from don to acc; stats is its _moved_stats."""
        lab, nbrs, border = self._labels, self._nbrs, self.border
        moved = set(subset)
        # contact updates read the labelling before it changes
        for p in subset:
            for q in nbrs[p]:
                if q in moved:
                    continue
                t = lab[q]
                if t == don:
                    self._contact_inc(acc, don)
                elif t == acc:
                    self._contact_dec(don, acc)
                else:
                    self._contact_dec(don, t)
                    self._contact_inc(acc, t)
        for p in subset:
            lab[p] = acc
            self.pixels[don].discard(p)
            self.pixels[acc].add(p)
            border[don].discard(p)
        for p in subset:
            for q in (p, *nbrs[p]):
                border[lab[q]].add(q)
        (self.counts[don], self.sums[don], self.sumsqs[don],
         self.counts[acc], self.sums[acc], self.sumsqs[acc], change) = stats
        self.total_e += change
        self.version[don] += 1
        self.version[acc] += 1
        self._dirty.update((don, acc))
        for t in self.adj[don]:
            self._push_edge(don, t)
        for t in self.adj[acc]:
            if t != don:
                self._push_edge(acc, t)
        self._tick()

    def _contact_inc(self, a: int, b: int) -> None:
        self.adj[a][b] = self.adj[b][a] = self.adj[a].get(b, 0) + 1

    def _contact_dec(self, a: int, b: int) -> None:
        left = self.adj[a][b] - 1
        if left:
            self.adj[a][b] = self.adj[b][a] = left
        else:
            del self.adj[a][b], self.adj[b][a]

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
        return GrayImage(self.w, self.h, means[self.labels])

    def check_consistency(self) -> None:
        """Recompute all derived state from the labelling and compare."""
        snapshot = (list(self.counts), np.array(self.sums),
                    {k: dict(v) for k, v in self.adj.items()},
                    {k: set(v) for k, v in self.pixels.items()},
                    {k: set(v) for k, v in self.border.items()}, self.total_e)
        self._rebuild()
        counts, sums, adj, pixels, border, e = snapshot
        if counts != self.counts:
            raise InternalConsistencyError("segment counts drifted")
        if adj != self.adj:
            raise InternalConsistencyError("contact counts drifted")
        if pixels != self.pixels:
            raise InternalConsistencyError("segment membership drifted")
        # the rebuilt border sets are exact; the kept ones may hold more,
        # but only pixels of their own segment
        if border.keys() != self.border.keys() or any(
                not self.border[s] <= border[s] <= self.pixels[s] for s in border):
            raise InternalConsistencyError("border sets drifted")
        fresh = np.array(self.sums)
        scale = 1e-9 * (1.0 + abs(self.total_e))
        if abs(e - self.total_e) > scale or \
                np.abs(sums - fresh).max() > 1e-9 * (1.0 + np.abs(fresh).max()):
            raise InternalConsistencyError("running statistics drifted")
        # each segment is one region of equal label iff the regions number
        # as many as the segments
        pieces = int(_regions(self._nbrs, self.labels).max()) + 1
        if pieces != self.segment_count:
            raise InternalConsistencyError(
                f"{self.segment_count} segments lie in {pieces} connected pieces")


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
        raise PreconditionError("cannot merge below one segment")
    out = SegmentCurveResult()

    for correct, rows in ((False, out.merge_only), (True, out.corrected)):
        sm = SegmentMap.from_image(img, init)
        if sm.segment_count < m_min:
            raise PreconditionError(
                f"image starts at {sm.segment_count} segments, below m_min {m_min}")
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
