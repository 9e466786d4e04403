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
the lock cache, and once the map is boundary-stable only the borders of
segments whose version moved on since then are listed as candidates.
Contact counts (the number of adjacent pixel pairs straddling each segment
border) are maintained exactly so the adjacency graph never drifts from
the labelling.
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

def _neighbor_pairs(w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only arrays (a, b) of every 4-neighbour pixel pair, a < b:
    horizontal pairs first, then vertical."""
    idx = np.arange(w * h, dtype=np.int64).reshape(h, w)
    a = np.concatenate((idx[:, :-1].ravel(), idx[:-1, :].ravel()))
    b = np.concatenate((idx[:, 1:].ravel(), idx[1:, :].ravel()))
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


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

    Segment ids are dense at construction; merging kills ids but never
    creates them; the live ids are the keys of pixels. The merge heap is
    lazily invalidated: every entry carries the version of both endpoints
    and is discarded when either version moved on, which also discards
    every entry of a merged-away id. adj[s][t] is the number of 4-neighbour
    pixel pairs straddling the border of s and t, kept in both directions.
    Each pixel move and merge updates it from the labelling before it
    changes, so adjacency stays exact.
    """

    def __init__(self, img: GrayImage, labels: np.ndarray):
        self.img = img
        self.w, self.h = img.width, img.height
        self._pairs = _neighbor_pairs(self.w, self.h)
        self._nbrs = _neighbor_table(self.w, self.h)
        self.labels = np.asarray(labels, dtype=np.int64).copy()
        if self.labels.shape != (img.n_pixels,):
            raise PreconditionError("label buffer does not match the image")
        cap = int(self.labels.max()) + 1
        self.counts = np.zeros(cap, dtype=np.int64)
        self.sums = np.zeros(cap, dtype=np.float64)
        self.sumsqs = np.zeros(cap, dtype=np.float64)
        self.version = np.zeros(cap, dtype=np.int64)
        self.pixels: dict[int, set[int]] = {}
        self.adj: dict[int, dict[int, int]] = {}
        self.total_e = 0.0
        self.heap: list = []
        self._ops = 0
        self._lock_cache: dict[tuple[int, tuple[int, ...]], tuple[int, bool]] = {}
        # versions when the map was last boundary-stable; a segment whose
        # version moved on since is dirty, and _rebuild's bump dirties all
        self._stable_at = self.version.copy()
        self._rebuild()

    # -- construction

    @classmethod
    def from_image(cls, img: GrayImage, init: str = "pixels") -> "SegmentMap":
        if init == "pixels":
            return cls(img, np.arange(img.n_pixels, dtype=np.int64))
        if init == "flat_zones":
            return cls(img, _flat_zone_labels(img))
        raise PreconditionError(f"unknown init {init!r}")

    def _rebuild(self) -> None:
        """Recompute every derived structure from the labelling."""
        lab = self.labels
        px = self.img.intensities
        cap = self.counts.shape[0]
        self.counts = np.bincount(lab, minlength=cap)
        self.sums = np.bincount(lab, weights=px, minlength=cap)
        self.sumsqs = np.bincount(lab, weights=px * px, minlength=cap)
        self.pixels = {}
        for p, s in enumerate(lab):
            self.pixels.setdefault(int(s), set()).add(p)
        self.adj = {s: {} for s in self.pixels}
        self.total_e = float(sum(self._seg_energy(int(s))
                                 for s in np.flatnonzero(self.counts)))
        self.version += 1
        self.heap = []
        self._lock_cache = {}
        a, b = self._pairs
        la, lb = lab[a], lab[b]
        cut = la != lb
        la, lb = la[cut], lb[cut]
        keys = np.minimum(la, lb) * cap + np.maximum(la, lb)
        uniq, cnt = np.unique(keys, return_counts=True)
        for k, c in zip(uniq.tolist(), cnt.tolist()):
            u, v = divmod(k, cap)
            self.adj[u][v] = self.adj[v][u] = c
            self._push_edge(u, v)

    # -- bookkeeping primitives

    def _seg_energy(self, s: int) -> float:
        return clamped_cluster_energy(
            self.sumsqs[s], self.sums[s] ** 2, int(self.counts[s]))

    def _mean(self, s: int) -> float:
        return self.sums[s] / self.counts[s]

    def _merge_cost(self, a: int, b: int) -> float:
        na, nb = int(self.counts[a]), int(self.counts[b])
        d = self._mean(a) - self._mean(b)
        return d * d * (na * nb / (na + nb))

    def _push_edge(self, a: int, b: int) -> None:
        if a > b:
            a, b = b, a
        heapq.heappush(self.heap, (self._merge_cost(a, b), a, b,
                                   int(self.version[a]), int(self.version[b])))

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
        if self.counts[b] > self.counts[a] or \
                (self.counts[b] == self.counts[a] and b < a):
            a, b = b, a
        # a survives, b dies
        e_before = self._seg_energy(a) + self._seg_energy(b)
        for p in self.pixels[b]:
            self.labels[p] = a
        self.pixels[a] |= self.pixels.pop(b)
        self.counts[a] += self.counts[b]
        self.sums[a] += self.sums[b]
        self.sumsqs[a] += self.sumsqs[b]
        self.counts[b] = 0
        self.sums[b] = 0.0
        self.sumsqs[b] = 0.0
        self.total_e += self._seg_energy(a) - e_before

        for t, c in self.adj.pop(b).items():
            del self.adj[t][b]
            if t != a:
                self.adj[a][t] = self.adj[t][a] = self.adj[a].get(t, 0) + c
        self.version[a] += 1
        self.version[b] += 1
        for t in sorted(self.adj[a]):
            self._push_edge(a, t)
        self._tick()
        return a, b

    # -- boundary correction

    def _boundary_candidates(self):
        """(pixel, acceptor) pairs where a pixel borders a foreign segment.

        Sorted by (pixel, acceptor). Only the borders of dirty segments,
        whose version moved on since the map was last boundary-stable, are
        listed: stats elsewhere are unchanged since then, so a new improving
        move must take from or give to a dirty segment. Before the first
        stable point, and after every rebuild, all segments are dirty.
        """
        a, b = self._pairs
        la, lb = self.labels[a], self.labels[b]
        dirty = self.version != self._stable_at
        cut = (la != lb) & (dirty[la] | dirty[lb])
        a, b, la, lb = a[cut], b[cut], la[cut], lb[cut]
        p = np.concatenate((a, b))
        acc = np.concatenate((lb, la))
        _, first = np.unique(p * self.counts.shape[0] + acc, return_index=True)
        return p[first], acc[first]

    def _ranked_moves(self, below: float):
        """Boundary moves predicted to change the error by less than below.

        Candidates are single border pixels and groups (k >= 2) of
        bit-identical intensity that share donor and acceptor. Yields
        (delta, donor, acceptor, subset) in (delta, donor, acceptor, subset)
        order. Only borders of dirty segments are considered (see
        _boundary_candidates); a group shares its donor and acceptor, so it
        is kept or dropped whole.
        """
        p, acc = self._boundary_candidates()
        don = self.labels[p]
        k = np.ones(p.shape[0], dtype=np.int64)
        start = np.arange(p.shape[0])
        pool = p
        # group moves exist only where some donor can spare two pixels
        good = self.counts[don] >= 2
        if (self.counts[don[good]] >= 3).any():
            gp, gacc, gdon = p[good], acc[good], don[good]
            bits = np.ascontiguousarray(self.img.intensities[gp]).view(np.int64)
            order = np.lexsort((gp, bits, gacc, gdon))
            gp, gacc, gdon, bits = gp[order], gacc[order], gdon[order], bits[order]
            starts = np.concatenate(
                ([0], np.flatnonzero((gdon[1:] != gdon[:-1])
                                     | (gacc[1:] != gacc[:-1])
                                     | (bits[1:] != bits[:-1])) + 1))
            sizes = np.diff(np.append(starts, gp.shape[0]))
            multi = sizes >= 2
            k = np.concatenate((k, sizes[multi]))
            start = np.concatenate((start, p.shape[0] + starts[multi]))
            acc = np.concatenate((acc, gacc[starts[multi]]))
            don = np.concatenate((don, gdon[starts[multi]]))
            pool = np.concatenate((p, gp))
        lead = pool[start]
        x = self.img.intensities[lead]
        n1, n2 = self.counts[don], self.counts[acc]
        delta = reclass.transfer_deltas((x - self.sums[don] / n1) ** 2,
                                        (x - self.sums[acc] / n2) ** 2, k, n1, n2)
        sel = np.flatnonzero(delta < below)
        order = sel[np.lexsort((k[sel], lead[sel], acc[sel], don[sel], delta[sel]))]
        for i in order:
            yield (float(delta[i]), int(don[i]), int(acc[i]),
                   tuple(pool[start[i]:start[i] + k[i]].tolist()))

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
        self._lock_cache[key] = (int(self.version[don]), ok)
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

    def _apply_move(self, subset: tuple[int, ...], don: int, acc: int) -> None:
        e_before = self._seg_energy(don) + self._seg_energy(acc)
        moved = set(subset)
        # contact updates read the labelling before it changes
        for p in subset:
            for q in self._neighbors(p):
                if q in moved:
                    continue
                t = int(self.labels[q])
                if t == don:
                    self._contact_inc(acc, don)
                elif t == acc:
                    self._contact_dec(don, acc)
                else:
                    self._contact_dec(don, t)
                    self._contact_inc(acc, t)
        for p in subset:
            self.labels[p] = acc
            self.pixels[don].discard(p)
            self.pixels[acc].add(p)
        x = self.img.intensities[np.asarray(subset, dtype=np.int64)]
        k = len(subset)
        self.counts[don] -= k
        self.counts[acc] += k
        s, ss = float(x.sum()), float((x * x).sum())
        self.sums[don] -= s
        self.sums[acc] += s
        self.sumsqs[don] -= ss
        self.sumsqs[acc] += ss
        self.total_e += self._seg_energy(don) + self._seg_energy(acc) - e_before
        self.version[don] += 1
        self.version[acc] += 1
        for s2 in (don, acc):
            for t in sorted(self.adj[s2]):
                self._push_edge(s2, t)
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
        them; a candidate is applied only if the donor stays connected.
        Returns the number of moves performed.
        """
        n_moves = 0
        while self.segment_count >= 2:
            tau = reclass.move_tolerance(self.total_e)
            for _, dn, ac, subset in self._ranked_moves(-tau):
                if self._donor_survives(subset, dn):
                    self._apply_move(subset, dn, ac)
                    n_moves += 1
                    break
            else:
                self._stable_at = self.version.copy()
                break
        return n_moves

    # -- outputs

    def approximation(self) -> GrayImage:
        means = np.zeros_like(self.sums)
        np.divide(self.sums, self.counts, out=means, where=self.counts > 0)
        return GrayImage(self.w, self.h, means[self.labels])

    def check_consistency(self) -> None:
        """Recompute all derived state from the labelling and compare."""
        snapshot = (self.counts.copy(), self.sums.copy(), self.sumsqs.copy(),
                    {k: dict(v) for k, v in self.adj.items()},
                    {k: set(v) for k, v in self.pixels.items()}, self.total_e)
        self._rebuild()
        counts, sums, sumsqs, adj, pixels, e = snapshot
        if not np.array_equal(counts, self.counts):
            raise InternalConsistencyError("segment counts drifted")
        if adj != self.adj:
            raise InternalConsistencyError("contact counts drifted")
        if pixels != self.pixels:
            raise InternalConsistencyError("segment membership drifted")
        scale = 1e-9 * (1.0 + abs(self.total_e))
        if abs(e - self.total_e) > scale or \
                np.abs(sums - self.sums).max() > 1e-9 * (1.0 + np.abs(self.sums).max()):
            raise InternalConsistencyError("running statistics drifted")
        for s in self.pixels:
            seed = next(iter(self.pixels[s]))
            seen, stack = {seed}, [seed]
            while stack:
                u = stack.pop()
                for q in self._neighbors(u):
                    if q in self.pixels[s] and q not in seen:
                        seen.add(q)
                        stack.append(q)
            if len(seen) != len(self.pixels[s]):
                raise InternalConsistencyError(f"segment {s} is disconnected")


def _flat_zone_labels(img: GrayImage) -> np.ndarray:
    """Connected regions of exactly equal intensity, ids in scan order."""
    nbrs = _neighbor_table(img.width, img.height)
    px = img.intensities
    labels = np.full(img.n_pixels, -1, dtype=np.int64)
    nxt = 0
    for start in range(img.n_pixels):
        if labels[start] >= 0:
            continue
        labels[start] = nxt
        stack = [start]
        while stack:
            u = stack.pop()
            for q in nbrs[u]:
                if labels[q] < 0 and px[q] == px[u]:
                    labels[q] = nxt
                    stack.append(q)
        nxt += 1
    return labels


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
