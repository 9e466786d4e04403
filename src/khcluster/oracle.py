"""Exhaustive search over all partitions of a small dataset.

Every partition of n points into exactly m nonempty clusters is encoded as
a restricted growth string; enumerating them in lexicographic order makes
the returned optimum deterministic even under error ties. The point count
is hard-capped because the count of partitions grows like the Stirling
numbers. This module is the ground truth that stability results are
measured against; it shares no reclassification code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import Dataset, PreconditionError, SizeGuardError

MAX_POINTS = 13


@dataclass(frozen=True)
class OracleResult:
    m: int
    best_e: float
    best_labels: tuple[int, ...]
    partitions_examined: int


def _completions(n: int, m: int) -> list[list[int]]:
    """ways[i][k]: how many restricted growth strings of length n with
    exactly m labels extend a prefix of length i that holds k labels."""
    ways = [[0] * (m + 2) for _ in range(n + 1)]
    ways[n][m] = 1
    for i in range(n - 1, 0, -1):
        for k in range(1, m + 1):
            ways[i][k] = k * ways[i + 1][k] + ways[i + 1][k + 1]
    return ways


def _grow(rows: np.ndarray, n: int, m: int) -> np.ndarray:
    """Every completion to length n with exactly m labels of the prefixes
    rows (P, i), in lex order.

    Grown position by position: a prefix with running maximum mx extends to
    labels 0..min(mx + 1, m - 1). Prefixes that cannot reach m labels in the
    remaining slots are dropped early. np.repeat preserves prefix order and
    extensions are appended in ascending label order, so rows stay sorted.
    """
    mx = rows.max(axis=1)
    for i in range(rows.shape[1], n):
        keep = mx + 1 + (n - i) >= m
        rows, mx = rows[keep], mx[keep]
        n_ext = np.minimum(mx + 2, m).astype(np.int64)
        parent = np.repeat(np.arange(rows.shape[0]), n_ext)
        offs = (np.arange(parent.size)
                - np.repeat(np.cumsum(n_ext) - n_ext, n_ext)).astype(np.int8)
        rows = np.concatenate([rows[parent], offs[:, None]], axis=1)
        mx = np.maximum(mx[parent], offs)
    return rows[mx == m - 1]


def _partition_chunks(n: int, m: int):
    """All restricted growth strings of length n with exactly m labels, in
    lex order, as int8 chunks of at most WAVE_BUDGET // (n m) rows (at least
    one), so a chunk's one-hot labels hold at most WAVE_BUDGET cells.

    A depth-first walk visits prefixes in lex order and splits each one
    with more completions than a chunk holds into its one-longer prefixes;
    runs of prefixes of one length whose completions fit together are grown
    into one chunk (_grow).
    """
    cap = max(1, core.WAVE_BUDGET // (n * m))
    ways = _completions(n, m)
    batch, held = [], 0
    todo = [((0,), 1)]  # (prefix, its label count), the next prefix last
    while todo:
        pre, k = todo.pop()
        count = ways[len(pre)][k]
        if count == 0:
            continue
        if count > cap:
            todo.extend((pre + (x,), max(k, x + 1)) for x in range(min(k, m - 1), -1, -1))
            continue
        if batch and (held + count > cap or len(batch[0]) != len(pre)):
            yield _grow(np.array(batch, dtype=np.int8), n, m)
            batch, held = [], 0
        batch.append(pre)
        held += count
    if batch:
        yield _grow(np.array(batch, dtype=np.int8), n, m)


def _chunk_energies(points: np.ndarray, labels: np.ndarray, m: int) -> np.ndarray:
    """Total squared error of each labelling in the chunk, vectorized."""
    onehot = np.eye(m, dtype=np.float64)[labels]          # (p, n, m)
    counts = onehot.sum(axis=1)                           # (p, m)
    sums = np.einsum("pnm,nd->pmd", onehot, points)       # (p, m, d)
    sq = float((points * points).sum())
    per_cluster = (sums * sums).sum(axis=2) / counts      # (p, m)
    return np.maximum(sq - per_cluster.sum(axis=1), 0.0)


def global_min(ds: Dataset, m: int) -> OracleResult:
    """Exact minimum-error partition into m clusters, first in lex order on ties."""
    n = ds.n
    if n > MAX_POINTS:
        raise SizeGuardError(
            f"exhaustive search is capped at {MAX_POINTS} points, got {n}")
    if not 1 <= m <= n:
        raise PreconditionError(f"cannot split {n} points into {m} nonempty clusters")
    best_e, best_row, examined = np.inf, None, 0
    for chunk in _partition_chunks(n, m):
        energies = _chunk_energies(ds.points, chunk.astype(np.int64), m)
        k = int(np.argmin(energies))
        if energies[k] < best_e:  # strict: earlier chunks win ties
            best_e = float(energies[k])
            best_row = chunk[k]
        examined += chunk.shape[0]
    assert best_row is not None
    return OracleResult(m, best_e, tuple(int(c) for c in best_row), examined)


def minimum_curve(ds: Dataset, m_max: int) -> list[OracleResult]:
    return [global_min(ds, m) for m in range(1, m_max + 1)]
