"""Exhaustive minimum-error search, cross-checked by a second enumeration."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import labeled_energy, random_dataset
from khcluster import core, oracle
from khcluster.core import Dataset, PreconditionError, SizeGuardError
from khcluster.kh_engine import verify_stability
from khcluster.core import Partition
from khcluster.oracle import MAX_POINTS, global_min, minimum_curve


def stirling2(n, m):
    table = {(0, 0): 1}
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            table[(i, j)] = j * table.get((i - 1, j), 0) + table.get((i - 1, j - 1), 0)
    return table.get((n, m), 0)


def exhaustive_min(points, m):
    """All surjective labelings, filtered to canonical form, via itertools."""
    n = len(points)
    best = None
    for lab in itertools.product(range(m), repeat=n):
        # canonical: label j appears only after 0..j-1 all appeared
        mx = -1
        ok = True
        for v in lab:
            if v > mx + 1:
                ok = False
                break
            mx = max(mx, v)
        if not ok or mx != m - 1:
            continue
        e = labeled_energy(points, np.array(lab))
        if best is None or e < best[0]:
            best = (e, lab)
    return best


def test_frozen_small_instance():
    ds = Dataset([0.0, 1.0, 9.0, 10.0])
    r1 = global_min(ds, 1)
    assert r1.best_e == pytest.approx(82.0)
    assert r1.best_labels == (0, 0, 0, 0)
    assert r1.partitions_examined == 1
    r2 = global_min(ds, 2)
    assert r2.best_e == pytest.approx(1.0)
    assert r2.best_labels == (0, 0, 1, 1)
    assert r2.partitions_examined == 7
    r3 = global_min(ds, 3)
    assert r3.best_e == pytest.approx(0.5)
    assert r3.best_labels == (0, 0, 1, 2)
    assert r3.partitions_examined == 6
    r4 = global_min(ds, 4)
    assert r4.best_e == 0.0
    assert r4.best_labels == (0, 1, 2, 3)
    assert r4.partitions_examined == 1


def test_examined_counts_are_stirling_numbers():
    rng = np.random.default_rng(2)
    for n in (3, 5, 7, 9):
        ds = Dataset(rng.normal(0, 1, (n, 2)))
        for m in range(1, n + 1):
            assert global_min(ds, m).partitions_examined == stirling2(n, m)


def test_tie_takes_lexicographically_first_labeling():
    # {0}|{1, 2} and {0, 1}|{2} both cost 0.5; (0, 0, 1) sorts first
    r = global_min(Dataset([0.0, 1.0, 2.0]), 2)
    assert r.best_e == pytest.approx(0.5)
    assert r.best_labels == (0, 0, 1)


def test_guards():
    with pytest.raises(SizeGuardError):
        global_min(Dataset(np.arange(MAX_POINTS + 1, dtype=np.float64)), 2)
    ds = Dataset([0.0, 1.0])
    with pytest.raises(PreconditionError):
        global_min(ds, 0)
    with pytest.raises(PreconditionError):
        global_min(ds, 3)


def test_minimum_curve_monotone():
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, 9, 2)
    pts = minimum_curve(ds, 9)
    es = [r.best_e for r in pts]
    assert len(es) == 9
    assert all(a >= b - 1e-12 for a, b in zip(es, es[1:]))
    assert es[-1] <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 4))
def test_matches_independent_enumeration(seed, n, m):
    """The vectorized search agrees with a plain itertools enumeration."""
    if m > n:
        m = n
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n, int(rng.integers(1, 3)))
    r = global_min(ds, m)
    e_ref, lab_ref = exhaustive_min(ds.points, m)
    assert r.best_e == pytest.approx(e_ref, rel=1e-9, abs=1e-9)
    assert r.best_labels == lab_ref


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_argmin_is_stable(seed):
    """A global optimum admits no improving subset move."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    m = int(rng.integers(1, min(n, 5) + 1))
    ds = random_dataset(rng, n, int(rng.integers(1, 4)))
    r = global_min(ds, m)
    p = Partition.from_labels(ds, np.array(r.best_labels), m)
    assert verify_stability(p).stable


def _whole_matrix(n, m):
    """Every restricted growth string of length n with exactly m labels at
    once, in lex order, grown as the search did before it went chunk by
    chunk."""
    rows = np.zeros((1, 1), dtype=np.int8)
    mx = np.zeros(1, dtype=np.int8)
    for i in range(1, n):
        keep = mx + 1 + (n - i) >= m
        rows, mx = rows[keep], mx[keep]
        n_ext = np.minimum(mx + 2, m).astype(np.int64)
        parent = np.repeat(np.arange(rows.shape[0]), n_ext)
        offs = (np.arange(parent.size)
                - np.repeat(np.cumsum(n_ext) - n_ext, n_ext)).astype(np.int8)
        rows = np.concatenate([rows[parent], offs[:, None]], axis=1)
        mx = np.maximum(mx[parent], offs)
    return rows[mx == m - 1]


@pytest.mark.parametrize("budget", [1, 40, 300, None])
def test_chunks_concatenate_to_the_whole_matrix(monkeypatch, budget):
    """The chunks hold at most WAVE_BUDGET // (n m) rows each (at least
    one) and, concatenated, are the whole matrix in its order, for random
    (n, m) and at m = 1 and m = n; global_min keeps its E bits, labels and
    count, the first minimum in lex order."""
    if budget is not None:
        monkeypatch.setattr(core, "WAVE_BUDGET", budget)
    rng = np.random.default_rng(17)
    cases = [(1, 1), (2, 1), (2, 2), (8, 1), (8, 8)]
    cases += [(int(n), int(rng.integers(2, n))) for n in rng.integers(4, 10, 10)]
    split = 0
    for n, m in cases:
        chunks = list(oracle._partition_chunks(n, m))
        split += len(chunks) > 1
        cap = max(1, core.WAVE_BUDGET // (n * m))
        assert all(1 <= c.shape[0] <= cap and c.dtype == np.int8 for c in chunks)
        whole = _whole_matrix(n, m)
        assert np.array_equal(np.concatenate(chunks), whole)
        ds = Dataset(np.round(rng.normal(0.0, 2.0, (n, 2)), 0))  # ties
        energies = oracle._chunk_energies(ds.points, whole.astype(np.int64), m)
        k = int(np.argmin(energies))
        r = global_min(ds, m)
        assert np.float64(r.best_e).tobytes() == energies[k].tobytes()
        assert r.best_labels == tuple(whole[k].tolist())
        assert r.partitions_examined == whole.shape[0]
    assert split >= 6 or budget is None


def test_the_strings_take_memory_by_the_chunk():
    """Generating the 611,501 strings of 12 points in 4 labels, whose
    whole matrix alone takes 7.3 MB, peaks under 1 MiB of traced memory."""
    tracemalloc.start()
    try:
        rows = sum(c.shape[0] for c in oracle._partition_chunks(12, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == stirling2(12, 4)
    assert peak < 2**20
