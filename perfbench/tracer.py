"""Outside-in tracing of khcluster layers.

The tracer replaces public functions of the package with timing wrappers,
without changing the package. Every binding of a wrapped function is
patched, in every loaded khcluster module (kh_engine imports lloyd and
kmeans_sequence by name, the package root re-exports most names), and
methods of Partition and SegmentMap are patched on the class. Spans nest:
each records its inclusive time and its self time, which is the inclusive
time minus the time of the wrapped calls it made. Counts are taken from
return values only.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced function, named in the metrics
# as "<module>.<attribute path>"
TRACED = (
    ("cli", "main"), ("cli", "load_csv"),
    ("kh_engine", "build_sequence"), ("kh_engine", "merge_step"),
    ("kh_engine", "split_step"), ("kh_engine", "correct_pairs"),
    ("kh_engine", "correct_tuples"), ("kh_engine", "verify_stability"),
    ("core", "Partition.from_labels"), ("core", "Partition.move"),
    ("reclass", "move_tolerance"), ("reclass", "delta_e_merge"),
    ("baselines", "kmeans_sequence"), ("baselines", "lloyd"),
    ("otsu1d", "build_histogram"), ("otsu1d", "curve"),
    ("segment", "read_pgm"), ("segment", "write_pgm"),
    ("segment", "SegmentMap.from_image"), ("segment", "SegmentMap.merge_best"),
    ("segment", "SegmentMap.correct_boundaries"),
)


def _dp_cells(h, m_max: int) -> int:
    # candidate (class count, end slot, start slot) evaluations of the Otsu
    # DP, computed from V and m_max rather than counted
    v = int(h.v)
    return sum((v - j + 1) * (v - j + 2) // 2 for j in range(2, int(m_max) + 1))


def _counts_from(name: str, args, result) -> dict[str, int]:
    """Work counts a traced call reports through its return value."""
    if name in ("kh_engine.correct_pairs", "kh_engine.correct_tuples"):
        return {"moves": int(result.n_moves)}
    if name == "kh_engine.verify_stability":
        return {"subsets": int(result.checked_subsets)}
    if name == "kh_engine.build_sequence":
        out: dict[str, int] = defaultdict(int)
        for info in result.info.values():
            out["route." + info["direction"]] += 1
        return out
    if name == "baselines.lloyd":
        return {"iterations": int(result.iterations)}
    if name == "otsu1d.build_histogram":
        return {"distinct_values": int(result.v)}
    if name == "otsu1d.curve":
        return {"dp_cells": _dp_cells(*args[:2])}
    if name == "segment.SegmentMap.correct_boundaries":
        return {"moves": int(result)}
    return {}


class Tracer:
    """Aggregated spans per traced name: calls, inclusive s, self s, counts."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []       # one accumulator per open span
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for d in (self.calls, self.incl_s, self.self_s, self.counts):
            d.clear()

    def _wrap(self, name: str, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            self._open[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._open[name] -= 1
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - child
                if self._open[name] == 0:  # inclusive time once per nest
                    self.incl_s[name] += dt
            for key, val in _counts_from(name, args, result).items():
                self.counts[f"{name}.{key}"] += val
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = {k: m for k, m in sys.modules.items()
               if k == "khcluster" or k.startswith("khcluster.")}
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            owner = pkg[f"khcluster.{mod_name}"]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[leaf]
                if isinstance(raw, classmethod):
                    self._patch(owner, leaf, raw,
                                classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(owner, leaf, raw, self._wrap(name, raw))
                continue
            fn = getattr(owner, leaf)
            wrapped = self._wrap(name, fn)
            for mod in pkg.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, fn, wrapped)

    def _patch(self, owner, key: str, old, new) -> None:
        self._patches.append((owner, key, old))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, old = self._patches.pop()
            setattr(owner, key, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
