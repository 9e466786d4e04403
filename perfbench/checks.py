"""Output checks for one CLI job, and the sums the quality metrics use.

Each check reads the files a job wrote and recomputes what it can from the
input alone. A check returns a list of failure messages; an empty list is
a pass. Nothing here imports khcluster, so a defect in the package cannot
hide a defect in its own output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# E_kh <= E_kmeans * (1 + REL) and the Otsu lower bound are checked with
# this relative slack; E recomputed from labels must match within RECOMPUTE.
REL = 1e-12
RECOMPUTE = 1e-9


def energy_of(points: np.ndarray, labels) -> float:
    """Total squared error straight from per-cluster means."""
    lab = np.asarray(labels)
    total = 0.0
    for c in np.unique(lab):
        pts = points[lab == c]
        total += float(((pts - pts.mean(axis=0)) ** 2).sum())
    return total


def read_comparison(path: Path) -> dict[str, dict[int, float]]:
    """comparison.csv as {method: {m: E}}; empty cells are skipped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    methods = [h[len("E_"):] for h in lines[0].split(",")[1:]]
    table: dict[str, dict[int, float]] = {name: {} for name in methods}
    for line in lines[1:]:
        m, *cells = line.split(",")
        for name, cell in zip(methods, cells):
            if cell:
                table[name][int(m)] = float(cell)
    return table


def check_clusters(out: Path, points: np.ndarray, methods: list[str],
                   m_max: int) -> tuple[list[str], dict[str, float]]:
    """Checks of a cluster or compare job. Returns (failures, sums), where
    sums holds each method's E summed over m = 2..m_max."""
    fails: list[str] = []
    try:
        table = read_comparison(out / "comparison.csv")
    except (OSError, ValueError, IndexError) as e:
        return [f"comparison.csv unreadable: {e}"], {}
    if sorted(table) != sorted(methods):
        return [f"comparison.csv columns {sorted(table)} != {sorted(methods)}"], {}
    for name in methods:
        if sorted(table[name]) != list(range(1, m_max + 1)):
            fails.append(f"{name}: counts {sorted(table[name])} != 1..{m_max}")
    if fails:
        return fails, {}

    report_path = out / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        for name in methods:
            for m in range(1, m_max + 1):
                rec = report["methods"][name][str(m)]
                where = f"{name} m={m}"
                if rec["E"] != table[name][m]:
                    fails.append(f"{where}: report E {rec['E']!r} != table E")
                if len(set(rec["labels"])) != m:
                    fails.append(f"{where}: labels use {len(set(rec['labels']))} clusters")
                fresh = energy_of(points, rec["labels"])
                if abs(fresh - rec["E"]) > RECOMPUTE * (1.0 + fresh):
                    fails.append(f"{where}: E {rec['E']!r} but labels give {fresh!r}")
                # K-means fixed points need not be stable; kh and the exact
                # Otsu optimum must be
                if name != "kmeans" and rec["stable"] is not True:
                    fails.append(f"{where}: reported stable={rec['stable']!r}")

    for m in range(1, m_max + 1):
        e = {name: table[name][m] for name in methods}
        if "kh" in e and "kmeans" in e and e["kh"] > e["kmeans"] * (1.0 + REL):
            fails.append(f"m={m}: E_kh {e['kh']!r} above E_kmeans {e['kmeans']!r}")
        if "otsu" in e:
            for other in ("kh", "kmeans"):
                if other in e and e["otsu"] > e[other] * (1.0 + REL):
                    fails.append(f"m={m}: E_otsu {e['otsu']!r} above E_{other} {e[other]!r}")
    sums = {name: sum(table[name][m] for m in range(2, m_max + 1)) for name in methods}
    return fails, sums


def check_segment(out: Path, image: np.ndarray) -> tuple[list[str], dict[str, float]]:
    """Checks of a segment job. Returns (failures, sums), where sums holds
    each variant's E summed over every segment count and the number of
    counts where the corrected E exceeds the merge-only E."""
    fails: list[str] = []
    try:
        lines = (out / "segment_curve.csv").read_text(encoding="utf-8").splitlines()
    except OSError as e:
        return [f"segment_curve.csv unreadable: {e}"], {}
    curves: dict[str, dict[int, float]] = {"merge_only": {}, "corrected": {}}
    order: dict[str, list[int]] = {"merge_only": [], "corrected": []}
    for line in lines[1:]:
        count, e, _sigma, variant = line.split(",")
        curves[variant][int(count)] = float(e)
        order[variant].append(int(count))
    n = image.size
    for variant, counts in order.items():
        if counts != list(range(n, 0, -1)):
            fails.append(f"{variant}: counts do not run {n}, {n - 1}, ..., 1")
    if fails:
        return fails, {}
    raw = curves["merge_only"]
    for count in range(1, n):
        if raw[count] < raw[count + 1] - RECOMPUTE * (1.0 + raw[count + 1]):
            fails.append(f"merge-only E fell from {raw[count + 1]!r} to "
                         f"{raw[count]!r} at count {count}")
    whole = float(((image - image.mean()) ** 2).sum())
    for variant in curves:
        e1 = curves[variant][1]
        if abs(e1 - whole) > RECOMPUTE * (1.0 + whole):
            fails.append(f"{variant}: E at one segment {e1!r}, image gives {whole!r}")
        if not (out / f"approx_{variant}_1.pgm").is_file():
            fails.append(f"approx_{variant}_1.pgm missing")
    sums = {variant: sum(c.values()) for variant, c in curves.items()}
    # corrected <= merge-only at every count holds on the acceptance-test
    # image but is no guarantee: the two runs merge different pairs once a
    # correction has moved pixels. Counted, not failed.
    sums["dominance_violations"] = sum(
        curves["corrected"][c] > raw[c] for c in range(1, n + 1))
    return fails, sums


def snapshot(out: Path) -> dict[str, bytes]:
    """Every file a job wrote, by name."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def check_identical(first: dict[str, bytes], again: dict[str, bytes]) -> list[str]:
    """Two jobs on one input must write byte-identical files (C11)."""
    if sorted(first) != sorted(again):
        return [f"files {sorted(again)} differ from the first job's {sorted(first)}"]
    return [f"{name} differs from the first job's" for name in sorted(first)
            if first[name] != again[name]]
