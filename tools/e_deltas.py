"""Report how two output trees of tools/exact_outputs.py differ, record by record.

Usage: python3 tools/e_deltas.py OUT1 OUT2

For each workload under OUT1/out and OUT2/out it prints the files whose
bytes differ (or that only one tree has), the records whose labels
changed, each either relabelled (the same clusters under other ids) or
repartitioned, with how many of each when any changed, and the records
whose E changed, with the largest relative change |E2 - E1| / |E1| and
how many went up or down. A record is one (method, m) of a cluster or
compare job, read from its report.json and, for methods the report
lacks, its comparison.csv, or one (variant, count) of a segment job's
segment_curve.csv; it is named
<workload>/<seed>/<input number> <method or variant> m=<count>.
Exits 0 when the trees are byte-identical, 1 when they differ, 2 on bad
usage.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path


def job_records(job: Path) -> dict[tuple[str, int], tuple[float, list | None]]:
    """(method or variant, m) -> (E, labels or None) of one job folder."""
    records = {}
    report = job / "report.json"
    if report.is_file():
        for method, by_m in json.loads(report.read_text(encoding="utf-8"))["methods"].items():
            for m, rec in by_m.items():
                records[method, int(m)] = (float(rec["E"]), rec.get("labels"))
    comparison = job / "comparison.csv"
    if comparison.is_file():
        with comparison.open(newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                for col, e in row.items():
                    if col.startswith("E_") and e:
                        records.setdefault((col[2:], int(row["m"])), (float(e), None))
    curve = job / "segment_curve.csv"
    if curve.is_file():
        with curve.open(newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                records[row["variant"], int(row["count"])] = (float(row["E"]), None)
    return records


def same_clusters(lab1: list, lab2: list) -> bool:
    """Two labelings hold the same clusters, whatever their ids: each id
    of one pairs with exactly one id of the other."""
    pairs = set(zip(lab1, lab2))
    return len(lab1) == len(lab2) and len(pairs) == len(set(lab1)) == len(set(lab2))


def compare(out1: Path, out2: Path) -> dict[str, dict[str, list]]:
    """Per workload: the differing files, the records whose labels changed
    (relabelled or repartitioned), and (record, E1, E2) of the records
    whose E changed."""
    files1 = {p.relative_to(out1) for p in out1.rglob("*") if p.is_file()}
    files2 = {p.relative_to(out2) for p in out2.rglob("*") if p.is_file()}
    result = {}
    for workload in sorted({f.parts[0] for f in files1 | files2}):
        found = result[workload] = {"files": [], "relabelled": [], "repartitioned": [],
                                    "e": []}
        jobs = set()
        for f in sorted(f for f in files1 | files2 if f.parts[0] == workload):
            if f not in files1 or f not in files2 or \
                    (out1 / f).read_bytes() != (out2 / f).read_bytes():
                found["files"].append(str(f))
                jobs.add(f.parent)
        for job in sorted(jobs):
            rec1, rec2 = job_records(out1 / job), job_records(out2 / job)
            for key in sorted(rec1.keys() & rec2.keys()):
                (e1, lab1), (e2, lab2) = rec1[key], rec2[key]
                name = f"{job.as_posix()} {key[0]} m={key[1]}"
                if lab1 != lab2:
                    kind = "relabelled" if same_clusters(lab1, lab2) else "repartitioned"
                    found[kind].append(name)
                if e1 != e2:
                    found["e"].append((name, e1, e2))
    return result


def relative(e1: float, e2: float) -> float:
    return abs(e2 - e1) / abs(e1) if e1 else float("inf")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    outs = [Path(a) / "out" for a in argv]
    if not all(o.is_dir() for o in outs):
        print(f"no out/ folder under {' or '.join(argv)}", file=sys.stderr)
        return 2
    result = compare(*outs)
    for workload, found in result.items():
        e, relabelled, repartitioned = found["e"], found["relabelled"], found["repartitioned"]
        up = sum(e2 > e1 for _, e1, e2 in e)
        worst = max((relative(e1, e2) for _, e1, e2 in e), default=0.0)
        labels = len(relabelled) + len(repartitioned)
        split = f" ({len(relabelled)} relabelled, {len(repartitioned)} repartitioned)" \
            if labels else ""
        print(f"{workload}: {len(found['files'])} files differ, "
              f"{labels} records with changed labels{split}, "
              f"{len(e)} records with changed E (max relative dE {worst:.1e}, "
              f"{up} up, {len(e) - up} down)")
        for f in found["files"]:
            print(f"  file {f}")
        for kind in ("relabelled", "repartitioned"):
            for name in found[kind]:
                print(f"  {kind} {name}")
        for name, e1, e2 in e:
            print(f"  E {name}: {e1!r} -> {e2!r} (relative {relative(e1, e2):.1e})")
    return 1 if any(found["files"] for found in result.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
