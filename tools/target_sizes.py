"""Target-size timings of kh and segment in two trees, for the ROADMAP's size rows.

Usage: python3 tools/target_sizes.py PARENT_TREE CHANGE_TREE SIZES ALTERNATIONS

SIZES is a comma-separated list of cases. A case N times
build_sequence(ds, 6) on the blob points
perfbench/workloads.blobs2d_points(np.random.default_rng(0), N // 4); a
case mN times one merge_step of the same kind of points, N of them, each
its own cluster (a merge of N singletons); a case gN times
segment_curve on the NxN image perfbench/workloads.quadrant_image(
np.random.default_rng(0), N), and its E bits are those of both curves,
followed by the sha256 of each final labelling. Each tree is a checkout of
the repository, with its own src/ and perfbench/. For every case, each of
ALTERNATIONS rounds runs it once per tree, each run in a fresh
interpreter, the parent first in odd rounds and the change first in even
ones; one more run per tree under tracemalloc gives the traced peak, which
the timed runs do not pay for. Prints every run and whether the timed runs
of both trees gave the same E bits, before the traced runs start (under
tracemalloc a large case runs several times slower), then per side the min,
median and inclusive quartiles of the seconds, the change's wins and losses
over the rounds, the traced peaks, and whether every run of both trees gave
the same E bits. The last line is the whole record as one JSON object.
Exits 1 if the E bits differ.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from paired_runs import SIDES, summarize as summarize_pairs  # noqa: E402

# One run of a case: prints its seconds, its E bits and its traced peak.
CHILD = r"""
import hashlib, json, sys, time, tracemalloc
import numpy as np
from khcluster.core import Dataset, Partition
from khcluster.kh_engine import build_sequence, merge_step
from khcluster.segment import GrayImage, segment_curve
from workloads import blobs2d_points, quadrant_image

case, traced = sys.argv[1], sys.argv[2] == "1"
size = int(case.lstrip("mg"))
if case.startswith("g"):
    img = GrayImage.from_array(quadrant_image(np.random.default_rng(0), size))

    def run():
        res = segment_curve(img)
        return ([float(r.error).hex() for r in res.merge_only + res.corrected]
                + [hashlib.sha256(sm.labels.tobytes()).hexdigest()
                   for sm in (res.final_merge_only, res.final_corrected)])
else:
    ds = Dataset(blobs2d_points(np.random.default_rng(0), size // 4))
    if case.startswith("m"):
        p = Partition.from_labels(ds, np.arange(ds.n))
        run = lambda: [float(merge_step(p).total_e).hex()]
    else:
        run = lambda: [float(q.total_e).hex()
                       for q in build_sequence(ds, 6).by_cluster_count.values()]
if traced:
    tracemalloc.start()
start = time.perf_counter()
bits = run()
seconds = time.perf_counter() - start
peak = tracemalloc.get_traced_memory()[1] if traced else None
print(json.dumps({"seconds": seconds, "e_bits": bits, "peak": peak}))
"""


def run_case(tree: Path, case: str, traced: bool) -> dict:
    """One run of case in a fresh interpreter on tree's src/ and perfbench/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(tree / "src"), str(tree / "perfbench"))))
    res = subprocess.run([sys.executable, "-c", CHILD, case, "1" if traced else "0"],
                         cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{tree} {case}: exit {res.returncode}\n{res.stderr[-2000:]}")
    return json.loads(lines[-1])


def same_bits(e_bits: list[list[str]]) -> bool:
    """Whether every run gave the same E bits."""
    return len({tuple(bits) for bits in e_bits}) == 1


def summarize(rounds: list[dict], peaks: dict, e_bits: list[list[str]]) -> dict:
    """One case's record. rounds holds one {"parent": s, "change": s} of
    seconds per round; peaks each side's traced peak in bytes; e_bits the E
    bits of every run of both sides. Per side: the runs, min, median and
    quartiles of the seconds; the change's wins and losses over the rounds
    and its median relative to the parent's (tools/paired_runs.py); the
    peaks in MiB; and whether all runs gave the same E bits."""
    out = summarize_pairs([{side: {"s": r[side]} for side in SIDES} for r in rounds],
                          {"s": "lower"})["s"]
    for side in SIDES:
        out[side]["min"] = min(out[side]["runs"])
    out["peak_mib"] = {side: peaks[side] / 2**20 for side in SIDES}
    out["same_e_bits"] = same_bits(e_bits)
    return out


def main(argv: list[str]) -> int:
    cases = argv[2].split(",") if len(argv) == 4 else []
    if (not cases or not all(re.fullmatch(r"[mg]?\d+", c) for c in cases)
            or not argv[3].isdigit() or int(argv[3]) < 1):
        print(__doc__, file=sys.stderr)
        return 2
    trees = dict(zip(SIDES, (Path(argv[0]).resolve(), Path(argv[1]).resolve())))
    count, record = int(argv[3]), {}
    for case in cases:
        rounds, e_bits = [], []
        for i in range(count):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            times = {}
            for side in order:
                res = run_case(trees[side], case, False)
                times[side] = res["seconds"]
                e_bits.append(res["e_bits"])
            rounds.append(times)
            print(f"{case} round {i + 1} ({order[0]} first): parent {times['parent']:.4f} s,"
                  f" change {times['change']:.4f} s", flush=True)
        print(f"{case}: same E bits over the timed rounds: {same_bits(e_bits)}", flush=True)
        peaks = {}
        for side in SIDES:
            res = run_case(trees[side], case, True)
            peaks[side] = res["peak"]
            e_bits.append(res["e_bits"])
        s = record[case] = summarize(rounds, peaks, e_bits)
        print(f"{case}: " + "; ".join(
            f"{side} min {s[side]['min']:.4f} median {s[side]['median']:.4f}"
            f" (q1 {s[side]['q1']:.4f}, q3 {s[side]['q3']:.4f}) s,"
            f" traced peak {s['peak_mib'][side]:.2f} MiB" for side in SIDES)
            + f"; change wins {s['change_wins']} and loses {s['change_losses']}"
            f" of {count}; same E bits: {s['same_e_bits']}")
    print(json.dumps({"alternations": count, "cases": record}))
    return 0 if all(s["same_e_bits"] for s in record.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
