"""Paired benchmark runs of two trees, for a claim about end-to-end metrics.

Usage: python3 tools/paired_runs.py PARENT_TREE CHANGE_TREE WORKLOAD SEED PAIRS SECONDS

Runs `perfbench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS
--trace 0` in each tree (a checkout of the repository, each with its own
src/ and perfbench/), PAIRS times, alternating which side goes first: the
parent in the first pair, the change in the second, and so on. Prints
every pair's end-to-end metrics, then per metric each side's median, the
parent's interquartile range (inclusive quartiles) and the pairs the
change wins and loses, in the direction the change tree's BENCHMARK.json
gives the metric. The last line is the whole record as one JSON object.
Exits 1 if a run failed or did not pass its checks.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the values, inclusive quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric of better (name -> "lower" or "higher"): each side's runs,
    median and quartiles, the parent's interquartile range, the pairs the
    change wins and loses, and the change's median relative to the
    parent's. pairs holds one {"parent": {...}, "change": {...}} of metric
    values per pair."""
    out = {}
    for name, direction in better.items():
        runs = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        stats = {side: dict(zip(("q1", "median", "q3"), quartiles(runs[side])),
                            runs=runs[side]) for side in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        gains = [sign * (p - c) for p, c in zip(runs["parent"], runs["change"])]
        parent_median = stats["parent"]["median"]
        out[name] = {
            **stats,
            "better": direction,
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            "change_wins": sum(g > 0 for g in gains),
            "change_losses": sum(g < 0 for g in gains),
            "median_change_rel": (stats["change"]["median"] - parent_median) / parent_median
            if parent_median else 0.0,
        }
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One --trace 0 run in tree: its result object, the last line it prints."""
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = res.stdout.strip().splitlines()
    if res.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{tree}: exit {res.returncode}\n{res.stderr[-2000:]}")
    return json.loads(lines[-1])


def _fmt(values: dict) -> str:
    return " ".join(f"{name}={value:.6g}" for name, value in values.items())


def main(argv: list[str]) -> int:
    if len(argv) != 6 or not all(a.isdigit() for a in argv[3:5]) or int(argv[4]) < 1:
        print(__doc__, file=sys.stderr)
        return 2
    trees = dict(zip(SIDES, (Path(argv[0]).resolve(), Path(argv[1]).resolve())))
    workload, seed, count, seconds = argv[2], int(argv[3]), int(argv[4]), float(argv[5])
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs, first, failed = [], [], 0
    for i in range(count):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            result = run_once(trees[side], workload, seed, seconds)
            failed += not result["correct"]
            pair[side] = {name: m["value"] for name, m in result["metrics"].items()
                          if name in better}
        pairs.append(pair)
        first.append(order[0])
        print(f"pair {i + 1} ({order[0]} first)")
        for side in SIDES:
            print(f"  {side:6} {_fmt(pair[side])}")
    summary = summarize(pairs, better)
    for name, s in summary.items():
        print(f"{name} ({s['better']} is better): parent median {s['parent']['median']:.6g}"
              f" (IQR {s['parent_iqr']:.3g}), change median {s['change']['median']:.6g}"
              f" ({s['median_change_rel']:+.2%}); change wins {s['change_wins']}"
              f" and loses {s['change_losses']} of {count} pairs")
    print(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                      "pairs": count, "first": first, "failed_runs": failed,
                      "metrics": summary}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
