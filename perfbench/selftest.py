"""Self-test of the benchmark: it must pass the program as it is and count
a corrupted output as a failure.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs every workload at a tiny input size, untraced and traced; replays
jobs whose outputs are corrupted after the fact (a flipped `stable`, a
raised E, bytes that change between runs, a non-zero exit code) and
checks that each one is counted as failed; and checks that run.py refuses
to run without the package source. Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


class CorruptingCli:
    """Runs the real CLI job, then damages what it wrote."""

    def __init__(self, cli, damage):
        self.cli, self.damage = cli, damage

    def main(self, argv):
        rc = self.cli.main(argv)
        self.damage(Path(argv[argv.index("--out") + 1]))
        return rc


def edit_report(out: Path, fn) -> None:
    path = out / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    fn(report["methods"])
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def flip_stable(out: Path) -> None:
    def flip(methods):
        methods["kh"]["2"]["stable"] = False
    edit_report(out, flip)


def raise_kh_e(out: Path) -> None:
    # raised consistently in the report and the table
    table = (out / "comparison.csv").read_text(encoding="utf-8")
    old = {}

    def bump(methods):
        old["E"] = methods["kh"]["2"]["E"]
        methods["kh"]["2"]["E"] = old["E"] * 1.01
    edit_report(out, bump)
    (out / "comparison.csv").write_text(
        table.replace(repr(old["E"]), repr(old["E"] * 1.01)), encoding="utf-8")


def raise_segment_e(out: Path) -> None:
    path = out / "segment_curve.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    merge_only = [i for i, line in enumerate(lines) if line.endswith(",merge_only")]
    i = merge_only[len(merge_only) // 2]
    count, e, sig, variant = lines[i].split(",")
    lines[i] = ",".join((count, repr(float(e) * 2.0 + 1.0), sig, variant))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def drift_bytes(out: Path) -> None:
    # round 0 writes the reference bytes; round 1 differs in one pixel
    if out.name.startswith("out_r1_"):
        victim = out / "approx_corrected_1.pgm"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 1
        victim.write_bytes(bytes(data))


class FailingCli:
    def main(self, argv):
        return 3


def corrupted_rounds(workload: str, cli, what: str, damaged=(0, 1)) -> None:
    """Two rounds of jobs; every job of a damaged round must count as failed."""
    work = bench.BENCH_DIR / ".work" / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = bench.Run(workload, 0, work, tiny=True)
        for number in range(2):
            run.round(cli, number, traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    want = sum(job["round"] in damaged for job in run.jobs)
    expect(want > 0 and run.failed == want,
           f"{workload}: {what} counted as {run.failed} failed of {run.attempted}")


def refuses_without_source() -> None:
    bare = bench.BENCH_DIR / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.BENCH_DIR, bare / bench.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    spec = json.loads((bare / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        res = subprocess.run(
            [*spec["command"], "--workload", "dup1d", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(res.returncode != 0 and not res.stdout.strip(),
           f"without src/ run.py exits {res.returncode} and prints no result")


def main() -> int:
    bench.pin_environment()
    from khcluster import cli
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace in (False, True):
            record = bench.measure(name, 0, 0.0, trace, tiny=True)
            res = record["result"]
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 2,
                   f"{name} tiny, trace {int(trace)}: {res['attempted']} attempted, "
                   f"{res['failed']} failed")

    corrupted_rounds("dup1d", CorruptingCli(cli, flip_stable), "flipped stable")
    corrupted_rounds("blobs2d", CorruptingCli(cli, raise_kh_e), "raised E_kh")
    corrupted_rounds("seg32", CorruptingCli(cli, raise_segment_e), "raised merge-only E")
    corrupted_rounds("seg32", CorruptingCli(cli, drift_bytes), "changed bytes",
                     damaged=(1,))
    corrupted_rounds("wide1d", FailingCli(), "exit code 3")

    run = bench.Run.__new__(bench.Run)
    run.jobs = [{"round": 1, "failures": []}]
    run.failed = 0
    snap = {"number": 1, "calls": {"core.Partition.move": 5},
            "counts": {"kh_engine.correct_pairs.moves": 4}, "output_bytes": 1}
    bench.audit_round(run, snap, None)
    expect(run.failed == 1, "Partition.move calls that miss a move fail the round")

    refuses_without_source()
    print(f"{len(FAILURES)} expectation(s) failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
