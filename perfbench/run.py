"""Benchmark of the khcluster CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's input files are made from the seed and written under
perfbench/.work/. Each round runs one CLI job, khcluster.cli.main(argv),
in this process on every input file of the workload, and rounds repeat
until S seconds have passed (at least two). Every job's outputs are
checked, and the jobs of later rounds must write the same bytes as the
first round.

Every time is scaled to a reference machine speed (calib.py): a fixed
reference loop is timed between consecutive jobs, and each job's wall time
is divided by the mean of the loop's times before and after it, then
multiplied by the loop's reference time. The raw wall times go to the
result file.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: job
time (per input, the median over the timed rounds, which follow one
warm-up job; then the mean over inputs), set-up time (fresh interpreters
importing khcluster and loading the inputs, median of several), peak RSS,
the share of jobs that passed, and solution-quality ratios. --trace 1
instead alternates untraced rounds with rounds under the outside-in tracer
(tracer.py) and reports the per-layer metrics, per job, plus the tracer's
overhead. Per-layer times are raw wall times, not scaled.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A full record, with the
environment, goes to perfbench/results/. The exit code is 1 if any check
failed and 2 if the package source is missing. perfbench/selftest.py
checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import TRACED, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# numpy reads these once, when it loads: calib, workloads, checks and
# khcluster are therefore imported inside functions, after pin_environment()
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7

# Set-up as a CLI user pays it: a fresh interpreter imports the package and
# turns the workload's files into library objects.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import khcluster
from khcluster import cli, segment
for path in sys.argv[2:]:
    if sys.argv[1] == "segment":
        segment.SegmentMap.from_image(segment.read_pgm(path))
    else:
        cli.load_csv(path)
print(repr(time.perf_counter() - t0))
"""


def pin_environment() -> None:
    """Serial CLI (KH_THREADS unset), BLAS threads capped at nproc, and the
    package imported from src/, here and in every child process."""
    nproc = len(os.sched_getaffinity(0))
    os.environ.pop("KH_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "KH_THREADS": os.environ.get("KH_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "git_commit": commit}


def run_job(cli, argv: list[str]) -> tuple[float, int | None, str]:
    """One in-process CLI job: (wall seconds, exit code or None, messages)."""
    buf = io.StringIO()
    rc = None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed job, reported, not fatal
            traceback.print_exc()
        dt = time.perf_counter() - t0
    return dt, rc, buf.getvalue()


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


class Run:
    """One benchmark run: inputs, rounds of jobs, checks, and the tally."""

    def __init__(self, workload, seed: int, work: Path, tiny: bool = False):
        from workloads import WORKLOADS

        self.w = WORKLOADS[workload]
        self.work = work
        self.paths, self.data, self.shapes = self.w.write_inputs(
            seed, work, tiny=tiny)
        self.first: list[dict | None] = [None] * len(self.paths)
        self.sums: list[dict] = [{} for _ in self.paths]
        self.jobs: list[dict] = []
        self.problems: list[str] = []   # failures outside single jobs
        self.attempted = 0
        self.failed = 0

    def check(self, i: int, out: Path) -> list[str]:
        import checks

        if self.w.command == "segment":
            fails, sums = checks.check_segment(out, self.data[i])
        else:
            opts = dict(zip(self.w.options[::2], self.w.options[1::2]))
            fails, sums = checks.check_clusters(
                out, self.data[i], opts["--methods"].split(","), int(opts["--m-max"]))
        snap = checks.snapshot(out)
        if self.first[i] is None:
            self.first[i], self.sums[i] = snap, sums
        else:
            fails += checks.check_identical(self.first[i], snap)
        return fails

    def round(self, cli, number: int, traced: bool,
              inputs: int | None = None) -> list[float]:
        """One job per input (on the first `inputs` only, if given);
        returns each job's time at reference speed."""
        from calib import calibrate, scaled

        times = []
        for i in range(len(self.paths) if inputs is None else inputs):
            out = self.work / f"out_r{number}_i{i}"
            before = calibrate()
            dt, rc, messages = run_job(cli, self.w.argv(self.paths[i], out))
            cal = (before + calibrate()) / 2.0
            fails = [f"exit code {rc}"] if rc != 0 else []
            if rc == 0:
                fails += self.check(i, out)
            job = {"round": number, "input": i, "traced": traced, "s": dt,
                   "cal_s": cal, "scaled_s": scaled(dt, cal), "failures": fails}
            if rc == 0:
                job["output_bytes"] = output_bytes(out)
            if fails:
                job["messages"] = messages[-2000:]
            self.jobs.append(job)
            self.attempted += 1
            self.failed += bool(fails)
            times.append(job["scaled_s"])
            shutil.rmtree(out, ignore_errors=True)
        return times

    def fail_round(self, number: int, reason: str) -> None:
        """Mark every job of a round failed, for a failed round-level audit."""
        for job in self.jobs:
            if job["round"] == number:
                if not job["failures"]:
                    self.failed += 1
                job["failures"].append(reason)

    def setup_times(self, repeats: int) -> list[float]:
        """Set-up times at reference speed, each scaled by the reference
        loop timed just before and after its interpreter."""
        from calib import calibrate, scaled

        times = []
        cmd = [sys.executable, "-c", SETUP_CODE, self.w.command,
               *map(str, self.paths)]
        for _ in range(repeats):
            self.attempted += 1
            before = calibrate()
            res = subprocess.run(cmd, capture_output=True, text=True,
                                 cwd=ROOT, check=False)
            cal = (before + calibrate()) / 2.0
            try:
                times.append(scaled(float(res.stdout.strip().splitlines()[-1]), cal))
            except (IndexError, ValueError):
                self.failed += 1
                self.problems.append(f"set-up exited {res.returncode}: "
                                     f"{res.stderr[-500:]}")
        return times

    def quality(self) -> dict[str, float]:
        """Quality ratios over all inputs; a ratio whose two methods the
        workload does not both run is reported as 1."""
        def ratio(num: str, den: str) -> float:
            if not all(num in s and den in s for s in self.sums):
                return 1.0
            return sum(s[num] for s in self.sums) / sum(s[den] for s in self.sums)

        return {"kh_E_ratio_kmeans": ratio("kh", "kmeans"),
                "kh_E_ratio_otsu": ratio("kh", "otsu"),
                "kmeans_E_ratio_otsu": ratio("kmeans", "otsu"),
                "seg_E_ratio": ratio("corrected", "merge_only")}


def untraced_metrics(run: Run, cli, seconds: float) -> tuple[dict, dict]:
    # Round 0, a job on the first input only, warms up: it is checked, not
    # timed. Set-up samples are taken between the first rounds.
    t0 = time.perf_counter()
    run.round(cli, 0, traced=False, inputs=1)
    setup = run.setup_times(1)
    rounds: list[list[float]] = []
    while len(rounds) < 2 or time.perf_counter() - t0 < seconds:
        rounds.append(run.round(cli, len(rounds) + 1, traced=False))
        if len(setup) < SETUP_REPEATS:
            setup += run.setup_times(1)
    setup += run.setup_times(SETUP_REPEATS - len(setup))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_input = [statistics.median(times) for times in zip(*rounds)]
    metrics = {
        "job_s": statistics.fmean(per_input),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": rss_mb,
        "pass_frac": (run.attempted - run.failed) / run.attempted,
        **run.quality(),
    }
    detail = {"timed_rounds": len(rounds), "job_s": rounds, "setup_s": setup}
    return metrics, detail


def layer_metrics(snap: dict, k: int) -> dict[str, float]:
    """Per-job layer metrics from one traced round's aggregates."""
    out: dict[str, float] = {}
    for mod, attr in TRACED:
        name = f"{mod}.{attr}"
        out[f"{name}.calls"] = snap["calls"].get(name, 0) / k
        out[f"{name}.s"] = snap["incl_s"].get(name, 0.0) / k
        out[f"{name}.self_s"] = snap["self_s"].get(name, 0.0) / k
    for key in ("kh_engine.correct_tuples.moves", "kh_engine.verify_stability.subsets",
                "baselines.lloyd.iterations"):
        out[key] = snap["counts"].get(key, 0) / k
    for route in ("top_down", "bottom_up", "kmeans"):
        out[f"kh_engine.route_wins.{route}"] = \
            snap["counts"].get(f"kh_engine.build_sequence.route.{route}", 0) / k
    out["otsu1d.distinct_values"] = \
        snap["counts"].get("otsu1d.build_histogram.distinct_values", 0) / k
    out["otsu1d.dp_cells"] = snap["counts"].get("otsu1d.curve.dp_cells", 0) / k
    for name in ("kh_engine.correct_pairs", "segment.SegmentMap.correct_boundaries"):
        calls = snap["calls"].get(name, 0)
        moves = snap["counts"].get(f"{name}.moves", 0)
        out[f"{name}.moves"] = moves / k
        out[f"{name}.moves_per_call"] = moves / calls if calls else 0.0
    out["cli.output_bytes"] = snap["output_bytes"] / k
    out["segment.segment_curve.dominance_violations"] = \
        snap["dominance_violations"] / k
    return out


def traced_metrics(run: Run, cli, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    plain: list[float] = []
    snaps: list[dict] = []
    t0 = time.perf_counter()
    number = 0
    # rounds go plain, traced, traced, plain, ...: at least one plain round
    # for the overhead and two traced rounds whose counts must repeat
    while len(snaps) < 2 or time.perf_counter() - t0 < seconds:
        if number % 3 == 0:
            plain.append(sum(run.round(cli, number, traced=False)))
        else:
            tracer.reset()
            with tracer:
                wall = sum(run.round(cli, number, traced=True))
            snap = {"number": number, "wall": wall,
                    "calls": dict(tracer.calls), "incl_s": dict(tracer.incl_s),
                    "self_s": dict(tracer.self_s), "counts": dict(tracer.counts),
                    "output_bytes": sum(j.get("output_bytes", 0) for j in run.jobs
                                        if j["round"] == number),
                    "dominance_violations": sum(
                        s.get("dominance_violations", 0) for s in run.sums)}
            audit_round(run, snap, snaps[0] if snaps else None)
            snaps.append(snap)
        number += 1

    k = len(run.paths)
    metrics = layer_metrics(snaps[0], k)
    for key in metrics:
        if key.endswith(".s") or key.endswith(".self_s"):
            metrics[key] = statistics.median(layer_metrics(s, k)[key] for s in snaps)
    metrics["trace.overhead_frac"] = (
        statistics.median(s["wall"] for s in snaps) / statistics.median(plain) - 1.0)
    return metrics, {"rounds": number, "traced_rounds": len(snaps),
                     "plain_round_s": plain,
                     "traced_round_s": [s["wall"] for s in snaps]}


def audit_round(run: Run, snap: dict, first: dict | None) -> None:
    """Partition.move calls must equal the moves the correction loops
    report, and every count must repeat the first traced round's."""
    moves = sum(snap["counts"].get(f"kh_engine.{f}.moves", 0)
                for f in ("correct_pairs", "correct_tuples"))
    applied = snap["calls"].get("core.Partition.move", 0)
    if applied != moves:
        run.fail_round(snap["number"], f"Partition.move calls {applied} != "
                                       f"correction moves {moves}")
    if first is not None:
        for key in ("calls", "counts", "output_bytes"):
            if snap[key] != first[key]:
                run.fail_round(snap["number"], f"traced {key} differ from "
                                               f"round {first['number']}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run the benchmark and return the full record; pin_environment()
    must have run first."""
    from khcluster import cli

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    work = BENCH_DIR / ".work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, work, tiny=tiny)
        measured, detail = (traced_metrics if trace else untraced_metrics)(
            run, cli, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"benchmark does not measure {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = run.failed == 0 and not run.problems
    return {
        "result": {"correct": correct, "attempted": run.attempted,
                   "failed": run.failed, "metrics": metrics},
        "workload": {"name": run.w.name, "why": run.w.why, "seed": seed,
                     "seconds": seconds, "trace": trace,
                     "argv": [run.w.argv(Path(p.name), Path("OUT"))
                              for p in run.paths],
                     "inputs": run.shapes},
        "environment": environment(),
        "detail": detail,
        "all_measured": measured,
        "problems": run.problems,
        "failed_jobs": [j for j in run.jobs if j["failures"]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "khcluster" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    result = record["result"]
    for key, m in result["metrics"].items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    for job in record["failed_jobs"]:
        print(f"FAILED round {job['round']} input {job['input']}: "
              f"{'; '.join(job['failures'][:5])}")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
