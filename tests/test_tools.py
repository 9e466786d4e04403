"""The repository's tools, run as their users run them."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from khcluster.segment import GrayImage, segment_curve

ROOT = Path(__file__).resolve().parents[1]


def test_exact_outputs_writes_every_job_of_a_seed(tmp_path):
    """tools/exact_outputs.py on one seed exits 0 and writes the outputs of
    every benchmark job: 62 files, with a report.json that parses for each
    of the 14 cluster jobs."""
    res = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "exact_outputs.py"), str(ROOT / "src"),
         str(tmp_path), "101", "101"],
        capture_output=True, text=True, check=False)
    assert res.returncode == 0, res.stderr
    files = [f for f in (tmp_path / "out").rglob("*") if f.is_file()]
    assert len(files) == 62
    assert res.stdout.startswith("62 output files")
    reports = [f for f in files if f.name == "report.json"]
    assert len(reports) == 14
    for f in reports:
        json.loads(f.read_text(encoding="utf-8"))


def _write_tree(root: Path, kh_e2: float, kh_labels2=(0, 0, 1)) -> None:
    """A small exact_outputs tree: one cluster job (report.json and
    comparison.csv) and one segment job; kh_e2 and kh_labels2 are kh's E
    and labels at m = 2."""
    job = root / "out" / "dup1d" / "101" / "0"
    job.mkdir(parents=True)
    methods = {"kh": {"1": {"E": 8.0, "labels": [0, 0, 0]},
                      "2": {"E": kh_e2, "labels": list(kh_labels2)}},
               "kmeans": {"1": {"E": 8.0, "labels": [0, 0, 0]},
                          "2": {"E": 0.5, "labels": [0, 0, 1]}}}
    (job / "report.json").write_text(json.dumps({"methods": methods}), encoding="utf-8")
    (job / "comparison.csv").write_text(
        f"m,E_kmeans,E_kh\n1,8.0,8.0\n2,0.5,{kh_e2!r}\n", encoding="utf-8")
    seg = root / "out" / "seg32" / "101" / "0"
    seg.mkdir(parents=True)
    (seg / "segment_curve.csv").write_text(
        "count,E,sigma,variant\n2,4.0,1,merge_only\n1,9.0,2,merge_only\n", encoding="utf-8")


def test_e_deltas_reports_exactly_the_changed_records(tmp_path):
    """tools/e_deltas.py reports zeros and exits 0 on two identical trees,
    and on a tree with one edited E (in report.json and comparison.csv)
    exactly that record: both files, no label change, one E change up."""
    for name, e in (("a", 0.5), ("b", 0.5), ("c", 0.75)):
        _write_tree(tmp_path / name, e)

    def run(other):
        return subprocess.run(
            [sys.executable, str(ROOT / "tools" / "e_deltas.py"), str(tmp_path / "a"),
             str(tmp_path / other)], capture_output=True, text=True, check=False)

    same = run("b")
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines() == [
        f"{w}: 0 files differ, 0 records with changed labels, 0 records with changed E "
        "(max relative dE 0.0e+00, 0 up, 0 down)" for w in ("dup1d", "seg32")]
    edited = run("c")
    assert edited.returncode == 1, edited.stderr
    assert edited.stdout.splitlines() == [
        "dup1d: 2 files differ, 0 records with changed labels, 1 records with changed E "
        "(max relative dE 5.0e-01, 1 up, 0 down)",
        "  file dup1d/101/0/comparison.csv",
        "  file dup1d/101/0/report.json",
        "  E dup1d/101/0 kh m=2: 0.5 -> 0.75 (relative 5.0e-01)",
        "seg32: 0 files differ, 0 records with changed labels, 0 records with changed E "
        "(max relative dE 0.0e+00, 0 up, 0 down)"]


@pytest.mark.parametrize("labels, kind, split", [
    ((1, 1, 0), "relabelled", "1 relabelled, 0 repartitioned"),
    ((0, 1, 1), "repartitioned", "0 relabelled, 1 repartitioned")])
def test_e_deltas_tells_relabelled_from_repartitioned(tmp_path, labels, kind, split):
    """tools/e_deltas.py calls a record whose labels changed relabelled when
    it holds the same clusters under other ids ([0, 0, 1] -> [1, 1, 0]),
    and repartitioned otherwise ([0, 0, 1] -> [0, 1, 1])."""
    _write_tree(tmp_path / "a", 0.5)
    _write_tree(tmp_path / "b", 0.5, labels)
    res = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "e_deltas.py"), str(tmp_path / "a"),
         str(tmp_path / "b")], capture_output=True, text=True, check=False)
    assert res.returncode == 1, res.stderr
    assert res.stdout.splitlines() == [
        f"dup1d: 1 files differ, 1 records with changed labels ({split}), "
        "0 records with changed E (max relative dE 0.0e+00, 0 up, 0 down)",
        "  file dup1d/101/0/report.json",
        f"  {kind} dup1d/101/0 kh m=2",
        "seg32: 0 files differ, 0 records with changed labels, 0 records with changed E "
        "(max relative dE 0.0e+00, 0 up, 0 down)"]


def _tool(name):
    """tools/<name>.py as a module; tools/ is not a package."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _paired_runs():
    return _tool("paired_runs")


def test_paired_runs_summary_on_fixed_numbers():
    """The summary of tools/paired_runs.py, without running the benchmark:
    medians and inclusive quartiles per side, the parent's interquartile
    range, and wins and losses in the metric's direction (a tie is
    neither), on five pairs of fixed numbers; one pair has no spread."""
    tool = _paired_runs()
    parent = [0.040, 0.030, 0.050, 0.045, 0.035]
    change = [0.030, 0.031, 0.040, 0.045, 0.020]
    pairs = [{"parent": {"job_s": p, "pass_frac": 1.0}, "change": {"job_s": c, "pass_frac": f}}
             for p, c, f in zip(parent, change, (1.0, 0.5, 1.0, 1.0, 1.0))]
    s = tool.summarize(pairs, {"job_s": "lower", "pass_frac": "higher"})
    job = s["job_s"]
    assert job["parent"]["runs"] == parent and job["change"]["runs"] == change
    assert job["parent"]["median"] == 0.040 and job["change"]["median"] == 0.031
    assert job["parent"]["q1"] == pytest.approx(0.035) and job["parent"]["q3"] == 0.045
    assert job["parent_iqr"] == pytest.approx(0.010)
    assert (job["change_wins"], job["change_losses"]) == (3, 1)
    assert job["median_change_rel"] == pytest.approx(-0.225)
    frac = s["pass_frac"]
    assert (frac["change_wins"], frac["change_losses"]) == (0, 1)
    assert frac["parent_iqr"] == 0.0 and frac["median_change_rel"] == 0.0
    one = tool.summarize(pairs[:1], {"job_s": "lower"})["job_s"]
    assert one["parent"] == {"q1": 0.040, "median": 0.040, "q3": 0.040, "runs": [0.040]}
    assert one["parent_iqr"] == 0.0 and one["change_wins"] == 1


def test_target_sizes_summary_on_fixed_numbers():
    """The summary of tools/target_sizes.py, without timing anything: per
    side the min, median and inclusive quartiles of the seconds, the
    change's wins and losses over the rounds (a tie is neither), the traced
    peaks in MiB, and whether every run of both sides gave the same E bits,
    on five rounds of fixed numbers."""
    tool = _tool("target_sizes")
    parent = [3.3, 3.2, 3.5, 3.4, 3.0]
    change = [2.9, 3.0, 3.6, 2.8, 3.0]
    rounds = [{"parent": p, "change": c} for p, c in zip(parent, change)]
    bits = [["0x1.8p+1", "0x1.0p+0"] for _ in range(12)]
    s = tool.summarize(rounds, {"parent": 3 * 2**20, "change": 2**19}, bits)
    assert s["parent"]["runs"] == parent and s["change"]["runs"] == change
    assert (s["parent"]["min"], s["parent"]["median"]) == (3.0, 3.3)
    assert s["parent"]["q1"] == pytest.approx(3.2) and s["parent"]["q3"] == pytest.approx(3.4)
    assert (s["change"]["min"], s["change"]["median"]) == (2.8, 3.0)
    assert s["change"]["q1"] == pytest.approx(2.9) and s["change"]["q3"] == 3.0
    assert (s["change_wins"], s["change_losses"]) == (3, 1)
    assert s["peak_mib"] == {"parent": 3.0, "change": 0.5}
    assert s["same_e_bits"]
    bits[7] = ["0x1.8p+1", "0x1.0000000000001p+0"]
    assert not tool.summarize(rounds, {"parent": 1, "change": 1}, bits)["same_e_bits"]


def test_target_sizes_segment_case_gives_curve_bits_and_labels():
    """A case gN of tools/target_sizes.py runs segment_curve on the NxN C9
    image of seed 0 in a fresh interpreter: its bits are the E of every
    row of the merge-only and the corrected curve, then the sha256 of each
    final labelling, as the same curve computed here gives them."""
    res = _tool("target_sizes").run_case(ROOT, "g6", False)
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules.setdefault("workloads", importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    curve = segment_curve(GrayImage.from_array(
        workloads.quadrant_image(np.random.default_rng(0), 6)))
    want = ([r.error.hex() for r in curve.merge_only + curve.corrected]
            + [hashlib.sha256(sm.labels.tobytes()).hexdigest()
               for sm in (curve.final_merge_only, curve.final_corrected)])
    assert len(want) == 2 * 36 + 2
    assert res["e_bits"] == want
    assert res["seconds"] > 0.0 and res["peak"] is None


@pytest.mark.parametrize("same", [True, False])
def test_target_sizes_prints_the_bits_verdict_before_the_traced_runs(
        tmp_path, monkeypatch, capsys, same):
    """tools/target_sizes.py prints whether the timed runs of both trees
    gave the same E bits before its first traced run starts, so a traced
    run that never ends, here one that raises, leaves the verdict printed.
    Fixed runs stand in for the fresh interpreters."""
    tool = _tool("target_sizes")
    parent, change = tmp_path / "parent", tmp_path / "change"
    runs = []

    class Stopped(Exception):
        pass

    def fake(tree, case, traced):
        runs.append(traced)
        if traced:
            raise Stopped
        bits = ["0x1.0p+0"] if same or tree.name == "parent" else ["0x1.0000000000001p+0"]
        return {"seconds": 1.0 if tree.name == "parent" else 0.5, "e_bits": bits, "peak": None}

    monkeypatch.setattr(tool, "run_case", fake)
    with pytest.raises(Stopped):
        tool.main([str(parent), str(change), "g8", "2"])
    assert runs == [False] * 4 + [True]
    assert capsys.readouterr().out.splitlines() == [
        "g8 round 1 (parent first): parent 1.0000 s, change 0.5000 s",
        "g8 round 2 (change first): parent 1.0000 s, change 0.5000 s",
        f"g8: same E bits over the timed rounds: {same}"]
