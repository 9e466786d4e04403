"""The repository's tools, run as their users run them."""

import json
import subprocess
import sys
from pathlib import Path

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
