"""Write every benchmark job's outputs, for a byte-for-byte comparison of two trees.

Usage: python3 tools/exact_outputs.py SRC OUT [FIRST LAST]

For seeds FIRST to LAST (default 101 to 110) of every workload in
perfbench/workloads.py, writes the seeded inputs under
OUT/in/<workload>/<seed>/ and runs each job through khcluster.cli.main,
imported from the package directory SRC (a tree's src/), with its
outputs in OUT/out/<workload>/<seed>/<input number>/.
Paths are given relative to OUT, so reports that echo the input path
agree between trees. Run it once per tree, then `diff -r OUT1 OUT2`: an
exact change leaves the diff empty.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

DEFAULT_SEEDS = (101, 110)


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 4) or not all(a.isdigit() for a in argv[2:]):
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    first, last = map(int, argv[2:]) if len(argv) == 4 else DEFAULT_SEEDS
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from khcluster import cli
    from workloads import WORKLOADS

    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    written = 0
    for name, w in WORKLOADS.items():
        for seed in range(first, last + 1):
            folder = Path("in", name, str(seed))
            folder.mkdir(parents=True, exist_ok=True)
            paths, _, _ = w.write_inputs(seed, folder)
            for i, path in enumerate(paths):
                job = Path("out", name, str(seed), str(i))
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(w.argv(path, job))
                if code != 0:
                    print(f"{name} seed {seed} input {i}: exit {code}", file=sys.stderr)
                    return 1
                written += sum(1 for _ in job.iterdir())
    print(f"{written} output files under {out / 'out'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
