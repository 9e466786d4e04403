"""Seeded workload inputs and the CLI job each workload runs.

A workload is a set of input files, made from the seed alone, plus the
argv of the `khcluster` CLI job run on each. The program sees only the
written CSV or PGM files; nothing here is passed to it in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


def _write_csv(path: Path, points: np.ndarray) -> None:
    rows = (",".join(repr(float(v)) for v in row) for row in points)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _write_pgm(path: Path, arr: np.ndarray) -> None:
    # binary P5, maxval 255, written by hand so the program under test is
    # exercised only as a reader
    h, w = arr.shape
    body = np.asarray(arr, dtype=np.uint8).tobytes()
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + body)


BLOB_CENTERS = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]])


def blobs2d_points(rng: np.random.Generator, per_blob: int) -> np.ndarray:
    """Four fixed blobs, noise sigma 1.5, per_blob distinct points each."""
    while True:
        pts = np.repeat(BLOB_CENTERS, per_blob, axis=0)
        pts = np.round(pts + rng.normal(0.0, 1.5, pts.shape), 2)
        if np.unique(pts, axis=0).shape[0] == pts.shape[0]:
            return pts


def dup1d_points(rng: np.random.Generator, n: int, grid: int) -> np.ndarray:
    """n points on the integer grid 0..grid-1 from three bumps; every grid
    value occurs, most many times over."""
    modes = np.array([0.2, 0.55, 0.85]) * (grid - 1)
    while True:
        which = rng.integers(0, 3, n)
        x = np.clip(np.round(modes[which] + rng.normal(0.0, grid / 10.0, n)),
                    0, grid - 1)
        if np.unique(x).size == grid:
            return x.reshape(-1, 1)


def wide1d_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n mostly distinct values from a four-component mixture."""
    modes = np.array([-30.0, -5.0, 10.0, 40.0])
    x = modes[rng.integers(0, 4, n)] + rng.normal(0.0, 6.0, n)
    return np.round(x, 3).reshape(-1, 1)


def quadrant_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """Four constant quadrants plus an inset square, with sigma 4 noise;
    the construction of acceptance test C9 at any even size."""
    arr = np.zeros((size, size))
    half, lo, hi = size // 2, (3 * size) // 8, (5 * size) // 8
    arr[:half, :half] = 40.0
    arr[:half, half:] = 120.0
    arr[half:, :half] = 200.0
    arr[half:, half:] = 90.0
    arr[lo:hi, lo:hi] = 160.0
    return np.clip(np.round(arr + rng.normal(0.0, 4.0, arr.shape)), 0, 255)


@dataclass(frozen=True)
class Workload:
    """One CLI job shape, run on `inputs` seeded input files per round."""

    name: str
    command: str        # cluster, compare or segment
    options: tuple      # CLI options besides --input and --out
    inputs: int         # input files per round; more inputs, steadier means
    make: Callable      # (rng, tiny) -> points (N, d) or image (h, w)
    shape: str          # what make() returns at full size
    reason: str

    @property
    def why(self) -> str:
        """The exact argv, the inputs and the reason, on one line."""
        return " ".join((self.command, "--input IN", *self.options, "--out OUT;",
                         f"{self.inputs} inputs, {self.shape}: {self.reason}"))

    @property
    def suffix(self) -> str:
        return ".pgm" if self.command == "segment" else ".csv"

    def argv(self, input_path: Path, out_dir: Path) -> list[str]:
        return [self.command, "--input", str(input_path), *self.options,
                "--out", str(out_dir)]

    def write_inputs(self, seed: int, folder: Path, tiny: bool = False):
        """Write this workload's input files; returns (paths, arrays, shapes)."""
        rng = np.random.default_rng(seed)
        paths, arrays, shapes = [], [], []
        for i in range(self.inputs):
            data = self.make(rng, tiny)
            path = folder / f"input{i}{self.suffix}"
            if self.command == "segment":
                _write_pgm(path, data)
                shapes.append({"height": data.shape[0], "width": data.shape[1],
                               "distinct": int(np.unique(data).size)})
            else:
                _write_csv(path, data)
                shapes.append({"N": data.shape[0], "d": data.shape[1],
                               "distinct": int(np.unique(data, axis=0).shape[0])})
            paths.append(path)
            arrays.append(data)
        return paths, arrays, shapes


WORKLOADS = {w.name: w for w in (
    Workload("blobs2d", "cluster", ("--methods", "kmeans,kh", "--m-max", "4"), 10,
             lambda rng, tiny: blobs2d_points(rng, 2 if tiny else 4),
             "N=16 d=2 all distinct, 4 blobs",
             "kh top_down merge_step/correct_pairs does nearly all the work"),
    Workload("dup1d", "cluster", ("--methods", "kmeans,kh,otsu", "--m-max", "6"), 4,
             lambda rng, tiny: dup1d_points(rng, 40 if tiny else 300, 8 if tiny else 14),
             "N=300 d=1 on 14 grid values",
             "the paper's duplicate-heavy setting, identical-group moves"),
    Workload("wide1d", "compare", ("--methods", "kmeans,otsu", "--m-max", "6"), 10,
             lambda rng, tiny: wide1d_points(rng, 30 if tiny else 200),
             "N=200 d=1 mostly distinct",
             "only baselines and the Otsu DP work; control for engine changes"),
    Workload("seg32", "segment", (), 8,
             lambda rng, tiny: quadrant_image(rng, 8 if tiny else 32),
             "32x32 C9 image (quadrants, inset, noise sigma 4)",
             "correct_boundaries dominates; control for kh_engine changes"),
)}
