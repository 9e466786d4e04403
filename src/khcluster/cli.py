"""Command line front end.

Three subcommands: cluster writes a JSON report of stable partitions for
one or more methods, compare writes a per-count error table as CSV, and
segment runs the image pipeline and writes the error curve plus PGM
approximations. Reports are byte-identical across runs with the same
inputs and options. Exit codes: 0 success, 2 usage, precondition or an
output that cannot be written, 3 unreadable input, 4 size guard.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import baselines, kh_engine, oracle, otsu1d, segment
from .core import (Dataset, InputFormatError, Partition, PreconditionError,
                   SizeGuardError, sigma)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_GUARD = 4

METHOD_ORDER = ("kmeans", "kh", "otsu", "oracle")


def _as_float(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def load_csv(path) -> Dataset:
    """Numeric CSV, one point per row. A first row none of whose fields is a
    number is a header.

    A UTF-8 byte-order mark is skipped. Any other non-numeric field, and nan
    or infinite values, are malformed input, reported with the line and
    column of the first bad field.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise InputFormatError("file is not UTF-8 text") from None
    rows = []
    width = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = [f.strip() for f in body.split(",")]
        vals = [_as_float(f) for f in fields]
        if width is None and all(v is None for v in vals):
            width = len(fields)  # header row fixes the column count
            continue
        for col, (f, v) in enumerate(zip(fields, vals), start=1):
            if v is None:
                raise InputFormatError(f"not a number: {f!r}",
                                       line=line_no, column=col)
            if not math.isfinite(v):
                raise InputFormatError(f"not a finite number: {f!r}",
                                       line=line_no, column=col)
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise InputFormatError(
                f"row has {len(fields)} fields, expected {width}", line=line_no)
        rows.append(vals)
    if not rows:
        raise InputFormatError("no data rows found")
    return Dataset(np.asarray(rows, dtype=np.float64))


def _load_dataset(args) -> Dataset:
    if args.format == "pgm":
        img = segment.read_pgm(args.input)
        return Dataset(img.intensities)
    return load_csv(args.input)


def _partition_record(p: Partition, moves: int,
                      policy: kh_engine.SubsetPolicy) -> dict:
    report = kh_engine.verify_stability(p, policy)
    return {
        "labels": [int(c) for c in p.labels],
        "E": p.total_e,
        "sigma": sigma(p.total_e, p.n),
        "stable": report.stable,
        "moves": moves,
    }


def _run_kmeans(ds, m_max, seed, policy):
    seq = baselines.kmeans_sequence(ds, m_max, rng_seed=seed)
    return {str(m): _partition_record(seq.by_cluster_count[m],
                                      seq.info[m]["iterations"], policy)
            for m in seq.cluster_counts()}


def _run_kh(ds, m_max, policy):
    seq = kh_engine.build_sequence(ds, m_max, policy)
    return {str(m): _partition_record(seq.by_cluster_count[m],
                                      seq.info[m]["moves"], policy)
            for m in seq.cluster_counts()}


def _run_otsu(ds, m_max, policy):
    if ds.d != 1:
        raise PreconditionError("otsu requires one-dimensional data")
    h = otsu1d.build_histogram(ds)
    out = {}
    for point in otsu1d.curve(h, m_max):
        labels = otsu1d.assign_classes(ds.points[:, 0], np.asarray(point.thresholds))
        p = Partition.from_labels(ds, labels.astype(np.int64), point.m)
        out[str(point.m)] = _partition_record(p, 0, policy)
    return out


def _run_oracle(ds, m_max, policy):
    out = {}
    for res in oracle.minimum_curve(ds, m_max):
        labels = np.asarray(res.best_labels, dtype=np.int64)
        p = Partition.from_labels(ds, labels, res.m)
        out[str(res.m)] = _partition_record(p, 0, policy)
    return out


def _run_methods(ds, args) -> dict:
    """Run each requested method; every record's stability is audited under
    the run's subset policy."""
    methods = args.methods.split(",")
    for name in methods:
        if name not in METHOD_ORDER:
            raise PreconditionError(f"unknown method {name!r}")
    if len(set(methods)) != len(methods):
        raise PreconditionError("duplicate method requested")
    if args.seed < 0:
        raise PreconditionError("--seed must be nonnegative")
    policy = kh_engine.SubsetPolicy(args.policy)

    def run(name):
        if name == "kmeans":
            return _run_kmeans(ds, args.m_max, args.seed, policy)
        if name == "kh":
            return _run_kh(ds, args.m_max, policy)
        if name == "otsu":
            return _run_otsu(ds, args.m_max, policy)
        return _run_oracle(ds, args.m_max, policy)

    return {name: run(name) for name in methods}


def _comparison(by_method: dict, m_max: int) -> str:
    names = [n for n in METHOD_ORDER if n in by_method]
    lines = ["m," + ",".join(f"E_{n}" for n in names)]
    for m in range(1, m_max + 1):
        cells = [by_method[n].get(str(m)) for n in names]
        lines.append(",".join([str(m)] + [repr(c["E"]) if c else "" for c in cells]))
    return "\n".join(lines) + "\n"


def _out_dir(args) -> Path:
    """The --out directory, created with its parents when missing."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise PreconditionError(f"cannot create output directory: {e}") from None
    return out


def _write(path: Path, content) -> None:
    """Write one output file: text as UTF-8, or a GrayImage as PGM. A failed
    write is a usage error (exit 2), like an --out that cannot be created."""
    try:
        if isinstance(content, segment.GrayImage):
            segment.write_pgm(content, path)
        else:
            path.write_text(content, encoding="utf-8")
    except OSError as e:
        raise PreconditionError(f"cannot write output: {e}") from None


def cmd_cluster(args) -> int:
    ds = _load_dataset(args)
    by_method = _run_methods(ds, args)
    report = {
        "schemaVersion": 1,
        "command": "cluster",
        "input": str(args.input),
        "n": ds.n,
        "d": ds.d,
        "seed": args.seed,
        "mMax": args.m_max,
        "policy": args.policy,
        "methods": by_method,
    }
    out = _out_dir(args)
    _write(out / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write(out / "comparison.csv", _comparison(by_method, args.m_max))
    print(f"wrote {out / 'report.json'} and {out / 'comparison.csv'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    ds = _load_dataset(args)
    by_method = _run_methods(ds, args)
    out = _out_dir(args)
    _write(out / "comparison.csv", _comparison(by_method, args.m_max))
    print(f"wrote {out / 'comparison.csv'}")
    return EXIT_OK


def cmd_segment(args) -> int:
    img = segment.read_pgm(args.input)
    result = segment.segment_curve(img, m_min=args.m_max, init=args.init)
    out = _out_dir(args)
    lines = ["count,E,sigma,variant"]
    for variant, rows in (("merge_only", result.merge_only),
                          ("corrected", result.corrected)):
        for row in rows:
            lines.append(f"{row.count},{row.error!r},{row.sigma:.6g},{variant}")
    _write(out / "segment_curve.csv", "\n".join(lines) + "\n")
    count = result.final_corrected.segment_count
    _write(out / f"approx_merge_only_{count}.pgm",
           result.final_merge_only.approximation())
    _write(out / f"approx_corrected_{count}.pgm",
           result.final_corrected.approximation())
    print(f"wrote {out / 'segment_curve.csv'} and two PGM approximations")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khcluster",
        description="Minimum squared error clustering by subset reclassification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input data file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--m-max", type=int, default=3, dest="m_max")

    for name, fn in (("cluster", cmd_cluster), ("compare", cmd_compare)):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--format", choices=("csv", "pgm"), default="csv")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--methods", default="kh",
                       help="comma list from kmeans,kh,otsu,oracle")
        p.add_argument("--policy", choices=("singletons", "identical", "both"),
                       default="both")
        p.set_defaults(fn=fn)

    p = sub.add_parser("segment")
    common(p)
    p.set_defaults(m_max=1)  # segment counts run downward, stop at 1
    p.add_argument("--init", choices=("pixels", "flat_zones"), default="pixels")
    p.set_defaults(fn=cmd_segment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (InputFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SizeGuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GUARD
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
