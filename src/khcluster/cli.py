"""Command line front end.

Three subcommands: cluster writes a JSON report of stable partitions for
one or more methods and a per-count error table as CSV, compare is cluster
without the report, and segment runs the image pipeline and writes the
error curve plus PGM approximations. Reports are byte-identical across
runs with the same inputs and options. Exit codes: 0 success, 2 usage,
precondition or an output that cannot be written, 3 unreadable input, 4
size guard. A run that exits with an error leaves none of the --out
directories it created.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import baselines, kh_engine, oracle, otsu1d, segment
from .core import (Dataset, InputFormatError, Partition, PartitionSequence,
                   PreconditionError, SizeGuardError, sigma)

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
        "labels": p.labels.tolist(),
        "E": p.total_e,
        "sigma": sigma(p.total_e, p.n),
        "stable": report.stable,
        "moves": moves,
    }


def _runs(name: str, ds, args, policy: kh_engine.SubsetPolicy,
          kmeans: PartitionSequence | None):
    """(m, partition, moves) of every count the method solves up to --m-max.

    moves are the Lloyd iterations of kmeans and the correction moves of
    kh; otsu and oracle give labels, which move nothing. kmeans is the
    run's k-means sequence, which kh's kmeans route stabilizes.
    """
    if name == "kmeans":
        seq, key = kmeans, "iterations"
    elif name == "kh":
        seq, key = kh_engine.build_sequence(ds, args.m_max, policy, kmeans), "moves"
    elif name == "otsu":
        x = ds.points[:, 0]
        return [(pt.m, Partition.from_labels(
                    ds, otsu1d.assign_classes(x, np.asarray(pt.thresholds)), pt.m), 0)
                for pt in otsu1d.curve(otsu1d.build_histogram(ds), args.m_max)]
    else:
        return [(r.m, Partition.from_labels(ds, r.best_labels, r.m), 0)
                for r in oracle.minimum_curve(ds, args.m_max)]
    return [(m, seq.by_cluster_count[m], seq.info[m][key]) for m in seq.cluster_counts()]


def _checked_methods(ds, args) -> tuple[list[str], kh_engine.SubsetPolicy]:
    """The requested methods and the subset policy, checked with the other
    options the methods use (seed, otsu's one dimension) before any runs."""
    methods = args.methods.split(",")
    for name in methods:
        if name not in METHOD_ORDER:
            raise PreconditionError(f"unknown method {name!r}")
    if len(set(methods)) != len(methods):
        raise PreconditionError("duplicate method requested")
    if args.seed < 0:
        raise PreconditionError("--seed must be nonnegative")
    policy = kh_engine.SubsetPolicy(args.policy)
    if "otsu" in methods and ds.d != 1:
        raise PreconditionError("otsu requires one-dimensional data")
    return methods, policy


def _run_methods(ds, args, methods: list[str], policy: kh_engine.SubsetPolicy) -> dict:
    """The runs of each method, _runs by name. kmeans and kh share one
    k-means sequence, seeded by --seed."""
    kmeans = (baselines.kmeans_sequence(ds, args.m_max, rng_seed=args.seed)
              if {"kmeans", "kh"} & set(methods) else None)
    return {name: _runs(name, ds, args, policy, kmeans) for name in methods}


def _comparison(runs: dict, m_max: int) -> str:
    names = [n for n in METHOD_ORDER if n in runs]
    energies = [{m: p.total_e for m, p, _ in runs[n]} for n in names]
    lines = ["m," + ",".join(f"E_{n}" for n in names)]
    for m in range(1, m_max + 1):
        lines.append(",".join([str(m)] + [repr(e[m]) if m in e else "" for e in energies]))
    return "\n".join(lines) + "\n"


def _out_dir(args) -> Path:
    """The --out directory, created with its parents when missing; main
    removes what it created if the run then exits with an error."""
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
    """cluster and compare: run the methods and write comparison.csv;
    cluster first writes report.json, each record audited for stability."""
    ds = _load_dataset(args)
    methods, policy = _checked_methods(ds, args)
    out = _out_dir(args)
    runs = _run_methods(ds, args, methods, policy)
    files = {"comparison.csv": _comparison(runs, args.m_max)}
    if args.command == "cluster":
        # every record's stability is audited under the run's subset policy
        by_method = {name: {str(m): _partition_record(p, moves, policy) for m, p, moves in r}
                     for name, r in runs.items()}
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
        files = {"report.json": _report_json(report) + "\n", **files}
    for name, content in files.items():
        _write(out / name, content)
    print("wrote " + " and ".join(str(out / name) for name in files))
    return EXIT_OK


def _report_json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), bit for bit, for what a
    report holds: dicts with string keys, lists and JSON scalars. pad is the
    newline and indent of obj's closing bracket. json's indented output
    takes its pure-Python encoder; here only the scalars go through json,
    and a list of ints, such as a record's labels, is joined in one call."""
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [json.dumps(k) + ": " + _report_json(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = (map(str, obj) if set(map(type, obj)) == {int}
                 else [_report_json(v, inner) for v in obj])
        return "[" + inner + ("," + inner).join(items) + pad + "]" if obj else "[]"
    return json.dumps(obj)


def cmd_segment(args) -> int:
    img = segment.read_pgm(args.input)
    out = _out_dir(args)
    try:
        result = segment.segment_curve(img, m_min=args.m_max, init=args.init)
    except PreconditionError as e:  # the count to stop at is its one precondition
        raise PreconditionError(f"--m-max {args.m_max}: {e}") from None
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

    for name in ("cluster", "compare"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--format", choices=("csv", "pgm"), default="csv")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--methods", default="kh",
                       help="comma list from kmeans,kh,otsu,oracle")
        p.add_argument("--policy", choices=("singletons", "identical", "both"),
                       default="both")
        p.set_defaults(fn=cmd_cluster)

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
    out = Path(args.out)
    missing = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        return args.fn(args)
    except (InputFormatError, OSError) as e:
        code, error = EXIT_INPUT, e
    except SizeGuardError as e:
        code, error = EXIT_GUARD, e
    except PreconditionError as e:
        code, error = EXIT_USAGE, e
    print(f"error: {error}", file=sys.stderr)
    _remove_empty(missing)
    return code


def _remove_empty(dirs: list[Path]) -> None:
    """Remove the directories of a failed run, deepest first, while each is
    empty; the list holds only those missing before the run."""
    for d in dirs:
        try:
            d.rmdir()
        except FileNotFoundError:
            continue
        except OSError:
            return


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
