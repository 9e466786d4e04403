"""End-to-end command line behavior: files in, files out, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import labeled_energy
from khcluster import baselines, core, kh_engine, segment
from khcluster.cli import (EXIT_GUARD, EXIT_INPUT, EXIT_OK, EXIT_USAGE,
                           build_parser, load_csv, main)
from khcluster.core import Dataset, InputFormatError, Partition
from khcluster.kh_engine import BOTH, verify_stability
from khcluster.segment import GrayImage, read_pgm, write_pgm


def write_csv(path, rows, header=None):
    lines = ([header] if header else []) + [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_csv_plain_and_header(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, [[0.0, 1.0], [2.0, 3.0]])
    ds = load_csv(p)
    assert ds.n == 2 and ds.d == 2
    write_csv(p, [[0.0, 1.0]], header="x,y")
    assert load_csv(p).n == 1
    p.write_text("# only a comment\n0,1\n\n2,3\n")
    assert load_csv(p).n == 2


def test_load_csv_diagnostics(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,1\n2,3\n4,oops\n")
    with pytest.raises(InputFormatError) as exc:
        load_csv(p)
    assert exc.value.line == 3 and exc.value.column == 2
    p.write_text("0,1\n2\n")
    with pytest.raises(InputFormatError) as exc:
        load_csv(p)
    assert exc.value.line == 2
    # a first row with a numeric field is data, not a header
    for text, col in (("1.0,2.x\n3,4\n5,6\n7,8\n", 2), ("x,1\n3,4\n", 1)):
        p.write_text(text)
        with pytest.raises(InputFormatError) as exc:
            load_csv(p)
        assert exc.value.line == 1 and exc.value.column == col
    p.write_text("# nothing\n")
    with pytest.raises(InputFormatError, match="no data rows"):
        load_csv(p)


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    """A BOM file and the same file without one give the same report bytes,
    apart from the input path."""
    body = "1.0\n2.0\n8.0\n9.0\n"
    reports = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        data = tmp_path / f"{name}.csv"
        data.write_bytes(prefix + body.encode("utf-8"))
        out = tmp_path / name
        assert main(["cluster", "--input", str(data), "--m-max", "2",
                     "--methods", "kmeans,kh", "--out", str(out)]) == EXIT_OK
        text = (out / "report.json").read_text()
        reports.append(text.replace(json.dumps(str(data)), '"IN"'))
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["n"] == 4


@pytest.mark.parametrize("spelling", ["nan", "inf", "-inf"])
def test_non_finite_field_is_malformed_input(tmp_path, capsys, spelling):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"1.0,2.0\n3.0,{spelling}\n5.0,6.0\n")
    with pytest.raises(InputFormatError) as exc:
        load_csv(bad)
    assert exc.value.line == 2 and exc.value.column == 2
    assert main(["cluster", "--input", str(bad), "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line 2" in err and "column 2" in err


def test_cluster_all_methods_agree_on_easy_data(tmp_path, capsys):
    data = tmp_path / "pts.csv"
    write_csv(data, [[0.0], [1.0], [9.0], [10.0]])
    out = tmp_path / "run"
    code = main(["cluster", "--input", str(data), "--m-max", "2",
                 "--methods", "kmeans,kh,otsu,oracle", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert sorted(report) == sorted(["schemaVersion", "command", "input", "n", "d",
                                     "seed", "mMax", "policy", "methods"])
    assert report["schemaVersion"] == 1
    assert report["command"] == "cluster"
    assert report["n"] == 4 and report["d"] == 1
    for name in ("kmeans", "kh", "otsu", "oracle"):
        rec = report["methods"][name]["2"]
        assert rec["E"] == pytest.approx(1.0, rel=1e-9)
        assert rec["stable"] is True
        assert rec["sigma"] == pytest.approx(0.5, rel=1e-9)
        assert len(rec["labels"]) == 4
    table = (out / "comparison.csv").read_text().splitlines()
    assert table[0] == "m,E_kmeans,E_kh,E_otsu,E_oracle"
    assert table[2].startswith("2,")
    assert all(float(v) == pytest.approx(1.0) for v in table[2].split(",")[1:])


def test_stability_flag_is_audited_under_the_run_policy(tmp_path):
    """Records are checked under --policy, not under the default both.

    On this duplicate-heavy grid the m = 4 kh partition is stable for
    single-point moves, while moving a whole group of equal values would
    still lower E.
    """
    values = [8, 3, 8, 0, 3, 2, 5, 2, 0, 7, 7, 5, 8, 3, 1, 6, 7,
              7, 8, 1, 4, 1, 2, 6, 6, 7, 3, 1, 0, 8, 2, 4, 3]
    data = tmp_path / "grid.csv"
    write_csv(data, [[float(v)] for v in values])
    out = tmp_path / "run"
    code = main(["cluster", "--input", str(data), "--m-max", "4", "--methods", "kh",
                 "--policy", "singletons", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["policy"] == "singletons"
    records = report["methods"]["kh"]
    assert sorted(records) == ["1", "2", "3", "4"]
    assert all(rec["stable"] is True for rec in records.values())
    four = Partition.from_labels(Dataset([float(v) for v in values]),
                                 records["4"]["labels"], 4)
    assert not verify_stability(four, BOTH).stable


def test_cluster_reports_the_corrected_optimum(tmp_path):
    """Both baselines and the reclassifier land below the poor fixed point."""
    data = tmp_path / "skew.csv"
    write_csv(data, [[0.0], [6.0]] + [[10.0]] * 100)
    out = tmp_path / "run"
    code = main(["cluster", "--input", str(data), "--m-max", "2",
                 "--methods", "kmeans,kh", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    target = 1600.0 / 101.0
    assert report["methods"]["kmeans"]["2"]["E"] == pytest.approx(target, rel=1e-9)
    assert report["methods"]["kh"]["2"]["E"] == pytest.approx(target, rel=1e-9)
    assert report["methods"]["kh"]["2"]["stable"] is True


def test_a_refused_move_is_reported_unstable(tmp_path, monkeypatch):
    """The same skewed data offset by 1e7: cancellation makes a move look
    improving that raises E, so the correction loops refuse it and end
    (a counter fails the test if they cycle), and the audit reports the
    m = 2 records unstable."""
    move = core.PartitionStack.move
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        assert len(calls) <= 1000, "the correction loops do not end"
        return move(self, *args, **kwargs)

    monkeypatch.setattr(core.PartitionStack, "move", counted)
    data = tmp_path / "offset.csv"
    write_csv(data, [[1e7], [1e7 + 6.0]] + [[1e7 + 10.0]] * 100)
    out = tmp_path / "run"
    code = main(["cluster", "--input", str(data), "--m-max", "2",
                 "--methods", "kmeans,kh", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["methods"]["kmeans"]["2"]["stable"] is False
    assert report["methods"]["kh"]["2"]["stable"] is False


def test_one_kmeans_sequence_per_job(tmp_path, monkeypatch):
    """The kmeans method and kh's kmeans route share one k-means sequence,
    drawn with the run's --seed; a job that runs neither draws none."""
    seeds = []
    draw = baselines.kmeans_sequence

    def counted(ds, m_max, rng_seed=0):
        seeds.append(rng_seed)
        return draw(ds, m_max, rng_seed)

    monkeypatch.setattr(baselines, "kmeans_sequence", counted)
    monkeypatch.setattr(kh_engine, "kmeans_sequence", counted)
    data = tmp_path / "pts.csv"
    write_csv(data, [[0.0], [1.0], [1.0], [9.0], [10.0]])
    for command in ("cluster", "compare"):
        for methods, want in (("kmeans,kh", [3]), ("kh,otsu,kmeans", [3]),
                              ("kh", [3]), ("kmeans", [3]), ("otsu,oracle", [])):
            seeds.clear()
            assert main([command, "--input", str(data), "--methods", methods, "--m-max", "3",
                         "--seed", "3", "--out", str(tmp_path / "run")]) == EXIT_OK
            assert seeds == want


def test_json_energies_roundtrip_against_labels(tmp_path):
    rng = np.random.default_rng(6)
    pts = np.round(rng.normal(0, 3, (20, 2)), 3)
    data = tmp_path / "r.csv"
    write_csv(data, pts.tolist())
    out = tmp_path / "run"
    assert main(["cluster", "--input", str(data), "--m-max", "4",
                 "--methods", "kmeans,kh", "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    for name, per_m in report["methods"].items():
        for m, rec in per_m.items():
            e = labeled_energy(pts, np.asarray(rec["labels"]))
            assert rec["E"] == pytest.approx(e, rel=1e-9, abs=1e-9)


def test_compare_writes_only_the_table(tmp_path):
    data = tmp_path / "pts.csv"
    write_csv(data, [[0.0], [1.0], [9.0], [10.0]])
    out = tmp_path / "cmp"
    assert main(["compare", "--input", str(data), "--m-max", "3",
                 "--methods", "otsu,kh", "--out", str(out)]) == EXIT_OK
    assert (out / "comparison.csv").exists()
    assert not (out / "report.json").exists()
    header = (out / "comparison.csv").read_text().splitlines()[0]
    assert header == "m,E_kh,E_otsu"  # fixed column order, not request order


def test_segment_command_outputs(tmp_path):
    img = GrayImage.from_array(np.array([[0.0, 10.0], [0.0, 10.0]]))
    src = tmp_path / "tiny.pgm"
    write_pgm(img, src)
    out = tmp_path / "seg"
    code = main(["segment", "--input", str(src), "--m-max", "2", "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "segment_curve.csv").read_text().splitlines()
    assert rows[0] == "count,E,sigma,variant"
    assert rows[1].split(",") == ["4", "0.0", "0", "merge_only"]
    assert rows[-1].endswith("corrected")
    approx = read_pgm(out / "approx_corrected_2.pgm")
    assert approx.intensities.tolist() == [0.0, 10.0, 0.0, 10.0]
    assert (out / "approx_merge_only_2.pgm").exists()


def test_exit_codes(tmp_path, capsys, monkeypatch):
    data = tmp_path / "pts.csv"
    write_csv(data, [[0.0], [1.0], [9.0], [10.0]])

    assert main(["cluster", "--input", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path)]) == EXIT_INPUT

    bad = tmp_path / "bad.csv"
    bad.write_text("0\n1\ntwo\n")
    assert main(["cluster", "--input", str(bad), "--out", str(tmp_path)]) == EXIT_INPUT

    wide = tmp_path / "wide.csv"
    write_csv(wide, [[0.0, 1.0], [2.0, 3.0]])
    assert main(["cluster", "--input", str(wide), "--methods", "otsu",
                 "--m-max", "2", "--out", str(tmp_path)]) == EXIT_USAGE

    big = tmp_path / "big.csv"
    write_csv(big, [[float(i)] for i in range(14)])
    assert main(["cluster", "--input", str(big), "--methods", "oracle",
                 "--m-max", "2", "--out", str(tmp_path)]) == EXIT_GUARD

    assert main(["cluster", "--input", str(data), "--methods", "dbscan",
                 "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["cluster", "--input", str(data), "--methods", "kh,kh",
                 "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["segment", "--input", str(data), "--format", "csv",
                 "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["segment", "--input", str(data), "--seed", "1",
                 "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["cluster", "--input", str(data), "--frobnicate"]) == EXIT_USAGE
    assert main(["cluster", "--input", str(data), "--l-max", "3",
                 "--out", str(tmp_path)]) == EXIT_USAGE

    empty = tmp_path / "empty.csv"
    empty.write_text("# header only\n")
    assert main(["cluster", "--input", str(empty), "--out", str(tmp_path)]) == EXIT_INPUT

    notext = tmp_path / "notext.csv"
    notext.write_bytes(b"\xff\xfe\x00rubbish")
    assert main(["cluster", "--input", str(notext), "--out", str(tmp_path)]) == EXIT_INPUT

    # an input path that cannot be opened is unreadable input; an --out that
    # cannot be created, or an output file that cannot be written in it, is
    # a usage error; each prints a one-line error
    img = tmp_path / "tiny.pgm"
    write_pgm(GrayImage.from_array(np.array([[0.0, 10.0]])), img)
    blocked = tmp_path / "blocked"
    for name in ("report.json", "comparison.csv", "approx_corrected_1.pgm"):
        (blocked / name).mkdir(parents=True)
    capsys.readouterr()
    for argv, code in (
            (["cluster", "--input", str(data / "x.csv")], EXIT_INPUT),
            (["cluster", "--input", str(data), "--out", str(data)], EXIT_USAGE),
            (["compare", "--input", str(data), "--out", str(data / "sub")], EXIT_USAGE),
            (["segment", "--input", str(img), "--out", str(img)], EXIT_USAGE),
            (["cluster", "--input", str(data), "--out", str(blocked)], EXIT_USAGE),
            (["compare", "--input", str(data), "--out", str(blocked)], EXIT_USAGE),
            (["segment", "--input", str(img), "--out", str(blocked)], EXIT_USAGE)):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # a negative seed is a usage error for every method, on few distinct
    # rows (where the seed is unused) and on more than 2,000 (where it is)
    many = tmp_path / "many.csv"
    write_csv(many, [[float(i)] for i in range(2001)])
    for path in (data, many):
        for methods in ("kmeans", "kh", "otsu", "oracle", "kmeans,kh,otsu"):
            for command in ("cluster", "compare"):
                assert main([command, "--input", str(path), "--methods", methods,
                             "--m-max", "2", "--seed", "-1",
                             "--out", str(tmp_path / "neg")]) == EXIT_USAGE
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "neg").exists()

    # a run that fails after creating --out removes the directories it
    # created, deepest first, and keeps one that existed before the run
    square = tmp_path / "square.pgm"
    write_pgm(GrayImage.from_array(np.array([[0.0, 10.0], [0.0, 10.0]])), square)
    kept = tmp_path / "kept"
    kept.mkdir()
    failing = [(["cluster", "--input", str(data), "--methods", name, "--m-max", "9"], EXIT_USAGE)
               for name in ("kmeans", "kh", "otsu", "oracle")]
    failing += [(["compare", "--input", str(data), "--methods", "kh", "--m-max", "9"], EXIT_USAGE),
                (["cluster", "--input", str(big), "--methods", "oracle", "--m-max", "2"],
                 EXIT_GUARD),
                (["segment", "--input", str(square), "--m-max", "0"], EXIT_USAGE),
                (["segment", "--input", str(square), "--m-max", "5"], EXIT_USAGE)]
    for argv, code in failing:
        for out in (tmp_path / "a", tmp_path / "a" / "b" / "c", kept, kept / "x" / "y"):
            assert main([*argv, "--out", str(out)]) == code
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not (tmp_path / "a").exists()
            assert kept.is_dir() and not any(kept.iterdir())

    # --out is created after the input is loaded and the options are
    # checked, and before any method runs: an --out that cannot be created
    # fails before the work, and unreadable input leaves no --out behind
    def refuse(*args, **kwargs):
        raise AssertionError("a method ran before --out was created")

    monkeypatch.setattr(baselines, "kmeans_sequence", refuse)
    monkeypatch.setattr(segment, "segment_curve", refuse)
    for argv in (["cluster", "--input", str(data), "--methods", "kmeans", "--out", str(data)],
                 ["compare", "--input", str(data), "--methods", "kmeans",
                  "--out", str(data / "sub")],
                 ["segment", "--input", str(img), "--out", str(img / "sub")]):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
    never = tmp_path / "never"
    for argv in (["cluster", "--input", str(tmp_path / "absent.csv")],
                 ["compare", "--input", str(bad), "--methods", "kmeans"],
                 ["segment", "--input", str(data)]):
        assert main([*argv, "--out", str(never)]) == EXIT_INPUT
    assert not never.exists()


def test_coordinates_whose_squares_overflow(tmp_path, capsys):
    """4 d (N max|x|)^2 must be finite: 1e200 is refused by every method,
    1e100 runs under every method and reports finite energies."""
    huge, large = tmp_path / "huge.csv", tmp_path / "large.csv"
    write_csv(huge, [[1e200], [-1e200], [0.0], [5.0]])
    write_csv(large, [[1e100], [-1e100], [0.0], [5.0]])

    def refuse(name):
        raise AssertionError(f"{name} in report.json")

    for method in ("kmeans", "kh", "otsu", "oracle"):
        out = tmp_path / method
        assert main(["cluster", "--input", str(huge), "--methods", method,
                     "--m-max", "2", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert main(["cluster", "--input", str(large), "--methods", method,
                     "--m-max", "2", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        assert all(np.isfinite(rec["E"]) for rec in report["methods"][method].values())


def _option_strings(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return {s for action in sub._actions for s in action.option_strings}


def test_each_command_takes_exactly_its_options():
    """Pinned, so an option that changes nothing cannot come back unnoticed."""
    shared = {"-h", "--help", "--input", "--out", "--m-max"}
    for command in ("cluster", "compare"):
        assert _option_strings(command) == shared | {
            "--format", "--seed", "--methods", "--policy"}
    assert _option_strings("segment") == shared | {"--init"}


def test_error_message_carries_position(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    for text, where in (("0,1\n2,3\n4,oops\n", ("line 3", "column 2")),
                        ("1.0,2.x\n3,4\n5,6\n7,8\n", ("line 1", "column 2"))):
        bad.write_text(text)
        assert main(["cluster", "--input", str(bad), "--out", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert all(w in err for w in where)


def test_identical_runs_are_byte_identical(tmp_path):
    data = tmp_path / "pts.csv"
    rng = np.random.default_rng(11)
    write_csv(data, np.round(rng.normal(0, 2, (12, 2)), 3).tolist())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["cluster", "--input", str(data), "--m-max", "3",
                     "--methods", "kmeans,kh,oracle", "--out", str(out)]) == EXIT_OK
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "comparison.csv").read_bytes() == (outs[1] / "comparison.csv").read_bytes()



def test_outputs_match_golden_fixtures(tmp_path):
    """Committed inputs and outputs (tests/data/README.md) pin the exact bytes
    of segment and cluster runs, on 1-D and 2-D CSV, binary PGM and ASCII
    PGM input, from single pixels and from flat zones, of the k-means growth on 60 mostly distinct values, and of
    all four methods together; exact speed-ups must keep them. The report's
    input field holds the path, so only its methods object is compared, as
    methods.json."""
    data = Path(__file__).parent / "data"
    runs = (
        ("segment_quadrant12/input.pgm", ["segment", "--m-max", "4"],
         ("segment_curve.csv", "approx_merge_only_4.pgm", "approx_corrected_4.pgm")),
        ("segment_flat16/input.pgm", ["segment", "--init", "flat_zones", "--m-max", "3"],
         ("segment_curve.csv", "approx_merge_only_3.pgm", "approx_corrected_3.pgm")),
        ("cluster_dup40/input.csv",
         ["cluster", "--methods", "kmeans,kh,otsu", "--m-max", "4"],
         ("comparison.csv", "methods.json")),
        ("cluster_blobs16/input.csv", ["cluster", "--methods", "kmeans,kh", "--m-max", "4"],
         ("comparison.csv", "methods.json")),
        ("cluster_wide60/input.csv", ["cluster", "--methods", "kmeans,otsu", "--m-max", "6"],
         ("comparison.csv", "methods.json")),
        ("cluster_oracle12/input.csv",
         ["cluster", "--methods", "kmeans,kh,otsu,oracle", "--m-max", "4"],
         ("comparison.csv", "methods.json")),
        ("cluster_pgm/input.pgm",
         ["cluster", "--format", "pgm", "--methods", "kmeans,kh,otsu", "--m-max", "3"],
         ("comparison.csv", "methods.json")),
        ("cluster_pgm/input.pgm", ["segment", "--m-max", "2"],
         ("segment_curve.csv", "approx_merge_only_2.pgm", "approx_corrected_2.pgm")),
    )
    for i, (source, argv, names) in enumerate(runs):
        fixture = data / source
        out = tmp_path / str(i)
        assert main([*argv, "--input", str(fixture), "--out", str(out)]) == EXIT_OK
        for name in names:
            if name == "methods.json":
                methods = json.loads((out / "report.json").read_text())["methods"]
                got = (json.dumps(methods, indent=2, sort_keys=True) + "\n").encode()
            else:
                got = (out / name).read_bytes()
            assert got == (fixture.parent / name).read_bytes(), (source, name)
