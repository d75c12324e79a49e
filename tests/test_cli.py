"""Command-line interface: outputs, CSV formats and error handling."""

import csv
import io
import shutil
import time

import pytest

from commspread import cli
from commspread.cli import main
from commspread.metrics import modularity

from conftest import DATA_DIR


@pytest.fixture
def walkthrough_path(tmp_path):
    src = DATA_DIR / "walkthrough13.txt"
    dst = tmp_path / "walkthrough13.txt"
    shutil.copy(src, dst)
    return dst


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_detect_writes_cover_and_summary(capsys, tmp_path, walkthrough_path):
    out = tmp_path / "cover.tsv"
    code, stdout, stderr = run_cli(
        capsys,
        "detect",
        "--input", str(walkthrough_path),
        "--method", "ins",
        "--threshold", "0.66",
        "--start", "N",
        "--output", str(out),
    )
    assert code == 0
    fields = stdout.strip().split("\t")
    assert fields[:3] == ["13", "20", "3"]
    assert float(fields[3]) == pytest.approx(0.505, abs=0.005)
    assert float(fields[4]) >= 0.0
    assert "parse_ms=" in stderr
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 13
    assert all(len(line.split("\t")) == 2 for line in lines)


def test_detect_skip_modmax_flag(capsys, tmp_path, walkthrough_path):
    # Allocation leaves four clusters, and maximization merges two of them.
    for flags, k in ((["--skip-modmax"], "4"), ([], "3")):
        code, stdout, _ = run_cli(
            capsys,
            "detect",
            "--input", str(walkthrough_path),
            "--method", "ins",
            "--threshold", "0.66",
            "--start", "N",
            *flags,
            "--output", str(tmp_path / "cover.tsv"),
        )
        assert code == 0
        assert stdout.split("\t")[2] == k, flags


# (id, command line, message): the command exits 2, prints nothing on stdout
# and only "error: <message>" on stderr.  The test writes the files it reads.
USAGE_ERRORS = [
    ("detect-missing-input", "detect --input nope.txt --method ins --output o.tsv",
     "cannot read input nope.txt: [Errno 2] No such file or directory: 'nope.txt'"),
    ("detect-unknown-start", "detect --input g.txt --method ins --start ZZ --output o.tsv",
     "start node 'ZZ' not present in the graph"),
    ("detect-malformed-line", "detect --input malformed.txt --method ins --output o.tsv",
     "cannot parse malformed.txt: line 1: expected 2 tokens, found 3: 'a b c'"),
    # A label starting with "#" is malformed: the cover file would write it
    # at the start of a line, where it reads as a comment.
    ("detect-hash-label", "detect --input hash.txt --method ins --output o.tsv",
     "cannot parse hash.txt: line 1: a label may not start with '#': 'a #b'"),
    ("detect-unwritable-output",
     "detect --input g.txt --method ins --output missing-dir/cover.tsv",
     "cannot write output missing-dir/cover.tsv: "
     "[Errno 2] No such file or directory: 'missing-dir/cover.tsv'"),
    ("eval-unreadable-cover", "eval --input g.txt --cover missing.tsv",
     "cannot read cover missing.tsv: [Errno 2] No such file or directory: 'missing.tsv'"),
    ("bench-zero-repeats", "bench --input g.txt --repeats 0", "repeats must be >= 1"),
    ("bench-repeats-before-load", "bench --input nope.txt --repeats 0", "repeats must be >= 1"),
    ("bench-out-of-range-threshold", "bench --input g.txt --threshold -1",
     "threshold must be in [0, 1], got -1.0"),
    ("bench-single-input", "bench --input g.txt",
     "need at least two inputs with distinct edge counts for a linearity fit"),
    ("bench-equal-edge-counts", "bench --input g.txt g.txt",
     "need at least two inputs with distinct edge counts for a linearity fit"),
    ("bench-unreadable-second-input", "bench --input g.txt nope.txt",
     "cannot read input nope.txt: [Errno 2] No such file or directory: 'nope.txt'"),
    ("sweep-threshold-empty-range", "sweep-threshold --input g.txt --from 0.8 --to 0.4 --step 0.1",
     "need step > 0 and a non-empty threshold range"),
    # 0.9 and 0.95 are valid; the sweep must fail before printing them.
    ("sweep-threshold-range-beyond-one", "sweep-threshold --input g.txt --from 0.9 --to 1.2",
     "threshold must be in [0, 1], got 1.2"),
    # Row 0 would run from + 0*inf, which is NaN.
    ("sweep-threshold-infinite-step", "sweep-threshold --input g.txt --step inf",
     "step inf is not finite"),
    ("sweep-start-empty-graph", "sweep-start --input empty.txt",
     "cannot sweep start nodes of an empty graph"),
    ("sweep-start-zero-sample", "sweep-start --input g.txt --sample 0", "--sample must be >= 1"),
    ("sweep-start-bad-sample", "sweep-start --input g.txt --sample zero",
     "--sample must be 'all' or an integer, got 'zero'"),
    ("sweep-start-out-of-range-threshold", "sweep-start --input g.txt --threshold 1.5",
     "threshold must be in [0, 1], got 1.5"),
]


@pytest.mark.parametrize(
    "command,message",
    [pytest.param(command, message, id=name) for name, command, message in USAGE_ERRORS],
)
def test_usage_error_exits_2(capsys, tmp_path, monkeypatch, command, message):
    check_usage_error(capsys, tmp_path, monkeypatch, command, message)


def check_usage_error(capsys, tmp_path, monkeypatch, command, message):
    monkeypatch.chdir(tmp_path)
    shutil.copy(DATA_DIR / "walkthrough13.txt", tmp_path / "g.txt")
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "malformed.txt").write_text("a b c\n")
    (tmp_path / "hash.txt").write_text("a #b\nb c\n")
    code, stdout, stderr = run_cli(capsys, *command.split())
    assert code == 2
    assert stderr == f"error: {message}\n"
    assert stdout == ""


# The next two are rows of the same shape, one per option or step.
@pytest.mark.parametrize("option", ["--from", "--to", "--step"])
def test_sweep_threshold_rejects_nan(capsys, tmp_path, monkeypatch, option):
    check_usage_error(
        capsys, tmp_path, monkeypatch,
        f"sweep-threshold --input g.txt {option} nan",
        "need step > 0 and a non-empty threshold range",
    )


# 0.4 + 1e-20 == 0.4, and 0.85 + 3e-17 == 0.85.  Thresholds are rounded to
# 10 decimals, so a step below 1e-10 would run some of them twice.
@pytest.mark.parametrize(
    "step,bounds,top",
    [("1e-20", "", "0.85"), ("3e-17", "", "0.85"), ("1e-11", " --from 0.7 --to 0.7000000003", "0.7")],
    ids=["1e-20", "3e-17", "1e-11"],
)
def test_sweep_threshold_rejects_step_that_cannot_advance(
    capsys, tmp_path, monkeypatch, step, bounds, top
):
    check_usage_error(
        capsys, tmp_path, monkeypatch,
        f"sweep-threshold --input g.txt --step {step}{bounds}",
        f"step {step} cannot advance the threshold up to {top}",
    )


@pytest.mark.parametrize(
    "command",
    [
        ["detect", "--method", "ins", "--output", "cover.tsv"],
        ["eval", "--cover", "cover.tsv"],
        ["bench"],
        ["sweep-threshold"],
        ["sweep-start"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_utf8_edge_list_exits_2_naming_the_line(capsys, tmp_path, monkeypatch, command):
    # Lines are checked in file order, so the first bad line is named whether
    # it is malformed or not UTF-8; the offset counts bytes, not characters.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cover.tsv").write_text("a\t0\nb\t0\n")
    bad = tmp_path / "bad.txt"
    for data, message in [
        (b"a b\nb \xff\n", "line 2: not valid UTF-8 (invalid start byte at byte 2)"),
        ("a b\n# caf\u00e9\n".encode() + b"b \xff\nc d\n", "line 3: not valid UTF-8 (invalid start byte at byte 2)"),
        (b"a b\nc\nd \xff\n", "line 2: expected 2 tokens, found 1: 'c'"),
        (b"a b\nd \xff\nc\n", "line 2: not valid UTF-8 (invalid start byte at byte 2)"),
        (b"a b\nb \xc3\xa9 \xff\n", "line 2: not valid UTF-8 (invalid start byte at byte 5)"),
        # A byte-order mark is not part of line 1: the offset counts from after it.
        (BOM + b"a \xff\nb c\n", "line 1: not valid UTF-8 (invalid start byte at byte 2)"),
    ]:
        bad.write_bytes(data)
        code, stdout, stderr = run_cli(capsys, command[0], "--input", str(bad), *command[1:])
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: cannot parse {bad}: {message}\n"


@pytest.mark.parametrize("malformed, reread", [(1000, False), (4990, True)])
def test_malformed_line_before_an_undecodable_one_in_a_long_file(
    capsys, tmp_path, monkeypatch, malformed, reread
):
    # 5000 lines, 47 KB, with line 4995 not UTF-8.  The text-mode read
    # parses line 1000 before it decodes the 8 KB block of line 4995; line
    # 4990 shares that block, so its error comes from the line-by-line
    # re-read, which the loader must stop at line 4990.
    lines = [f"{v} {v + 1}\n".encode() for v in range(5000)]
    lines[malformed - 1] = b"x y z\n"
    lines[4994] = b"y \xff\n"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"".join(lines))
    rereads = []
    utf8_lines = cli._utf8_lines
    monkeypatch.setattr(cli, "_utf8_lines", lambda fh: rereads.append(fh) or utf8_lines(fh))
    out = tmp_path / "cover.tsv"
    code, _, stderr = run_cli(
        capsys, "detect", "--input", str(bad), "--method", "ins", "--output", str(out)
    )
    assert code == 2
    message = f"line {malformed}: expected 2 tokens, found 3: 'x y z'"
    assert stderr == f"error: cannot parse {bad}: {message}\n"
    assert bool(rereads) == reread


def test_eval_non_utf8_cover_exits_2_naming_the_line(capsys, tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("a b\n")
    cover = tmp_path / "cover.tsv"
    for data, message in [
        (b"a\t0\n\xe9\t0\n", "line 2: not valid UTF-8 (invalid continuation byte at byte 0)"),
        (b"a\t0\nb\t0\n\xe9\t1\n", "line 3: not valid UTF-8 (invalid continuation byte at byte 0)"),
        (b"a\t0\nb 0\n\xe9\t1\n", "line 2: expected label<TAB>community id: 'b 0'"),
        (b"a\t0\n\xe9\t1\nb 0\n", "line 2: not valid UTF-8 (invalid continuation byte at byte 0)"),
    ]:
        cover.write_bytes(data)
        code, _, stderr = run_cli(capsys, "eval", "--input", str(edges), "--cover", str(cover))
        assert code == 2
        assert stderr == f"error: {message}\n"


def test_multibyte_labels_and_crlf_round_trip_through_detect(capsys, tmp_path):
    # A CRLF file gives the same graph and cover as the LF one.
    text = "a\tb\n  # caf\u00e9\n\tb \t \u00e9\n\n\u00e9 a\nc d\n"
    edges = tmp_path / "g.txt"
    cover = tmp_path / "cover.tsv"
    results = []
    for newline in ("\n", "\r\n"):
        edges.write_bytes(text.replace("\n", newline).encode("utf-8"))
        code, stdout, _ = run_cli(
            capsys, "detect", "--input", str(edges), "--method", "ins", "--output", str(cover)
        )
        assert code == 0
        results.append((stdout.split("\t")[:4], cover.read_bytes()))
        code, _, _ = run_cli(capsys, "eval", "--input", str(edges), "--cover", str(cover))
        assert code == 0
    assert results[0] == results[1]
    assert results[0][0][:2] == ["5", "4"]
    labels = [line.split("\t")[0] for line in results[0][1].decode("utf-8").splitlines()]
    assert labels == ["a", "b", "c", "d", "\u00e9"]


def test_lone_cr_line_ends_split_lines(capsys, tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_bytes(b"a b\rb c\r")
    cover = tmp_path / "cover.tsv"
    cover.write_bytes(b"a\t0\rb\t0\rc\t1\r")
    code, stdout, _ = run_cli(capsys, "eval", "--input", str(edges), "--cover", str(cover))
    assert code == 0
    assert "k\t2" in stdout.splitlines()
    edges.write_bytes(b"a b\rb \xff\rc d\r")
    code, _, stderr = run_cli(capsys, "eval", "--input", str(edges), "--cover", str(cover))
    assert code == 2
    assert "line 2: not valid UTF-8" in stderr


def test_byte_order_mark_is_not_part_of_the_first_label(capsys, tmp_path):
    # A copy of karate that starts with a UTF-8 byte-order mark gives the
    # same graph, cover file and summary line (up to the time) as the plain one.
    plain = DATA_DIR / "karate.txt"
    marked = tmp_path / "karate-bom.txt"
    marked.write_bytes(BOM + plain.read_bytes())
    results = []
    for path in (plain, marked):
        cover = tmp_path / f"{path.stem}.tsv"
        code, stdout, _ = run_cli(
            capsys, "detect", "--input", str(path), "--method", "cond", "--output", str(cover)
        )
        assert code == 0
        results.append((stdout.split("\t")[:4], cover.read_bytes()))
    assert results[0] == results[1]
    assert results[0][0][:2] == ["34", "78"]


def test_eval_reads_a_cover_with_a_byte_order_mark(capsys, tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_bytes(BOM + b"a b\nb c\nc a\nc d\n")
    cover = tmp_path / "cover.tsv"
    cover.write_bytes(BOM + b"a\t0\nb\t0\nc\t0\nd\t1\n")
    code, stdout, _ = run_cli(capsys, "eval", "--input", str(edges), "--cover", str(cover))
    assert code == 0
    assert stdout.splitlines()[1:3] == ["k\t2", "sizes\t0:3\t1:1"]


def test_eval_reports_cover_quality(capsys, tmp_path, walkthrough_path):
    out = tmp_path / "cover.tsv"
    run_cli(
        capsys,
        "detect",
        "--input", str(walkthrough_path),
        "--method", "ins",
        "--threshold", "0.66",
        "--start", "N",
        "--output", str(out),
    )
    # Comment and blank lines in a cover file are skipped.
    cover = out.read_text()
    for prefix in ("", "# walkthrough cover\n\n"):
        out.write_text(prefix + cover)
        code, stdout, _ = run_cli(
            capsys, "eval", "--input", str(walkthrough_path), "--cover", str(out)
        )
        assert code == 0
        lines = dict(line.split("\t", 1) for line in stdout.strip().splitlines())
        assert lines["Q"] == "0.505"
        assert lines["k"] == "3"
        assert "sizes" in lines and "conductance" in lines


def test_eval_rejects_incomplete_cover(capsys, tmp_path, walkthrough_path):
    cover = tmp_path / "cover.tsv"
    cover.write_text("A\t0\n")
    code, _, stderr = run_cli(
        capsys, "eval", "--input", str(walkthrough_path), "--cover", str(cover)
    )
    assert code == 2
    assert "missing" in stderr


@pytest.mark.parametrize(
    "text,message",
    [
        ("a\t0\nb 0\nc\t0\n", "line 2: expected label<TAB>community id"),
        ("a\t0\nb\tx\nc\t0\n", "line 2: community id is not an integer"),
        ("a\t0\nb\t-1\nc\t0\n", "line 2: community id must be non-negative"),
        ("a\t0\nb\t0\na\t1\nc\t0\n", "line 3: node 'a' listed twice"),
    ],
    ids=["no-tab", "non-integer", "negative", "duplicate"],
)
def test_eval_malformed_cover_line_exits_2(capsys, tmp_path, text, message):
    edges = tmp_path / "g.txt"
    edges.write_text("a b\nb c\n")
    cover = tmp_path / "cover.tsv"
    cover.write_text(text)
    code, _, stderr = run_cli(capsys, "eval", "--input", str(edges), "--cover", str(cover))
    assert code == 2
    assert message in stderr


def test_detect_then_eval_on_empty_graph(capsys, tmp_path):
    edges = tmp_path / "empty.txt"
    edges.write_text("")
    cover = tmp_path / "cover.tsv"
    code, stdout, _ = run_cli(
        capsys, "detect", "--input", str(edges), "--method", "ins", "--output", str(cover)
    )
    assert code == 0
    assert stdout.split("\t")[:4] == ["0", "0", "0", "0.000"]
    assert cover.read_text() == ""
    code, stdout, _ = run_cli(capsys, "eval", "--input", str(edges), "--cover", str(cover))
    assert code == 0
    assert stdout.splitlines()[:2] == ["Q\t0.000", "k\t0"]


def run_bench(capsys, monkeypatch, tmp_path, rounds, phase):
    """``bench`` on walkthrough13 and karate, in that order, for ``rounds``
    rounds of ``phase``.

    Checks the CSV header, the round-major rows, each row's ``n`` and ``m``
    against its loaded graph and that every timed graph is a loaded one;
    returns the rows.
    """
    paths = [shutil.copy(DATA_DIR / f"{name}.txt", tmp_path) for name in ("walkthrough13", "karate")]
    loaded, timed = [], []
    load = cli._load_graph
    monkeypatch.setattr(cli, "_load_graph", lambda path: loaded.append(load(path)) or loaded[-1])
    name = "detect" if phase == "full" else "run_traversal"
    run = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda g, cfg: timed.append(g) or run(g, cfg))
    code, stdout, stderr = run_cli(
        capsys, "bench", "--input", *map(str, paths), "--repeats", str(rounds), "--phase", phase
    )
    assert code == 0
    header, *rows = csv.reader(io.StringIO(stdout))
    assert header == ["dataset", "n", "m", "method", "phase", "run", "time_ms", "Q", "k"]
    assert [(row[0], row[5]) for row in rows] == [
        (dataset, str(r)) for r in range(rounds) for dataset in ("walkthrough13", "karate")
    ]
    assert [(row[1], row[2]) for row in rows] == [(str(g.n), str(g.m)) for g in loaded] * rounds
    assert all(row[3:5] == ["ins", phase] for row in rows)
    assert len(timed) == 2 * rounds and all(any(g is h for h in loaded) for g in timed)
    assert "fit slope_ms_per_edge=" in stderr and "r2=" in stderr
    return rows


def test_bench_csv_shape(capsys, monkeypatch, tmp_path):
    rows = run_bench(capsys, monkeypatch, tmp_path, 3, "traversal")
    assert [row[1:3] for row in rows[:2]] == [["13", "20"], ["34", "78"]]
    assert all(row[7:] == ["", "0"] for row in rows)


def test_bench_full_phase_reports_quality(capsys, monkeypatch, tmp_path):
    rows = run_bench(capsys, monkeypatch, tmp_path, 1, "full")
    for row in rows:
        assert float(row[7]) >= 0.0  # Q populated in full phase
        assert int(row[8]) >= 1


def test_bench_full_phase_times_detect_only(capsys, monkeypatch, tmp_path):
    # The reported Q is computed after the clock stops: a modularity that
    # takes 0.3 s must not show in any row's time.
    def slow_modularity(g, cover):
        time.sleep(0.3)
        return modularity(g, cover)

    monkeypatch.setattr(cli, "modularity", slow_modularity)
    rows = run_bench(capsys, monkeypatch, tmp_path, 1, "full")
    assert len(rows) == 2
    assert all(float(row[6]) < 300.0 for row in rows)


def test_sweep_threshold_csv(capsys, walkthrough_path):
    code, stdout, _ = run_cli(
        capsys,
        "sweep-threshold",
        "--input", str(walkthrough_path),
        "--from", "0.5",
        "--to", "0.7",
        "--step", "0.1",
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "r,Q,k"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.50", "0.60", "0.70"]


def test_sweep_threshold_labels_each_row_with_the_threshold_run(capsys, walkthrough_path):
    # A step below 0.01 must not print distinct thresholds under one label.
    code, stdout, _ = run_cli(
        capsys,
        "sweep-threshold",
        "--input", str(walkthrough_path),
        "--from", "0.7",
        "--to", "0.71",
        "--step", "0.002",
    )
    assert code == 0
    rs = [line.split(",")[0] for line in stdout.strip().splitlines()[1:]]
    assert rs == ["0.70", "0.702", "0.704", "0.706", "0.708", "0.71"]


def test_sweep_threshold_runs_each_threshold_once(capsys, walkthrough_path):
    # Row i runs round(from + i*step, 10) capped at --to; no end slack may
    # add rows that repeat --to, and a step beyond the range runs row 0 alone.
    for bounds, expected in [
        (["--from", "0.7", "--to", "0.7000000003", "--step", "1e-10"],
         ["0.70", "0.7000000001", "0.7000000002", "0.7000000003"]),
        (["--step", "1e308"], ["0.40"]),
    ]:
        code, stdout, _ = run_cli(
            capsys, "sweep-threshold", "--input", str(walkthrough_path), *bounds
        )
        assert code == 0
        rs = [line.split(",")[0] for line in stdout.strip().splitlines()[1:]]
        assert rs == expected


def test_sweep_start_all_nodes(capsys, walkthrough_path):
    code, stdout, stderr = run_cli(
        capsys,
        "sweep-start",
        "--input", str(walkthrough_path),
        "--threshold", "0.66",
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "start,degree,Q,k"
    assert len(lines) == 1 + 13
    assert "mean_Q=" in stderr and "rsd=" in stderr


def test_sweep_start_sampled_deterministic(capsys, walkthrough_path):
    _, out1, _ = run_cli(
        capsys,
        "sweep-start",
        "--input", str(walkthrough_path),
        "--sample", "5",
        "--seed", "4",
    )
    _, out2, _ = run_cli(
        capsys,
        "sweep-start",
        "--input", str(walkthrough_path),
        "--sample", "5",
        "--seed", "4",
    )
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 6


def test_sweep_start_sample_of_at_least_n_runs_every_node(capsys, walkthrough_path):
    outputs = [
        run_cli(capsys, "sweep-start", "--input", str(walkthrough_path), "--sample", sample)
        for sample in ("all", "13", "100")
    ]
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_sweep_start_quotes_labels_that_hold_a_comma_or_a_quote(capsys, tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text('a,b c\nc "d"\nd a,b\n')
    code, stdout, _ = run_cli(capsys, "sweep-start", "--input", str(edges))
    assert code == 0
    rows = list(csv.reader(io.StringIO(stdout)))
    assert all(len(row) == 4 for row in rows)
    assert [row[0] for row in rows] == ["start", "a,b", "c", '"d"', "d"]


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
