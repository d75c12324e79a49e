"""Command-line interface: outputs, CSV formats and error handling."""

import shutil

import pytest

from commspread.cli import main

from conftest import DATA_DIR


@pytest.fixture
def walkthrough_path(tmp_path):
    src = DATA_DIR / "walkthrough13.txt"
    dst = tmp_path / "walkthrough13.txt"
    shutil.copy(src, dst)
    return dst


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


def test_detect_missing_input_exits_2(capsys, tmp_path):
    code, _, stderr = run_cli(
        capsys,
        "detect",
        "--input", str(tmp_path / "nope.txt"),
        "--method", "ins",
        "--output", str(tmp_path / "o.tsv"),
    )
    assert code == 2
    assert "error:" in stderr


def test_detect_unknown_start_exits_2(capsys, tmp_path, walkthrough_path):
    code, _, stderr = run_cli(
        capsys,
        "detect",
        "--input", str(walkthrough_path),
        "--method", "ins",
        "--start", "ZZ",
        "--output", str(tmp_path / "o.tsv"),
    )
    assert code == 2
    assert "start node" in stderr


def test_detect_malformed_input_exits_2(capsys, tmp_path):
    # A label starting with "#" is malformed: the cover file would write it
    # at the start of a line, where it reads as a comment.
    for text, message in (
        ("a b c\n", "line 1: expected 2 tokens"),
        ("a #b\nb c\n", "line 1: a label may not start with '#'"),
    ):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, stdout, stderr = run_cli(
            capsys,
            "detect",
            "--input", str(bad),
            "--method", "ins",
            "--output", str(tmp_path / "o.tsv"),
        )
        assert code == 2
        assert message in stderr
        assert stdout == ""


def test_detect_unwritable_output_exits_2(capsys, tmp_path, walkthrough_path):
    out = tmp_path / "missing-dir" / "cover.tsv"
    code, _, stderr = run_cli(
        capsys,
        "detect",
        "--input", str(walkthrough_path),
        "--method", "ins",
        "--output", str(out),
    )
    assert code == 2
    assert "cannot write output" in stderr


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
    ]:
        bad.write_bytes(data)
        code, stdout, stderr = run_cli(capsys, command[0], "--input", str(bad), *command[1:])
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: cannot parse {bad}: {message}\n"


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
    code, stdout, _ = run_cli(
        capsys, "eval", "--input", str(walkthrough_path), "--cover", str(out)
    )
    assert code == 0
    lines = dict(line.split("\t", 1) for line in stdout.strip().splitlines())
    assert float(lines["Q"]) == pytest.approx(0.505, abs=0.005)
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


def test_bench_csv_shape(capsys, walkthrough_path):
    code, stdout, stderr = run_cli(
        capsys,
        "bench",
        "--input", str(walkthrough_path),
        "--fractions", "0.5,1.0",
        "--repeats", "3",
        "--phase", "traversal",
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "dataset,fraction,method,phase,run,time_ms,Q,k"
    assert len(lines) == 1 + 2 * 3
    assert lines[1].startswith("walkthrough13,0.5,ins,traversal,0,")
    assert "fit slope_ms_per_edge=" in stderr and "r2=" in stderr


def test_bench_full_phase_reports_quality(capsys, walkthrough_path):
    code, stdout, _ = run_cli(
        capsys,
        "bench",
        "--input", str(walkthrough_path),
        "--fractions", "0.5,1.0",
        "--repeats", "1",
        "--phase", "full",
    )
    assert code == 0
    row = stdout.strip().splitlines()[-1].split(",")
    assert float(row[6]) >= 0.0  # Q populated in full phase
    assert int(row[7]) >= 1


def test_bench_rejects_single_fraction(capsys, walkthrough_path):
    code, _, stderr = run_cli(
        capsys, "bench", "--input", str(walkthrough_path), "--fractions", "1.0"
    )
    assert code == 2
    assert "two distinct fractions" in stderr


def test_bench_rejects_fractions_with_one_edge_count(capsys, walkthrough_path):
    # 0.5 and 0.51 of the 20 edges both sample 10 edges.
    code, stdout, stderr = run_cli(
        capsys, "bench", "--input", str(walkthrough_path), "--fractions", "0.5,0.51"
    )
    assert code == 2
    assert "fewer than two distinct edge counts" in stderr
    assert stdout == ""


def test_bench_rejects_bad_fraction(capsys, walkthrough_path):
    code, _, _ = run_cli(
        capsys, "bench", "--input", str(walkthrough_path), "--fractions", "0.5,1.5"
    )
    assert code == 2


def test_bench_rejects_out_of_range_threshold(capsys, walkthrough_path):
    code, stdout, stderr = run_cli(
        capsys, "bench", "--input", str(walkthrough_path), "--threshold", "-1"
    )
    assert code == 2
    assert "error: threshold must be in [0, 1]" in stderr
    assert stdout == ""


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


def test_sweep_threshold_rejects_empty_range(capsys, walkthrough_path):
    code, _, _ = run_cli(
        capsys,
        "sweep-threshold",
        "--input", str(walkthrough_path),
        "--from", "0.8",
        "--to", "0.4",
        "--step", "0.1",
    )
    assert code == 2


@pytest.mark.parametrize("option", ["--from", "--to", "--step"])
def test_sweep_threshold_rejects_nan(capsys, walkthrough_path, option):
    code, stdout, stderr = run_cli(
        capsys, "sweep-threshold", "--input", str(walkthrough_path), option, "nan"
    )
    assert code == 2
    assert "error: need step > 0 and a non-empty threshold range" in stderr
    assert stdout == ""


def test_sweep_threshold_rejects_range_beyond_one(capsys, walkthrough_path):
    # 0.9 and 0.95 are valid; the sweep must fail before printing them.
    code, stdout, stderr = run_cli(
        capsys,
        "sweep-threshold",
        "--input", str(walkthrough_path),
        "--from", "0.9",
        "--to", "1.2",
    )
    assert code == 2
    assert "error: threshold must be in [0, 1]" in stderr
    assert stdout == ""


@pytest.mark.parametrize("step", ["1e-20", "3e-17"])
def test_sweep_threshold_rejects_step_that_cannot_advance(capsys, walkthrough_path, step):
    # 0.4 + 1e-20 == 0.4.  3e-17 moves 0.4 but not 0.85 (0.85 + 3e-17 ==
    # 0.85), so the sweep would stall inside the range.
    code, stdout, stderr = run_cli(
        capsys, "sweep-threshold", "--input", str(walkthrough_path), "--step", step
    )
    assert code == 2
    assert "cannot advance the threshold" in stderr
    assert stdout == ""


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


def test_sweep_start_rejects_bad_sample(capsys, walkthrough_path):
    code, _, _ = run_cli(
        capsys, "sweep-start", "--input", str(walkthrough_path), "--sample", "zero"
    )
    assert code == 2


def test_sweep_start_rejects_out_of_range_threshold(capsys, walkthrough_path):
    code, stdout, stderr = run_cli(
        capsys, "sweep-start", "--input", str(walkthrough_path), "--threshold", "1.5"
    )
    assert code == 2
    assert "error: threshold must be in [0, 1]" in stderr
    assert stdout == ""


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
