import json
import os
import random
import select
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import reader_cases
from sigpat import mine
from sigpat.cli import COLUMNS, build_parser, main
from sigpat.dataset import _BLOCK, bit_positions
from sigpat.miner import InternalInvariantError, MineStats

GENO_MATRIX = "snp,bob,eve,kim,sam,ana,joe\nrs1,2,0,2,1,2,0\nrs2,1,0,1,2,1,0\nrs3,0,0,1,0,2,1\n"
GENO_LABELS = "bob,1\neve,0\nkim,1\nsam,0\nana,1\njoe,0\n"


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


#: ``main(argv)`` in a fresh interpreter, where no test harness handles log
#: records, so stderr is what a user of the command sees; -I: no user site or
#: environment; -B: no bytecode written into src
CHILD = [sys.executable, "-I", "-B", "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r}); "
         "from sigpat.cli import main; sys.exit(main(sys.argv[1:]))"]


def run_process(*argv, stdout=subprocess.PIPE):
    """``CHILD`` run with ``argv``; its stdout goes to ``stdout``, and is
    returned only when that is a pipe."""
    done = subprocess.run([*CHILD, *argv], stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_mine_worked_rows(table1_path, capsys):
    rc, out, _ = run(capsys, "mine", "--input", str(table1_path))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == (
        "items,n_case_tids,n_control_tids,sup_case,sup_control,sd,gr,ors,"
        "lci_gr,uci_gr,lci_ors,uci_ors,ci_corrected,case_tids,control_tids"
    )
    assert len(lines) == 51
    assert (
        "a;b;c,3,1,0.6,0.25,0.35,2.4,4.5,0.380354,15.1438,0.251336,80.5694,false,1;2;3,7"
        in lines
    )
    assert (
        "b;c;i,2,1,0.4,0.25,0.15,1.6,2,0.214725,11.9222,0.111705,35.8086,false,1;2,8"
        in lines
    )


def test_mine_header_only_when_nothing_passes(table1_path, capsys):
    rc, out, _ = run(capsys, "mine", "--input", str(table1_path), "--min-sd", "1.0")
    assert rc == 0
    assert out.splitlines() == [out.splitlines()[0]]
    assert out.splitlines()[0].startswith("items,")


def test_mine_matches_oracle_bytes(table1_path, capsys):
    args = ("--input", str(table1_path), "--min-ors", "1.5")
    rc1, mined, _ = run(capsys, "mine", *args)
    rc2, reference, _ = run(capsys, "oracle", *args)
    assert rc1 == rc2 == 0
    assert mined == reference


def test_mine_matches_oracle_bytes_json(table1_path, capsys):
    args = ("--input", str(table1_path), "--output-format", "json")
    rc1, mined, _ = run(capsys, "mine", *args)
    rc2, reference, _ = run(capsys, "oracle", *args)
    assert rc1 == rc2 == 0
    assert mined == reference


def test_mine_json_round_trip(table1_path, table1, capsys):
    rc, out, _ = run(
        capsys, "mine", "--input", str(table1_path), "--output-format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    records, _ = mine(table1)
    assert len(payload) == len(records)
    for row, rec in zip(payload, records):
        assert row["items"] == [table1.items[i] for i in rec.itemset]
        assert row["n_case_tids"] == rec.pos_mask.bit_count()
        assert row["n_control_tids"] == rec.neg_mask.bit_count()
        assert row["sd"] == rec.scores.sd
        assert row["lci_ors"] == rec.scores.lci_ors
        assert row["ci_corrected"] is rec.scores.corrected_ci
        assert row["case_tids"] == [str(t + 1) for t in bit_positions(rec.pos_mask)]


def test_infinite_odds_ratio_rendering(tmp_path, capsys):
    data = tmp_path / "inf.tct"
    data.write_text("1 x\n1 x\n0 x\n0 y\n", encoding="utf-8")
    rc, out, _ = run(capsys, "mine", "--input", str(data))
    assert rc == 0
    assert out.splitlines()[1] == (
        "x,2,1,1,0.5,0.5,2,inf,0.482494,5.75713,0.113308,220.637,true,1;2,3"
    )
    rc, out, _ = run(capsys, "mine", "--input", str(data), "--output-format", "json")
    assert rc == 0
    row = json.loads(out)[0]
    assert row["ors"] == "inf"
    assert row["gr"] == 2.0
    assert row["ci_corrected"] is True


def test_mine_output_file(table1_path, tmp_path, capsys):
    out_path = tmp_path / "patterns.csv"
    rc, out, _ = run(
        capsys, "mine", "--input", str(table1_path), "--output", str(out_path)
    )
    assert rc == 0
    assert out == ""
    _, stdout, _ = run(capsys, "mine", "--input", str(table1_path))
    assert out_path.read_text(encoding="utf-8") == stdout


def test_mine_stats_file(table1_path, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    rc, _, _ = run(
        capsys,
        "mine",
        "--input",
        str(table1_path),
        "--min-ors",
        "2",
        "--output",
        str(tmp_path / "out.csv"),
        "--stats",
        str(stats_path),
    )
    assert rc == 0
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert list(stats) == ["schema", *MineStats._fields, "load_seconds", "write_seconds"]
    assert stats["schema"] == 1
    assert stats["nodes_visited"] == 124
    assert stats["nodes_pruned"] == 35
    assert stats["nodes_duplicate"] == 16
    assert stats["nodes_dead"] == 5
    assert stats["row_scans"] == 55
    assert stats["patterns_emitted"] == 15
    assert stats["min_case_support"] == 2
    assert stats["wall_time_seconds"] >= 0.0
    assert stats["load_seconds"] >= 0.0
    assert stats["write_seconds"] >= 0.0
    rc, _, _ = run(
        capsys,
        "mine",
        "--input",
        str(table1_path),
        "--output",
        str(tmp_path / "out.csv"),
        "--stats",
        str(stats_path),
    )
    assert rc == 0
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    # without thresholds nothing is pruned and one case tid is enough
    assert stats["min_case_support"] == 1
    assert stats["nodes_pruned"] == 0
    assert stats["nodes_visited"] == 160
    assert stats["nodes_dead"] == 9
    assert stats["row_scans"] == 107


def test_mine_stats_path_is_opened_before_the_search(table1_path, tmp_path, capsys):
    # a --stats path that cannot be opened ends the run before any pattern is written
    missing = tmp_path / "missing" / "stats.json"
    rc, out, err = run(capsys, "mine", "--input", str(table1_path), "--stats", str(missing))
    assert rc == 2
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    # and an input that is refused leaves no stats file
    bad = tmp_path / "bad.tct"
    bad.write_text("1 a\n7 b\n", encoding="utf-8")
    stats_path = tmp_path / "stats.json"
    rc, out, _ = run(capsys, "mine", "--input", str(bad), "--stats", str(stats_path))
    assert rc == 2
    assert out == ""
    assert not stats_path.exists()


def test_output_path_is_opened_before_the_search(table1_path, tmp_path, capsys, monkeypatch):
    # an --output path that cannot be opened ends the run before the search,
    # and before --stats is opened
    missing = str(tmp_path / "missing" / "o.csv")
    stats_path = tmp_path / "s.json"

    def refuse(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr("sigpat.cli.mine", refuse)
    monkeypatch.setattr("sigpat.oracle.mine_oracle", refuse)
    error = f"error: [Errno 2] No such file or directory: {missing!r}\n"
    for argv in (("mine", "--stats", str(stats_path)), ("oracle",)):
        for fmt in ("csv", "json"):
            rc, out, err = run(capsys, *argv, "--input", str(table1_path),
                               "--output", missing, "--output-format", fmt)
            assert (rc, out, err) == (2, "", error), argv
    assert not stats_path.exists()


def test_two_outputs_naming_one_file_are_a_usage_error(table1_path, tmp_path, capsys):
    # refused before the input is read or any output opened: a missing input
    # still exits 1, and an existing file keeps its bytes
    out = tmp_path / "out"
    out.mkdir()
    kept = out / "kept.csv"
    kept.write_text("old\n", encoding="utf-8")
    (out / "link.csv").symlink_to(kept)
    os.link(kept, out / "hard.csv")
    mine = ("mine", "--input", str(tmp_path / "missing.tct"))
    filt = ("filter-genotypes", "--input", "x", "--labels", "y")
    cases = [
        (mine, "--stats", str(kept), str(kept)),
        (mine, "--stats", str(kept), f"{out}/../out/kept.csv"),
        (mine, "--stats", str(kept), str(out / "link.csv")),
        (mine, "--stats", str(kept), str(out / "hard.csv")),
        (mine, "--stats", str(out / "new.csv"), f"{out}/./new.csv"),
        (mine, "--stats", "-", "-"),
        (filt, "--report", str(kept), str(kept)),
        (filt, "--report", "-", "-"),
    ]
    for argv, flag, output, other in cases:
        message = f"error: --output and {flag} name the same file: {other}\n"
        rc = run(capsys, *argv, "--output", output, flag, other)
        assert rc == (1, "", message), argv
    assert kept.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in out.iterdir()) == ["hard.csv", "kept.csv", "link.csv"]
    # os.devnull may take both outputs, since nothing written there is kept
    rc = run(capsys, "mine", "--input", str(table1_path), "--output", os.devnull,
             "--stats", os.devnull)
    assert rc == (0, "", "")


def test_an_output_naming_an_input_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # writing over a file being read destroys it: an output that names the
    # --input or --labels file, under any name, is refused before anything is
    # read, and every input keeps its bytes
    data, matrix, labels = tmp_path / "in.tct", tmp_path / "m.csv", tmp_path / "l.csv"
    data.write_bytes(reader_cases.TABLE)
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    (tmp_path / "soft.tct").symlink_to(data)
    os.link(data, tmp_path / "hard.tct")
    before = {path: path.read_bytes() for path in (data, matrix, labels)}

    def refuse(*args):
        raise AssertionError("an input was read")

    monkeypatch.setattr("sigpat.cli.load_transactions", refuse)
    monkeypatch.setattr("sigpat.cli.load_genotype_matrix", refuse)
    mine, geno = ("mine", "--input", str(data)), ("--input", str(matrix), "--labels", str(labels))
    cases = [
        (mine, "--input", "--output", str(data)),
        (mine, "--input", "--output", f"{tmp_path}/../{tmp_path.name}/in.tct"),
        (mine, "--input", "--output", str(tmp_path / "hard.tct")),
        (mine, "--input", "--output", str(tmp_path / "soft.tct")),
        ((*mine, "--output", os.devnull), "--input", "--stats", str(data)),
        (("oracle", "--input", str(data)), "--input", "--output", str(data)),
        (("mine", *geno), "--labels", "--output", str(labels)),
        (("filter-genotypes", *geno), "--input", "--output", str(matrix)),
        (("filter-genotypes", *geno, "--output", os.devnull), "--labels", "--report", str(labels)),
    ]
    for argv, source, flag, path in cases:
        message = f"error: {source} and {flag} name the same file: {path}\n"
        assert run(capsys, *argv, flag, path) == (1, "", message), argv
    assert {path: path.read_bytes() for path in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "hard.tct", "in.tct", "l.csv", "m.csv", "soft.tct"]


def test_a_terminal_may_be_input_and_output(table1_path, capsys):
    # stdin and stdout on one terminal are one file, but not a regular one:
    # what is read from it is not what is written to it
    rc, rows, _ = run(capsys, "mine", "--input", str(table1_path))
    assert rc == 0
    master, terminal = os.openpty()
    child = subprocess.Popen([*CHILD, "mine", "--input", "/dev/stdin", "--output", "-"],
                             stdin=terminal, stdout=terminal, stderr=subprocess.PIPE)
    os.close(terminal)
    try:
        # a ^D at the start of a line ends one read of the terminal with nothing, and
        # the reader takes each piece with one read1, so one ^D ends the input
        os.write(master, table1_path.read_bytes() + b"\x04")
        shown = b""
        while select.select([master], [], [], 30)[0]:
            try:
                data = os.read(master, 4096)
            except OSError:  # EIO: the child closed the terminal
                break
            if not data:
                break
            shown += data
        assert child.wait(timeout=30) == 0
        assert child.stderr.read() == b""
    finally:
        child.kill()
        child.wait()
        child.stderr.close()
        os.close(master)
    # the terminal echoes the input, then shows the rows
    assert shown.replace(b"\r\n", b"\n") == table1_path.read_bytes() + rows.encode()


def test_stdout_under_another_name_is_a_usage_error(table1_path, tmp_path):
    # stdout sent to a file: "-" and /dev/stdout name that file, so the stats
    # would be written over the patterns; /dev/null may take both
    sent = tmp_path / "sent.txt"
    argv = ("mine", "--input", str(table1_path), "--output", "-", "--stats")
    for stats, rc, err in [
        ("/dev/stdout", 1, "error: --output and --stats name the same file: /dev/stdout\n"),
        (str(sent), 1, f"error: --output and --stats name the same file: {sent}\n"),
        (str(tmp_path / "stats.json"), 0, ""),
    ]:
        with open(sent, "wb") as fh:
            assert run_process(*argv, stats, stdout=fh) == (rc, None, err), stats
        assert (sent.stat().st_size > 0) == (rc == 0), stats
    with open(os.devnull, "wb") as fh:
        assert run_process(*argv, os.devnull, stdout=fh) == (0, None, "")


def test_mine_negative_threshold_rejected(table1_path, capsys):
    rc, _, err = run(capsys, "mine", "--input", str(table1_path), "--min-gr", "-1")
    assert rc == 1
    assert "min_gr" in err
    # a negative --min-sd is valid, in exponent form too, with or without "=", for
    # both commands that take the shared flags
    for command in ("mine", "oracle"):
        expected = run(capsys, command, "--input", str(table1_path), "--min-sd", "-0.001")
        assert expected[0] == 0
        for argv in (("--min-sd=-1e-3",), ("--min-sd", "-1e-3"), ("--min-sd", "-1.E-3")):
            assert run(capsys, command, "--input", str(table1_path), *argv) == expected, argv


def test_oracle_takes_every_flag_of_mine_but_stats():
    commands = next(a for a in build_parser()._actions if isinstance(a.choices, dict))

    def flags(command):
        return [(a.option_strings, a.dest, a.default, a.type, a.choices, a.required, a.help)
                for a in commands.choices[command]._actions]

    mine_flags = flags("mine")
    assert [f[0] for f in mine_flags].count(["--stats"]) == 1
    assert flags("oracle") == [f for f in mine_flags if f[0] != ["--stats"]]


def test_exit_code_usage(table1_path, capsys):
    data = str(table1_path)
    gen = ("gen", "--cases", "2", "--controls", "2", "--items", "5")
    cases = [
        (("mine",), "the following arguments are required: --input"),
        (("bogus",), "argument command: invalid choice: 'bogus' "
                     "(choose from 'mine', 'oracle', 'gen', 'filter-genotypes')"),
        (("mine", "--input", data, "--min-sd", "nan"), "min_sd must be finite, got nan"),
        (("mine", "--input", data, "--min-gr", "-1"), "min_gr must be non-negative, got -1.0"),
        ((*gen, "--density", "2", "--seed", "1"), "density must be within [0, 1], got 2.0"),
        ((*gen, "--density", "0.5", "--seed", "-1"), "seed must be non-negative, got -1"),
        (("filter-genotypes", "--input", "x", "--labels", "y", "--max-pvalue", "2"),
         "--max-pvalue must lie in [0, 1], got 2.0"),
    ]
    # --labels alone decides how --input is read; no flag names the layout
    cases += [((command, "--input", data, "--format", layout),
               f"unrecognized arguments: --format {layout}")
              for command in ("mine", "oracle") for layout in ("tct", "genotype")]
    for argv, message in cases:
        assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv


def test_exit_code_missing_file(capsys):
    rc, _, err = run(capsys, "mine", "--input", "/nonexistent/data.tct")
    assert rc == 2
    assert "error" in err


def test_exit_code_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.tct"
    bad.write_text("1 a\n7 b\n", encoding="utf-8")
    rc, _, err = run(capsys, "mine", "--input", str(bad))
    assert rc == 2
    assert "label" in err


def test_exit_code_invalid_utf8_input(tmp_path, capsys):
    bad = tmp_path / "bad.tct"
    bad.write_bytes(b"1 a \xff b\n0 a\n")
    rc, _, err = run(capsys, "mine", "--input", str(bad))
    assert rc == 2
    assert "UTF-8" in err


def test_exit_code_nul_in_transactions(tmp_path, capsys):
    # str.split() does not split at NUL, so these lines once read as the item "a\0b"
    bad = tmp_path / "nul.tct"
    bad.write_bytes(b"1 a\x00b\n1 a\x00b\n1 c\n0 a\x00b\n0 c\n0 d\n")
    assert run(capsys, "mine", "--input", str(bad)) == (2, "", "error: line 1: line contains NUL\n")


def test_exit_code_single_class(tmp_path, capsys):
    cases_only = tmp_path / "cases.tct"
    cases_only.write_text("1 a\n1 b\n", encoding="utf-8")
    rc, _, err = run(capsys, "mine", "--input", str(cases_only))
    assert rc == 2
    assert "classes" in err


def test_exit_code_oracle_too_large(tmp_path, capsys):
    big = tmp_path / "big.tct"
    rc, _, _ = run(capsys, "gen", "--cases", "15", "--controls", "15", "--items", "8",
                   "--density", "0.5", "--seed", "3", "--output", str(big))
    assert rc == 0
    rc, _, err = run(capsys, "oracle", "--input", str(big))
    assert rc == 1
    assert "at most" in err
    # the instance is refused before --output is opened
    out = tmp_path / "o.csv"
    assert run(capsys, "oracle", "--input", str(big), "--output", str(out)) == (1, "", err)
    assert not out.exists()


def test_a_closed_stdout_ends_the_run_quietly(tmp_path, capsys):
    # as in `sigpat mine | head -1`: the reader closes after one line of an
    # output larger than a pipe holds, so a later write fails
    data, out = tmp_path / "d.tct", tmp_path / "out"
    assert run(capsys, "gen", "--cases", "20", "--controls", "20", "--items", "30",
               "--density", "0.4", "--seed", "1", "--output", str(data))[0] == 0
    for fmt in ("csv", "json"):
        argv = ["mine", "--input", str(data), "--output-format", fmt]
        assert run(capsys, *argv, "--output", str(out)) == (0, "", "")
        assert out.stat().st_size > 1 << 17  # twice the 64 KiB of a Linux pipe
        child = subprocess.Popen([*CHILD, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert child.stdout.readline()
        child.stdout.close()
        # no "error:" line, and no "Exception ignored" from the flush at exit
        assert (child.stderr.read(), child.wait(timeout=60)) == (b"", 141), fmt
        child.stderr.close()
    # a reader gone before the run starts: a small output fails only when flushed
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([*CHILD, "gen", "--cases", "2", "--controls", "2", "--items", "3",
                               "--density", "0.5", "--seed", "1"],
                              stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (done.stderr, done.returncode) == (b"", 141)


def test_a_failed_write_exits_2(table1_path, capsys):
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full, where every write fails with ENOSPC")
    rc, out, err = run(capsys, "mine", "--input", str(table1_path), "--output", "/dev/full")
    assert (rc, out, err) == (2, "", "error: [Errno 28] No space left on device\n")


ASCII_ERROR = (b"error: 'ascii' codec can't encode character '\\xe9' in position 0: "
               b"ordinal not in range(128)\n")


@pytest.mark.parametrize("name, expected", [
    # Python's stdout is None when fd 1 is closed at start
    ("mine stdout closed", (2, b"error: cannot write to stdout: it is closed\n", b"")),
    ("gen stdout closed", (2, b"error: cannot write to stdout: it is closed\n", b"")),
    # the message is dropped, not printed to stdout or left to raise
    ("mine stderr closed, no input", (2, b"", b"")),
    ("mine stderr read-only, no input", (2, b"", b"")),
    # a UnicodeEncodeError is a ValueError, but this one is a failed write
    ("mine ascii stdout, non-ascii item", (2, ASCII_ERROR, ",".join(COLUMNS).encode() + b"\n")),
])
def test_a_write_to_a_closed_or_narrow_stream_exits_2(name, expected):
    argv, files = reader_cases.output_cases()[name]
    rc, err, out, written = reader_cases.execute(argv, files, reader_cases.CHILDREN[name])
    assert (rc, err, out) == expected
    assert written == {}


@pytest.mark.parametrize("command", ["mine", "oracle"])
@pytest.mark.parametrize("flag, message", [
    (("--min-gr", "-1"), "error: min_gr must be non-negative, got -1.0\n"),
    (("--min-sd", "inf"), "error: min_sd must be finite, got inf\n"),
], ids=["min-gr -1", "min-sd inf"])
def test_a_refused_threshold_leaves_every_file_as_it_was(
    command, flag, message, table1_path, tmp_path, capsys
):
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"keep")
    for output in (kept, tmp_path / "new.csv"):
        stats = ["--stats", str(tmp_path / "new.json")] if command == "mine" else []
        rc, out, err = run(capsys, command, "--input", str(table1_path),
                           "--output", str(output), *stats, *flag)
        assert (rc, out, err) == (1, "", message)
        assert kept.read_bytes() == b"keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "table1.tct"]


def test_an_interrupt_exits_130_without_a_traceback(table1_path):
    # the child's search sends itself SIGINT, as ^C at a terminal does
    code = (f"import signal, sys; sys.path.insert(0, {str(SRC)!r}); import sigpat.cli as cli; "
            "cli.mine = lambda *args: signal.raise_signal(signal.SIGINT); "
            "sys.exit(cli.main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code, "mine", "--input",
                           str(table1_path)], capture_output=True, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (130, b"", b"")


def test_an_empty_genotype_matrix_exits_2(tmp_path, capsys):
    matrix, labels = tmp_path / "m.csv", tmp_path / "l.csv"
    matrix.write_text("# only comments\n\n")
    labels.write_text("bob,1\neve,0\n")
    rc, out, err = run(capsys, "mine", "--input", str(matrix), "--labels", str(labels))
    assert (rc, out, err) == (2, "", "error: genotype matrix: empty input\n")


def test_exit_code_internal_invariant(table1_path, capsys, monkeypatch):
    def boom(dataset, thresholds):
        raise InternalInvariantError("duplicate pattern")

    monkeypatch.setattr("sigpat.cli.mine", boom)
    rc, _, err = run(capsys, "mine", "--input", str(table1_path))
    assert rc == 3
    assert "internal error" in err


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.tct"
    b = tmp_path / "b.tct"
    for path in (a, b):
        rc, _, _ = run(capsys, "gen", "--cases", "6", "--controls", "4", "--items", "9",
                       "--density", "0.4", "--seed", "11", "--output", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    # the file holds the bytes that stdout gets
    rc, out, _ = run(capsys, "gen", "--cases", "6", "--controls", "4", "--items", "9",
                     "--density", "0.4", "--seed", "11")
    assert (rc, out.encode()) == (0, a.read_bytes())
    c = tmp_path / "c.tct"
    run(capsys, "gen", "--cases", "6", "--controls", "4", "--items", "9",
        "--density", "0.4", "--seed", "12", "--output", str(c))
    assert c.read_bytes() != a.read_bytes()
    lines = a.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 10
    assert [line.split()[0] for line in lines] == ["1"] * 6 + ["0"] * 4
    # random.Random(seed).random() draws, item by item, each over all transactions
    assert a.read_bytes() == (
        b"1 i1 i2 i4 i5 i6\n"
        b"1 i1 i2 i4 i5 i6\n"
        b"1 i1 i4 i7 i8\n"
        b"1 i2 i4\n"
        b"1 i2 i6 i7 i8\n"
        b"1 i1 i2 i3 i5 i6 i8\n"
        b"0 i0 i2 i5 i6 i7\n"
        b"0 i4 i6\n"
        b"0 i7 i8\n"
        b"0 i5 i6 i7\n"
    )


def test_gen_with_no_transactions_writes_nothing(tmp_path, capsys):
    # every transaction line ends in LF, so no transactions give no bytes
    argv = ("gen", "--cases", "0", "--controls", "0", "--items", "3", "--density", "0.5",
            "--seed", "1")
    assert run(capsys, *argv) == (0, "", "")
    path = tmp_path / "g.tct"
    assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
    assert path.read_bytes() == b""


def test_gen_rejects_bad_density(capsys):
    rc, _, err = run(capsys, "gen", "--cases", "2", "--controls", "2", "--items", "5",
                     "--density", "1.5", "--seed", "1")
    assert rc == 1
    assert "density" in err


def test_gen_then_mine_pipeline(tmp_path, capsys):
    data = tmp_path / "d.tct"
    run(capsys, "gen", "--cases", "7", "--controls", "6", "--items", "10",
        "--density", "0.45", "--seed", "23", "--output", str(data))
    args = ("--input", str(data), "--min-sd", "0.2")
    rc, mined, _ = run(capsys, "mine", *args)
    assert rc == 0
    rc, reference, _ = run(capsys, "oracle", *args)
    assert rc == 0
    assert mined == reference


def test_filter_genotypes_oversized_matrix_field(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX + "rs4," + "0" * 200_000 + "\n", encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    rc, _, err = run(capsys, "filter-genotypes", "--input", str(matrix),
                     "--labels", str(labels))
    assert rc == 2
    assert "field larger than field limit" in err and str(matrix) in err
    assert "Traceback" not in err


def test_mine_genotype_oversized_labels_field(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS + "x" * 200_000 + ",1\n", encoding="utf-8")
    rc, _, err = run(capsys, "mine", "--input", str(matrix), "--labels", str(labels))
    assert rc == 2
    assert "field larger than field limit" in err and str(labels) in err
    assert "Traceback" not in err


def test_filter_genotypes_error_names_file_line(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text("snp,bob,eve\n# comment\n\nrs1,0,1\nrs2,0,7\n", encoding="utf-8")
    labels.write_text("bob,1\neve,0\n", encoding="utf-8")
    rc, _, err = run(capsys, "filter-genotypes", "--input", str(matrix),
                     "--labels", str(labels))
    assert rc == 2
    assert err == "error: genotype matrix row 5: genotype must be 0, 1 or 2, got '7'\n"
    # a header fault names no line
    matrix.write_text("snp,bob,eve,bob\nrs1,0,1,2\n", encoding="utf-8")
    rc, _, err = run(capsys, "filter-genotypes", "--input", str(matrix),
                     "--labels", str(labels))
    assert (rc, err) == (2, "error: genotype matrix: duplicate individual id in header\n")


def test_labels_typo_on_the_first_line_exits_2(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text("snp,bob,eve\nrs1,0,1\n", encoding="utf-8")
    labels.write_text("bob,7\neve,0\n", encoding="utf-8")
    for command in (("mine",), ("filter-genotypes",)):
        rc, _, err = run(capsys, *command, "--input", str(matrix), "--labels", str(labels))
        assert rc == 2
        assert err == "error: labels line 1: label for 'bob' must be 0 or 1, got '7'\n"


def test_filter_genotypes(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    out = tmp_path / "filtered.tct"
    report = tmp_path / "report.csv"
    rc, _, _ = run(capsys, "filter-genotypes", "--input", str(matrix),
                   "--labels", str(labels), "--max-pvalue", "0.2",
                   "--max-control-support", "0.5",
                   "--output", str(out), "--report", str(report))
    assert rc == 0
    report_lines = report.read_text(encoding="utf-8").splitlines()
    assert report_lines[0] == "item,p_value,control_support,kept"
    # 3 SNPs expand to 9 items, one report row each plus two totals
    assert len(report_lines) == 12
    kept = {row.split(",")[0] for row in report_lines[1:10] if row.endswith("true")}
    total_kept = int(report_lines[10].split()[-1])
    total_dropped = int(report_lines[11].split()[-1])
    assert report_lines[10].startswith("# total_kept")
    assert report_lines[11].startswith("# total_dropped")
    assert total_kept == len(kept)
    assert total_kept + total_dropped == 9
    # rs1_2 and rs2_1 are case-only (3 of 3 cases, 0 controls): p ~ 0.014
    assert {"rs1_2", "rs2_1"} <= kept
    text = out.read_text(encoding="utf-8").splitlines()
    assert len(text) == 6
    for line in text[:3]:
        assert line.startswith("1")
    for line in text[3:]:
        assert line.startswith("0")
    mentioned = {tok for line in text for tok in line.split()[1:]}
    assert mentioned <= kept
    # the file holds the bytes that stdout gets
    rc, stdout, _ = run(capsys, "filter-genotypes", "--input", str(matrix),
                        "--labels", str(labels), "--max-pvalue", "0.2",
                        "--max-control-support", "0.5")
    assert (rc, stdout.encode()) == (0, out.read_bytes())


def test_filter_genotypes_rejects_whitespace_in_item_names(tmp_path, capsys):
    # A kept item "rs 1_0" would read back from the .tct file as "rs" and "1_0".
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text('snp,bob,eve,kim,sam\n"rs 1",0,1,0,1\nrs2,2,2,1,0\n', encoding="utf-8")
    labels.write_text("bob,1\neve,1\nkim,0\nsam,0\n", encoding="utf-8")
    out = tmp_path / "filtered.tct"
    report = tmp_path / "report.csv"
    args = ("filter-genotypes", "--input", str(matrix), "--labels", str(labels))
    rc, _, err = run(capsys, *args, "--output", str(out), "--report", str(report))
    assert (rc, err) == (2, "error: item name 'rs 1_0' is empty or holds whitespace\n")
    assert not out.exists() and not report.exists()
    rc, stdout, _ = run(capsys, *args)
    assert (rc, stdout) == (2, "")
    # with the SNP's items dropped (p-value 1) there is nothing to refuse
    rc, stdout, _ = run(capsys, *args, "--max-pvalue", "0.1")
    assert (rc, stdout) == (0, "1 rs2_2\n1 rs2_2\n0\n0\n")


def test_filter_genotypes_keep_all(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    rc, out, _ = run(capsys, "filter-genotypes", "--input", str(matrix),
                     "--labels", str(labels), "--max-pvalue", "1",
                     "--max-control-support", "1")
    assert rc == 0
    lines = out.splitlines()
    # every individual keeps one item per SNP
    assert all(len(line.split()) == 4 for line in lines)


def test_filter_genotypes_validates_fractions(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    rc, _, err = run(capsys, "filter-genotypes", "--input", str(matrix),
                     "--labels", str(labels), "--max-pvalue", "1.5")
    assert rc == 1
    assert "max-pvalue" in err


def test_mine_genotype_format_uses_individual_ids(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    rc, out, _ = run(capsys, "mine", "--input", str(matrix), "--labels", str(labels))
    assert rc == 0
    rows = out.splitlines()[1:]
    assert rows
    referenced = {name for row in rows for name in row.split(",")[13].split(";")}
    assert referenced <= {"bob", "kim", "ana"}
    referenced_controls = {name for row in rows for name in row.split(",")[14].split(";")}
    assert referenced_controls <= {"eve", "sam", "joe"}


@pytest.mark.parametrize("command", ["mine", "oracle"])
def test_labels_make_the_input_a_genotype_matrix(command, table1_path, tmp_path, capsys):
    # --labels alone picks the reader: a transaction file given labels is read
    # as a matrix and refused as one, and an empty --labels names a file too
    labels = tmp_path / "l.csv"
    labels.write_text(GENO_LABELS, encoding="utf-8")
    rc, out, err = run(capsys, command, "--input", str(table1_path), "--labels", str(labels))
    assert (rc, out, err) == (2, "", "error: genotype matrix: no individual columns\n")
    rc, out, _ = run(capsys, command, "--input", str(table1_path), "--labels", "")
    assert (rc, out) == (2, "")


def test_oracle_reads_a_genotype_matrix_as_mine_does(tmp_path, capsys):
    # 5 SNPs of 10 individuals give 15 items, within the oracle's cap
    matrix, labels = tmp_path / "m.csv", tmp_path / "l.csv"
    matrix.write_text(
        "snp,ann,ben,cat,dan,eli,fay,gus,hal,ivy,jon\n"
        "rs1,1,1,0,1,2,1,1,1,1,1\n"
        "rs2,2,0,2,0,1,0,0,2,1,2\n"
        "rs3,2,2,0,1,0,2,0,2,1,1\n"
        "rs4,2,0,1,1,1,2,2,0,2,1\n"
        "rs5,1,2,1,0,2,0,0,2,1,2\n", encoding="utf-8")
    labels.write_text("ann,0\nben,1\ncat,0\ndan,1\neli,0\nfay,1\ngus,0\nhal,1\nivy,0\njon,1\n",
                      encoding="utf-8")
    args = ("--input", str(matrix), "--labels", str(labels), "--min-ors", "1.5")
    for layout in ("csv", "json"):
        mined, reference = (run(capsys, command, *args, "--output-format", layout)
                            for command in ("mine", "oracle"))
        assert mined == reference, layout
        assert mined[0] == 0
    rows = json.loads(mined[1])
    assert len(rows) == 7
    assert {tid for row in rows for tid in row["case_tids"]} <= {"ben", "dan", "fay", "hal", "jon"}


def test_mine_empty_transaction_is_silent(tmp_path):
    # line 2 is a case with no items: it loads without a warning and counts
    # in n_case, so sup_case is 1/3
    data = tmp_path / "empty.tct"
    data.write_text("1 a b\n1\n0 a\n1 b c\n0 c\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    rc, stdout, err = run_process("mine", "--input", str(data), "--output", str(out))
    assert (rc, stdout, err) == (0, "", "")
    assert out.read_text(encoding="utf-8") == (
        "items,n_case_tids,n_control_tids,sup_case,sup_control,sd,gr,ors,"
        "lci_gr,uci_gr,lci_ors,uci_ors,ci_corrected,case_tids,control_tids\n"
        "a,1,1,0.333333,0.5,-0.166667,0.666667,0.5,0.0802581,5.53769,0.0127788,19.5637,"
        "false,1,3\n"
        "c,1,1,0.333333,0.5,-0.166667,0.666667,0.5,0.0802581,5.53769,0.0127788,19.5637,"
        "false,4,5\n"
    )


def test_filter_genotypes_writes_nothing_to_stderr(tmp_path):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    out = tmp_path / "filtered.tct"
    report = tmp_path / "report.csv"
    rc, stdout, err = run_process("filter-genotypes", "--input", str(matrix),
                                  "--labels", str(labels), "--max-pvalue", "0.2",
                                  "--output", str(out), "--report", str(report))
    assert (rc, stdout, err) == (0, "", "")
    assert out.exists() and report.exists()


def test_filter_genotypes_without_controls_exits_2_after_the_whole_matrix(tmp_path, capsys):
    # items are decided while the matrix is read, so with no controls none is
    # scored (no control support to divide by), and the refusal waits for the
    # last row: a bad row anywhere in the matrix is reported instead
    matrix, labels = tmp_path / "m.csv", tmp_path / "l.csv"
    rows = "".join(f"rs{s},{s % 3},2,{s % 2},0\n" for s in range(3 * _BLOCK + 5))
    matrix.write_text("snp,bob,eve,kim,sam\n" + rows, encoding="utf-8")
    labels.write_text("bob,1\neve,1\nkim,1\nsam,1\n", encoding="utf-8")
    argv = ("filter-genotypes", "--input", str(matrix), "--labels", str(labels),
            "--output", str(tmp_path / "f.tct"), "--report", str(tmp_path / "r.csv"))
    message = "error: no control individuals; control support is undefined\n"
    assert run(capsys, *argv) == (2, "", message)
    matrix.write_text("snp,bob,eve,kim,sam\n" + rows + "rs,0,1,2,9\n", encoding="utf-8")
    bad = f"error: genotype matrix row {3 * _BLOCK + 7}: genotype must be 0, 1 or 2, got '9'\n"
    assert run(capsys, *argv) == (2, "", bad)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "m.csv"]


def test_filter_genotypes_memory_follows_one_block_and_the_kept_items(tmp_path):
    # a 4 MB matrix of 5,200 SNPs of which three are kept: the traced peak stays
    # under eight blocks of text and 200 bytes a SNP (its id and report columns);
    # holding the whole dataset, as filtering after the load did, peaked at 3.0 MB
    rng = random.Random(5)
    n, n_snps = 400, 5_200
    bodies = [",".join(rng.choices("012", k=n)) for _ in range(97)]
    planted = ",".join("2" if k % 2 else "0" for k in range(n))  # genotype 2 in every case
    matrix, labels = tmp_path / "m.csv", tmp_path / "l.csv"
    with open(matrix, "w", encoding="utf-8") as fh:
        fh.write("snp," + ",".join(f"p{k}" for k in range(n)) + "\n")
        fh.writelines(f"rs{s},{planted if s % 2000 == 7 else bodies[s % 97]}\n"
                      for s in range(n_snps))
    labels.write_text("".join(f"p{k},{k % 2}\n" for k in range(n)), encoding="utf-8")
    assert matrix.stat().st_size >= 4_000_000
    out, report = tmp_path / "f.tct", tmp_path / "r.csv"
    tracemalloc.start()
    try:
        rc = main(["filter-genotypes", "--input", str(matrix), "--labels", str(labels),
                   "--max-pvalue", "1e-9", "--output", str(out), "--report", str(report)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    kept = {f"rs{s}_{v}" for s in (7, 2007, 4007) for v in (0, 2)}
    assert {name for line in out.read_text().splitlines() for name in line.split()[1:]} == kept
    assert report.read_text().count(",true\n") == len(kept)
    block_text = _BLOCK * (len(planted) + len("rs0000,\n"))
    assert peak < 8 * block_text + 200 * n_snps
