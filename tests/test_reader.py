"""The input readers stream: they read a piece at a time and must give what
reading the whole input first gives, datasets and errors alike."""

import contextlib
import csv
import io
import json
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reader_cases
from reference import whole_csv_rows, whole_lines
from sigpat import dataset as dataset_module
from sigpat.cli import main
from sigpat.dataset import DatasetFormatError, load_genotype_matrix, load_transactions

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Piece sizes to read with: each split of a short input, and the default.
CHUNKS = [1, 2, 3, 7, 65_536]

#: Bytes spliced into drawn inputs. With the field limit set to 40 for the
#: draw, the last two make a long line of short fields and a long field.
FRAGMENTS = [
    reader_cases.BOM, b"\r", b"\r\n", b"\n", b'"', b'""', b"\x00", b"\xff", b"\xe2\x82",
    "€".encode(), b"\xed\xa0\x80", b"#", b",", b" ", b"x," * 25, b"x" * 50,
]


@st.composite
def messy(draw, lines: list[str]) -> bytes:
    """``lines`` joined by LF, CRLF or CR, maybe after a BOM, with fragments spliced in."""
    data = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode()
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(FRAGMENTS)) + data[at:]
    return (reader_cases.BOM if draw(st.booleans()) else b"") + data


@st.composite
def transaction_files(draw) -> tuple[bytes]:
    line = st.sampled_from(["1 a b", "0 b", "1 c", "0 a c", "1", "# note", "", "2 a"])
    return (draw(messy(draw(st.lists(line, max_size=6)))),)


@st.composite
def genotype_files(draw) -> tuple[bytes, bytes]:
    names = [f"p{k}" for k in range(draw(st.integers(1, 4)))]
    cell = st.sampled_from("0120127")
    matrix = ["snp," + ",".join(names)]
    matrix += [f"rs{s}," + ",".join(draw(cell) for _ in names)
               for s in range(draw(st.integers(0, 4)))]
    labels = [f"{name},{draw(st.sampled_from('01'))}" for name in names]
    return draw(messy(matrix)), draw(messy(labels))


@contextlib.contextmanager
def field_limit(limit: int):
    """csv's field size limit, and the package's copy of it, at ``limit``."""
    old = csv.field_size_limit(limit)
    try:
        with mock.patch.object(dataset_module, "_FIELD_LIMIT", limit):
            yield
    finally:
        csv.field_size_limit(old)


def outcome(load, *sources):
    """The dataset ``load`` builds from ``sources``, or its error message."""
    try:
        return load(*sources)
    except DatasetFormatError as exc:
        return str(exc)


def whole(load, *sources):
    """``outcome`` with the whole input read before it is parsed."""
    with mock.patch.object(dataset_module, "_lines", whole_lines), \
            mock.patch.object(dataset_module, "_csv_rows", whole_csv_rows):
        return outcome(load, *sources)


def streamed(load, *sources, chunk: int):
    with mock.patch.object(dataset_module, "_CHUNK", chunk):
        return outcome(load, *sources)


#: The kinds of stream that ``opener`` makes.
KINDS = ["bytes", "text", "raw"]


@contextlib.contextmanager
def opener(files: tuple[bytes, ...], kind: str):
    """A function giving fresh streams of ``files``: bytes, text holding its CRs,
    or raw files of one temporary folder, which have no ``read1``; all are closed
    at the exit."""
    with contextlib.ExitStack() as stack:
        folder = stack.enter_context(tempfile.TemporaryDirectory())
        paths = [os.path.join(folder, str(k)) for k in range(len(files))]
        for path, data in zip(paths, files):
            with open(path, "wb") as fh:
                fh.write(data)

        def streams() -> list:
            if kind == "bytes":
                return [io.BytesIO(data) for data in files]
            if kind == "text":
                return [io.StringIO(data.decode("utf-8", "replace"), newline="") for data in files]
            return [stack.enter_context(open(path, "rb", buffering=0)) for path in paths]

        yield streams


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.tuples(st.just(load_transactions), transaction_files()),
    st.tuples(st.just(load_genotype_matrix), genotype_files()),
), st.sampled_from(KINDS))
def test_streamed_reading_matches_whole_input_reading(case, kind):
    load, files = case
    with field_limit(40), opener(files, kind) as streams:
        expected = whole(load, *streams())
        for chunk in CHUNKS:
            assert streamed(load, *streams(), chunk=chunk) == expected, chunk


@pytest.mark.parametrize("name", list(reader_cases.cases()))
def test_reader_cases_match_whole_input_reading(name, tmp_path):
    argv, files = reader_cases.cases()[name]
    for file_name, data in files.items():
        (tmp_path / file_name).write_bytes(data)
    paths = [tmp_path / file_name for file_name in files]
    load = load_transactions if argv[0] == "mine" else load_genotype_matrix
    expected = whole(load, *paths)
    for chunk in (7, dataset_module._CHUNK):
        assert streamed(load, *paths, chunk=chunk) == expected, chunk


def test_decoding_errors_give_the_whole_input_position(tmp_path):
    # counted after the byte order mark, in the piece that holds the fault or
    # across two pieces
    named = reader_cases.cases()
    chunk = dataset_module._CHUNK
    table = len(reader_cases.TABLE)
    nul = len(b"1 a\x00b\n0 a\n")
    for name, where in [
        ("tct bom, then bad utf-8", "byte 0xff in position 0"),
        ("tct nul, then bad utf-8", f"byte 0xff in position {nul + chunk + 2}"),
        ("tct bad utf-8 past the first piece", f"byte 0xff in position {table + chunk + 2}"),
        ("tct bom, bad utf-8 past the first piece", f"byte 0xff in position {table + chunk + 2}"),
        ("tct bad utf-8 across pieces", f"bytes in position {chunk - 1}-{chunk}"),
        ("tct bom, bad utf-8 across pieces", f"bytes in position {chunk - 4}-{chunk - 3}"),
        ("tct truncated at the end", f"bytes in position {table + 2}-{table + 3}"),
        ("tct truncated bom", "bytes in position 0-1"),
    ]:
        path = tmp_path / "in.tct"
        path.write_bytes(named[name][1]["in.tct"])
        with pytest.raises(DatasetFormatError) as exc:
            load_transactions(path)
        assert f"codec can't decode {where}: " in str(exc.value), name


def test_one_byte_order_mark_is_dropped(tmp_path):
    # from the first text of a path and of each kind of stream alike; a second
    # one is a character of the first line
    data = reader_cases.cases()["tct two boms"][1]["in.tct"]
    path = tmp_path / "in.tct"
    path.write_bytes(data)
    message = "line 1: label must be 0 or 1, got '\\ufeff1'"
    for chunk in CHUNKS:
        assert streamed(load_transactions, path, chunk=chunk) == message, chunk
        for kind in KINDS:
            with opener((data,), kind) as streams:
                got = streamed(load_transactions, *streams(), chunk=chunk)
                assert got == message, (chunk, kind)


def test_line_ends_split_across_pieces(tmp_path):
    # a CRLF split between two pieces is one line end, as is a lone CR, read
    # from a path or from a raw file, which has no read1
    named = reader_cases.cases()
    for name in ("tct crlf across pieces", "tct cr across pieces"):
        path = tmp_path / "in.tct"
        path.write_bytes(named[name][1]["in.tct"])
        with open(path, "rb", buffering=0) as raw:
            for source in (path, raw):
                with pytest.raises(DatasetFormatError,
                                   match="^line 6: label must be 0 or 1, got '7'$"):
                    load_transactions(source)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_nul_in_csv_input_is_refused(tmp_path, capsys):
    """A CSV line holding NUL ends the run with exit code 2 on every Python, as
    ``csv.reader`` refuses it on 3.10; it ranks as a csv error: after a decoding
    error anywhere in the file, before an error in any row."""
    matrix, labels = tmp_path / "m.csv", tmp_path / "l.csv"
    labels.write_text("bob,1\neve,0\nkim,1\nsam,0\n")
    argv = ("filter-genotypes", "--input", str(matrix), "--labels", str(labels))
    nul = f"error: genotype matrix {matrix}: line contains NUL\n"
    for data, err in [
        (b"snp,bob,eve,kim,sam\nrs1\x00x,0,1,2,0\nrs2,0,1,2,0\n", nul),
        (b"snp,bob,eve,kim,sam\nrs1,7,1,2,0\nrs2,0,1,2,0\n# \x00\n", nul),
        (b'snp,bob,eve,kim,sam\n"rs1",0,1,2,0\nrs2,0,\x00,2,0\n', nul),
        (b"snp,bob,eve,kim,sam\nrs1,0,1,2,\x00\nrs2,0,1,2,\xff\n",
         f"error: {matrix}: not valid UTF-8 ('utf-8' codec can't decode byte 0xff in "
         "position 42: invalid start byte)\n"),
    ]:
        matrix.write_bytes(data)
        assert run(capsys, *argv) == (2, "", err), data
    matrix.write_bytes(b"snp,bob,eve,kim,sam\nrs1,0,1,2,0\n")
    labels.write_bytes(b"bob,1\neve,0\nkim,1\nsam,0\x00\n")
    assert run(capsys, *argv) == (2, "", f"error: labels {labels}: line contains NUL\n")


def test_load_genotype_matrix_memory_follows_the_dataset(tmp_path):
    # the input is read in pieces, so the traced peak exceeds what the dataset
    # keeps by less than 1 MiB; reading it whole peaked at 2.2 times the file
    rng = random.Random(11)
    n, n_snps = 400, 5_200
    bodies = [",".join(rng.choices("012", k=n)) for _ in range(97)]
    path = tmp_path / "m.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("snp," + ",".join(f"p{k}" for k in range(n)) + "\n")
        fh.writelines(f"rs{s},{bodies[s % 97]}\n" for s in range(n_snps))
    assert path.stat().st_size >= 4_000_000
    (tmp_path / "l.csv").write_text("".join(f"p{k},{k % 2}\n" for k in range(n)))
    tracemalloc.start()
    try:
        dataset = load_genotype_matrix(path, tmp_path / "l.csv")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset.rows) == 3 * n_snps
    assert peak - kept < 2**20


DRIVER = os.path.join(ROOT, "tests", "reader_cases.py")


def other_pythons() -> list[tuple[str, str]]:
    """``(version, interpreter)`` of each CPython that pyenv installed, at or
    above the package's least version and other than the one running."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        least = re.search(r'requires-python = ">=(\d+)\.(\d+)"', fh.read())
    versions = os.path.join(os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv"),
                            "versions")
    found = []
    for version in sorted(os.listdir(versions)) if os.path.isdir(versions) else []:
        number = re.fullmatch(r"(\d+)\.(\d+)\.\d+", version)
        python = os.path.join(versions, version, "bin", "python")
        if (number and tuple(map(int, number.groups())) >= tuple(map(int, least.groups()))
                and version != platform.python_version() and os.access(python, os.X_OK)):
            found.append((version, python))
    return found


PYTHONS = other_pythons()


@pytest.fixture(scope="module")
def in_process():
    return reader_cases.run_cases({**reader_cases.cases(), **reader_cases.output_cases()})


@pytest.mark.parametrize(
    "python",
    [python for _, python in PYTHONS]
    or [pytest.param(None, marks=pytest.mark.skip(reason="no other CPython installed by pyenv"))],
    ids=[version for version, _ in PYTHONS] or ["none"],
)
def test_reader_cases_agree_across_pythons(python, in_process, capsys):
    assert reader_cases.against([python], in_process) == 0, capsys.readouterr().out


def test_against_prints_each_case_that_differs(in_process, tmp_path):
    # an "interpreter" that prints the results of the cases with one changed
    results = tmp_path / "results.json"
    results.write_text(json.dumps(dict(in_process, **{"tct valid": [9, "", "", {}]})))
    fake = tmp_path / "python"
    fake.write_text(f"#!/bin/sh\nexec cat '{results}'\n")
    fake.chmod(0o755)
    done = subprocess.run([sys.executable, "-B", DRIVER, "--against", str(fake), sys.executable],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (1, "")
    n = len(in_process)
    assert done.stdout.splitlines() == [
        f"{fake}: differs: tct valid", f"{fake}: {n} cases, 1 differ",
        f"{sys.executable}: {n} cases, 0 differ",
    ]


def test_reader_case_comparison_catches_one_changed_byte(in_process):
    argv, files = reader_cases.cases()["matrix valid"]
    changed = dict(files, **{"m.csv": files["m.csv"].replace(b"rs1,2", b"rs1,1")})
    got = dict(in_process, **reader_cases.run_cases({"matrix valid": (argv, changed)}))
    assert reader_cases.mismatches(in_process, got) == ["matrix valid"]
    assert reader_cases.mismatches(in_process, in_process) == []
    # one byte of a written file, with exit code, stderr and stdout unchanged
    name = "mine output and stats"
    argv, files = reader_cases.output_cases()[name]

    def one_byte(value: float) -> str:  # item c's support difference, -0.5, as -0.6
        return "%.6g" % (-0.6 if value == -0.5 else value)

    with mock.patch("sigpat.cli._fmt", one_byte):
        got = dict(in_process, **reader_cases.run_cases({name: (argv, files)}))
    assert got[name][:3] == in_process[name][:3]
    assert got[name][3]["s.json"] == in_process[name][3]["s.json"]  # its times are masked
    assert got[name][3]["o.csv"] != in_process[name][3]["o.csv"]
    assert reader_cases.mismatches(in_process, got) == [name]
