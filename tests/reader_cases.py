"""Edge-case inputs and outputs of the commands, run through ``sigpat.cli.main``.

Usage: python tests/reader_cases.py [--against PYTHON ...]

Writes each case's input files to a temporary directory, runs its command in
this interpreter and prints one JSON object that maps each case to its exit
code, the sha256 digests of its stderr and stdout, and the digest of each file
the command wrote, an input file whose bytes it changed included. The
directory's path is replaced by ``<dir>`` first, in the command and in what it
gives, and the timings in a ``--stats`` file are masked. A case named in
``CHILDREN`` runs instead in a child of this interpreter that ``/bin/sh``
starts with stdout or stderr closed or read-only, with stdin a pipe, or with
another stdout encoding. It needs only the standard library, ``/bin/sh`` and
the ``src`` tree beside it, so that each CPython the package supports can run
it and the runs can be compared byte for byte. Given ``--against``, it runs
the cases here and under each interpreter named, prints each case whose
result differs and exits 1 if any does.

The reader cases put their faults next to the boundary of the readers' first
piece (``_CHUNK`` bytes): invalid UTF-8 past it or split across it, with and
without a byte order mark; a CRLF or a lone CR split across it; a quote or
NUL only near the end; an unclosed quote at the end; lines longer than csv's
field limit; and inputs with two faults, where the one that reading the whole
input first finds first must be reported. The block cases give
``filter-genotypes``, which decides each item as its block of ``_BLOCK`` rows
is read, a matrix of more than three blocks: a fault in a later block, no
control individuals, or a quoted SNP id holding a comma, which its report
must quote. The output cases write files, or
are refused before they write any, as when an output names an input file by
its path or through a link or a threshold flag is refused, or write to a
stdout or stderr that is closed or cannot encode what they write.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from typing import Callable, Union

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BOM = b"\xef\xbb\xbf"
TABLE = b"1 a b\n1 a c\n0 b c\n0 c\n"
HEADER = b"snp,bob,eve,kim,sam\n"
ROWS = b"rs1,2,0,2,1\nrs2,1,0,1,2\nrs3,0,0,1,0\n"
LABELS = b"bob,1\neve,0\nkim,1\nsam,0\n"

#: Longer than csv's default field size limit, 131,072 characters.
LONG = 140_000


def _pad(n: int) -> bytes:
    """A comment line of exactly ``n`` bytes (``n`` >= 2)."""
    return b"#" + b"x" * (n - 2) + b"\n"


#: An input file that names another of the case's files: ``os.link`` or
#: ``os.symlink``, and that file's name.
Link = tuple[Callable[[str, str], None], str]

#: Input files by name.
Files = dict[str, Union[bytes, Link]]

#: A command, with ``<dir>`` for the case's directory, and its input files.
Case = tuple[list[str], Files]

#: The shell command that starts a case's child, ``"$@"``, by the case's name.
CHILDREN = {
    "mine stdout closed": 'exec "$@" >&-',
    "gen stdout closed": 'exec "$@" >&-',
    "mine stderr closed, no input": 'exec "$@" 2>&-',
    "mine stderr read-only, no input": 'exec "$@" 2</dev/null',
    "mine ascii stdout, non-ascii item": 'PYTHONIOENCODING=ascii exec "$@"',
    "mine stdin input to stdout": f"printf '%s' '{TABLE.decode()}' | exec \"$@\"",
}

#: ``main(argv)`` in a fresh interpreter that imports the package from ``src``;
#: -s: no user site; -B: no bytecode written into src
CHILD = [sys.executable, "-s", "-B", "-c",
         f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); "
         "from sigpat.cli import main; sys.exit(main(sys.argv[1:]))"]

#: The value of each ``--stats`` key that is a time, and so differs between runs.
TIMING = re.compile(rb'("\w+_seconds": )[^,\n]*')


def tct(data: bytes, *flags: str) -> Case:
    return ["mine", "--input", "<dir>/in.tct", *flags], {"in.tct": data}


def geno(matrix: bytes, labels: bytes = LABELS, *flags: str) -> Case:
    return (["filter-genotypes", "--input", "<dir>/m.csv", "--labels", "<dir>/l.csv", *flags],
            {"m.csv": matrix, "l.csv": labels})


def cases() -> dict[str, Case]:
    """The reader cases, with the faults placed around the first piece boundary
    of the readers in ``src``, and the block cases."""
    from sigpat.dataset import _BLOCK as block, _CHUNK as chunk

    def across(head: bytes, fault: bytes, tail: bytes) -> bytes:
        # a comment line holds ``fault`` from the last byte of the first piece on
        return head + b"#" + b"x" * (chunk - 2 - len(head)) + fault + tail

    matrix = HEADER + ROWS
    # rows of every genotype mix, past the third block; rs1 to rs3 are in the first
    blocks = HEADER + b"".join(b"rs%d,%d,%d,%d,%d\n" % (s, s % 3, s // 3 % 3, s % 2, s % 5 % 3)
                               for s in range(1, 3 * block + 6))
    report = ("--output", "<dir>/f.tct", "--report", "<dir>/r.csv")
    return {
        "tct valid": tct(TABLE),
        "tct bom crlf": tct(BOM + TABLE.replace(b"\n", b"\r\n")),
        "tct two boms": tct(BOM + BOM + TABLE),
        "tct bom, then bad utf-8": tct(BOM + b"\xff" + TABLE),
        "tct bad utf-8 past the first piece": tct(TABLE + _pad(chunk) + b"1 \xff\n"),
        "tct bom, bad utf-8 past the first piece": tct(BOM + TABLE + _pad(chunk) + b"1 \xff\n"),
        "tct bad utf-8 across pieces": tct(across(TABLE, b"\xe2\x82(", b"\n")),
        "tct bom, bad utf-8 across pieces": tct(across(BOM + TABLE, b"\xe2\x82(", b"\n")),
        "tct utf-8 across pieces": tct(across(TABLE, "€".encode(), b"\n")),
        "tct truncated at the end": tct(TABLE + b"1 \xe2\x82"),
        "tct truncated bom": tct(b"\xef\xbb"),
        "tct crlf across pieces": tct(across(TABLE, b"\r\n", b"7 x\r\n")),
        "tct cr across pieces": tct(across(TABLE, b"\r", b"7 x\r")),
        "tct bad label, then bad utf-8": tct(b"1 a\n7 b\n" + _pad(chunk) + b"0 \xff\n"),
        "tct nul": tct(b"1 a\x00b\n0 a\n"),
        "tct nul, then bad utf-8": tct(b"1 a\x00b\n0 a\n" + _pad(chunk) + b"0 \xff\n"),
        "matrix valid": geno(matrix),
        "matrix bom crlf": geno(BOM + matrix.replace(b"\n", b"\r\n")),
        "matrix crlf across pieces": geno(across(HEADER, b"\r\n", ROWS + b"rs4,0,1,2,7\r\n")),
        "matrix quote near the end": geno(HEADER + _pad(chunk) + ROWS + b'rs4,"1",0,2,1\n'),
        "matrix nul near the end": geno(HEADER + _pad(chunk) + ROWS + b"rs4,1\x00,0,2,1\n"),
        "matrix nul in a snp id": geno(HEADER + b"rs1\x00x,0,1,2,0\n" + ROWS),
        "matrix unclosed quote at the end": geno(matrix + b'rs4,"0,1,2,0'),
        "matrix long comment line": geno(HEADER + b"#" + b"x," * (LONG // 2) + b"\n" + ROWS),
        "matrix field over the limit": geno(HEADER + b"rs0," + b"1" * LONG + b"\n" + ROWS),
        "matrix bad cell, then bad utf-8": geno(
            HEADER + b"rs0,7,0,1,2\n" + _pad(chunk) + ROWS + b"rs4,\xff,0,1,2\n"),
        "matrix bad cell, then nul": geno(HEADER + b"rs0,7,0,1,2\n" + ROWS + b"rs4,\x00,0,1,2\n"),
        "matrix nul, then bad utf-8": geno(
            HEADER + b"rs0,\x00,0,1,2\n" + _pad(chunk) + ROWS + b"rs4,\xff,0,1,2\n"),
        "matrix field over the limit, then bad utf-8": geno(
            HEADER + b"rs0," + b"1" * LONG + b"\n" + ROWS + b"rs4,\xff,0,1,2\n"),
        "matrix field over the limit, then nul on its line": geno(
            HEADER + b"rs0," + b"1" * LONG + b"\x00,0,1,2\n" + ROWS),
        "matrix nul, then a field over the limit on its line": geno(
            HEADER + b"rs0,\x00" + b"1" * LONG + b",0,1,2\n" + ROWS),
        "labels bad label, then bad utf-8": geno(matrix, b"bob,1\neve,7\n" + _pad(chunk) + b"\xff"),
        "labels nul": geno(matrix, LABELS + b"ann\x00,1\n"),
        "blocks bad cell in the last block": geno(blocks + b"rs0,0,1,3,2\n"),
        "blocks duplicate snp id in a later block": geno(blocks + b"rs2,0,1,2,2\n" + ROWS),
        "blocks no controls": geno(blocks, LABELS.replace(b",0", b",1"), *report),
        "blocks no controls, bad row": geno(blocks + b"rs0,0,1\n", LABELS.replace(b",0", b",1")),
        "blocks quoted snp id with a comma": geno(
            blocks + b'"rs,0",2,0,2,0\n' + b"rs0,0,2,0,2\n", LABELS, "--max-pvalue", "0.5",
            *report),
    }


def output_cases() -> dict[str, Case]:
    """Commands that write files, or that are refused before they write any, and
    the ``CHILDREN`` cases."""
    gen = ["gen", "--cases", "4", "--controls", "5", "--items", "6", "--density", "0.4",
           "--seed", "7"]
    return {
        "mine output and stats naming one file": tct(
            TABLE, "--output", "<dir>/o.csv", "--stats", "<dir>/o.csv"),
        "mine unwritable output": tct(
            TABLE, "--output", "<dir>/none/o.csv", "--stats", "<dir>/s.json"),
        "mine min-sd -1e-3": tct(TABLE, "--min-sd", "-1e-3"),
        "mine output and stats": tct(TABLE, "--output", "<dir>/o.csv", "--stats", "<dir>/s.json"),
        "mine json output": tct(TABLE, "--output-format", "json", "--output", "<dir>/o.json"),
        "filter-genotypes output and report": geno(
            HEADER + ROWS, LABELS, "--output", "<dir>/f.tct", "--report", "<dir>/r.csv"),
        "gen output": ([*gen, "--output", "<dir>/g.tct"], {}),
        "mine stdout closed": tct(TABLE),
        "gen stdout closed": (gen, {}),
        "mine stderr closed, no input": (["mine", "--input", "<dir>/none.tct"], {}),
        "mine stderr read-only, no input": (["mine", "--input", "<dir>/none.tct"], {}),
        "mine ascii stdout, non-ascii item": tct("1 a é\n0 é\n".encode()),
        "mine output naming the input": tct(TABLE, "--output", "<dir>/in.tct"),
        "mine output naming a hard link to the input": (
            ["mine", "--input", "<dir>/in.tct", "--output", "<dir>/hard.tct"],
            {"in.tct": TABLE, "hard.tct": (os.link, "in.tct")}),
        "mine output naming a symlink to the input": (
            ["mine", "--input", "<dir>/in.tct", "--output", "<dir>/soft.tct"],
            {"in.tct": TABLE, "soft.tct": (os.symlink, "in.tct")}),
        "mine stats naming the input": tct(
            TABLE, "--output", "<dir>/o.csv", "--stats", "<dir>/in.tct"),
        "oracle output naming the input": (
            ["oracle", "--input", "<dir>/in.tct", "--output", "<dir>/in.tct"], {"in.tct": TABLE}),
        "filter-genotypes report naming the labels": geno(
            HEADER + ROWS, LABELS, "--output", "<dir>/f.tct", "--report", "<dir>/l.csv"),
        "mine stdin input to stdout": (["mine", "--input", "/dev/stdin", "--output", "-"], {}),
        "mine min-gr -1, existing output": (
            ["mine", "--input", "<dir>/in.tct", "--output", "<dir>/o.csv", "--min-gr", "-1"],
            {"in.tct": TABLE, "o.csv": b"keep"}),
        "mine min-sd inf, new output": tct(TABLE, "--min-sd", "inf", "--output", "<dir>/new.csv"),
        "oracle min-sd inf, new output": (
            ["oracle", "--input", "<dir>/in.tct", "--output", "<dir>/new.csv", "--min-sd", "inf"],
            {"in.tct": TABLE}),
    }


def execute(argv: list[str], files: Files, shell: str | None = None
            ) -> tuple[int, bytes, bytes, dict[str, bytes]]:
    """Exit code, stderr, stdout and the files written of one case, run in this
    interpreter or, given ``shell``, in ``CHILD`` started by it; the case's
    directory reads as ``<dir>`` in each."""
    with tempfile.TemporaryDirectory() as where:
        for name, data in files.items():
            if isinstance(data, bytes):
                with open(os.path.join(where, name), "wb") as fh:
                    fh.write(data)
            else:
                make, target = data
                make(os.path.join(where, target), os.path.join(where, name))
        argv = [arg.replace("<dir>", where) for arg in argv]
        if shell is None:
            from sigpat.cli import main

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            texts = (err.getvalue(), out.getvalue())
            streams = [text.encode("utf-8", "surrogatepass") for text in texts]
        else:  # the shell alone sets the child's PYTHON variables
            env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
            done = subprocess.run(["/bin/sh", "-c", shell, "sh", *CHILD, *argv], env=env,
                                  capture_output=True, timeout=60)
            rc, streams = done.returncode, [done.stderr, done.stdout]
        written = {}
        for name in sorted(os.listdir(where)):
            if isinstance(files.get(name), tuple):
                continue  # a link: the file it names is listed if it changed
            with open(os.path.join(where, name), "rb") as fh:
                data = fh.read()
            if data != files.get(name):
                written[name] = data
    here = where.encode()
    err, out = (data.replace(here, b"<dir>") for data in streams)
    return rc, err, out, {name: data.replace(here, b"<dir>") for name, data in written.items()}


def digest(data: bytes) -> str:
    """sha256 of ``data`` with its timings masked."""
    return hashlib.sha256(TIMING.sub(rb"\1<time>", data)).hexdigest()


def run_case(argv: list[str], files: Files, shell: str | None = None) -> list:
    """``[exit code, stderr digest, stdout digest, {written file: digest}]`` of one case."""
    rc, err, out, written = execute(argv, files, shell)
    return [rc, digest(err), digest(out), {name: digest(data) for name, data in written.items()}]


def run_cases(named: dict[str, Case]) -> dict[str, list]:
    return {name: run_case(argv, files, CHILDREN.get(name))
            for name, (argv, files) in named.items()}


def mismatches(expected: dict[str, list], got: dict[str, list]) -> list[str]:
    """The cases whose results differ, or that only one of the two runs has."""
    return sorted(name for name in expected.keys() | got.keys()
                  if expected.get(name) != got.get(name))


def against(pythons: list[str], here: dict[str, list]) -> int:
    """Print each case whose result under one of ``pythons`` differs from ``here``,
    then a count per interpreter; 1 if any case differs or an interpreter fails
    to run them, else 0."""
    differ = False
    for python in pythons:
        # -I: no user site or environment; -B: no bytecode written into src
        done = subprocess.run([python, "-I", "-B", os.path.abspath(__file__)],
                              capture_output=True, text=True, timeout=300)
        if done.returncode:
            print(f"{python}: exits {done.returncode}: {done.stderr.strip()}")
            differ = True
            continue
        names = mismatches(here, json.loads(done.stdout))
        for name in names:
            print(f"{python}: differs: {name}")
        print(f"{python}: {len(here)} cases, {len(names)} differ")
        differ = differ or bool(names)
    return int(differ)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Run the reader and output cases.")
    parser.add_argument("--against", nargs="+", default=[], metavar="PYTHON",
                        help="compare the results here with those under each interpreter")
    pythons = parser.parse_args().against
    sys.path.insert(0, os.path.join(ROOT, "src"))
    results = run_cases({**cases(), **output_cases()})
    if pythons:
        sys.exit(against(pythons, results))
    print(json.dumps(results, indent=1, sort_keys=True))
