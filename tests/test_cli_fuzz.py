"""Random, often malformed, input files and threshold values through the CLI.

Whatever the bytes and the values, ``sigpat`` must end with a documented exit
code (0 ok, 1 usage, 2 malformed input) and never with an escaping exception.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigpat.cli import main
from sigpat.measures import Thresholds


def _encoded(draw, lines):
    """UTF-8 of ``lines``, one line ending for all, sometimes with random bytes spliced in."""
    data = draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


@st.composite
def transactions(draw):
    """A small ``.tct`` file, mostly well formed."""
    label = st.sampled_from(["0", "1"] * 8 + ["2", "#", ""])
    item = st.sampled_from(["a", "b", "c", "d", "é", "\ufeff"])
    lines = [
        " ".join([draw(label), *draw(st.lists(item, max_size=4))])
        for _ in range(draw(st.integers(0, 8)))
    ]
    return _encoded(draw, lines)


@st.composite
def genotype_files(draw):
    """A small genotype matrix and its labels file, mostly well formed."""
    name = st.sampled_from(["a", "b", "c", "d", " a", '"b"', ""])
    names = draw(st.lists(name, min_size=1, max_size=4, unique_by=lambda s: s.strip(' "')))
    cell = st.sampled_from(["0", "1", "2"] * 8 + [" 1 ", '"2"', "", "7", "12"])
    matrix = [",".join(["snp", *names])]
    for k in range(draw(st.integers(1, 4))):
        snp = draw(st.sampled_from([f"rs{k}"] * 6 + ["rs0", "#rs", ""]))
        width = len(names) + draw(st.sampled_from([0] * 6 + [-1, 1]))
        matrix.append(",".join([snp, *(draw(cell) for _ in range(max(width, 0)))]))
    label = st.sampled_from(["0", "1"] * 12 + ["2", "", "0,1"])
    labels = ["individual,label"] if draw(st.booleans()) else []
    labels += [f"{name},{draw(label)}" for name in draw(st.permutations(names))]
    return _encoded(draw, matrix), _encoded(draw, labels)


@st.composite
def threshold_flags(draw):
    """Zero to five threshold flags, each with any float, NaN and infinities
    too, written as ``--min-sd=<value>`` so that a leading minus still parses."""
    flag = st.sampled_from(["--" + name.replace("_", "-") for name in Thresholds._fields])
    pairs = draw(st.lists(st.tuples(flag, st.floats()), max_size=5))
    return [f"{name}={value!r}" for name, value in pairs]


def run_cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(transactions(), threshold_flags())
# min_sd * n_control overflows to -inf where top[a] is computed
@example(b"1 a\n1 a b\n0 a\n0 b\n", ["--min-sd=1e308"])
def test_mine_fuzzed_transactions(data, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.tct"
        path.write_bytes(data)
        out = str(Path(tmp) / "out.csv")
        rc, err = run_cli("mine", "--input", str(path), *flags, "--output", out)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(genotype_files())
def test_genotype_commands_fuzzed(files):
    matrix, labels = files
    with tempfile.TemporaryDirectory() as tmp:
        m, lab, out = Path(tmp) / "m.csv", Path(tmp) / "l.csv", Path(tmp) / "out"
        m.write_bytes(matrix)
        lab.write_bytes(labels)
        for argv in (
            ("filter-genotypes", "--input", str(m), "--labels", str(lab), "--output", str(out),
             "--report", str(Path(tmp) / "report.csv")),
            ("mine", "--format", "genotype", "--input", str(m), "--labels", str(lab),
             "--output", str(out)),
        ):
            rc, err = run_cli(*argv)
            assert rc in (0, 1, 2), (argv[0], rc, err)
            assert "Traceback" not in err
