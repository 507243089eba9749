import csv
import io
import logging
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigpat import dataset as dataset_module
from sigpat.dataset import (
    DatasetFormatError,
    TwoClassDataset,
    bit_positions,
    dump_transactions,
    from_transactions,
    generate_synthetic,
    load_genotype_matrix,
    load_transactions,
)

from conftest import TABLE1_TEXT
from reference import Tidset, tidset_from_masks, tidset_mask


def test_bit_positions():
    assert bit_positions(0) == ()
    assert bit_positions(0b1011) == (0, 1, 3)
    assert bit_positions((1 << 17) | (1 << 5) | 1) == (0, 5, 17)


def test_tidset_mask(table1):
    q = Tidset((0, 2), (5,))
    assert tidset_mask(q, table1) == 0b100101
    with pytest.raises(ValueError):
        tidset_mask(Tidset((7,), ()), table1)  # 7 is a control tid
    with pytest.raises(ValueError):
        tidset_mask(Tidset((), (2,)), table1)  # 2 is a case tid


def test_tidset_from_masks():
    t = tidset_from_masks(0b101, 0b1000)
    assert t == Tidset((0, 2), (3,))


def test_load_transactions_table1(table1):
    d = table1
    assert d.n_case == 5
    assert d.n_control == 4
    assert d.n == 9
    assert d.items == ("a", "b", "c", "f", "i", "j", "e", "g", "h", "d")
    assert len(d.rows) == 10
    # item "b" occurs in every transaction except case 5 and control 9
    b_row = d.rows[d.items.index("b")]
    assert bit_positions(b_row) == (0, 1, 2, 3, 5, 6, 7)
    assert d.case_mask == 0b000011111
    assert d.control_mask == 0b111100000
    assert d.external_ids == tuple(str(k) for k in range(1, 10))
    assert d.items[0] == "a"


def test_load_transactions_control_lines_reordered():
    d = load_transactions(io.StringIO("0 x\n1 y\n1 x y\n"))
    assert d.n_case == 2 and d.n_control == 1
    # cases first internally, external ids keep the file positions
    assert d.external_ids == ("2", "3", "1")
    assert bit_positions(d.rows[d.items.index("x")]) == (1, 2)


def test_load_transactions_comments_and_blank_lines():
    text = "# header\n1 a b\n\n0 b\n# trailing\n"
    d = load_transactions(io.StringIO(text))
    assert d.n_case == 1 and d.n_control == 1
    assert d.items == ("a", "b")


def test_load_transactions_duplicate_items_collapse():
    d = load_transactions(io.StringIO("1 a a b\n0 b\n"))
    assert d.items == ("a", "b")
    assert bit_positions(d.rows[0]) == (0,)


def test_load_transactions_bad_label():
    with pytest.raises(DatasetFormatError) as exc:
        load_transactions(io.StringIO("1 a\n2 b\n"))
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("text, case, control", [
    ("1 a\x0c1 b\n0 a b\n", [["a", "1", "b"]], [["a", "b"]]),
    ("1 a\x85b\n0 c\n", [["a", "b"]], [["c"]]),
], ids=["form feed", "next line"])
def test_load_transactions_splits_lines_at_lf_only(text, case, control):
    # form feed, NEL and the other breaks str.splitlines knows are whitespace
    # within a line: they separate items but end no line
    d = load_transactions(io.StringIO(text))
    want = from_transactions(case, control)
    assert (d.items, d.rows, d.n_case, d.n_control) == (
        want.items, want.rows, want.n_case, want.n_control)


def test_load_transactions_empty_input():
    with pytest.raises(DatasetFormatError, match="^empty dataset: no transactions found$"):
        load_transactions(io.StringIO("# nothing\n\n \t\n"))


def test_load_transactions_utf8_bom(tmp_path):
    text = "1 a b\n0 b\n"
    path = tmp_path / "bom.tct"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    plain = load_transactions(io.StringIO(text))
    for source in (path, str(path), io.BytesIO(path.read_bytes())):
        d = load_transactions(source)
        assert (d.items, d.rows, d.n_case) == (plain.items, plain.rows, plain.n_case)


def test_load_transactions_utf8_bom_text_stream():
    text = "1 a\n0 a\n"
    d = load_transactions(io.StringIO("\ufeff" + text))
    plain = load_transactions(io.StringIO(text))
    assert (d.items, d.rows, d.n_case) == (plain.items, plain.rows, plain.n_case)


def test_load_transactions_invalid_utf8_names_source(tmp_path):
    path = tmp_path / "bad.tct"
    path.write_bytes(b"1 a \xff b\n0 a\n")
    with pytest.raises(DatasetFormatError, match="bad.tct"):
        load_transactions(path)
    with pytest.raises(DatasetFormatError, match="UTF-8"):
        load_transactions(io.BytesIO(path.read_bytes()))


def test_load_transactions_empty_transaction_loads_silently(caplog):
    # a label-only line, as filter-genotypes writes for an individual with no
    # kept item, is a transaction with no items and counts in its class
    with caplog.at_level(logging.DEBUG):
        d = load_transactions(io.StringIO("1 a\n1\n0 a\n"))
    assert (d.n_case, d.n_control) == (2, 1)
    assert d.rows == (0b101,)
    assert caplog.records == []


def test_from_transactions_ordering():
    d = from_transactions([["x", "y"], ["y"]], [["z"]])
    assert d.n_case == 2 and d.n_control == 1
    assert d.items == ("x", "y", "z")
    assert bit_positions(d.rows[d.items.index("z")]) == (2,)
    assert d.external_ids == ("1", "2", "3")


def test_from_transactions_empty():
    with pytest.raises(DatasetFormatError, match="^empty dataset: no transactions found$"):
        from_transactions([], [])


def test_from_transactions_external_ids():
    d = from_transactions([["x"]], [["y"]], ["p", "q"])
    assert d.external_ids == ("p", "q")
    # one id per transaction: neither a short list nor a long one is taken
    with pytest.raises(ValueError, match="1 external ids for 2 transactions"):
        from_transactions([["x"]], [["y"]], ["p"])
    with pytest.raises(ValueError, match="3 external ids for 2 transactions"):
        from_transactions([["x"]], [["y"]], ["x", "y", "z"])
    # and distinct ids: a mined row could not tell two "a" transactions apart
    with pytest.raises(ValueError, match="duplicate external id 'a'"):
        from_transactions([["x"], ["x"]], [["x"]], ["a", "a", "b"])
    with pytest.raises(ValueError, match="duplicate external id 'b'"):
        from_transactions([["x"]], [["x"], ["y"]], ["b", "c", "b"])


def test_dump_transactions_roundtrip(table1):
    again = load_transactions(io.StringIO(dump_transactions(table1)))
    assert again.n_case == table1.n_case
    assert again.n_control == table1.n_control
    orig = {
        (name, t)
        for i, name in enumerate(table1.items)
        for t in bit_positions(table1.rows[i])
    }
    back = {
        (name, t)
        for i, name in enumerate(again.items)
        for t in bit_positions(again.rows[i])
    }
    assert orig == back


def test_dump_transactions_table1_exact(table1):
    dumped = [sorted(line.split()) for line in dump_transactions(table1).splitlines()]
    original = [sorted(line.split()) for line in TABLE1_TEXT.splitlines()]
    assert dumped == original


def test_load_genotype_matrix():
    matrix = "snp,bob,eve,kim,sam\nrs1,0,1,2,2\nrs2,1,1,0,2\n"
    labels = "bob,1\neve,0\nkim,1\nsam,0\n"
    d = load_genotype_matrix(io.StringIO(matrix), io.StringIO(labels))
    assert d.n_case == 2 and d.n_control == 2
    # cases first: bob, kim then controls eve, sam
    assert d.external_ids == ("bob", "kim", "eve", "sam")
    idx = {name: i for i, name in enumerate(d.items)}
    assert bit_positions(d.rows[idx["rs1_0"]]) == (0,)
    assert bit_positions(d.rows[idx["rs1_2"]]) == (1, 3)
    assert bit_positions(d.rows[idx["rs2_1"]]) == (0, 2)
    # each individual holds exactly one item per SNP
    for j in range(d.n):
        for snp in ("rs1", "rs2"):
            held = sum(d.rows[idx[f"{snp}_{v}"]] >> j & 1 for v in range(3))
            assert held == 1


def test_load_genotype_matrix_header_line_in_labels():
    matrix = "snp,bob,eve\nrs1,0,1\n"
    labels = "individual,label\nbob,1\neve,0\n"
    d = load_genotype_matrix(io.StringIO(matrix), io.StringIO(labels))
    assert d.external_ids == ("bob", "eve")


def test_load_genotype_matrix_bad_value():
    matrix = "snp,bob,eve\nrs1,0,3\n"
    labels = "bob,1\neve,0\n"
    with pytest.raises(DatasetFormatError):
        load_genotype_matrix(io.StringIO(matrix), io.StringIO(labels))


def test_load_genotype_matrix_missing_label():
    matrix = "snp,bob,eve\nrs1,0,1\n"
    labels = "bob,1\n"
    with pytest.raises(DatasetFormatError):
        load_genotype_matrix(io.StringIO(matrix), io.StringIO(labels))


def test_load_genotype_matrix_duplicate_snp():
    matrix = "snp,bob,eve\nrs1,0,1\nrs1,1,1\n"
    labels = "bob,1\neve,0\n"
    with pytest.raises(DatasetFormatError):
        load_genotype_matrix(io.StringIO(matrix), io.StringIO(labels))


def test_load_genotype_matrix_bom_labels(tmp_path):
    matrix = "snp,bob,eve\nrs1,0,1\n"
    labels = b"\xef\xbb\xbfbob,1\neve,0\n"
    labels_path = tmp_path / "labels.csv"
    labels_path.write_bytes(labels)
    for source in (labels_path, io.BytesIO(labels)):
        d = load_genotype_matrix(io.StringIO(matrix), source)
        assert d.external_ids == ("bob", "eve")


def test_generate_synthetic_deterministic():
    d1 = generate_synthetic(4, 3, 10, 0.4, seed=7)
    d2 = generate_synthetic(4, 3, 10, 0.4, seed=7)
    assert d1.rows == d2.rows
    assert d1.items == tuple(f"i{k}" for k in range(10))
    assert d1.n_case == 4 and d1.n_control == 3
    d3 = generate_synthetic(4, 3, 10, 0.4, seed=8)
    assert d3.rows != d1.rows


def test_generate_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic(2, 2, 5, 1.5, seed=1)
    with pytest.raises(ValueError):
        generate_synthetic(-1, 2, 5, 0.5, seed=1)
    with pytest.raises(ValueError):
        generate_synthetic(2, 2, 5, 0.5, seed=-1)


def test_generate_synthetic_density_extremes():
    full = generate_synthetic(2, 2, 6, 1.0, seed=3)
    assert all(row == 0b1111 for row in full.rows)
    empty = generate_synthetic(2, 2, 6, 0.0, seed=3)
    assert all(row == 0 for row in empty.rows)


def reference_genotype_matrix(matrix_text, labels_text):
    """The per-cell genotype loader the row-at-a-time one replaced.

    It keeps only the cell checks, and numbers rows as file lines, so it
    serves matrices without blank rows, ``#`` rows, duplicate SNP ids or
    short rows, and labels files without a header.
    """
    labels = {}
    for ind, label in (row for row in csv.reader(io.StringIO(labels_text)) if row):
        labels[ind.strip()] = label.strip()
    rows = list(csv.reader(io.StringIO(matrix_text)))
    individuals = [cell.strip() for cell in rows[0]][1:]
    snps, genotypes = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        cells = []
        for cell in row[1:]:
            value = cell.strip()
            if value not in ("0", "1", "2"):
                raise DatasetFormatError(
                    f"genotype matrix row {lineno}: genotype must be 0, 1 or 2, got {value!r}"
                )
            cells.append(int(value))
        snps.append(row[0].strip())
        genotypes.append(cells)
    order = [k for k, ind in enumerate(individuals) if labels[ind] == "1"]
    n_case = len(order)
    order += [k for k, ind in enumerate(individuals) if labels[ind] == "0"]
    items = tuple(f"{snp}_{v}" for snp in snps for v in range(3))
    out = [0] * len(items)
    for s, cells in enumerate(genotypes):
        for j, col in enumerate(order):
            out[3 * s + cells[col]] |= 1 << j
    external = tuple(individuals[col] for col in order)
    return TwoClassDataset(items, n_case, len(order) - n_case, tuple(out), external)


def _padded(draw, value, quotes=True):
    """``value`` as a CSV field, maybe space-padded, maybe quoted.

    With ``quotes``, a field is quoted half the time and padded most of the
    time. Without, it is never quoted and may be padded only one time in
    four, so that many rows can be read from slices of their line.
    """
    if quotes or draw(st.integers(0, 3)) == 0:
        value = " " * draw(st.integers(0, 2)) + value + " " * draw(st.integers(0, 2))
    return f'"{value}"' if quotes and draw(st.booleans()) else value


#: Bad cells: ``int(x, 2)`` accepts the one-character ones ``+``, ``-``,
#: ``_``, space and ``b`` as part of a binary number.
BAD_CELLS = ["", "3", "12", "x", "0 1", "+", "-", "_", " ", "b"]


@st.composite
def genotype_inputs(draw, quotes=True):
    n = draw(st.integers(1, 6))
    individuals = [f"p{k}" for k in range(n)]
    labels = [(ind, draw(st.sampled_from("01"))) for ind in individuals]
    labels = draw(st.permutations(labels))
    cell = st.sampled_from(["0", "1", "2"] * 10 + BAD_CELLS)
    lines = [",".join(["snp"] + [_padded(draw, ind, quotes) for ind in individuals])]
    for s in range(draw(st.integers(1, 5))):
        cells = [_padded(draw, draw(cell), quotes) for _ in individuals]
        lines.append(",".join([f"rs{s}"] + cells))
    matrix = "\n".join(lines) + "\n"
    labels_text = "".join(f"{ind},{label}\n" for ind, label in labels)
    return matrix, labels_text


def _load_text(matrix, labels):
    return load_genotype_matrix(io.StringIO(matrix), io.StringIO(labels))


def _outcome(load, matrix, labels):
    """The dataset ``load`` builds from the two texts, or its error message."""
    try:
        d = load(matrix, labels)
    except DatasetFormatError as exc:
        return str(exc)
    return (d.items, d.n_case, d.n_control, d.rows, d.external_ids)


@settings(max_examples=300, deadline=None)
@given(genotype_inputs())
def test_load_genotype_matrix_matches_per_cell_reference(inputs):
    matrix, labels = inputs
    assert _outcome(_load_text, matrix, labels) == _outcome(
        reference_genotype_matrix, matrix, labels
    )


@settings(max_examples=300, deadline=None)
@given(genotype_inputs(quotes=False))
def test_load_genotype_matrix_quote_free_matches_per_cell_reference(inputs):
    # quote-free LF text is read without csv, its unpadded rows from line slices
    matrix, labels = inputs
    assert '"' not in matrix + labels
    assert _outcome(_load_text, matrix, labels) == _outcome(
        reference_genotype_matrix, matrix, labels
    )


@settings(max_examples=600, deadline=None)
@given(st.booleans().flatmap(lambda q: genotype_inputs(quotes=q)), st.integers(1, 3))
def test_load_genotype_matrix_small_blocks_match_per_cell_reference(inputs, block):
    # blocks of one to three rows, so that sliced, split and csv-read rows mix
    matrix, labels = inputs
    with mock.patch.object(dataset_module, "_BLOCK", block):
        loaded = _outcome(_load_text, matrix, labels)
    assert loaded == _outcome(reference_genotype_matrix, matrix, labels)


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(lambda q: genotype_inputs(quotes=q)), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_load_genotype_matrix_keeps_the_items_keep_accepts(inputs, block, rnd):
    # keep sees every item in file order with its 2x2 counts, and the load is
    # the plain one restricted to the items it accepts, or the plain one's error
    matrix, labels = inputs
    offered = []

    def keep(snp, value, table):
        offered.append((f"{snp}_{value}", table, rnd.random() < 0.5))
        return offered[-1][2]

    with mock.patch.object(dataset_module, "_BLOCK", block):
        plain = _outcome(_load_text, matrix, labels)
        kept = _outcome(lambda m, l: load_genotype_matrix(io.StringIO(m), io.StringIO(l), keep),
                        matrix, labels)
    if isinstance(plain, str):
        assert kept == plain
        return
    items, n_case, n_control, rows, external = plain
    assert [name for name, _, _ in offered] == list(items)
    assert [table for _, table, _ in offered] == [
        (a, n_case - a, c, n_control - c)
        for a, c in (((r & (1 << n_case) - 1).bit_count(), (r >> n_case).bit_count())
                     for r in rows)
    ]
    accepted = [k for k, (_, _, ok) in enumerate(offered) if ok]
    assert kept == (tuple(items[k] for k in accepted), n_case, n_control,
                    tuple(rows[k] for k in accepted), external)


def _random_matrix(n, n_snps, seed):
    """The lines of a valid quote-free matrix of ``n`` individuals, header first, and its labels."""
    rng = random.Random(seed)
    lines = ["snp," + ",".join(f"p{k}" for k in range(n))]
    lines += [f"rs{s}," + ",".join(rng.choices("012", k=n)) for s in range(n_snps)]
    labels = "".join(f"p{k},{rng.choice('01')}\n" for k in range(n))
    return lines, labels


def test_load_genotype_matrix_errors_in_later_blocks_name_their_lines():
    block = dataset_module._BLOCK
    assert 3 * block <= 1000  # the matrix spans three blocks or more
    lines, labels = _random_matrix(5, 1000, seed=3)
    text = "\n".join(lines) + "\n"
    assert _outcome(_load_text, text, labels) == _outcome(reference_genotype_matrix, text, labels)
    bad_line, dup_line = block + 7, 2 * block + 5  # in the second and third blocks
    lines[bad_line - 1] = lines[bad_line - 1][:-1] + "7"
    lines[dup_line - 1] = "rs0" + lines[dup_line - 1][lines[dup_line - 1].index(","):]
    bad = f"genotype matrix row {bad_line}: genotype must be 0, 1 or 2, got '7'"
    assert _outcome(_load_text, "\n".join(lines) + "\n", labels) == bad
    lines[bad_line - 1] = lines[bad_line - 1][:-1] + "0"
    dup = f"genotype matrix row {dup_line}: duplicate SNP id 'rs0'"
    assert _outcome(_load_text, "\n".join(lines) + "\n", labels) == dup
    # a duplicate ahead of a bad cell in the same block is named first
    lines[dup_line] = lines[dup_line][:-1] + "x"
    assert _outcome(_load_text, "\n".join(lines) + "\n", labels) == dup


def test_load_genotype_matrix_splits_only_irregular_rows():
    # one padded cell in every 100th row: its block's other rows are still
    # read from line slices
    lines, labels = _random_matrix(5, 1000, seed=7)
    text = "\n".join(lines) + "\n"
    for s in range(100, 1001, 100):
        lines[s] = lines[s].replace(",", ", ", 1)
    split = dataset_module._split_cells
    with mock.patch.object(dataset_module, "_split_cells", wraps=split) as spy:
        padded = _load_text("\n".join(lines) + "\n", labels)
    assert padded == _load_text(text, labels)
    assert spy.call_count == 10


def test_load_genotype_matrix_peak_memory_stays_near_the_text_size(tmp_path):
    # rows go in tid order a block at a time: joining all of them at once
    # peaked at 4.6 times the text, and blocks at 2.3 times
    assert 4 * dataset_module._BLOCK <= 600  # the matrix spans four blocks or more
    lines, labels = _random_matrix(400, 600, seed=5)
    text = "\n".join(lines) + "\n"
    (tmp_path / "m.csv").write_text(text)
    (tmp_path / "l.csv").write_text(labels)
    tracemalloc.start()
    try:
        load_genotype_matrix(tmp_path / "m.csv", tmp_path / "l.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * len(text)


@pytest.mark.parametrize("column", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("cell", ["+", "_", "-", " ", "b"])
def test_load_genotype_matrix_rejects_cells_int_accepts(cell, column):
    """A one-character cell that ``int(x, 2)`` would read without error, in an
    otherwise valid unpadded row, is named as the bad genotype: the row check
    sends its row to be split, so ``int`` never sees it."""
    cells = ["0", "1", "2", "1", "0"]
    cells[column] = cell
    matrix = "snp,p0,p1,p2,p3,p4\nrs0,2,1,0,0,1\nrs1," + ",".join(cells) + "\n"
    labels = "p0,1\np1,0\np2,0\np3,1\np4,1\n"
    message = f"genotype matrix row 3: genotype must be 0, 1 or 2, got {cell.strip()!r}"
    assert _outcome(_load_text, matrix, labels) == message
    assert _outcome(reference_genotype_matrix, matrix, labels) == message


def test_load_genotype_matrix_rejects_non_ascii_digits():
    # int("١٠٠", 2) == 4: each row would hold one bit, three in all
    matrix = "snp,bob,eve,kim\nrs1,\u0661,\u0660,\u0660\n"
    labels = "bob,1\neve,0\nkim,1\n"
    message = "genotype matrix row 2: genotype must be 0, 1 or 2, got '\u0661'"
    assert _outcome(_load_text, matrix, labels) == message
    assert _outcome(reference_genotype_matrix, matrix, labels) == message


def test_load_genotype_matrix_rejects_lone_surrogates():
    # a str stream may hold a lone surrogate, which strict UTF-8 cannot encode
    matrix = "snp,bob,eve\nrs1,0,\ud800\n"
    message = "genotype matrix row 2: genotype must be 0, 1 or 2, got '\\ud800'"
    assert _outcome(_load_text, matrix, "bob,1\neve,0\n") == message
    assert _outcome(reference_genotype_matrix, matrix, "bob,1\neve,0\n") == message


@pytest.mark.parametrize(
    "matrix, message",
    [
        ("snp,bob,eve\nrs1,0,1\nrs1,1,2\n", "row 3: duplicate SNP id 'rs1'"),
        ("snp,bob,eve\nrs1,0,1\n rs1 ,1,2\n", "row 3: duplicate SNP id 'rs1'"),
        ("snp,bob,eve\nrs1,0,1\nrs1,1\n", "row 3: duplicate SNP id 'rs1'"),  # before the count
        ("snp,bob,eve\nrs1,0,1\nrs2,1,2,0\n", "row 3: expected 2 cells, got 3"),
        ("snp,bob,eve\nrs1,0,1\nrs2\n", "row 3: expected 2 cells, got 0"),
        ("snp,bob,eve\nrs1,0 1\n", "row 2: expected 2 cells, got 1"),  # three characters
    ],
)
def test_load_genotype_matrix_row_errors_on_fast_rows(matrix, message):
    assert _outcome(_load_text, matrix, "bob,1\neve,0\n") == "genotype matrix " + message


@pytest.mark.parametrize("newline", ["\r", "\r\n", "\n"], ids=["cr", "crlf", "lf"])
def test_load_genotype_matrix_newlines_agree_for_paths_and_streams(tmp_path, newline):
    # a stream reads CRLF and lone CR as LF, as a path does
    text = newline.join(["snp,bob,eve", "rs1,0,1", '"rs2",2,0', ""])
    path = tmp_path / "matrix.csv"
    path.write_bytes(text.encode())
    labels = b"bob,1\neve,0\n"
    sources = (path, io.BytesIO(text.encode()), io.StringIO(text, newline=""))
    loaded = [load_genotype_matrix(source, io.BytesIO(labels)) for source in sources]
    assert loaded[0].rows == (1, 2, 0, 2, 0, 1)
    assert loaded[0] == loaded[1] == loaded[2]


#: One matrix and its labels, and what they load to: cases bob and kim
#: first, then the controls eve and sam.
MATRIX_ROWS = [
    ["snp", "bob", "eve", "kim", "sam"],
    ["rs1", "0", "1", "2", "2"],
    ["rs2", "1", "1", "0", "2"],
    ["rs3", "2", "0", "0", "1"],
]
LABEL_ROWS = [["individual", "label"], ["bob", "1"], ["eve", "0"], ["kim", "1"], ["sam", "0"]]


def _written(rows, style):
    """``rows`` as CSV bytes written in ``style``, and the file line of each row."""
    lines = [",".join(f'"{cell}"' if style == "quoted" else cell for cell in row) for row in rows]
    numbers = list(range(1, len(rows) + 1))
    if style == "comments":
        # a comment row and a blank row before each row, and a blank one after
        lines = [part for line in lines for part in (" # next row", "", line)] + [""]
        numbers = [3 * k for k in numbers]
    text = ("\r\n" if style == "crlf" else "\n").join(lines) + "\n"
    if style == "bom":
        text = "\ufeff" + text
    return text.encode("utf-8"), numbers


@pytest.mark.parametrize("style", ["lf", "crlf", "quoted", "bom", "comments"])
def test_load_genotype_matrix_same_dataset_however_written(tmp_path, style):
    def from_streams(matrix, labels):
        return load_genotype_matrix(io.BytesIO(matrix), io.BytesIO(labels))

    def from_paths(matrix, labels):
        (tmp_path / "m.csv").write_bytes(matrix)
        (tmp_path / "l.csv").write_bytes(labels)
        return load_genotype_matrix(tmp_path / "m.csv", tmp_path / "l.csv")

    expected = _outcome(
        reference_genotype_matrix,
        "\n".join(map(",".join, MATRIX_ROWS)),
        "\n".join(map(",".join, LABEL_ROWS[1:])),
    )
    assert expected[3][:3] == (0b0001, 0b0100, 0b1010)  # rs1_0: bob; rs1_1: eve; rs1_2: kim, sam
    labels, _ = _written(LABEL_ROWS, style)
    matrix, _ = _written(MATRIX_ROWS, style)
    bad_rows = [row[:] for row in MATRIX_ROWS]
    bad_rows[2][3] = "7"
    bad_matrix, lines = _written(bad_rows, style)
    bad = f"genotype matrix row {lines[2]}: genotype must be 0, 1 or 2, got '7'"
    for load in (from_streams, from_paths):
        assert _outcome(load, matrix, labels) == expected
        assert _outcome(load, bad_matrix, labels) == bad


@pytest.mark.parametrize(
    "matrix, labels, bad",
    [
        ("snp,bob,eve\nrs1,,12\n", "bob,1\neve,0\n", "''"),  # joins to two valid digits
        ("snp,bob\nrs1,12\n", "bob,1\n", "'12'"),
        ("snp,bob,eve\nrs1,0,7\n", "bob,1\neve,0\n", "'7'"),
        ("snp,bob,eve\nrs0,0,1\nrs1,1,\n", "bob,1\neve,0\n", "''"),  # empty cell
        ("snp,bob,eve\nrs0,0,1\nrs1,1, \n", "bob,1\neve,0\n", "''"),  # blank cell
    ],
)
def test_load_genotype_matrix_rejects_cells(matrix, labels, bad):
    message = f"genotype matrix row {matrix.count(chr(10))}: genotype must be 0, 1 or 2, got {bad}"
    assert _outcome(_load_text, matrix, labels) == message
    assert _outcome(reference_genotype_matrix, matrix, labels) == message


def test_genotype_errors_name_file_lines():
    labels = "bob,1\neve,0\n"
    matrix = "snp,bob,eve\n# comment\n\nrs1,0,1\nrs1,0,1\n"
    with pytest.raises(DatasetFormatError, match="^genotype matrix row 5: duplicate SNP id 'rs1'$"):
        _load_text(matrix, labels)
    matrix = "snp,bob,eve\n\nrs1,0\n"
    with pytest.raises(DatasetFormatError, match="^genotype matrix row 3: expected 2 cells, got 1$"):
        _load_text(matrix, labels)
    bad_labels = [
        ("# ids\n\nbob,1,x\n", "labels line 3: expected 'individual,label'"),
        ("individual,label\n\nbob,1\neve,7\n", "labels line 4: label for 'eve' must be 0 or 1"),
        ("bob,1\n# again\nbob,0\n", "labels line 3: duplicate individual id 'bob'"),
    ]
    for text, message in bad_labels:
        with pytest.raises(DatasetFormatError, match="^" + re.escape(message)):
            _load_text("snp,bob,eve\nrs1,0,1\n", text)


#: Inputs whose error is about the whole file, by message: a matrix and its labels.
WHOLE_FILE_ERRORS = {
    "genotype matrix: empty input": ("# only comments\n\n# and blank rows\n", "bob,1\n"),
    "genotype matrix: no individual columns": ("snp\nrs1\n", "bob,1\n"),
    "genotype matrix: no SNP rows": ("snp,bob,eve\n# none\n\n", "bob,1\neve,0\n"),
    "labels: no entries found": ("snp,bob\nrs1,0\n", "individual,label\n# none\n"),
}


@pytest.mark.parametrize("message", list(WHOLE_FILE_ERRORS))
def test_genotype_whole_file_errors(message):
    matrix, labels = WHOLE_FILE_ERRORS[message]
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
        _load_text(matrix, labels)


def test_labels_typo_on_the_first_line():
    # a first row whose label is not 0 or 1 is skipped as a header, unless
    # it names a matrix column that no other row labels
    matrix = "snp,bob,eve\nrs1,0,1\n"
    for text, line in (("bob,7\neve,0\n", 1), ("# ids\nbob,7\neve,0\n", 2)):
        message = f"labels line {line}: label for 'bob' must be 0 or 1, got '7'"
        with pytest.raises(DatasetFormatError, match="^" + re.escape(message) + "$"):
            _load_text(matrix, text)
    for text in ("id,label\nbob,1\neve,0\n", "bob,x\nbob,1\neve,0\n"):
        d = _load_text(matrix, text)
        assert (d.n_case, d.n_control) == (1, 1)
    with pytest.raises(DatasetFormatError, match="^labels do not match the matrix columns$"):
        _load_text(matrix, "id,label\neve,0\n")


def test_dump_transactions_many_items_exact():
    d = generate_synthetic(5, 4, 70, 0.4, seed=11)
    expected = []
    for j in range(d.n):
        names = [d.items[i] for i in range(70) if d.rows[i] >> j & 1]
        expected.append(" ".join(["1" if j < d.n_case else "0"] + names))
    assert dump_transactions(d) == "\n".join(expected) + "\n"
