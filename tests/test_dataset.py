import io
import logging

import pytest

from sigpat.dataset import (
    DatasetFormatError,
    Tidset,
    bit_positions,
    dump_transactions,
    from_transactions,
    generate_synthetic,
    load_genotype_matrix,
    load_transactions,
    tidset_from_masks,
    tidset_mask,
)

from conftest import TABLE1_TEXT


def test_bit_positions():
    assert bit_positions(0) == ()
    assert bit_positions(0b1011) == (0, 1, 3)
    assert bit_positions((1 << 17) | (1 << 5) | 1) == (0, 5, 17)


def test_tidset_validation():
    t = Tidset.of([2, 0], [5])
    assert t.pos == (0, 2)
    assert t.neg == (5,)
    assert len(t) == 3
    with pytest.raises(ValueError):
        Tidset((1, 1), ())
    with pytest.raises(ValueError):
        Tidset((2, 1), ())


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


def test_load_transactions_empty_input():
    with pytest.raises(DatasetFormatError):
        load_transactions(io.StringIO("# nothing\n"))


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


def test_load_transactions_empty_transaction_logs_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="sigpat.dataset"):
        d = load_transactions(io.StringIO("1 a\n1\n0 a\n"))
    assert d.n_case == 2
    assert any("no items" in rec.message for rec in caplog.records)


def test_from_transactions_ordering():
    d = from_transactions([["x", "y"], ["y"]], [["z"]])
    assert d.n_case == 2 and d.n_control == 1
    assert d.items == ("x", "y", "z")
    assert bit_positions(d.rows[d.items.index("z")]) == (2,)
    assert d.external_ids == ("1", "2", "3")


def test_from_transactions_empty():
    with pytest.raises(DatasetFormatError):
        from_transactions([], [])


def test_dump_transactions_roundtrip(table1):
    buf = io.StringIO()
    dump_transactions(table1, buf)
    again = load_transactions(io.StringIO(buf.getvalue()))
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
    buf = io.StringIO()
    dump_transactions(table1, buf)
    dumped = [sorted(line.split()) for line in buf.getvalue().splitlines()]
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
