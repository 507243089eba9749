"""The CSV and JSON writers and the filter report against per-row reference writers.

``reference_csv`` and ``reference_json`` encode every record on its own,
reading its tids from its masks, through ``csv_line`` and ``json.dump``;
the writers under test encode the count and score columns once per (table,
scores) pair and the external ids once per tid mask, and fill a line
template per record. ``reference_report`` decides every item of a genotype
matrix on its own. Their output must be the same bytes.

``csv_line`` writes Python 3.11's ``csv.writer(out, lineterminator="\n")``
rule down, so that the reference is the same on every Python version:
``csv.writer`` quotes a field holding ``\r`` on 3.13 and refuses ``\x00``
on 3.10, while sigpat writes the same bytes on each.
"""

import csv
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigpat import Thresholds, from_transactions, load_genotype_matrix, mine
from sigpat.cli import COLUMNS, main, write_csv, write_json
from sigpat.dataset import bit_positions
from sigpat.measures import ContingencyTable, association_pvalue
from sigpat.oracle import mine_oracle


def _fmt(value):
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return "%.6g" % value


def _json_float(value):
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def csv_line(fields):
    """One CSV row: a field is quoted, with inner ``"`` doubled, only when
    it holds ``,``, ``"`` or ``\n``. Rows have two fields or more."""
    quoted = ('"' + f.replace('"', '""') + '"' if any(ch in f for ch in ',"\n') else f
              for f in map(str, fields))
    return ",".join(quoted) + "\n"


def reference_fields(r, dataset):
    names = dataset.items
    ext = dataset.external_ids
    s = r.scores
    pos, neg = bit_positions(r.pos_mask), bit_positions(r.neg_mask)
    return (
        [names[i] for i in r.itemset],
        len(pos),
        len(neg),
        r.table.a / r.table.n_case,
        r.table.c / r.table.n_control,
        s.sd,
        s.gr,
        s.ors,
        s.lci_gr,
        s.uci_gr,
        s.lci_ors,
        s.uci_ors,
        s.corrected_ci,
        [ext[t] for t in pos],
        [ext[t] for t in neg],
    )


def reference_csv(records, dataset, out):
    out.write(csv_line(COLUMNS))
    for r in records:
        items, n_pos, n_neg, *scores, corrected, pos, neg = reference_fields(r, dataset)
        out.write(csv_line((
            ";".join(items),
            n_pos,
            n_neg,
            *map(_fmt, scores),
            "true" if corrected else "false",
            ";".join(pos),
            ";".join(neg),
        )))


def reference_json(records, dataset, out):
    payload = []
    for r in records:
        items, n_pos, n_neg, *scores, corrected, pos, neg = reference_fields(r, dataset)
        values = (items, n_pos, n_neg, *map(_json_float, scores), corrected, pos, neg)
        payload.append(dict(zip(COLUMNS, values)))
    json.dump(payload, out, indent=2)
    out.write("\n")


def written(writer, records, dataset):
    out = io.StringIO()
    writer(records, dataset, out)
    return out.getvalue()


#: short names that need CSV quoting, collide with the ``;`` separator, or
#: hold characters that CSV leaves bare (``\r``, ``\t``, ``\x00``) and JSON escapes
ALPHABET = 'ab,;" \r\n\t\\é\x00'
NAMES = st.text(alphabet=ALPHABET, min_size=1, max_size=3)
IDS = st.text(alphabet=ALPHABET, min_size=0, max_size=3)
ROWS = st.lists(IDS, min_size=2, max_size=4)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="csv_line is 3.11's rule")
@settings(max_examples=300, deadline=None)
@given(ROWS)
def test_csv_line_is_csv_writer_of_python_3_11(fields):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    assert csv_line(fields) == out.getvalue()


#: fields that csv.reader reads back where they stand bare: it ends a record
#: at ``\r`` and refuses ``\x00`` on 3.10
READABLE = st.text(alphabet=ALPHABET.replace("\r", "").replace("\x00", ""), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(READABLE, min_size=2, max_size=4))
def test_csv_line_reads_back(fields):
    assert list(csv.reader(io.StringIO(csv_line(fields)))) == [fields]


def optional(low, high):
    return st.none() | st.floats(min_value=low, max_value=high)


@st.composite
def instances(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    names = draw(st.lists(NAMES, min_size=1, max_size=8, unique=True))
    n_case = draw(st.integers(min_value=1, max_value=7))
    n_control = draw(st.integers(min_value=1, max_value=7))
    density = rng.uniform(0.3, 0.7)
    rows = [[x for x in names if rng.random() < density] for _ in range(n_case + n_control)]
    ext = draw(st.lists(IDS, min_size=len(rows), max_size=len(rows), unique=True))
    dataset = from_transactions(rows[:n_case], rows[n_case:])._replace(external_ids=tuple(ext))
    thresholds = Thresholds(
        min_sd=draw(optional(-0.2, 0.6)),
        min_gr=draw(optional(0.0, 3.0)),
        min_ors=draw(optional(0.0, 4.0)),
        min_lci_gr=draw(optional(0.0, 2.0)),
        min_lci_ors=draw(optional(0.0, 2.0)),
    )
    return dataset, thresholds


def two_and_two(names, ids):
    """Two cases and two controls over three names, as an ``instances()`` draw."""
    x, y, z = names
    dataset = from_transactions([[x, y, z], [x, z]], [[y, z], [x, y]])
    return dataset._replace(external_ids=tuple(ids)), Thresholds()


# The CSV writer decides once per run whether joined names, and joined ids, need quoting.
@settings(max_examples=150, deadline=None)
@given(instances())
@example(two_and_two(["a,b", 'c"d', "e"], ["1", "2", "3", "4"]))
@example(two_and_two(["a", "b", "c"], ["x,1", 'y"2', "z\n3", "4"]))
@example(two_and_two(["a", 'b"', "c"], ["1", "2", "3", "x,4"]))
def test_writers_match_reference_writers(instance):
    dataset, thresholds = instance
    mined, _ = mine(dataset, thresholds)
    for records in (mined, mine_oracle(dataset, thresholds)):
        assert written(write_csv, records, dataset) == written(
            reference_csv, records, dataset
        )
        assert written(write_json, records, dataset) == written(
            reference_json, records, dataset
        )


def test_writers_match_reference_writers_worked_table(table1):
    for thresholds in (Thresholds(), Thresholds(min_ors=2.0)):
        for records in (mine(table1, thresholds)[0], mine_oracle(table1, thresholds)):
            assert len(records) > 1
            assert written(write_csv, records, table1) == written(
                reference_csv, records, table1
            )
            assert written(write_json, records, table1) == written(
                reference_json, records, table1
            )


def test_writers_match_reference_writers_for_every_itemset_length(table1):
    # the engine never emits an empty itemset, but the writers take any record
    mined = mine(table1)[0]
    records = [mined[0]._replace(itemset=()), mined[1]._replace(itemset=(3,)), *mined[2:4]]
    assert any(len(r.itemset) > 1 for r in records)
    for writer, reference in ((write_csv, reference_csv), (write_json, reference_json)):
        assert written(writer, records, table1) == written(reference, records, table1)


def reference_report(dataset, max_pvalue, max_control_support, out):
    out.write(csv_line(("item", "p_value", "control_support", "kept")))
    total_kept = 0
    for name, row in zip(dataset.items, dataset.rows):
        a = (row & dataset.case_mask).bit_count()
        c = (row & dataset.control_mask).bit_count()
        table = ContingencyTable(a, dataset.n_case - a, c, dataset.n_control - c)
        pvalue = association_pvalue(table)
        support = c / dataset.n_control
        kept = (max_pvalue is None or pvalue <= max_pvalue) and (
            max_control_support is None or support <= max_control_support
        )
        total_kept += kept
        out.write(csv_line((name, _fmt(pvalue), _fmt(support), "true" if kept else "false")))
    out.write(f"# total_kept {total_kept}\n")
    out.write(f"# total_dropped {len(dataset.items) - total_kept}\n")


#: SNP ids that need CSV quoting in the matrix and in the report; no
#: whitespace, which a kept item may not hold, and no leading ``#``
SNP_IDS = st.text(alphabet='ab,;"\\é', min_size=1, max_size=4).filter(
    lambda s: not s.startswith("#")
)


@st.composite
def genotype_runs(draw):
    n_case = draw(st.integers(min_value=0, max_value=4))
    n_control = draw(st.integers(min_value=1, max_value=4))
    labels = draw(st.permutations("1" * n_case + "0" * n_control))
    snps = draw(st.lists(SNP_IDS, min_size=1, max_size=6, unique=True))
    matrix = io.StringIO()
    writer = csv.writer(matrix, lineterminator="\n")
    writer.writerow(["snp", *(f"p{k}" for k in range(len(labels)))])
    for snp in snps:
        writer.writerow([snp, *(draw(st.sampled_from("012")) for _ in labels)])
    labels_text = "".join(f"p{k},{label}\n" for k, label in enumerate(labels))
    fraction = st.none() | st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    return matrix.getvalue(), labels_text, draw(fraction), draw(fraction)


@settings(max_examples=150, deadline=None)
@given(genotype_runs())
def test_filter_report_matches_reference_report(run):
    matrix, labels, max_pvalue, max_control_support = run
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in ("m.csv", "l.csv", "f.tct", "r.csv")}
        paths["m.csv"].write_text(matrix, encoding="utf-8")
        paths["l.csv"].write_text(labels, encoding="utf-8")
        argv = ["filter-genotypes", "--input", str(paths["m.csv"]),
                "--labels", str(paths["l.csv"]),
                "--output", str(paths["f.tct"]), "--report", str(paths["r.csv"])]
        for flag, value in (("--max-pvalue", max_pvalue),
                            ("--max-control-support", max_control_support)):
            if value is not None:
                argv += [flag, repr(value)]
        assert main(argv) == 0
        report = paths["r.csv"].read_text(encoding="utf-8")
    expected = io.StringIO()
    dataset = load_genotype_matrix(io.StringIO(matrix), io.StringIO(labels))
    reference_report(dataset, max_pvalue, max_control_support, expected)
    assert report == expected.getvalue()
