"""The CSV and JSON writers against a per-record reference writer.

``reference_csv`` and ``reference_json`` encode every record on its own,
reading the tidset of each record; the writers under test format the
count and score columns once per (table, scores) pair and the external ids
once per tid mask. Their output must be the same bytes.
"""

import csv
import io
import json
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sigpat import MinerConfig, Thresholds, from_transactions, mine, mine_oracle
from sigpat.cli import COLUMNS, write_csv, write_json


def _fmt(value):
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return "%.6g" % value


def _json_float(value):
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def reference_fields(r, dataset):
    names = dataset.items
    ext = dataset.external_ids
    s = r.scores
    return (
        [names[i] for i in r.itemset],
        len(r.tidset.pos),
        len(r.tidset.neg),
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
        [ext[t] for t in r.tidset.pos],
        [ext[t] for t in r.tidset.neg],
    )


def reference_csv(records, dataset, out):
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for r in records:
        items, n_pos, n_neg, *scores, corrected, pos, neg = reference_fields(r, dataset)
        writer.writerow(
            (
                ";".join(items),
                n_pos,
                n_neg,
                *map(_fmt, scores),
                "true" if corrected else "false",
                ";".join(pos),
                ";".join(neg),
            )
        )


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


#: short names that need CSV quoting or collide with the ``;`` separator
NAMES = st.text(alphabet='ab,;" ', min_size=1, max_size=3)


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
    ext = draw(st.lists(NAMES, min_size=len(rows), max_size=len(rows)))
    dataset = from_transactions(rows[:n_case], rows[n_case:], ext)
    thresholds = Thresholds(
        min_sd=draw(optional(-0.2, 0.6)),
        min_gr=draw(optional(0.0, 3.0)),
        min_ors=draw(optional(0.0, 4.0)),
        min_lci_gr=draw(optional(0.0, 2.0)),
        min_lci_ors=draw(optional(0.0, 2.0)),
    )
    return dataset, MinerConfig(thresholds=thresholds)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_writers_match_reference_writers(instance):
    dataset, cfg = instance
    mined, _ = mine(dataset, cfg)
    for records in (mined, mine_oracle(dataset, cfg)):
        assert written(write_csv, records, dataset) == written(
            reference_csv, records, dataset
        )
        assert written(write_json, records, dataset) == written(
            reference_json, records, dataset
        )


def test_writers_match_reference_writers_worked_table(table1):
    for cfg in (MinerConfig(), MinerConfig(thresholds=Thresholds(min_ors=2.0))):
        for records in (mine(table1, cfg)[0], mine_oracle(table1, cfg)):
            assert len(records) > 1
            assert written(write_csv, records, table1) == written(
                reference_csv, records, table1
            )
            assert written(write_json, records, table1) == written(
                reference_json, records, table1
            )
