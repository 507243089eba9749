"""Output checks that import nothing from sigpat.

Every emitted row is checked against the input file it was mined from: the
listed tids are exactly the transactions holding all the row's items, the
itemset is closed over them, both tid parts are non-empty, the scores match
a recomputation with the standard library, and every configured threshold
holds. The genotype filter's transaction file and report are rebuilt from
the matrix and compared byte for byte. Each check returns a list of error
strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

Z_95 = 1.96


class Transactions:
    """A labelled transaction file as item sets keyed by external id."""

    def __init__(self, text: str):
        self.case: dict[str, frozenset[str]] = {}
        self.control: dict[str, frozenset[str]] = {}
        seq = 0
        for line in text.splitlines():
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            seq += 1
            side = self.case if tokens[0] == "1" else self.control
            side[str(seq)] = frozenset(tokens[1:])
        self.by_item: dict[str, tuple[set[str], set[str]]] = {}
        for side, part in ((self.case, 0), (self.control, 1)):
            for tid, items in side.items():
                for item in items:
                    self.by_item.setdefault(item, (set(), set()))[part].add(tid)

    def cover(self, items: list[str]) -> tuple[set[str], set[str]]:
        """(case tids, control tids) of the transactions holding every item."""
        if not items:
            return set(self.case), set(self.control)
        parts = [self.by_item.get(item, (set(), set())) for item in items]
        return set.intersection(*(p[0] for p in parts)), set.intersection(
            *(p[1] for p in parts)
        )


def scores(a: int, b: int, c: int, d: int) -> dict:
    """The reported scores of a 2x2 table (a, b, c, d), recomputed."""
    n1, n2 = a + b, c + d
    s1, s2 = a / n1, c / n2
    gr = s1 / s2 if c else (math.inf if a else 0.0)
    ors = (a * d) / (b * c) if b * c else (math.inf if a * d else 0.0)
    corrected = 0 in (a, b, c, d)
    fa, fb, fc, fd = (x + 0.5 if corrected else float(x) for x in (a, b, c, d))
    log_gr = math.log((fa / (fa + fb)) / (fc / (fc + fd)))
    se_gr = math.sqrt(1 / fa - 1 / (fa + fb) + 1 / fc - 1 / (fc + fd))
    log_ors = math.log(fa * fd / (fb * fc))
    se_ors = math.sqrt(1 / fa + 1 / fb + 1 / fc + 1 / fd)
    return {
        "sup_case": s1,
        "sup_control": s2,
        "sd": s1 - s2,
        "gr": gr,
        "ors": ors,
        "lci_gr": math.exp(log_gr - Z_95 * se_gr),
        "uci_gr": math.exp(log_gr + Z_95 * se_gr),
        "lci_ors": math.exp(log_ors - Z_95 * se_ors),
        "uci_ors": math.exp(log_ors + Z_95 * se_ors),
        "ci_corrected": corrected,
    }


def pvalue(a: int, b: int, c: int, d: int) -> float:
    """Pearson chi-square upper tail with one degree of freedom."""
    margins = (a + b, c + d, a + c, b + d)
    if 0 in margins:
        return 1.0
    n = a + b + c + d
    stat = n * (a * d - b * c) ** 2 / math.prod(margins)
    return math.erfc(math.sqrt(stat / 2))


def six_digits(value: float) -> str:
    return ("inf" if value > 0 else "-inf") if math.isinf(value) else "%.6g" % value


def _same_six_digits(cell: str, value: float) -> bool:
    # a recomputation in another order may differ in the last bit and so
    # round the other way at a 6-digit boundary; both roundings are right
    if math.isinf(value) or value == 0:
        return cell == six_digits(value)
    return cell in {six_digits(value * f) for f in (1.0, 1 - 1e-12, 1 + 1e-12)}


def _json_same(cell, value: float) -> bool:
    if math.isinf(value):
        return cell == ("inf" if value > 0 else "-inf")
    return isinstance(cell, (int, float)) and math.isclose(cell, value, rel_tol=1e-9)


SCORE_COLUMNS = (
    "sup_case", "sup_control", "sd", "gr", "ors",
    "lci_gr", "uci_gr", "lci_ors", "uci_ors",
)


def parse_patterns(text: str, fmt: str) -> list[dict]:
    """Rows as dicts with list-valued ``items``/``case_tids``/``control_tids``."""
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        for key in ("items", "case_tids", "control_tids"):
            row[key] = row[key].split(";") if row[key] else []
    return rows


def check_row(row: dict, tx: Transactions, fmt: str, thresholds: dict) -> list[str]:
    items = list(row["items"])
    pos, neg = set(row["case_tids"]), set(row["control_tids"])
    where = f"row {';'.join(items)!r}"
    errors = []
    if not pos or not neg:
        errors.append(f"{where}: a tid part is empty")
    cover = tx.cover(items)
    if cover != (pos, neg):
        errors.append(f"{where}: listed tids are not the transactions holding its items")
    holders = [tx.case[t] for t in pos if t in tx.case] + [
        tx.control[t] for t in neg if t in tx.control
    ]
    if holders and frozenset.intersection(*holders) != frozenset(items):
        errors.append(f"{where}: itemset is not closed over its tids")
    if len(set(items)) != len(items):
        errors.append(f"{where}: repeated item")
    a, c = len(pos), len(neg)
    if str(row["n_case_tids"]) != str(a) or str(row["n_control_tids"]) != str(c):
        errors.append(f"{where}: tid counts do not match the tid lists")
    b, d = len(tx.case) - a, len(tx.control) - c
    if errors or min(a, c) == 0 or b < 0 or d < 0:
        return errors
    want = scores(a, b, c, d)
    for key in SCORE_COLUMNS:
        ok = (
            _json_same(row[key], want[key])
            if fmt == "json"
            else _same_six_digits(row[key], want[key])
        )
        if not ok:
            errors.append(f"{where}: {key} is {row[key]!r}, recomputed {want[key]!r}")
    flag = row["ci_corrected"]
    if (flag if fmt == "json" else flag == "true") != want["ci_corrected"]:
        errors.append(f"{where}: ci_corrected is {flag!r}")
    for name, limit in thresholds.items():
        score = want[name[len("min_"):]]
        held = score > limit if name.startswith("min_lci") else score >= limit
        if not held:
            errors.append(f"{where}: {name} {limit} fails ({score!r})")
    return errors


def check_patterns(
    input_path: Path, output_path: Path, fmt: str, thresholds: dict, planted: list[str]
) -> list[str]:
    """Check every row of a ``mine`` output; the planted items must co-occur."""
    tx = Transactions(input_path.read_text(encoding="utf-8"))
    try:
        rows = parse_patterns(output_path.read_text(encoding="utf-8"), fmt)
    except (ValueError, KeyError) as exc:
        return [f"{output_path.name}: unreadable output ({exc})"]
    errors = []
    seen = set()
    for row in rows:
        key = tuple(sorted(row["items"]))
        if key in seen:
            errors.append(f"itemset {key} emitted twice")
        seen.add(key)
        errors.extend(check_row(row, tx, fmt, thresholds))
    if not any(set(planted) <= set(row["items"]) for row in rows):
        errors.append(f"no emitted pattern holds all planted items {planted}")
    return errors


def check_filter(
    matrix_path: Path,
    labels_path: Path,
    filtered_path: Path,
    report_path: Path,
    max_pvalue: float,
    max_control_support: float,
    planted: list[str],
) -> list[str]:
    """Rebuild the filtered transaction file and the report from the matrix."""
    labels = dict(
        line.split(",") for line in labels_path.read_text(encoding="utf-8").split()
    )
    rows = list(csv.reader(io.StringIO(matrix_path.read_text(encoding="utf-8"))))
    header = rows[0][1:]
    cases = [k for k, ind in enumerate(header) if labels[ind] == "1"]
    controls = [k for k, ind in enumerate(header) if labels[ind] == "0"]
    order = cases + controls
    n1, n2 = len(cases), len(controls)
    held: list[list[str]] = [[] for _ in order]
    report = [("item", "p_value", "control_support", "kept")]
    kept_names = []
    for row in rows[1:]:
        snp, cells = row[0], row[1:]
        for v in "012":
            a = sum(cells[k] == v for k in cases)
            c = sum(cells[k] == v for k in controls)
            p = pvalue(a, n1 - a, c, n2 - c)
            keep = p <= max_pvalue and c / n2 <= max_control_support
            name = f"{snp}_{v}"
            report.append((name, six_digits(p), six_digits(c / n2), "true" if keep else "false"))
            if keep:
                kept_names.append(name)
                for j, k in enumerate(order):
                    if cells[k] == v:
                        held[j].append(name)
    want_tct = "".join(
        " ".join(["1" if j < n1 else "0"] + names) + "\n" for j, names in enumerate(held)
    )
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(report)
    out.write(f"# total_kept {len(kept_names)}\n")
    out.write(f"# total_dropped {len(report) - 1 - len(kept_names)}\n")
    errors = []
    if filtered_path.read_text(encoding="utf-8") != want_tct:
        errors.append("filtered transaction file differs from the recomputed one")
    if report_path.read_text(encoding="utf-8") != out.getvalue():
        errors.append("filter report differs from the recomputed one")
    missing = set(planted) - set(kept_names)
    if missing:
        errors.append(f"planted items dropped by the filter: {sorted(missing)}")
    return errors


def unrejected_corruptions(row: dict, tx: Transactions, fmt: str, thresholds: dict) -> list[str]:
    """Corrupt a correct row three ways; name each corruption ``check_row`` missed."""

    def bumped(cell):
        if fmt == "json":
            return cell * 1.001 if isinstance(cell, float) else 7.0
        return six_digits(float(cell) * 1.001) if cell != "inf" else "7"

    corrupted = {
        "case tid dropped": dict(row, case_tids=row["case_tids"][1:]),
        "item dropped": dict(row, items=row["items"][:-1]),
        "odds ratio changed": dict(row, ors=bumped(row["ors"])),
    }
    return [what for what, bad in corrupted.items() if not check_row(bad, tx, fmt, thresholds)]
