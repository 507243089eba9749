"""Two-class transaction datasets stored as per-item bit rows.

Transactions get internal ids 0..n-1 with all case (label 1) transactions
first, followed by the controls (label 0). Each item owns one integer whose
bit j records whether internal transaction j contains the item, so set
intersections and support counts reduce to bitwise ops on Python ints.
"""

from __future__ import annotations

import io
import random
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Sequence, Union

Source = Union[str, Path, IO[str], IO[bytes]]


class DatasetFormatError(ValueError):
    """Input text does not conform to the expected file format."""


def bit_positions(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class _Tidset(NamedTuple):
    pos: tuple[int, ...] = ()
    neg: tuple[int, ...] = ()


class Tidset(_Tidset):
    """A set of internal transaction ids split into case and control parts.

    ``pos`` holds case tids (all < n_case), ``neg`` holds control tids
    (all >= n_case). Both tuples are strictly increasing.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Tidset:
        self = super().__new__(cls, *args, **kwargs)
        if any(x >= y for part in self for x, y in zip(part, part[1:])):
            raise ValueError("tids must be strictly increasing")
        return self

    #: ``_replace`` builds through ``_make``, so it is checked as well
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __len__(self) -> int:
        return len(self.pos) + len(self.neg)


class TwoClassDataset(NamedTuple):
    items: tuple[str, ...]
    n_case: int
    n_control: int
    rows: tuple[int, ...]
    external_ids: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.n_case + self.n_control

    @property
    def case_mask(self) -> int:
        return (1 << self.n_case) - 1

    @property
    def control_mask(self) -> int:
        return ((1 << self.n) - 1) ^ self.case_mask


def _source_name(source: Source) -> str:
    return str(source) if isinstance(source, (str, Path)) else getattr(source, "name", "input")


def _read_text(source: Source) -> str:
    """Whole input as text: UTF-8 with an optional byte order mark, CRLF and CR read as LF."""
    try:
        if isinstance(source, (str, Path)):
            return Path(source).read_text(encoding="utf-8-sig")
        data = source.read()
        text = data.decode("utf-8-sig") if isinstance(data, bytes) else data.removeprefix("\ufeff")
        return text.replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{_source_name(source)}: not valid UTF-8 ({exc})") from None


#: ``csv``'s default field size limit: a longer field makes ``csv.reader``
#: raise, and a line no longer than this holds no longer field.
_FIELD_LIMIT = 131_072

#: A CSV row: a quote-free line that splits at commas into its cells, or the
#: cells ``csv.reader`` read.
Row = Union[str, list[str]]


def _cells(row: Row) -> list[str]:
    return row.split(",") if isinstance(row, str) else row


def _csv_rows(source: Source, what: str) -> list[tuple[int, Row]]:
    """``(file line, row)`` pairs of ``source`` without blank rows and ``#`` comment rows.

    The line is the one a row ends on, counted from 1 in the decoded text.
    Text with no ``"`` or NUL and no line longer than csv's field limit
    is split at LF only: each of its rows is a whole line, which splits at
    its commas into the cells ``csv.reader`` would give, on the same line
    number. Any other text goes through ``csv.reader``, and its rows are
    lists of cells.
    """
    text = _read_text(source)
    if '"' not in text and "\0" not in text:
        lines = text.split("\n")
        if max(map(len, lines)) <= _FIELD_LIMIT:
            # a comment row's first cell starts with "#" after spaces, and so
            # does its line, since a comma is no space
            return [
                (lineno, line)
                for lineno, line in enumerate(lines, start=1)
                if line and not line.lstrip().startswith("#")
            ]
    import csv  # only text that the split above could misread needs it

    reader = csv.reader(io.StringIO(text))
    try:
        return [
            (reader.line_num, row)
            for row in reader
            if row and not row[0].strip().startswith("#")
        ]
    except csv.Error as exc:
        raise DatasetFormatError(f"{what} {_source_name(source)}: {exc}") from None


def _intern(names: Iterable[str], item_ids: dict[str, int]) -> list[int]:
    """Ids of ``names`` in first-appearance order without repeats; new names get fresh ids."""
    return list(dict.fromkeys(item_ids.setdefault(name, len(item_ids)) for name in names))


def _build(
    items: Sequence[str],
    transactions: Sequence[tuple[str, Sequence[int]]],
    n_case: int,
) -> TwoClassDataset:
    rows = [0] * len(items)
    for j, (_ext, ids) in enumerate(transactions):
        bit = 1 << j
        for i in ids:
            rows[i] |= bit
    external = tuple(ext for ext, _ in transactions)
    return TwoClassDataset(tuple(items), n_case, len(transactions) - n_case, tuple(rows), external)


def load_transactions(source: Source) -> TwoClassDataset:
    """Parse the labelled transaction text format.

    Lines end at LF. Each non-comment line reads ``<label> <item> <item> ...``
    with label 1 for case and 0 for control. Items are whitespace-free tokens;
    duplicates within a line collapse to one occurrence. Lines starting with
    ``#`` and blank lines are skipped; a line holding only a label is a
    transaction with no items. Item ids follow first appearance order;
    external ids are 1-based positions in the sequence of data lines.
    """
    item_ids: dict[str, int] = {}
    case: list[tuple[str, list[int]]] = []
    control: list[tuple[str, list[int]]] = []
    seq = 0
    for lineno, raw in enumerate(_read_text(source).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        label = tokens[0]
        if label not in ("0", "1"):
            raise DatasetFormatError(f"line {lineno}: label must be 0 or 1, got {label!r}")
        seq += 1
        (case if label == "1" else control).append((str(seq), _intern(tokens[1:], item_ids)))
    if not case and not control:
        raise DatasetFormatError("empty dataset: no transactions found")
    return _build(list(item_ids), case + control, len(case))


def from_transactions(
    case: Sequence[Iterable[str]],
    control: Sequence[Iterable[str]],
    external_ids: Sequence[str] | None = None,
) -> TwoClassDataset:
    """Build a dataset from in-memory item-name transactions (cases first)."""
    item_ids: dict[str, int] = {}
    tx: list[tuple[str, list[int]]] = []
    for k, names in enumerate(list(case) + list(control)):
        ext = external_ids[k] if external_ids is not None else str(k + 1)
        tx.append((ext, _intern(names, item_ids)))
    if not tx:
        raise DatasetFormatError("empty dataset: no transactions found")
    return _build(list(item_ids), tx, len(case))


def dump_transactions(dataset: TwoClassDataset, dest: Union[str, Path, IO[str]]) -> None:
    """Serialize to the transaction text format, cases first.

    Raises DatasetFormatError, before writing anything, when an item name is
    empty or holds whitespace, as such a name would not read back as one item.
    """
    bad = next((name for name in dataset.items if name.split() != [name]), None)
    if bad is not None:
        raise DatasetFormatError(f"item name {bad!r} is empty or holds whitespace")
    names: list[list[str]] = [[] for _ in range(dataset.n)]
    for name, row in zip(dataset.items, dataset.rows):
        for j in bit_positions(row):
            names[j].append(name)
    lines = [
        " ".join(["1" if j < dataset.n_case else "0", *held]) for j, held in enumerate(names)
    ]
    text = "\n".join(lines) + "\n"
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text, encoding="utf-8", newline="")
    else:
        dest.write(text)


def _parse_labels(rows: list[tuple[int, Row]]) -> tuple[dict[str, str], tuple[str, str] | None]:
    """The label of each individual and, when the first row was skipped as a
    header for a label other than 0 or 1, its id and the error it would be."""
    labels: dict[str, str] = {}
    header = None
    for lineno, row in rows:
        row = _cells(row)
        if len(row) != 2:
            raise DatasetFormatError(
                f"labels line {lineno}: expected 'individual,label', got {row!r}"
            )
        ind, label = row[0].strip(), row[1].strip()
        if label not in ("0", "1"):
            bad = f"labels line {lineno}: label for {ind!r} must be 0 or 1, got {label!r}"
            if labels or header:
                raise DatasetFormatError(bad)
            header = (ind, bad)
            continue
        if ind in labels:
            raise DatasetFormatError(f"labels line {lineno}: duplicate individual id {ind!r}")
        labels[ind] = label
    if not labels:
        raise DatasetFormatError("labels: no entries found")
    return labels, header


#: The valid genotype cells, after stripping surrounding spaces.
_GENOTYPES = frozenset("012")

#: ``str.translate`` tables: ``_ONE_HOT[v]`` maps the digit v to "1" and the other two to "0".
_ONE_HOT = (str.maketrans("012", "100"), str.maketrans("012", "010"), str.maketrans("012", "001"))

#: Data rows that ``load_genotype_matrix`` puts in tid order at once.
_BLOCK = 128


def _split_cells(lineno: int, row: Row, n: int) -> str:
    """The n genotype cells of data row ``row``, stripped and joined in file column
    order; raises the count or genotype error of file line ``lineno`` instead."""
    cells = [cell.strip() for cell in _cells(row)[1:]]
    if len(cells) != n:
        raise DatasetFormatError(
            f"genotype matrix row {lineno}: expected {n} cells, got {len(cells)}"
        )
    bad = next((v for v in cells if v not in _GENOTYPES), None)
    if bad is not None:
        raise DatasetFormatError(
            f"genotype matrix row {lineno}: genotype must be 0, 1 or 2, got {bad!r}"
        )
    return "".join(cells)


def _block_rows(cells: list[str], order: list[int]) -> list[int]:
    """The rows of genotypes 0, 1 and 2 of each SNP in ``cells``, which holds each
    SNP's n = ``len(order)`` checked genotype digits in file column order.

    Individual c's column is ``grid[c::n]``. Joined from tid n-1 down, the columns
    hold SNP s's cells at ``[s::k]``, read as binary with tid j on bit j.
    """
    n, k = len(order), len(cells)
    grid = "".join(cells)
    columns = "".join([grid[c::n] for c in reversed(order)])
    hot = [columns.translate(table) for table in _ONE_HOT]
    return [int(bits[s::k], 2) for s in range(k) for bits in hot]


def load_genotype_matrix(matrix_source: Source, labels_source: Source) -> TwoClassDataset:
    """Expand a SNP genotype matrix into a two-class transaction dataset.

    The matrix is CSV with a header row naming the individuals; each data row
    is a SNP id followed by one genotype cell in {0,1,2} per individual, which
    may be padded with spaces. Every SNP s contributes the three items
    ``s_0``, ``s_1``, ``s_2`` and each individual holds exactly one of them.
    The labels stream maps individual ids to 1 (case) or 0 (control). Error
    messages name the file line of the offending row.

    Data rows are checked one at a time, in file order. A quote-free line of n
    unpadded cells, each 0, 1 or 2, gives its cells as the slice ``body[::2]``;
    any other row is split into cells and checked cell by cell (``_split_cells``).
    ``_block_rows`` then puts the checked cells of ``_BLOCK`` rows at a time in
    tid order.
    """
    labels, header_row = _parse_labels(_csv_rows(labels_source, "labels"))
    matrix = _csv_rows(matrix_source, "genotype matrix")
    if not matrix:
        raise DatasetFormatError("genotype matrix: empty input")
    individuals = [cell.strip() for cell in _cells(matrix[0][1])][1:]
    if not individuals:
        raise DatasetFormatError("genotype matrix: no individual columns")
    if len(set(individuals)) != len(individuals):
        raise DatasetFormatError("genotype matrix: duplicate individual id in header")
    if set(individuals) != set(labels):
        if header_row and header_row[0] in individuals and header_row[0] not in labels:
            raise DatasetFormatError(header_row[1])  # a typo on the first row, not a header
        raise DatasetFormatError("labels do not match the matrix columns")
    order = [k for k, ind in enumerate(individuals) if labels[ind] == "1"]
    n_case = len(order)
    order += [k for k, ind in enumerate(individuals) if labels[ind] == "0"]
    n = len(order)
    commas = "," * (n - 1)
    snps: dict[str, None] = {}  # the SNP ids, in file order
    rows: list[int] = []
    for start in range(1, len(matrix), _BLOCK):
        block = []
        for lineno, row in matrix[start : start + _BLOCK]:
            snp, _, body = row.partition(",") if isinstance(row, str) else (row[0], "", "")
            snp = snp.strip()
            if snp in snps:
                raise DatasetFormatError(f"genotype matrix row {lineno}: duplicate SNP id {snp!r}")
            snps[snp] = None
            cells = body[::2]
            # a non-ASCII character, a lone surrogate too, encodes to bytes not deleted
            if (
                len(body) != 2 * n - 1
                or body[1::2] != commas
                or cells.encode(errors="surrogatepass").translate(None, b"012")
            ):
                cells = _split_cells(lineno, row, n)
            block.append(cells)
        rows += _block_rows(block, order)
    if not snps:
        raise DatasetFormatError("genotype matrix: no SNP rows")
    items = tuple(f"{snp}_{v}" for snp in snps for v in range(3))
    external = tuple(individuals[col] for col in order)
    return TwoClassDataset(items, n_case, n - n_case, tuple(rows), external)


def generate_synthetic(
    n_case: int, n_control: int, n_items: int, density: float, seed: int
) -> TwoClassDataset:
    """Random dataset where every (item, transaction) bit is Bernoulli(density).

    Bits come from ``random.Random(seed)``, item by item and, within an item,
    transaction by transaction.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be within [0, 1], got {density}")
    if min(n_case, n_control, n_items) < 0:
        raise ValueError("counts must be non-negative")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    n = n_case + n_control
    rng = random.Random(seed)
    rows = []
    for _ in range(n_items):
        row = 0
        for j in range(n):
            if rng.random() < density:
                row |= 1 << j
        rows.append(row)
    items = tuple(f"i{k}" for k in range(n_items))
    external = tuple(str(j + 1) for j in range(n))
    return TwoClassDataset(items, n_case, n_control, tuple(rows), external)
