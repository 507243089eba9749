"""Two-class transaction datasets stored as per-item bit rows.

Transactions get internal ids 0..n-1 with all case (label 1) transactions
first, followed by the controls (label 0). Each item owns one integer whose
bit j records whether internal transaction j contains the item, so set
intersections and support counts reduce to bitwise ops on Python ints.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import itertools
import os
import random
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

Source = Union[str, os.PathLike, IO[str], IO[bytes]]


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
    return str(source) if isinstance(source, (str, os.PathLike)) else getattr(source, "name", "input")


#: The most bytes or characters read from an input at a time.
_CHUNK = 65_536


def _lines(source: Source) -> Iterator[tuple[int, str]]:
    """``(file line, line)`` pairs of the input split at LF, counted from 1; the last
    line is the text after the last LF, empty when the input ends with one.

    The input is read as UTF-8 less one leading byte order mark, with CRLF and CR read
    as LF. A path is read as bytes, as a byte stream is; a stream is read to its end
    with ``read1(_CHUNK)``, or ``read(_CHUNK)`` if it has none, and left open. No other
    function opens a file."""
    path = isinstance(source, (str, os.PathLike))
    with open(source, "rb") if path else contextlib.nullcontext(source) as fh:
        read = getattr(fh, "read1", fh.read)  # one raw read a piece: one ^D ends a terminal
        utf8 = codecs.getincrementaldecoder("utf-8")()
        newlines = io.IncrementalNewlineDecoder(None, translate=True)
        fed, lead, lineno = 0, "", 0  # lead: the first character of the text, once read
        parts: list[str] = []  # the pieces of a line that spans pieces, joined once
        while True:
            data = read(_CHUNK)
            fed += len(data)
            try:
                text = data if isinstance(data, str) else utf8.decode(data, not data)
            except UnicodeDecodeError as exc:
                # a whole-input decode's position, after the BOM; until there is text,
                # exc.object starts where the input starts
                shift = 3 * ((lead.encode() or exc.object)[:3] == codecs.BOM_UTF8)
                at, span = fed - len(exc.object) - shift + exc.start, exc.end - exc.start
                where = (f"byte 0x{exc.object[exc.start]:02x} in position {at}" if span == 1
                         else f"bytes in position {at}-{at + span - 1}")
                raise DatasetFormatError(f"{_source_name(source)}: not valid UTF-8 ('utf-8' "
                                         f"codec can't decode {where}: {exc.reason})") from None
            if text and not lead:
                lead, text = text[0], text.removeprefix("\ufeff")
            *lines, rest = newlines.decode(text, not data).split("\n")
            if lines:
                lines[0] = "".join([*parts, lines[0]])
                parts.clear()
                yield from enumerate(lines, lineno + 1)
                lineno += len(lines)
            parts.append(rest)
            if not data:
                break
    yield lineno + 1, "".join(parts)


@contextlib.contextmanager
def _read_to_the_end(rows: Iterator) -> Iterator[Iterator]:
    """``rows`` for a parser whose first error waits for the rest of ``rows`` to be
    read, so that an error in reading them comes first, as if they were read whole."""
    try:
        yield rows
    except DatasetFormatError:
        for _ in rows:
            pass
        raise


#: ``csv``'s default field size limit: a longer field makes ``csv.reader``
#: raise, and a line no longer than this holds no longer field.
_FIELD_LIMIT = 131_072

#: A CSV row: a quote-free line that splits at commas into its cells, or the
#: cells ``csv.reader`` read.
Row = Union[str, list[str]]


def _cells(row: Row) -> list[str]:
    return row.split(",") if isinstance(row, str) else row


def _csv_rows(source: Source, what: str) -> Iterator[tuple[int, Row]]:
    """``(file line, row)`` pairs of ``source`` without blank rows and ``#`` comment rows.

    The line is the one a row ends on, counted from 1 in the decoded text. Each line
    before the first that holds a ``"`` or NUL or is longer than csv's field limit is
    split at its commas, into the cells ``csv.reader`` would give. From that line on,
    rows come from one ``csv.reader`` as lists of cells; a line holding NUL is refused,
    as Python 3.10's ``csv.reader`` refuses it, and a csv error is raised only after
    the rest of the input is decoded.
    """
    lines = _lines(source)
    for lineno, line in lines:
        if '"' in line or "\0" in line or len(line) > _FIELD_LIMIT:
            break
        # a comment row's first cell starts with "#" after spaces, and so
        # does its line, since a comma is no space
        if line and not line.lstrip().startswith("#"):
            yield lineno, line
    else:
        return
    import csv  # only lines that the split above could misread need it

    def rest() -> Iterator[str]:  # this line and the later ones, with the LFs between them
        texts = itertools.chain([line], (text for _, text in lines), [None])
        for text, after in itertools.pairwise(texts):
            if "\0" in text:  # csv.reader on 3.10 reads up to the NUL, then refuses it
                yield text[: text.index("\0")]
                raise csv.Error("line contains NUL")
            if after is not None:
                yield text + "\n"
            elif text:
                yield text

    reader = csv.reader(rest())
    with _read_to_the_end(lines):
        try:
            for row in reader:
                if row and not row[0].strip().startswith("#"):
                    yield lineno - 1 + reader.line_num, row
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
    transaction with no items. A line holding NUL is refused. Item ids follow
    first appearance order; external ids are 1-based positions in the sequence
    of data lines.
    """
    item_ids: dict[str, int] = {}
    case: list[tuple[str, list[int]]] = []
    control: list[tuple[str, list[int]]] = []
    seq = 0
    with _read_to_the_end(_lines(source)) as lines:
        for lineno, raw in lines:
            if "\0" in raw:
                raise DatasetFormatError(f"line {lineno}: line contains NUL")
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
) -> TwoClassDataset:
    """Build a dataset from in-memory item-name transactions, cases first; external
    ids are 1-based positions."""
    transactions = list(case) + list(control)
    item_ids: dict[str, int] = {}
    tx = [(str(k), _intern(names, item_ids)) for k, names in enumerate(transactions, 1)]
    if not tx:
        raise DatasetFormatError("empty dataset: no transactions found")
    return _build(list(item_ids), tx, len(case))


def dump_transactions(dataset: TwoClassDataset) -> str:
    """The dataset in the transaction text format, cases first, one LF-ended line each.

    Raises DatasetFormatError when an item name is empty or holds whitespace, as
    such a name would not read back as one item. The caller writes the text.
    """
    bad = next((name for name in dataset.items if name.split() != [name]), None)
    if bad is not None:
        raise DatasetFormatError(f"item name {bad!r} is empty or holds whitespace")
    names: list[list[str]] = [[] for _ in range(dataset.n)]
    for name, row in zip(dataset.items, dataset.rows):
        for j in bit_positions(row):
            names[j].append(name)
    return "".join(
        " ".join(["1" if j < dataset.n_case else "0", *held]) + "\n" for j, held in enumerate(names)
    )


def _parse_labels(rows: Iterable[tuple[int, Row]]) -> tuple[dict[str, str], tuple[str, str] | None]:
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

#: ``str.translate`` tables that map the digit 1, then 2, to "1" and the other two to "0".
_ONE_HOT = (str.maketrans("012", "010"), str.maketrans("012", "001"))

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
    Each cell is 0, 1 or 2, so the row of 0 is what the rows of 1 and 2 leave.
    """
    n, k = len(order), len(cells)
    grid = "".join(cells)
    columns = "".join([grid[c::n] for c in reversed(order)])
    one, two = (columns.translate(table) for table in _ONE_HOT)
    pairs = [(int(one[s::k], 2), int(two[s::k], 2)) for s in range(k)]
    full = (1 << n) - 1
    return [row for r1, r2 in pairs for row in (full ^ r1 ^ r2, r1, r2)]


def load_genotype_matrix(
    matrix_source: Source, labels_source: Source, keep: Optional[Callable[..., bool]] = None
) -> TwoClassDataset:
    """Expand a SNP genotype matrix into a two-class transaction dataset.

    The matrix is CSV with a header row naming the individuals; each data row
    is a SNP id followed by one genotype cell in {0,1,2} per individual, which
    may be padded with spaces. Every SNP s contributes the three items
    ``s_0``, ``s_1``, ``s_2`` and each individual holds exactly one of them.
    The labels stream maps individual ids to 1 (case) or 0 (control). Error
    messages name the file line of the offending row.

    The labels are read first, then the matrix's header row, then its data rows,
    ``_BLOCK`` at a time, so memory follows the dataset and not the file. The
    rows are checked one at a time, in file order. A quote-free line of n
    unpadded cells, each 0, 1 or 2, gives its cells as the slice ``body[::2]``;
    any other row is split into cells and checked cell by cell (``_split_cells``).
    ``_block_rows`` then puts the checked cells of a block in tid order. The first
    error in a file is raised once the rest of that file is read, so that a decoding
    error comes first and a csv error next, as if each file were read whole.

    Given ``keep``, only the items that ``keep(snp, v, (a, b, c, d))`` accepts are
    kept, offered in file order as each block is read: a case and c control tids
    hold the item, b and d do not. Memory then follows the kept items and one block.
    """
    with _read_to_the_end(_csv_rows(labels_source, "labels")) as label_rows:
        labels, header_row = _parse_labels(label_rows)
    with _read_to_the_end(_csv_rows(matrix_source, "genotype matrix")) as matrix:
        _, head = next(matrix, (0, None))
        if head is None:
            raise DatasetFormatError("genotype matrix: empty input")
        individuals = [cell.strip() for cell in _cells(head)][1:]
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
        n, case_mask = len(order), (1 << n_case) - 1
        commas = "," * (n - 1)
        snps: dict[str, None] = {}  # the SNP ids, in file order
        items: list[str] = []
        rows: list[int] = []
        while block := list(itertools.islice(matrix, _BLOCK)):
            ids = []  # the block's SNP ids
            for k, (lineno, row) in enumerate(block):
                snp, _, body = row.partition(",") if isinstance(row, str) else (row[0], "", "")
                snp = snp.strip()
                if snp in snps:
                    raise DatasetFormatError(
                        f"genotype matrix row {lineno}: duplicate SNP id {snp!r}"
                    )
                snps[snp] = None
                ids.append(snp)
                cells = body[::2]
                # a non-ASCII character, a lone surrogate too, encodes to bytes not deleted
                if (
                    len(body) != 2 * n - 1
                    or body[1::2] != commas
                    or cells.encode(errors="surrogatepass").translate(None, b"012")
                ):
                    cells = _split_cells(lineno, row, n)
                block[k] = cells
            for (snp, v), row in zip(itertools.product(ids, range(3)), _block_rows(block, order)):
                if keep is not None:
                    a = (row & case_mask).bit_count()
                    c = row.bit_count() - a
                    if not keep(snp, v, (a, n_case - a, c, n - n_case - c)):
                        continue
                items.append(f"{snp}_{v}")
                rows.append(row)
        if not snps:
            raise DatasetFormatError("genotype matrix: no SNP rows")
    external = tuple(individuals[col] for col in order)
    return TwoClassDataset(tuple(items), n_case, n - n_case, tuple(rows), external)


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
    rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n_items)]
    items = tuple(f"i{k}" for k in range(n_items))
    external = tuple(str(j + 1) for j in range(n))
    return TwoClassDataset(items, n_case, n_control, tuple(rows), external)
