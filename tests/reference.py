"""Independent reference helpers that the tests compare the package against.

The Galois connection between tidsets and itemsets, and the conversions
between tidsets, bit masks and contingency tables, written directly from
their definitions over ``Tidset`` tuples. ``common_items`` and
``supporting_tids`` form an antitone Galois connection; composing them
yields the closure operators used to enumerate closed patterns. The
one-sided closures restrict the closure to a single class: the case-side
closure applies before any control transaction joins a candidate tidset,
and the control-side closure keeps the case part fixed while saturating the
control part.

``reference_mine`` runs the search with every child scanning its parent's
rows, so a duplicate child is only found by its own closure; the engine finds
most of them in the parent instead, and must count, trace and emit the same.
Both cut the case children that cannot reach the least hopeful case count and
drop the control children known to be dead, the reference by testing each
child's rows on their own and its prune verdicts by trying every control count.

``ista_mine`` lists every closed tidset as an intersection of item rows, with
no search at all, so it checks that no pattern is missing on inputs too large
for the oracle. ``unpruned_mine`` filters the output of a search that no
threshold prunes, so it checks that pruning loses no pattern.

``whole_lines`` and ``whole_csv_rows`` read an input by definition: the whole
input is decoded first, and then split at LF or handed to ``csv.reader`` at
once, so every decoding error comes before every csv error, and both before
any row is parsed. Patched in for the package's ``_lines`` and ``_csv_rows``,
they give the loaders that the streamed reading, and the package's split of
quote-free lines at commas, must match, datasets and error messages alike.
"""

from __future__ import annotations

import csv
import io
import os
from typing import Iterator, NamedTuple

from sigpat.dataset import (
    DatasetFormatError, Source, TwoClassDataset, _source_name, bit_positions,
)
from sigpat.measures import ContingencyTable, Thresholds, check_significance, score_set
from sigpat.miner import MineStats, PatternRecord, TraceNode, _Search, mine

#: An itemset is a strictly increasing tuple of internal item ids.
ItemSet = tuple[int, ...]


class Tidset(NamedTuple):
    """Internal tids split into the case part ``pos`` (all < n_case) and the
    control part ``neg`` (all >= n_case), each strictly increasing."""

    pos: tuple[int, ...] = ()
    neg: tuple[int, ...] = ()


def tidset_mask(q: Tidset, dataset: TwoClassDataset) -> int:
    """Bitmask over internal tids for ``q``, validating the class split."""
    n_case, n = dataset.n_case, dataset.n
    mask = 0
    for t in q.pos:
        if not 0 <= t < n_case:
            raise ValueError(f"case tid {t} out of range [0, {n_case})")
        mask |= 1 << t
    for t in q.neg:
        if not n_case <= t < n:
            raise ValueError(f"control tid {t} out of range [{n_case}, {n})")
        mask |= 1 << t
    return mask


def tidset_from_masks(pos_mask: int, neg_mask: int) -> Tidset:
    return Tidset(bit_positions(pos_mask), bit_positions(neg_mask))


def contingency_from_tidset(q: Tidset, dataset: TwoClassDataset) -> ContingencyTable:
    """Table whose present-counts are the sizes of the two tidset parts."""
    a, c = len(q.pos), len(q.neg)
    if a > dataset.n_case or c > dataset.n_control:
        raise ValueError("tidset does not fit the dataset class sizes")
    return ContingencyTable(a, dataset.n_case - a, c, dataset.n_control - c)


def common_items(q: Tidset, dataset: TwoClassDataset) -> ItemSet:
    """Item ids present in every transaction of ``q`` (all items for empty q)."""
    mask = tidset_mask(q, dataset)
    return tuple(i for i, row in enumerate(dataset.rows) if row & mask == mask)


def _intersection_mask(p: ItemSet, dataset: TwoClassDataset) -> int:
    inter = (1 << dataset.n) - 1
    for item in p:
        inter &= dataset.rows[item]
    return inter


def supporting_tids(p: ItemSet, dataset: TwoClassDataset) -> Tidset:
    """All tids whose transaction contains every item of ``p`` (all tids for empty p)."""
    inter = _intersection_mask(p, dataset)
    return tidset_from_masks(inter & dataset.case_mask, inter & dataset.control_mask)


def supporting_case_tids(p: ItemSet, dataset: TwoClassDataset) -> tuple[int, ...]:
    return bit_positions(_intersection_mask(p, dataset) & dataset.case_mask)


def supporting_control_tids(p: ItemSet, dataset: TwoClassDataset) -> tuple[int, ...]:
    return bit_positions(_intersection_mask(p, dataset) & dataset.control_mask)


def closure_full(q: Tidset, dataset: TwoClassDataset) -> Tidset:
    """Closure over both classes: supporting_tids(common_items(q))."""
    return supporting_tids(common_items(q, dataset), dataset)


def closure_pos(q: Tidset, dataset: TwoClassDataset) -> Tidset:
    """Case-side closure of a tidset that has not touched the control class yet."""
    if q.neg:
        raise ValueError("closure_pos requires an empty control part")
    return Tidset(supporting_case_tids(common_items(q, dataset), dataset), ())


def closure_neg(q: Tidset, dataset: TwoClassDataset) -> Tidset:
    """Control-side closure: the itemset is taken over the full mixed tidset,
    then only the control part is saturated; the case part stays as given."""
    if not q.neg:
        raise ValueError("closure_neg requires a non-empty control part")
    return Tidset(q.pos, supporting_control_tids(common_items(q, dataset), dataset))


class ReferenceSearch(_Search):
    """The search with one row scan per child: duplicates end at their closure.

    Children are visited from the highest tid down, as in the engine, and
    the engine's prune verdicts, case-count cut and masks are rebuilt here
    from their definitions: a key (a, c) is hopeless when no table with a
    case tids and c or more control tids passes; a candidate joins ``dom``
    when every row holding it holds a sibling scanned before it, and a
    control tid joins ``dead`` when every row holding it holds the tid of a
    scanned case child. Only the engine's scans add to the masks, so a
    dominated child, scanned here to its closure, adds nothing; a dead
    control child is checked to be not case-closed and is not scanned.
    Each child is scanned, or counted, where the engine traces it: cut,
    pruned and already dominated children before the others, and a child
    that a sibling's rows show dominated right after that sibling's subtree.
    The search recurses, one call per child, where the engine loops, so it
    keeps its own counters on the instance and ``run`` returns them as the
    engine's ``run`` does. Its ``row_scans`` counts every child it scans, so
    it exceeds the engine's whenever the engine skips a scan.
    """

    def run(self, rows) -> tuple[int, int, int, int, int]:
        self.nodes_visited = self.nodes_pruned = self.nodes_duplicate = self.nodes_dead = 0
        self.row_scans = 0
        union = 0
        for _, r in rows:
            union |= r
        self._case_children(0, 0, union & self.case_mask, rows, 0, 0)
        return (self.nodes_visited, self.nodes_pruned, self.nodes_duplicate, self.nodes_dead,
                self.row_scans)

    def _hopeless(self, a: int, c: int) -> bool:
        n1, n2 = self.n_case, self.n_control
        return not any(
            check_significance(score_set(ContingencyTable(a, n1 - a, x, n2 - x)), self.thresholds)
            for x in range(c, n2 + 1)
        )

    def _least_hopeful(self, m: int) -> int:
        hopeful = (a for a in range(m, self.n_case + 1) if not self._hopeless(a, 1))
        return next(hopeful, self.n_case + 1)

    def expand_case(self, tpos: int, e: int, rows, dom: int, dead: int) -> None:
        ebit = 1 << e
        sub = []
        inter = -1
        union = 0
        for ir in rows:
            r = ir[1]
            if r & ebit:
                sub.append(ir)
                inter &= r
                union |= r
        self.row_scans += 1
        tpos |= ebit
        self.nodes_visited += 1
        if self.trace is not None:
            self._log(tpos, ebit, sub)
        ext = inter & self.case_mask & ~tpos
        if ext:
            if ext >= ebit:
                self.nodes_duplicate += 1
                return
            tpos |= ext
            self.nodes_visited += 1
            if self.trace is not None:
                self._log(tpos, ebit, sub)
        a = tpos.bit_count()
        free = union & self.case_mask & ~tpos & (ebit - 1)
        dead = self._case_children(tpos, a, free, sub, dom, dead)
        self._control_children(tpos, a, 0, union & self.control_mask, sub, 0, dead)

    def _case_children(self, tpos: int, a: int, free: int, rows, dom: int, dead: int) -> int:
        # child t is cut unless a row holding t holds k - 1 tids of free below t
        k = self._least_hopeful(a + 1) - a
        kept = 0
        for t in bit_positions(free):
            held = [r for _, r in rows if r >> t & 1]
            if any((r & free & ((1 << t) - 1)).bit_count() >= k - 1 for r in held):
                kept |= 1 << t
        for t in reversed(bit_positions(free & ~kept)):
            self.nodes_visited += 1
            self.nodes_pruned += 1
            if self.trace is not None:
                self._log(tpos, 1 << t, rows)
        for t in reversed(bit_positions(kept & dom)):
            self.expand_case(tpos, t, rows, dom, dead)
        todo = kept & ~dom
        while todo:
            t = todo.bit_length() - 1
            todo ^= 1 << t
            self.expand_case(tpos, t, rows, dom, dead)
            dead |= only_with(rows, t, self.control_mask)
            dup = only_with(rows, t, todo)
            for s in reversed(bit_positions(dup)):
                self.expand_case(tpos, s, rows, dom, dead)
            dom |= dup
            todo ^= dup
        return dead

    def expand_control(
        self, tpos: int, a: int, tneg: int, e: int, rows, dom: int, dead: int
    ) -> None:
        ebit = 1 << e
        sub = []
        inter = -1
        union = 0
        for ir in rows:
            r = ir[1]
            if r & ebit:
                sub.append(ir)
                inter &= r
                union |= r
        self.row_scans += 1
        tneg |= ebit
        self.nodes_visited += 1
        if self.trace is not None:
            self._log(tpos | tneg, ebit, sub)
        ext = inter & self.control_mask & ~tneg
        if ext:
            if ext >= ebit:
                self.nodes_duplicate += 1
                return
            tneg |= ext
            self.nodes_visited += 1
            if self.trace is not None:
                self._log(tpos | tneg, ebit, sub)
        if inter & self.case_mask != tpos:
            return  # every descendant keeps the extra case tid
        self._emit(tpos, tneg, a, tneg.bit_count(), sub)
        free = union & self.control_mask & ~tneg & (ebit - 1)
        self._control_children(tpos, a, tneg, free, sub, dom, dead)

    def _control_children(self, tpos: int, a: int, tneg: int, free: int, rows, dom, dead):
        if free and self._hopeless(a, tneg.bit_count() + 1):
            for t in reversed(bit_positions(free)):
                self.nodes_visited += 1
                self.nodes_pruned += 1
                if self.trace is not None:
                    self._log(tpos | tneg, 1 << t, rows)
            return
        for t in reversed(bit_positions(free & dom)):
            self.expand_control(tpos, a, tneg, t, rows, dom, dead)
        for t in bit_positions(free & dead & ~dom):
            inter = -1
            for _, r in rows:
                if r >> t & 1:
                    inter &= r
            assert inter & self.case_mask != tpos, "a dead child is case-closed"
            self.nodes_dead += 1
        todo = free & ~dom & ~dead
        while todo:
            t = todo.bit_length() - 1
            todo ^= 1 << t
            self.expand_control(tpos, a, tneg, t, rows, dom, dead)
            dup = only_with(rows, t, todo)
            for s in reversed(bit_positions(dup)):
                self.expand_control(tpos, a, tneg, s, rows, dom, dead)
            dom |= dup
            todo ^= dup


def closed_tidsets(dataset: TwoClassDataset, min_case: int) -> set[int]:
    """Every closed tidset with at least ``min_case`` case tids, as a bit mask.

    The closed tidsets are the intersections of nonempty sets of item rows.
    Each row is added, and intersected with every set found so far (IsTa,
    Borgelt et al., EDBT 2011, with rows and tids swapped); a set below
    ``min_case`` case tids is dropped, since intersections only shrink.
    """
    found: set[int] = set()
    for row in dataset.rows:
        new = {row} | {row & t for t in found}
        found |= {t for t in new if (t & dataset.case_mask).bit_count() >= min_case}
    return found


def ista_mine(dataset: TwoClassDataset, thresholds: Thresholds) -> list[PatternRecord]:
    """``mine``'s records, from ``closed_tidsets`` and a naive least case count."""
    n1, n2 = dataset.n_case, dataset.n_control

    def table(a: int, c: int) -> ContingencyTable:
        return ContingencyTable(a, n1 - a, c, n2 - c)

    hopeful = (
        a for a in range(1, n1 + 1)
        if any(check_significance(score_set(table(a, c)), thresholds) for c in range(1, n2 + 1))
    )
    records = []
    for t in closed_tidsets(dataset, next(hopeful, n1 + 1)):
        pos, neg = t & dataset.case_mask, t & dataset.control_mask
        key = table(pos.bit_count(), neg.bit_count())
        scores = score_set(key)
        if pos and neg and check_significance(scores, thresholds):
            items = tuple(i for i, row in enumerate(dataset.rows) if row & t == t)
            records.append(PatternRecord(items, pos, neg, key, scores))
    return sorted(records, key=lambda r: r.itemset)


def only_with(rows, e: int, tids: int) -> int:
    """The tids of ``tids`` whose every row in ``rows`` holds tid e."""
    ebit = 1 << e
    return sum(
        1 << t for t in bit_positions(tids) if all(r & ebit for _, r in rows if r >> t & 1)
    )


def unpruned_mine(
    dataset: TwoClassDataset, thresholds: Thresholds
) -> tuple[list[PatternRecord], MineStats]:
    """The records of ``mine`` without thresholds that pass ``thresholds``, and
    the statistics of that run, which prunes and cuts nothing."""
    records, stats = mine(dataset)
    return [r for r in records if check_significance(r.scores, thresholds)], stats


def reference_mine(
    dataset: TwoClassDataset,
    thresholds: Thresholds = Thresholds(),
    trace: list[TraceNode] | None = None,
) -> tuple[list[PatternRecord], MineStats]:
    """``mine`` over ``ReferenceSearch``: the same roots, order and statistics."""
    return ReferenceSearch(dataset, thresholds, trace).search()


def whole_text(source: Source) -> str:
    """All of ``source`` as text: UTF-8 with an optional byte order mark, CRLF
    and CR read as LF, decoded at once."""
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, "rb") as fh:
                data = fh.read()
        else:
            data = source.read()
        text = data.decode("utf-8-sig") if isinstance(data, bytes) else data.removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{_source_name(source)}: not valid UTF-8 ({exc})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def whole_lines(source: Source) -> Iterator[tuple[int, str]]:
    """``(file line, line)`` of the whole text split at LF, from 1."""
    return iter(list(enumerate(whole_text(source).split("\n"), start=1)))


def _refuse_nul(lines):
    """``lines``, refused at a NUL as ``csv.reader`` refuses it on Python 3.10:
    what comes before the NUL is still read; later versions read NUL."""
    for line in lines:
        if "\0" in line:
            yield line[: line.index("\0")]
            raise csv.Error("line contains NUL")
        yield line


def whole_csv_rows(source: Source, what: str) -> Iterator[tuple[int, list[str]]]:
    """``csv.reader``'s non-blank, non-comment rows of the whole text."""
    reader = csv.reader(_refuse_nul(io.StringIO(whole_text(source))))
    try:
        return iter([
            (reader.line_num, row)
            for row in reader
            if row and not row[0].strip().startswith("#")
        ])
    except csv.Error as exc:
        raise DatasetFormatError(f"{what} {_source_name(source)}: {exc}") from None
