"""Command line front end.

Four subcommands cover the workflow: ``gen`` writes a synthetic dataset,
``filter-genotypes`` turns a genotype matrix into a transaction file while
dropping uninformative items, ``mine`` runs the search, and ``oracle`` runs
the brute-force reference on instances small enough for it. Results stream
as CSV (six significant digits) or JSON (full precision) with one row per
pattern and a fixed column order, so runs are comparable byte for byte.

Exit codes: 0 success, 1 bad usage or an instance the oracle refuses,
2 unreadable or malformed input data or a failed write, 3 an internal
invariant violation, 130 an interrupt (^C), 141 an output pipe closed by its
reader, as when stdout goes to ``head``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
import time
from operator import itemgetter
from typing import IO, Iterable, Iterator, Optional, Sequence

from .dataset import (
    DatasetFormatError,
    TwoClassDataset,
    bit_positions,
    dump_transactions,
    generate_synthetic,
    load_genotype_matrix,
    load_transactions,
)
from .measures import ContingencyTable, Thresholds, association_pvalue
from .miner import InternalInvariantError, PatternRecord, mine

COLUMNS = (
    "items", "n_case_tids", "n_control_tids", "sup_case", "sup_control", "sd", "gr", "ors",
    "lci_gr", "uci_gr", "lci_ors", "uci_ors", "ci_corrected", "case_tids", "control_tids",
)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, for exit code 1; reads ``-1e-3`` as a value."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


def _fmt(value: float) -> str:
    return "%.6g" % value  # "%g" writes infinities as inf and -inf


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer(out, lineterminator="\\n")`` writes it on Python 3.11:
    quoted, with inner ``"`` doubled, when it holds ``,``, ``"`` or ``\\n``."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_list(texts: Iterable[str]) -> str:
    return _csv_field(";".join(texts))


def _json_list(encoded: Iterable[str]) -> str:
    """Encoded JSON values as a list at a record's depth of ``json.dump(indent=2)``."""
    text = ",\n      ".join(encoded)
    return "[\n      " + text + "\n    ]" if text else "[]"


def _check_outputs(args: argparse.Namespace, *flags: str) -> None:
    """Refuse two of the destination ``flags`` that name one file, or one that names
    a regular file read as ``--input`` or ``--labels``, as a usage error before
    anything is read or opened: an existing file (stdout for ``-``) by its device and
    inode, under any name, and a new one by its path; ``os.devnull`` may repeat. An
    input that is not a regular file, such as a terminal or a pipe, may be one too."""
    devnull = os.stat(os.devnull)
    seen: dict[object, str] = {}
    for flag in ("input", "labels"):
        path = getattr(args, flag)
        if path and os.path.isfile(path):
            st = os.stat(path)
            seen[(st.st_dev, st.st_ino)] = flag
    for flag in flags:
        path = getattr(args, flag)
        if path is None:
            continue
        try:
            st = os.fstat(1) if path == "-" else os.stat(path)
            key: object = (st.st_dev, st.st_ino)
        except OSError:  # not there yet, or no stdout
            key = path if path == "-" else os.path.realpath(path)
        if key in seen and key != (devnull.st_dev, devnull.st_ino):
            raise ValueError(f"--{seen[key]} and --{flag} name the same file: {path}")
        seen[key] = flag


@contextlib.contextmanager
def _open_out(path: Optional[str]) -> Iterator[Optional[IO[str]]]:
    """Stdout for ``-``, None for no path, else the file, created or emptied; no
    other function opens a file to write."""
    if path == "-":
        if sys.stdout is None:  # Python's stdout when fd 1 was closed at start
            raise OSError("cannot write to stdout: it is closed")
        yield sys.stdout
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    elif path is None:
        yield None
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _rows(
    records: Sequence[PatternRecord], dataset: TwoClassDataset, as_json: bool
) -> Iterator[str]:
    """Each record's row: its items, twelve middle columns, case tids and
    control tids, as encoded CSV fields or JSON values, in a CSV line or the
    text of a JSON object.

    The twelve are encoded once per table, as a record's scores are those of
    its table, the tid lists once per mask and, for JSON, each name once."""
    if as_json:
        import json  # only JSON output and --stats load it

        names = list(map(json.dumps, dataset.items))
        ids = list(map(json.dumps, dataset.external_ids))
        join_names = join_ids = _json_list
        template = '  {\n    "items": %s,\n%s,\n    "case_tids": %s,\n    "control_tids": %s\n  }'
    else:
        names, ids = dataset.items, dataset.external_ids
        # A joined list needs quoting only when some of its texts does.
        join_names, join_ids = (
            _csv_list if any(_csv_field(x) != x for x in texts) else ";".join
            for texts in (names, ids))
        template = "%s,%s,%s,%s\n"
    keyed: dict[ContingencyTable, str] = {}
    masked: dict[int, str] = {}
    for itemset, pos_mask, neg_mask, t, s in records:
        cols = keyed.get(t)
        if cols is None:
            values = (t.a / t.n_case, t.c / t.n_control, s.sd, s.gr, s.ors,
                      s.lci_gr, s.uci_gr, s.lci_ors, s.uci_ors)
            if as_json:
                values = (t.a, t.c, *(_fmt(v) if math.isinf(v) else v for v in values),
                          s.corrected_ci)
                cols = ",\n".join(map('    "%s": %s'.__mod__,
                                      zip(COLUMNS[1:13], map(json.dumps, values))))
            else:
                flag = "true" if s.corrected_ci else "false"
                cols = ",".join((str(t.a), str(t.c), *map(_fmt, values), flag))
            keyed[t] = cols
        pos = masked.get(pos_mask)
        if pos is None:
            pos = masked[pos_mask] = join_ids(map(ids.__getitem__, bit_positions(pos_mask)))
        neg = masked.get(neg_mask)
        if neg is None:
            neg = masked[neg_mask] = join_ids(map(ids.__getitem__, bit_positions(neg_mask)))
        # itemgetter of one index gives a name, not a tuple of one
        items = itemgetter(*itemset)(names) if len(itemset) > 1 else [names[i] for i in itemset]
        yield template % (join_names(items), cols, pos, neg)


def write_csv(
    records: Sequence[PatternRecord], dataset: TwoClassDataset, out: IO[str]
) -> None:
    """The records as ``csv.writer(out, lineterminator="\\n")`` writes them, a row at a time."""
    out.write(",".join(COLUMNS) + "\n")
    out.writelines(_rows(records, dataset, as_json=False))


def write_json(
    records: Sequence[PatternRecord], dataset: TwoClassDataset, out: IO[str]
) -> None:
    """The records as ``json.dump(rows, out, indent=2)`` plus a newline writes them,
    a record at a time."""
    rows = _rows(records, dataset, as_json=True)
    first = next(rows, None)
    if first is None:
        out.write("[]\n")
        return
    out.write("[\n" + first)
    out.writelines(map(",\n".__add__, rows))
    out.write("\n]\n")


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="dataset file to read")
    sub.add_argument(
        "--format",
        choices=("tct", "genotype"),
        default="tct",
        help="input layout: labelled transactions or a genotype matrix",
    )
    sub.add_argument(
        "--labels",
        help="individual,label CSV; required with --format genotype",
    )


def _add_threshold_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--min-sd", type=float, help="least support difference")
    sub.add_argument("--min-gr", type=float, help="least growth rate")
    sub.add_argument("--min-ors", type=float, help="least odds ratio")
    sub.add_argument("--min-lci-gr", type=float,
                     help="growth rate 95%% confidence lower bound must exceed this")
    sub.add_argument("--min-lci-ors", type=float,
                     help="odds ratio 95%% confidence lower bound must exceed this")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", default="-", help="destination file, - for stdout")
    sub.add_argument(
        "--output-format", choices=("csv", "json"), default="csv", help="row encoding"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="sigpat", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    mine_p = commands.add_parser(
        "mine", help="enumerate significant discriminative closed patterns"
    )
    _add_input_flags(mine_p)
    _add_threshold_flags(mine_p)
    _add_output_flags(mine_p)
    mine_p.add_argument(
        "--stats",
        metavar="PATH",
        help="write node and timing counters as JSON to this file",
    )
    mine_p.set_defaults(func=_cmd_mine)

    oracle_p = commands.add_parser(
        "oracle", help="brute-force reference output for a small dataset"
    )
    _add_input_flags(oracle_p)
    _add_threshold_flags(oracle_p)
    _add_output_flags(oracle_p)
    oracle_p.set_defaults(func=_cmd_oracle)

    gen_p = commands.add_parser("gen", help="write a random transaction dataset")
    gen_p.add_argument("--cases", type=int, required=True, help="case transactions")
    gen_p.add_argument("--controls", type=int, required=True, help="control transactions")
    gen_p.add_argument("--items", type=int, required=True, help="distinct items")
    gen_p.add_argument(
        "--density", type=float, required=True, help="per-cell item probability in [0,1]"
    )
    gen_p.add_argument("--seed", type=int, required=True, help="generator seed")
    gen_p.add_argument("--output", default="-", help="destination file, - for stdout")
    gen_p.set_defaults(func=_cmd_gen)

    filt_p = commands.add_parser(
        "filter-genotypes",
        help="convert a genotype matrix to transactions, dropping weak items",
    )
    filt_p.add_argument("--input", required=True, help="genotype matrix file")
    filt_p.add_argument("--labels", required=True, help="individual,label CSV")
    filt_p.add_argument("--max-pvalue", type=float,
                        help="drop items whose association p-value exceeds this")
    filt_p.add_argument("--max-control-support", type=float,
                        help="drop items present in more than this fraction of controls")
    filt_p.add_argument("--output", default="-", help="destination file, - for stdout")
    filt_p.add_argument("--report", help="also write a per-item decision CSV here")
    filt_p.set_defaults(func=_cmd_filter)

    return parser


def _build_thresholds(args: argparse.Namespace) -> Thresholds:
    return Thresholds._make(getattr(args, name) for name in Thresholds._fields)


def _load_dataset(args: argparse.Namespace) -> TwoClassDataset:
    if args.format == "genotype":
        if not args.labels:
            raise ValueError("--labels is required with --format genotype")
        dataset = load_genotype_matrix(args.input, args.labels)
    else:
        dataset = load_transactions(args.input)
    if dataset.n_case < 1 or dataset.n_control < 1:
        raise DatasetFormatError(
            f"dataset has {dataset.n_case} cases and {dataset.n_control} controls; "
            "both classes must be non-empty"
        )
    return dataset


def _cmd_mine(args: argparse.Namespace) -> int:
    thresholds = _build_thresholds(args)  # so that a refused flag leaves every file as it was
    _check_outputs(args, "output", "stats")
    start = time.perf_counter()
    dataset = _load_dataset(args)
    load_seconds = time.perf_counter() - start
    with _open_out(args.output) as out, _open_out(args.stats) as stats_out:  # before the search
        records, stats = mine(dataset, thresholds)
        start = time.perf_counter()
        (write_json if args.output_format == "json" else write_csv)(records, dataset, out)
        write_seconds = time.perf_counter() - start
        if stats_out is not None:
            import json

            json.dump({"schema": 1, **stats._asdict(), "load_seconds": load_seconds,
                       "write_seconds": write_seconds}, stats_out, indent=2)
            stats_out.write("\n")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import check_size, mine_oracle  # only this command loads the oracle
    thresholds = _build_thresholds(args)
    _check_outputs(args, "output")
    dataset = _load_dataset(args)
    check_size(dataset)  # so that an instance the oracle refuses leaves no --output file
    with _open_out(args.output) as out:
        records = mine_oracle(dataset, thresholds)
        (write_json if args.output_format == "json" else write_csv)(records, dataset, out)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    dataset = generate_synthetic(args.cases, args.controls, args.items, args.density, args.seed)
    with _open_out(args.output) as out:
        out.write(dump_transactions(dataset))
    return 0


def _validate_fraction(value: Optional[float], flag: str) -> None:
    if value is not None and not 0.0 <= value <= 1.0:
        raise ValueError(f"{flag} must lie in [0, 1], got {value}")


def _cmd_filter(args: argparse.Namespace) -> int:
    _validate_fraction(args.max_pvalue, "--max-pvalue")
    _validate_fraction(args.max_control_support, "--max-control-support")
    _check_outputs(args, "output", "report")
    # An item's p-value, control support and verdict follow from its 2x2 counts
    # alone, so each table is decided once; its report columns are shared.
    decided: dict[tuple[int, int, int, int], tuple[bool, str]] = {}
    snps: list[str] = []
    report_cols: list[str] = []

    def keep(snp: str, value: int, table: tuple[int, int, int, int]) -> bool:
        if not value:
            snps.append(snp)
        verdict = decided.get(table)
        if verdict is None:
            c, d = table[2:]
            if not c + d:  # no controls: the run is refused once the whole matrix is read
                return False
            pvalue = association_pvalue(ContingencyTable(*table))
            control_support = c / (c + d)
            kept = (args.max_pvalue is None or pvalue <= args.max_pvalue) and (
                args.max_control_support is None or control_support <= args.max_control_support)
            cols = f",{_fmt(pvalue)},{_fmt(control_support)},{'true' if kept else 'false'}\n"
            verdict = decided[table] = (kept, cols)
        report_cols.append(verdict[1])
        return verdict[0]

    filtered = load_genotype_matrix(args.input, args.labels, keep)
    if filtered.n_control < 1:
        raise DatasetFormatError("no control individuals; control support is undefined")
    text = dump_transactions(filtered)  # opened after, so a refused dataset leaves no file
    with _open_out(args.output) as out, _open_out(args.report) as report:
        out.write(text)
        if report is not None:
            report.write("item,p_value,control_support,kept\n")
            joined = "".join(snps)  # holds , " or \n when some item name does
            field = str if _csv_field(joined) == joined else _csv_field
            names = (field(f"{snp}_{v}") for snp in snps for v in range(3))
            report.writelines(map(str.__add__, names, report_cols))
            report.write(f"# total_kept {len(filtered.items)}\n")
            report.write(f"# total_dropped {len(report_cols) - len(filtered.items)}\n")
    return 0


def _fail(message: str, code: int) -> int:
    """Print ``message`` on stderr and return ``code``; drop the message when
    stderr is closed or cannot take it."""
    if sys.stderr is not None:  # Python's stderr when fd 2 was closed at start
        try:
            print(message, file=sys.stderr)
        except (OSError, ValueError):
            with contextlib.suppress(OSError):  # drop what it holds, so exit cannot retry it
                sys.stderr.close()
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:  # no message: the reader is gone, as in ``sigpat mine | head``
        if sys.stdout is not None:
            with contextlib.suppress(OSError):  # drop what stdout holds, so exit cannot retry it
                sys.stdout.close()
        return 141  # what a shell reports for a SIGPIPE death
    except KeyboardInterrupt:  # no message or traceback for ^C
        return 130  # what a shell reports for a SIGINT death
    # a DatasetFormatError is a ValueError; so is a UnicodeEncodeError, raised when
    # stdout's encoding cannot hold an output character
    except (DatasetFormatError, OSError, UnicodeEncodeError) as exc:
        return _fail(f"error: {exc}", 2)
    except InternalInvariantError as exc:
        return _fail(f"internal error: {exc}", 3)
    except ValueError as exc:
        return _fail(f"error: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
