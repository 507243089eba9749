"""Command line front end.

Four subcommands cover the workflow: ``gen`` writes a synthetic dataset,
``filter-genotypes`` turns a genotype matrix into a transaction file while
dropping uninformative items, ``mine`` runs the search, and ``oracle`` runs
the brute-force reference on instances small enough for it. Results stream
as CSV (six significant digits) or JSON (full precision) with one row per
pattern and a fixed column order, so runs are comparable byte for byte.

Exit codes: 0 success, 1 bad usage or an instance the oracle refuses,
2 unreadable or malformed input data, 3 an internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from typing import IO, Iterator, Optional, Sequence

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
from .miner import InternalInvariantError, MinerConfig, PatternRecord, mine

COLUMNS = (
    "items", "n_case_tids", "n_control_tids", "sup_case", "sup_control", "sd", "gr", "ors",
    "lci_gr", "uci_gr", "lci_ors", "uci_ors", "ci_corrected", "case_tids", "control_tids",
)

THRESHOLD_FLAGS = ("min_sd", "min_gr", "min_ors", "min_lci_gr", "min_lci_ors")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return "%.6g" % value


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer(out, lineterminator="\\n")`` writes it on Python 3.11:
    quoted, with inner ``"`` doubled, when it holds ``,``, ``"`` or ``\\n``."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_list(encoded: Iterator[str]) -> str:
    """Encoded JSON values as a list at a record's depth of ``json.dump(indent=2)``."""
    text = ",\n      ".join(encoded)
    return "[\n      " + text + "\n    ]" if text else "[]"


@contextlib.contextmanager
def _open_out(path: str) -> Iterator[IO[str]]:
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _rows(
    records: Sequence[PatternRecord], dataset: TwoClassDataset, as_json: bool
) -> Iterator[tuple[str, str, str, str]]:
    """Each record's items, twelve middle columns, case tids and control tids,
    as encoded CSV fields or JSON values.

    The twelve are encoded once per (table, scores) pair, the tid lists once
    per mask and, for JSON, each name once. Pairs are keyed by the ids of the
    two objects, which costs less than hashing their twelve values; equal but
    distinct pairs, as the oracle makes, are encoded again to the same text."""
    if as_json:
        import json  # only JSON output and --stats load it

        names = list(map(json.dumps, dataset.items))
        ids = list(map(json.dumps, dataset.external_ids))
        join_names = join_ids = _json_list
    else:
        names, ids = dataset.items, dataset.external_ids
        join_ids = lambda texts: _csv_field(";".join(texts))  # noqa: E731
        # Joined names need quoting only when some name does.
        join_names = join_ids if any(_csv_field(n) != n for n in names) else ";".join
    keyed: dict[tuple[int, int], str] = {}
    pinned = []  # the keyed objects, so that no other object takes their ids
    masked: dict[int, str] = {}
    for r in records:
        t, s = r.table, r.scores
        cols = keyed.get((id(t), id(s)))
        if cols is None:
            pinned.append((t, s))
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
            keyed[id(t), id(s)] = cols
        pos = masked.get(r.pos_mask)
        if pos is None:
            pos = masked[r.pos_mask] = join_ids(map(ids.__getitem__, bit_positions(r.pos_mask)))
        neg = masked.get(r.neg_mask)
        if neg is None:
            neg = masked[r.neg_mask] = join_ids(map(ids.__getitem__, bit_positions(r.neg_mask)))
        yield join_names(map(names.__getitem__, r.itemset)), cols, pos, neg


def write_csv(
    records: Sequence[PatternRecord], dataset: TwoClassDataset, out: IO[str]
) -> None:
    """The records as ``csv.writer(out, lineterminator="\\n")`` writes them, a row at a time."""
    out.write(",".join(COLUMNS) + "\n")
    out.writelines(map("%s,%s,%s,%s\n".__mod__, _rows(records, dataset, as_json=False)))


def write_json(
    records: Sequence[PatternRecord], dataset: TwoClassDataset, out: IO[str]
) -> None:
    """The records as ``json.dump(rows, out, indent=2)`` plus a newline writes them,
    a record at a time."""
    template = '  {\n    "items": %s,\n%s,\n    "case_tids": %s,\n    "control_tids": %s\n  }'
    rows = map(template.__mod__, _rows(records, dataset, as_json=True))
    first = next(rows, None)
    if first is None:
        out.write("[]\n")
        return
    out.write("[\n" + first)
    out.writelines(map(",\n".__add__, rows))
    out.write("\n]\n")


def _write_records(
    records: Sequence[PatternRecord], dataset: TwoClassDataset, path: str, fmt: str
) -> None:
    with _open_out(path) as out:
        if fmt == "json":
            write_json(records, dataset, out)
        else:
            write_csv(records, dataset, out)


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
    mine_p.add_argument(
        "--no-prune",
        action="store_true",
        help="disable threshold pruning (output is unchanged, runs slower)",
    )
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
    try:
        return Thresholds(**{name: getattr(args, name) for name in THRESHOLD_FLAGS})
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_dataset(args: argparse.Namespace) -> TwoClassDataset:
    if args.format == "genotype":
        if not args.labels:
            raise _UsageError("--labels is required with --format genotype")
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
    start = time.perf_counter()
    dataset = _load_dataset(args)
    load_seconds = time.perf_counter() - start
    config = MinerConfig(thresholds=_build_thresholds(args), prune=not args.no_prune)
    records, stats = mine(dataset, config)
    start = time.perf_counter()
    _write_records(records, dataset, args.output, args.output_format)
    write_seconds = time.perf_counter() - start
    if args.stats:
        import json

        with _open_out(args.stats) as out:
            json.dump(
                {
                    "schema": 1,
                    "nodes_visited": stats.nodes_visited,
                    "nodes_pruned": stats.nodes_pruned,
                    "nodes_duplicate": stats.nodes_duplicate,
                    "nodes_dead": stats.nodes_dead,
                    "patterns_emitted": stats.patterns_emitted,
                    "min_case_support": stats.min_case_support,
                    "wall_time_seconds": stats.wall_time_seconds,
                    "load_seconds": load_seconds,
                    "write_seconds": write_seconds,
                },
                out,
                indent=2,
            )
            out.write("\n")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import mine_oracle  # only this command loads the oracle
    dataset = _load_dataset(args)
    records = mine_oracle(dataset, MinerConfig(thresholds=_build_thresholds(args)))
    _write_records(records, dataset, args.output, args.output_format)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        dataset = generate_synthetic(
            args.cases, args.controls, args.items, args.density, args.seed
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    with _open_out(args.output) as out:
        dump_transactions(dataset, out)
    return 0


def _validate_fraction(value: Optional[float], flag: str) -> None:
    if value is not None and not 0.0 <= value <= 1.0:
        raise _UsageError(f"{flag} must lie in [0, 1], got {value}")


def _cmd_filter(args: argparse.Namespace) -> int:
    _validate_fraction(args.max_pvalue, "--max-pvalue")
    _validate_fraction(args.max_control_support, "--max-control-support")
    dataset = load_genotype_matrix(args.input, args.labels)
    if dataset.n_control < 1:
        raise DatasetFormatError("no control individuals; control support is undefined")
    case_mask = dataset.case_mask
    control_mask = dataset.control_mask
    # An item's p-value, control support and verdict follow from its case
    # and control counts alone, so each (a, c) is decided once.
    decided: dict[tuple[int, int], tuple[bool, str]] = {}
    kept_ids: list[int] = []
    report_cols: list[str] = []
    for i, row in enumerate(dataset.rows):
        key = ((row & case_mask).bit_count(), (row & control_mask).bit_count())
        verdict = decided.get(key)
        if verdict is None:
            a, c = key
            pvalue = association_pvalue(
                ContingencyTable(a, dataset.n_case - a, c, dataset.n_control - c)
            )
            control_support = c / dataset.n_control
            kept = (args.max_pvalue is None or pvalue <= args.max_pvalue) and (
                args.max_control_support is None
                or control_support <= args.max_control_support
            )
            cols = f",{_fmt(pvalue)},{_fmt(control_support)},{'true' if kept else 'false'}\n"
            verdict = decided[key] = (kept, cols)
        if verdict[0]:
            kept_ids.append(i)
        report_cols.append(verdict[1])
    filtered = TwoClassDataset(
        tuple(dataset.items[i] for i in kept_ids), dataset.n_case, dataset.n_control,
        tuple(dataset.rows[i] for i in kept_ids), dataset.external_ids,
    )
    # A path goes to dump_transactions itself, so that a dataset it refuses
    # leaves no file behind.
    dump_transactions(filtered, sys.stdout if args.output == "-" else args.output)
    if args.report:
        with _open_out(args.report) as out:
            out.write("item,p_value,control_support,kept\n")
            out.writelines(map(str.__add__, map(_csv_field, dataset.items), report_cols))
            out.write(f"# total_kept {len(kept_ids)}\n")
            out.write(f"# total_dropped {len(report_cols) - len(kept_ids)}\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
