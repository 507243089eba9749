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
import csv
import json
import logging
import math
import sys
import time
from typing import IO, Callable, Iterator, Optional, Sequence

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
from .oracle import mine_oracle

logger = logging.getLogger(__name__)

COLUMNS = (
    "items",
    "n_case_tids",
    "n_control_tids",
    "sup_case",
    "sup_control",
    "sd",
    "gr",
    "ors",
    "lci_gr",
    "uci_gr",
    "lci_ors",
    "uci_ors",
    "ci_corrected",
    "case_tids",
    "control_tids",
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


def _json_float(value: float):
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


@contextlib.contextmanager
def _open_out(path: str) -> Iterator[IO[str]]:
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _rows(
    records: Sequence[PatternRecord],
    dataset: TwoClassDataset,
    encode_key: Callable[[int, int, tuple[float, ...], bool], tuple],
    encode_names: Callable[[Iterator[str]], object],
) -> Iterator[tuple]:
    """The values of each pattern in ``COLUMNS`` order, encoded.

    The two tid counts, nine float scores and the correction flag depend on
    the record's table and scores alone, so ``encode_key`` runs on them once
    per distinct (table, scores) pair; ``encode_names`` runs on the item
    names of every record and once per distinct tid mask on its external ids.
    """
    names = dataset.items
    ext = dataset.external_ids
    keyed: dict[tuple, tuple] = {}
    masked: dict[int, object] = {}
    for r in records:
        key = (r.table, r.scores)
        cols = keyed.get(key)
        if cols is None:
            t, s = key
            cols = keyed[key] = encode_key(
                t.a,
                t.c,
                (t.a / t.n_case, t.c / t.n_control, s.sd, s.gr, s.ors,
                 s.lci_gr, s.uci_gr, s.lci_ors, s.uci_ors),
                s.corrected_ci,
            )
        tids = []
        for mask in (r.pos_mask, r.neg_mask):
            ids = masked.get(mask)
            if ids is None:
                ids = masked[mask] = encode_names(map(ext.__getitem__, bit_positions(mask)))
            tids.append(ids)
        yield (encode_names(map(names.__getitem__, r.itemset)), *cols, *tids)


def _csv_key(a: int, c: int, scores: tuple[float, ...], corrected: bool) -> tuple:
    return (str(a), str(c), *map(_fmt, scores), "true" if corrected else "false")


def _json_key(a: int, c: int, scores: tuple[float, ...], corrected: bool) -> tuple:
    return (a, c, *map(_json_float, scores), corrected)


def write_csv(
    records: Sequence[PatternRecord], dataset: TwoClassDataset, out: IO[str]
) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows(_rows(records, dataset, _csv_key, ";".join))


def write_json(
    records: Sequence[PatternRecord], dataset: TwoClassDataset, out: IO[str]
) -> None:
    rows = _rows(records, dataset, _json_key, list)
    json.dump([dict(zip(COLUMNS, row)) for row in rows], out, indent=2)
    out.write("\n")


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
    sub.add_argument(
        "--min-lci-gr",
        type=float,
        help="growth rate 95%% confidence lower bound must exceed this",
    )
    sub.add_argument(
        "--min-lci-ors",
        type=float,
        help="odds ratio 95%% confidence lower bound must exceed this",
    )


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
    filt_p.add_argument(
        "--max-pvalue",
        type=float,
        help="drop items whose association p-value exceeds this",
    )
    filt_p.add_argument(
        "--max-control-support",
        type=float,
        help="drop items present in more than this fraction of controls",
    )
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
    config = MinerConfig(
        thresholds=_build_thresholds(args),
        prune=not args.no_prune,
    )
    records, stats = mine(dataset, config)
    start = time.perf_counter()
    _write_records(records, dataset, args.output, args.output_format)
    write_seconds = time.perf_counter() - start
    if args.stats:
        with _open_out(args.stats) as out:
            json.dump(
                {
                    "schema": 1,
                    "nodes_visited": stats.nodes_visited,
                    "nodes_pruned": stats.nodes_pruned,
                    "nodes_duplicate": stats.nodes_duplicate,
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
    kept_ids: list[int] = []
    report_rows: list[tuple[str, float, float, bool]] = []
    for i, name in enumerate(dataset.items):
        row = dataset.rows[i]
        a = (row & case_mask).bit_count()
        c = (row & control_mask).bit_count()
        table = ContingencyTable(a, dataset.n_case - a, c, dataset.n_control - c)
        pvalue = association_pvalue(table)
        control_support = c / dataset.n_control
        kept = (args.max_pvalue is None or pvalue <= args.max_pvalue) and (
            args.max_control_support is None
            or control_support <= args.max_control_support
        )
        if kept:
            kept_ids.append(i)
        report_rows.append((name, pvalue, control_support, kept))
    filtered = TwoClassDataset(
        tuple(dataset.items[i] for i in kept_ids),
        dataset.n_case,
        dataset.n_control,
        tuple(dataset.rows[i] for i in kept_ids),
        dataset.external_ids,
    )
    with _open_out(args.output) as out:
        dump_transactions(filtered, out)
    if args.report:
        with _open_out(args.report) as out:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(("item", "p_value", "control_support", "kept"))
            for name, pvalue, control_support, kept in report_rows:
                writer.writerow(
                    (name, _fmt(pvalue), _fmt(control_support), "true" if kept else "false")
                )
            out.write(f"# total_kept {len(kept_ids)}\n")
            out.write(f"# total_dropped {len(report_rows) - len(kept_ids)}\n")
    logger.info(
        "kept %d of %d items", len(kept_ids), len(report_rows)
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DatasetFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
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
