"""The traced run: a sigpat command in-process with spans around each layer.

Usage: python traced.py SPANS_JSON SIGPAT_ARGS...

Runs one sigpat command through ``sigpat.cli.main`` in this process, as
``runner.py`` does for a timed operation. Each call of a wrapped
function records a span (name, parent, start, end, extra). Spans stay in
memory and are written to SPANS_JSON once, at the end, together with the
names that could not be wrapped because the program no longer has them.

The parent process merges the spans of an operation's commands and turns
them into per-layer metrics with ``layer_metrics``; this module imports
sigpat only when run as a script.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

#: module -> {attribute: span name}. The span name's first part is the layer.
WRAPPED = {
    "sigpat.cli": {
        "load_transactions": "dataset.load_transactions",
        "load_genotype_matrix": "dataset.load_genotype_matrix",
        "dump_transactions": "dataset.dump_transactions",
        "mine": "miner.mine",
        "write_csv": "cli.write_csv",
        "write_json": "cli.write_json",
        "association_pvalue": "measures.association_pvalue",
    },
    "sigpat.miner": {
        "score_set": "measures.score_set",
        "confidence_intervals": "measures.confidence_intervals",
        "check_significance": "measures.check_significance",
    },
}


def _input_bytes(args) -> int:
    return sum(os.path.getsize(a) for a in args if isinstance(a, (str, os.PathLike)))


#: span name -> what to record from the call's arguments
EXTRA = {
    "dataset.load_transactions": _input_bytes,
    "dataset.load_genotype_matrix": _input_bytes,
    "cli.write_csv": lambda args: len(args[0]),
    "cli.write_json": lambda args: len(args[0]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, extra]
        self.stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, extra = self.spans, self.stack, EXTRA.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            spans.append(span)
            if extra is not None:
                span[4] = extra(args)
            stack.append(sid)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced


def main() -> int:
    import importlib

    spans_path = sys.argv[1]
    tracer = Tracer()
    missing = []
    for module_name, names in WRAPPED.items():
        module = importlib.import_module(module_name)
        for attr, span_name in names.items():
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(span_name)
            else:
                setattr(module, attr, tracer.wrap(fn, span_name))
    cli_main = tracer.wrap(importlib.import_module("sigpat.cli").main, "cli.main")
    rc = cli_main(sys.argv[2:])
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "missing": missing, "rc": rc}, fh)
    return rc


def merge(traces: list[dict]) -> dict:
    """One trace from the traces of an operation's commands, in order."""
    spans: list[list] = []
    for trace in traces:
        base = len(spans)
        spans += [[n, None if p is None else p + base, *rest] for n, p, *rest in trace["spans"]]
    return {"spans": spans, "missing": sorted({m for t in traces for m in t["missing"]})}


def layer_metrics(trace: dict, stats: dict | None, write_bytes: int) -> dict:
    """Per-layer metrics from the spans of one traced operation.

    Self time is a span's duration minus that of its direct children. A
    metric whose function could not be wrapped, or whose counter the
    ``--stats`` file lacks, is left out rather than reported as zero.
    """
    spans = trace["spans"]
    missing = set(trace["missing"])
    dur = [s[3] - s[2] for s in spans]
    self_t = dur[:]
    for k, s in enumerate(spans):
        if s[1] is not None:
            self_t[s[1]] -= dur[k]
    total = defaultdict(float)
    self_by = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(int)
    layer_self = defaultdict(float)
    for k, s in enumerate(spans):
        total[s[0]] += dur[k]
        self_by[s[0]] += self_t[k]
        calls[s[0]] += 1
        extra[s[0]] += s[4] or 0
        layer_self[s[0].split(".")[0]] += self_t[k]

    out: dict[str, tuple[float, str]] = {}

    def put(metric, value, unit, *needs):
        if not missing.intersection(needs):
            out[metric] = (value, unit)

    put("trace.total_s", total["cli.main"], "s")
    put("cli.self.s", self_by["cli.main"], "s")
    writes = ("cli.write_csv", "cli.write_json")
    if not missing.issuperset(writes):
        out["cli.write.s"] = (sum(total[w] for w in writes), "s")
        out["cli.write.rows"] = (sum(extra[w] for w in writes), "count")
        out["cli.write.bytes"] = (write_bytes, "bytes")
    loads = ("dataset.load_transactions", "dataset.load_genotype_matrix")
    for name in loads + ("dataset.dump_transactions",):
        put(name + ".s", total[name], "s", name)
    load_s = sum(total[n] for n in loads)
    if load_s:
        out["dataset.load.mb_per_s"] = (sum(extra[n] for n in loads) / 1e6 / load_s, "MB/s")
    put("dataset.self.s", layer_self["dataset"], "s")
    put("miner.mine.s", total["miner.mine"], "s", "miner.mine")
    put("miner.self.s", layer_self["miner"], "s", "miner.mine")
    put("measures.s", layer_self["measures"], "s")
    for fn in ("score_set", "confidence_intervals", "check_significance", "association_pvalue"):
        put(f"measures.{fn}.calls", calls[f"measures.{fn}"], "count", f"measures.{fn}")
    put("measures.association_pvalue.s", total["measures.association_pvalue"], "s",
        "measures.association_pvalue")
    stats = stats or {}
    for key in ("nodes_visited", "nodes_pruned", "patterns_emitted"):
        if key in stats:
            out[f"miner.{key}"] = (stats[key], "count")
    visited = stats.get("nodes_visited")
    if visited:
        if "nodes_pruned" in stats:
            out["miner.prune_ratio"] = (stats["nodes_pruned"] / visited, "ratio")
        if "patterns_emitted" in stats:
            out["miner.yield"] = (stats["patterns_emitted"] / visited, "ratio")
        if total["miner.mine"]:
            out["miner.nodes_per_s"] = (visited / total["miner.mine"], "1/s")
    return out


if __name__ == "__main__":
    sys.exit(main())
