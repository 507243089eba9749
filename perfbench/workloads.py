"""The benchmark's workloads: inputs, CLI commands and output checks.

See README.md in this directory for why each workload exists and which
layer it stresses or bypasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import inputs
import verify


@dataclass(frozen=True)
class Workload:
    name: str
    #: work dir, seed -> input description (shape, planted items, sha256s)
    make_inputs: Callable[[Path, int], dict]
    #: work dir -> sigpat argument lists run in order as one operation
    commands: Callable[[Path], list[list[str]]]
    #: output files, digested after every operation
    outputs: tuple[str, ...]
    #: the transaction file that ``mine`` reads
    mined: str
    #: the file holding the mined pattern rows, and its encoding
    records: str
    fmt: str
    #: the thresholds passed to ``mine``
    thresholds: dict
    #: checks of the other outputs: work dir, input description -> errors
    check_extra: Optional[Callable[[Path, dict], list[str]]] = None


def _flags(thresholds: dict) -> list[str]:
    out = []
    for name, value in thresholds.items():
        out += ["--" + name.replace("_", "-"), "%g" % value]
    return out


def _tct_workload(name: str, shape: dict, thresholds: dict) -> Workload:
    def make_inputs(work: Path, seed: int) -> dict:
        return inputs.write_tct(work / "input.tct", seed, **shape)

    def commands(work: Path) -> list[list[str]]:
        return [
            ["mine", "--input", str(work / "input.tct"), *_flags(thresholds),
             "--output", str(work / "patterns.csv")]
        ]

    return Workload(
        name, make_inputs, commands, ("patterns.csv",), "input.tct", "patterns.csv",
        "csv", thresholds,
    )


GENOTYPE_SHAPE = dict(
    n_case=200,
    n_control=200,
    n_snps=2500,
    pair=(6, 122),
    pair_carriers=(110, 8),
    markers=12,
    marker_carriers=(70, 30),
)
GENOTYPE_FILTER = dict(max_pvalue=0.0005, max_control_support=0.5)
GENOTYPE_MINE = dict(min_ors=2.0, min_lci_ors=1.5)


def _genotype_workload() -> Workload:
    def make_inputs(work: Path, seed: int) -> dict:
        return inputs.write_genotype(
            work / "matrix.csv", work / "labels.csv", seed, **GENOTYPE_SHAPE
        )

    def commands(work: Path) -> list[list[str]]:
        return [
            ["filter-genotypes", "--input", str(work / "matrix.csv"),
             "--labels", str(work / "labels.csv"), *_flags(GENOTYPE_FILTER),
             "--output", str(work / "filtered.tct"), "--report", str(work / "report.csv")],
            ["mine", "--input", str(work / "filtered.tct"), *_flags(GENOTYPE_MINE),
             "--output-format", "json", "--output", str(work / "patterns.json")],
        ]

    def check_filter(work: Path, info: dict) -> list[str]:
        return verify.check_filter(
            work / "matrix.csv", work / "labels.csv", work / "filtered.tct",
            work / "report.csv", planted=info["planted"], **GENOTYPE_FILTER,
        )

    return Workload(
        "genotype", make_inputs, commands, ("filtered.tct", "report.csv", "patterns.json"),
        "filtered.tct", "patterns.json", "json", GENOTYPE_MINE, check_filter,
    )


WORKLOADS = {
    w.name: w
    for w in (
        _tct_workload(
            "broad",
            dict(n_case=28, n_control=28, n_items=140, density=0.33,
                 planted=3, planted_cases=11, planted_controls=2),
            {"min_ors": 2.0},
        ),
        _tct_workload(
            "narrow",
            dict(n_case=33, n_control=33, n_items=165, density=0.33,
                 planted=3, planted_cases=14, planted_controls=2),
            {"min_ors": 2.0, "min_lci_ors": 2.0},
        ),
        _genotype_workload(),
    )
}
