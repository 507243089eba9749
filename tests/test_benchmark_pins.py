"""The benchmark's workloads, pinned in this suite.

Each workload's seed-42 inputs are built by ``perfbench/inputs.py`` and its
commands taken from ``perfbench/workloads.py``; both are only read. The
commands run through ``sigpat.cli.main`` in this interpreter, with
``--stats`` added to ``mine``. Every output must have the sha256 recorded in
``perfbench/baseline.json``, and every ``--stats`` value that is not a time
must equal the one in ``benchmark_counters.json`` beside this file. A change
that moves a counter on purpose updates that file.
"""

import copy
import hashlib
import importlib
import json
import os
import sys

import pytest

from sigpat.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SEED = 42


def _perfbench(module: str):
    """A module of ``perfbench``, imported without writing bytecode there."""
    sys.path.insert(0, PERFBENCH)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(module)
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(PERFBENCH)


def run_workload(workload, work) -> dict:
    """``{"outputs": {file: sha256}, "counters": [each mine's --stats without its times]}``."""
    workload.make_inputs(work, SEED)
    counters = []
    for k, argv in enumerate(workload.commands(work)):
        stats = work / f"stats{k}.json"
        mined = argv[0] == "mine"
        assert main([*argv, "--stats", str(stats)] if mined else argv) == 0, argv
        if mined:
            with open(stats, encoding="utf-8") as fh:
                counters.append({key: value for key, value in json.load(fh).items()
                                 if not key.endswith("_seconds")})
    sha256_file = _perfbench("inputs").sha256_file
    return {"outputs": {name: sha256_file(work / name) for name in workload.outputs},
            "counters": counters}


def problems(expected: dict, got: dict) -> list[str]:
    """Each workload's outputs and counters in ``got`` that differ from ``expected``."""
    return [f"{name} {part}: {got.get(name, {}).get(part)} != {want}"
            for name, parts in expected.items() for part, want in parts.items()
            if got.get(name, {}).get(part) != want]


@pytest.fixture(scope="module")
def expected() -> dict:
    with open(os.path.join(PERFBENCH, "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    assert baseline["default_seed"] == SEED
    with open(os.path.join(HERE, "benchmark_counters.json"), encoding="utf-8") as fh:
        counters = json.load(fh)
    return {name: {"outputs": recorded["outputs"], "counters": counters[name]}
            for name, recorded in baseline["default_seed_digests"].items()}


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> dict:
    return {name: tmp_path_factory.mktemp(name) for name in _perfbench("workloads").WORKLOADS}


@pytest.fixture(scope="module")
def got(work) -> dict:
    return {name: run_workload(workload, work[name])
            for name, workload in _perfbench("workloads").WORKLOADS.items()}


def test_benchmark_workloads_give_their_pinned_outputs_and_counters(expected, got):
    assert sorted(got) == sorted(expected) == ["broad", "genotype", "narrow"]
    assert problems(expected, got) == []
    assert got["broad"]["counters"][0]["patterns_emitted"] == 13_051


def test_benchmark_pin_comparison_catches_one_counter_or_one_byte(expected, got, work):
    assert problems(expected, got) == []
    changed = copy.deepcopy(got)
    changed["narrow"]["counters"][0]["row_scans"] += 1
    assert problems(expected, changed) == [
        f"narrow counters: {changed['narrow']['counters']} != {expected['narrow']['counters']}"]
    rows = bytearray((work["broad"] / "patterns.csv").read_bytes())
    rows[-2] ^= 1  # the last digit of the last control tid
    changed = copy.deepcopy(got)
    changed["broad"]["outputs"]["patterns.csv"] = hashlib.sha256(rows).hexdigest()
    assert [p.split(":")[0] for p in problems(expected, changed)] == ["broad outputs"]
