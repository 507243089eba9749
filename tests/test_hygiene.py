import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Iterator

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "sigpat").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module never reads.

    ``from __future__`` imports are skipped, and a name listed in the
    module's ``__all__`` counts as used, since it is re-exported.
    """
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_imports_detects_and_allows():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(tree) == ["line 2: osp", "line 3: dumps"]


def absolute_imports(nodes: Iterable[ast.AST]) -> list[tuple[int, str]]:
    """``(line, module)`` for each module imported by name, not relatively."""
    names: list[tuple[int, str]] = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.lineno, node.module))
    return names


def foreign_imports(tree: ast.Module) -> list[str]:
    """Imports of modules outside the standard library.

    Relative imports (the package's own modules) and ``__future__`` are
    allowed; a dotted name counts by its first part.
    """
    return [
        f"line {line}: {name}"
        for line, name in absolute_imports(ast.walk(tree))
        if name != "__future__" and name.split(".")[0] not in sys.stdlib_module_names
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_only_stdlib(path):
    assert foreign_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_foreign_imports_detects_and_allows():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import dataset\n"
        "from .miner import mine\n"
        "from collections import abc\n"
        "def f():\n"
        "    import scipy.stats\n"
    )
    assert foreign_imports(tree) == ["line 2: numpy", "line 7: scipy.stats"]


def test_traced_names_exist():
    """Every function the benchmark's traced run wraps is still there to wrap.

    ``perfbench/traced.py`` replaces these module attributes with span
    wrappers and passes the writers' first argument to ``len``; a name it
    cannot find silently drops its per-layer metrics.
    """
    source = (ROOT / "perfbench" / "traced.py").read_text(encoding="utf-8")
    wrapped = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]
    )
    assert wrapped
    for module_name, names in wrapped.items():
        module = importlib.import_module(module_name)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert missing == [], module_name
    cli = importlib.import_module("sigpat.cli")
    for writer in (cli.write_csv, cli.write_json):
        assert list(inspect.signature(writer).parameters) == ["records", "dataset", "out"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_does_not_import_dataclasses(path):
    # the value types are NamedTuples: dataclasses, with the inspect it
    # pulls in, would cost every command about 10 ms of start-up
    names = absolute_imports(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    assert "dataclasses" not in {name.split(".")[0] for _, name in names}


#: Modules that each cost a few ms of start-up and that a plain CSV ``mine``
#: run does not use: the package imports them where a run needs them.
DEFERRED = {"logging", "json", "csv"}


def import_time_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """The nodes of ``tree`` that run when the module is imported: all but
    those inside function bodies."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_defers_logging_json_and_csv(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = absolute_imports(import_time_nodes(tree))
    assert DEFERRED.isdisjoint(name.split(".")[0] for _, name in names)


def test_import_time_nodes_skips_function_bodies():
    tree = ast.parse(
        "import os\n"
        "if os.sep:\n"
        "    import json\n"
        "class C:\n"
        "    import csv\n"
        "    def f(self):\n"
        "        import logging\n"
        "async def g():\n"
        "    import re\n"
    )
    assert sorted(name for _, name in absolute_imports(import_time_nodes(tree))) == [
        "csv", "json", "os"
    ]


def fresh_modules(code: str, *argv: str) -> tuple[set[str], set[str]]:
    """``sys.modules`` before and after ``code`` runs in a fresh interpreter
    with ``src`` first on the path and ``argv`` as ``sys.argv[1:]``."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        f"{code}\n"
        "print(' '.join(sorted(before)))\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    # -I: no user site or environment; -B: no bytecode written into src
    args = [sys.executable, "-I", "-B", "-c", script, *argv]
    out = subprocess.run(args, capture_output=True, text=True, check=True, timeout=60)
    before, after = out.stdout.splitlines()
    return set(before.split()), set(after.split())


def test_cli_import_adds_no_dataclasses_or_inspect():
    before, after = fresh_modules("import sigpat.cli")
    added = after - before
    assert "sigpat.cli" in added
    assert {"dataclasses", "inspect", "sigpat.oracle", *DEFERRED}.isdisjoint(added)


def test_oracle_is_imported_on_first_use():
    # the package root still exports mine_oracle, through a module __getattr__
    _, after = fresh_modules("import sigpat\nassert 'sigpat.oracle' not in sys.modules\n"
                             "assert sigpat.mine_oracle.__module__ == 'sigpat.oracle'")
    assert "sigpat.oracle" in after
    _, after = fresh_modules("from sigpat import *\nmine_oracle")
    assert "sigpat.oracle" in after


def test_traced_run_names_resolve():
    """Every name ``perfbench/traced.py`` wraps resolves on the imported modules.

    The traced run reports a per-layer metric as absent when its name does
    not resolve; ``miner.confidence_intervals`` is kept for it alone. Loading
    ``traced.py`` imports no sigpat module, so its ``WRAPPED`` is read first.
    """
    traced = str(ROOT / "perfbench" / "traced.py")
    code = (
        "import importlib, importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('traced', {traced!r})\n"
        "traced = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(traced)\n"
        "assert not [m for m in sys.modules if m.startswith('sigpat')]\n"
        "for module, names in traced.WRAPPED.items():\n"
        "    module = importlib.import_module(module)\n"
        "    assert all(callable(getattr(module, n, None)) for n in names), names\n"
    )
    _, after = fresh_modules(code)
    assert {"sigpat.cli", "sigpat.miner"} <= after


@pytest.mark.parametrize("command, loaded", [
    ("mine --input {tmp}/data.tct --output {tmp}/out", set()),
    ("mine --input {tmp}/data.tct --output {tmp}/out --output-format json", {"json"}),
    ("mine --input {tmp}/data.tct --output {tmp}/out --stats {tmp}/stats", {"json"}),
    ("filter-genotypes --input {tmp}/matrix.csv --labels {tmp}/labels.csv --output {tmp}/out",
     set()),
    ("filter-genotypes --input {tmp}/quoted.csv --labels {tmp}/labels.csv --output {tmp}/out",
     {"csv"}),
    ("oracle --input {tmp}/data.tct --output {tmp}/out", {"sigpat.oracle"}),
], ids=[
    "mine-csv", "mine-json", "mine-stats", "filter-genotypes", "filter-genotypes-quoted",
    "oracle",
])
def test_cli_run_loads_only_what_it_uses(tmp_path, command, loaded):
    """A clean run ends with only the deferred modules its options need,
    and with no ``logging``, which only a warning loads. Only quoted genotype
    input needs ``csv``, and only the ``oracle`` command ``sigpat.oracle``."""
    (tmp_path / "data.tct").write_text("1 a b\n1 a\n0 b\n0 a c\n", encoding="utf-8")
    (tmp_path / "matrix.csv").write_text("snp,bob,eve\nrs1,2,0\n", encoding="utf-8")
    (tmp_path / "quoted.csv").write_text('snp,"bob",eve\nrs1,2,0\n', encoding="utf-8")
    (tmp_path / "labels.csv").write_text("bob,1\neve,0\n", encoding="utf-8")
    code = "import sigpat.cli\nif sigpat.cli.main(sys.argv[1:]): sys.exit('run failed')"
    _, after = fresh_modules(code, *command.format(tmp=tmp_path).split())
    assert (tmp_path / "out").exists()
    assert (DEFERRED | {"sigpat.oracle"}) & after == loaded
