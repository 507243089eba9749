import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Iterator, Optional

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


def scoped_nodes(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    """Each node of ``tree`` with the dotted name of the innermost class or
    function holding it, such as ``_Search.search``, or ``<module>``; a
    definition counts as inside itself."""
    stack: list[tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}".lstrip(".")
        yield node, where or "<module>"
        stack.extend((child, where) for child in ast.iter_child_nodes(node))


#: The one function of a module that may open a file, so that every input is
#: decoded one way and every output is opened before the work that fills it.
OPENERS = {"dataset": "_lines", "cli": "_open_out"}


def stray_file_access(tree: ast.Module, opener: Optional[str]) -> list[str]:
    """Imports of ``pathlib``, and calls of anything named ``open`` outside
    the function named ``opener``, by line."""
    found = [
        (line, f"line {line}: import {name}")
        for line, name in absolute_imports(ast.walk(tree))
        if name.split(".")[0] == "pathlib"
    ]
    for node, where in scoped_nodes(tree):
        if isinstance(node, ast.Call) and where != opener:
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "open":
                found.append((node.lineno, f"line {node.lineno}: open in {where}"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_opens_files_in_one_place(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert stray_file_access(tree, OPENERS.get(path.stem)) == []


def test_stray_file_access_detects_and_allows():
    tree = ast.parse(
        "import io\n"
        "from pathlib import Path\n"
        "def _read_text(p):\n"
        "    with open(p, 'rb') as fh:\n"
        "        return fh.read()\n"
        "def dump(p, text):\n"
        "    with io.open(p, 'w') as fh:\n"
        "        fh.write(text)\n"
        "LOG = open('log.txt')\n"
    )
    assert stray_file_access(tree, "_read_text") == [
        "line 2: import pathlib", "line 7: open in dump", "line 9: open in <module>"
    ]
    assert stray_file_access(tree, "dump") == [
        "line 2: import pathlib", "line 4: open in _read_text", "line 9: open in <module>"
    ]


def stray_gc(tree: ast.Module) -> list[str]:
    """Imports and names of ``gc`` outside the method ``_Search.search``, by line.

    The search pauses the cyclic collector and restores it; no other code
    may change a setting that is the whole process's."""
    found = []
    for node, where in scoped_nodes(tree):
        names = [name for _, name in absolute_imports([node])]
        if isinstance(node, ast.Name):
            names.append(node.id)
        if where != "_Search.search" and "gc" in (name.split(".")[0] for name in names):
            found.append((node.lineno, f"line {node.lineno}: gc in {where}"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_touches_gc_only_in_the_search(path):
    assert stray_gc(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_stray_gc_detects_and_allows():
    tree = ast.parse(
        "import gc\n"
        "class _Search:\n"
        "    def search(self):\n"
        "        import gc\n"
        "        gc.disable()\n"
        "    def run(self):\n"
        "        gc.enable()\n"
        "def mine():\n"
        "    from gc import collect\n"
        "class Other:\n"
        "    def search(self):\n"
        "        return gc.isenabled()\n"
    )
    assert stray_gc(tree) == [
        "line 1: gc in <module>", "line 7: gc in _Search.run", "line 9: gc in mine",
        "line 12: gc in Other.search",
    ]


def _is_counter(name: str) -> bool:
    return name.startswith("nodes_") or name == "row_scans"


def counters_on_self(tree: ast.Module) -> list[str]:
    """Stores to a ``self.nodes_*`` or ``self.row_scans`` attribute, and such
    names in a ``__slots__``, by line.

    ``_Search.run`` counts every child in local variables and returns the
    counts from its one exit, so that a search stopped early leaves with
    every count right: no method keeps a count on the instance."""
    found = set()
    for node, where in scoped_nodes(tree):
        if (
            isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and _is_counter(node.attr)
        ):
            found.add((node.lineno, f"line {node.lineno}: self.{node.attr} in {where}"))
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
            for entry in ast.walk(node.value):
                if isinstance(entry, ast.Constant) and _is_counter(str(entry.value)):
                    text = f"line {entry.lineno}: {where}.__slots__ {entry.value}"
                    found.add((entry.lineno, text))
    return [text for _, text in sorted(found)]


def test_search_keeps_its_counters_in_locals():
    tree = ast.parse((ROOT / "src" / "sigpat" / "miner.py").read_text(encoding="utf-8"))
    assert counters_on_self(tree) == []


def test_counters_on_self_detects_and_allows():
    tree = ast.parse(
        "class _Search:\n"
        "    __slots__ = (\"top\", \"nodes_visited\",\n"
        "                 \"row_scans\")\n"
        "    def run(self):\n"
        "        scans = nodes_dead = 0\n"
        "        while True:\n"
        "            scans, self.row_scans = 1, 2\n"
        "        self.top = self.nodes_pruned\n"
        "        return scans, other.nodes_dead\n"
        "    def _case_phase(self, free):\n"
        "        self.nodes_pruned += free.bit_count()\n"
        "        self.nodes_dead: int = 3\n"
        "        other.nodes_dead = 4\n"
        "class Other:\n"
        "    __slots__: tuple = ('nodes_dead',)\n"
        "    row_scans = 0\n"
    )
    assert counters_on_self(tree) == [
        "line 2: _Search.__slots__ nodes_visited",
        "line 3: _Search.__slots__ row_scans",
        "line 7: self.row_scans in _Search.run",
        "line 11: self.nodes_pruned in _Search._case_phase",
        "line 12: self.nodes_dead in _Search._case_phase",
        "line 15: Other.__slots__ nodes_dead",
    ]


def carriage_returns(tree: ast.Module) -> list[str]:
    """``str`` constants that hold a CR, by line.

    ``dataset._lines`` reads CRLF and CR as LF through one
    ``io.IncrementalNewlineDecoder``, so no code of the package handles a CR itself."""
    found = {
        (node.lineno, f"line {node.lineno}: {node.value!r}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\r" in node.value
    }
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_translates_line_ends_in_one_place(path):
    assert carriage_returns(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_carriage_returns_detects_and_allows():
    # the shape of the reader's own CR rule before it used the decoder
    tree = ast.parse(
        "def _read_text(fh):\n"
        "    text, cr = fh.read(), ''  # '\\r' in a comment is no constant\n"
        "    if text.endswith('\\r'):\n"
        "        text, cr = text[:-1], '\\r'\n"
        "    return text.replace('\\r\\n', '\\n') if '\\r' in text else text\n"
        "CR, LF = b'\\r', '\\n'\n"
        "END = f'{LF}\\r'\n"
    )
    assert carriage_returns(tree) == [
        "line 3: '\\r'", "line 4: '\\r'", "line 5: '\\r'", "line 5: '\\r\\n'",
        "line 7: '\\r'",
    ]


#: The one function of a module that may isolate a lowest set bit, ``m & -m``,
#: so that every walk over the set bits of a mask is one walk.
BIT_WALKERS = {"dataset": "bit_positions"}


def stray_low_bits(tree: ast.Module, walker: Optional[str]) -> list[str]:
    """Bitwise ands with a negated operand (``m & -m``, ``m &= -m``) outside the
    function named ``walker``, by line; ``x &= x - 1`` drops a bit and is allowed."""
    found = []
    for node, where in scoped_nodes(tree):
        operands = [getattr(node, side, None) for side in ("left", "right", "value")]
        if (
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.BitAnd)
            and where != walker
            and any(isinstance(x, ast.UnaryOp) and isinstance(x.op, ast.USub) for x in operands)
        ):
            found.append((node.lineno, f"line {node.lineno}: & - in {where}"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_isolates_low_bits_only_in_bit_positions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert stray_low_bits(tree, BIT_WALKERS.get(path.stem)) == []


def test_stray_low_bits_detects_and_allows():
    tree = ast.parse(
        "def bit_positions(mask):\n"
        "    return mask & -mask\n"
        "class _Search:\n"
        "    def _case_phase(self, x, y):\n"
        "        x &= x - 1\n"
        "        return -x & x, x & ~y, x - -y\n"
        "def walk(m):\n"
        "    m &= -m\n"
        "LOW = 12 & -12\n"
    )
    assert stray_low_bits(tree, "bit_positions") == [
        "line 6: & - in _Search._case_phase", "line 8: & - in walk", "line 9: & - in <module>"
    ]
    assert stray_low_bits(tree, None)[0] == "line 2: & - in bit_positions"


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


def fresh_lines(code: str, *argv: str) -> list[str]:
    """The output lines of ``code`` run in a fresh interpreter with ``src``
    first on the path and ``argv`` as ``sys.argv[1:]``."""
    script = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{code}\n"
    # -I: no user site or environment; -B: no bytecode written into src
    args = [sys.executable, "-I", "-B", "-c", script, *argv]
    out = subprocess.run(args, capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.splitlines()


def fresh_modules(code: str, *argv: str) -> tuple[set[str], set[str]]:
    """``sys.modules`` before and after ``code`` runs, as ``fresh_lines`` runs it."""
    before, after = fresh_lines(
        f"before = set(sys.modules)\n{code}\n"
        "print(' '.join(sorted(before)))\nprint(' '.join(sorted(sys.modules)))",
        *argv,
    )
    return set(before.split()), set(after.split())


def test_cli_import_adds_no_dataclasses_or_inspect():
    before, after = fresh_modules("import sigpat.cli")
    added = after - before
    assert "sigpat.cli" in added
    assert {"dataclasses", "inspect", "sigpat.oracle", *DEFERRED}.isdisjoint(added)


def test_oracle_is_imported_on_first_use():
    # only ``sigpat.oracle`` loads the oracle: neither the root nor its star import does
    for code in ("import sigpat", "from sigpat import *"):
        _, after = fresh_modules(code)
        assert "sigpat.oracle" not in after


def test_root_exports_are_plain_imports():
    """The package root has one export mechanism: right after ``import sigpat``
    in a fresh interpreter every name in ``__all__`` is bound, and no module
    ``__getattr__`` supplies names on demand."""
    lines = fresh_lines("import sigpat\nprint(*sigpat.__all__)\nprint(*vars(sigpat))")
    exported, bound = (set(line.split()) for line in lines)
    assert sorted(exported - bound) == []
    assert "__getattr__" not in bound


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


def test_traced_filter_genotypes_records_one_load_span(tmp_path, monkeypatch):
    """A traced ``filter-genotypes`` run times its load as one
    ``dataset.load_genotype_matrix`` span whose extra is the size of its two
    inputs, so ``genotype``'s per-layer load metrics keep their meaning while
    the filter decides its items during the load."""
    spec = importlib.util.spec_from_file_location("traced", ROOT / "perfbench" / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # so perfbench/ stays as it is
    spec.loader.exec_module(traced)
    tracer = traced.Tracer()
    for module_name, names in traced.WRAPPED.items():
        module = importlib.import_module(module_name)
        for attr, span_name in names.items():
            monkeypatch.setattr(module, attr, tracer.wrap(getattr(module, attr), span_name))
    matrix, labels = tmp_path / "m.csv", tmp_path / "l.csv"
    matrix.write_text("snp,bob,eve,kim,sam\nrs1,2,0,2,1\nrs2,1,0,1,2\n", encoding="utf-8")
    labels.write_text("bob,1\neve,0\nkim,1\nsam,0\n", encoding="utf-8")
    main = tracer.wrap(importlib.import_module("sigpat.cli").main, "cli.main")
    assert main(["filter-genotypes", "--input", str(matrix), "--labels", str(labels),
                 "--output", str(tmp_path / "f.tct")]) == 0
    loads = [span for span in tracer.spans if span[0] == "dataset.load_genotype_matrix"]
    assert len(loads) == 1
    assert loads[0][4] == matrix.stat().st_size + labels.stat().st_size
    metrics = traced.layer_metrics({"spans": tracer.spans, "missing": []}, None, 0)
    assert metrics["dataset.load_genotype_matrix.s"][0] > 0
    assert metrics["measures.association_pvalue.calls"][0] > 0


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
    and with no ``logging``, which the package never imports. Only quoted genotype
    input needs ``csv``, and only the ``oracle`` command ``sigpat.oracle``."""
    (tmp_path / "data.tct").write_text("1 a b\n1 a\n0 b\n0 a c\n", encoding="utf-8")
    (tmp_path / "matrix.csv").write_text("snp,bob,eve\nrs1,2,0\n", encoding="utf-8")
    (tmp_path / "quoted.csv").write_text('snp,"bob",eve\nrs1,2,0\n', encoding="utf-8")
    (tmp_path / "labels.csv").write_text("bob,1\neve,0\n", encoding="utf-8")
    code = "import sigpat.cli\nif sigpat.cli.main(sys.argv[1:]): sys.exit('run failed')"
    _, after = fresh_modules(code, *command.format(tmp=tmp_path).split())
    assert (tmp_path / "out").exists()
    assert (DEFERRED | {"sigpat.oracle"}) & after == loaded


def parser_flags() -> set[str]:
    """The long options that the subcommands of ``build_parser()`` define, but ``--help``."""
    from sigpat.cli import build_parser

    parser = build_parser()
    # the subcommands action is the one whose choices map names to parsers
    commands = next(a for a in parser._actions if isinstance(a.choices, dict))
    return {
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--")
    } - {"--help"}


def test_readme_names_the_flags_the_parser_defines():
    # README documents every flag, and names none that is gone
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"--[a-z][a-z-]*", readme)) - {"--no-build-isolation"}
    assert named == parser_flags()


def test_readme_names_the_stats_keys():
    from sigpat.miner import MineStats

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    keys = {"schema", *MineStats._fields, "load_seconds", "write_seconds"}
    assert {key for key in keys if f"`{key}`" not in readme} == set()
