import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

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


def absolute_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, module)`` for each module imported by name, not relatively."""
    names: list[tuple[int, str]] = []
    for node in ast.walk(tree):
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
        for line, name in absolute_imports(tree)
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
    names = absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert "dataclasses" not in {name.split(".")[0] for _, name in names}


def test_cli_import_adds_no_dataclasses_or_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import sigpat.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    # -I: no user site or environment; -B: no bytecode written into src
    args = [sys.executable, "-I", "-B", "-c", code]
    out = subprocess.run(args, capture_output=True, text=True, check=True, timeout=60)
    added = out.stdout.split()
    assert "sigpat.cli" in added
    assert {"dataclasses", "inspect"}.isdisjoint(added)
