"""Every ``repro`` module and name the ``perfbench/`` harness imports exists.

The repo benchmark (``BENCHMARK.json``) runs ``perfbench/`` against the
package, but nothing in the test suite imports it.  Removing or renaming
something it uses would only surface when the benchmark runs; this scan
surfaces it here instead.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _repro_imports(tree: ast.AST) -> Iterator[Tuple[str, Tuple[str, ...], int]]:
    """``(module, imported names, line)`` for every absolute ``repro``
    import anywhere in *tree*, function-local ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, (), node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module
              and node.module.split(".")[0] == "repro"):
            yield (node.module, tuple(a.name for a in node.names),
                   node.lineno)


def _unresolved(module: str, names: Tuple[str, ...]) -> List[str]:
    """What of ``from module import names`` fails to resolve."""
    try:
        target = importlib.import_module(module)
    except ImportError as exc:
        return [f"module {module} ({exc})"]
    missing = []
    for name in names:
        if hasattr(target, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(f"{module}.{name}")
    return missing


def _scan() -> List[Tuple[str, str, Tuple[str, ...]]]:
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for module, names, line in _repro_imports(tree):
            found.append((f"{path.relative_to(ROOT)}:{line}", module, names))
    return found


def test_every_perfbench_repro_import_resolves():
    problems = [f"{where}: {missing}"
                for where, module, names in _scan()
                for missing in _unresolved(module, names)]
    assert not problems, "\n".join(problems)


def test_scan_sees_the_known_imports():
    """The scan itself works: it finds the planner and server imports
    the benchmark driver is known to make."""
    imported = {(module, name) for _, module, names in _scan()
                for name in names}
    assert ("repro.analysis.planner", "plan_request") in imported
    assert ("repro.serve.server", "KernelServer") in imported
    assert ("repro", "api") in imported


def test_scan_flags_missing_modules_and_names():
    source = (
        "import os\n"
        "import repro\n"
        "def lazy():\n"
        "    from repro.analysis.planner import plan_request, gone\n"
        "from repro.no_such_module import anything\n"
    )
    seen = sorted((m, n) for m, n, _ in _repro_imports(ast.parse(source)))
    assert seen == [
        ("repro", ()),
        ("repro.analysis.planner", ("plan_request", "gone")),
        ("repro.no_such_module", ("anything",)),
    ]
    assert _unresolved("repro.analysis.planner", ("plan_request", "gone")) == [
        "repro.analysis.planner.gone"]
    assert _unresolved("repro", ("api",)) == []
    (problem,) = _unresolved("repro.no_such_module", ("anything",))
    assert problem.startswith("module repro.no_such_module")
