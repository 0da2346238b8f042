"""Every third-party package ``src/repro`` imports is declared.

A fresh ``pip install -e ".[test]"`` must be able to ``import repro``,
so each import outside the standard library and the package itself is
either a required dependency in ``pyproject.toml`` or an optional extra
(``[project.optional-dependencies]``) imported only under
``try/except ImportError``, so the package still imports without it.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
import sysconfig
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

try:
    import tomllib
except ImportError:  # Python < 3.11: pytest itself depends on tomli there
    import tomli as tomllib

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"


def _is_stdlib(name: str) -> bool:
    names = getattr(sys, "stdlib_module_names", None)  # Python >= 3.10
    if names is not None:
        return name in names
    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin is None:
        return False
    if spec.origin in ("built-in", "frozen"):
        return True
    paths = sysconfig.get_paths()
    return ("site-packages" not in spec.origin
            and spec.origin.startswith((paths["stdlib"], paths["platstdlib"])))


def _requirement_name(requirement: str) -> str:
    """``"scipy>=1.9; python_version>'3.9'"`` -> ``"scipy"``."""
    return re.split(r"[\s<>=!~;\[(]", requirement, maxsplit=1)[0].lower()


def _guards_import_error(node: ast.Try) -> bool:
    for handler in node.handlers:
        caught = handler.type
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if any(isinstance(n, ast.Name)
               and n.id in ("ImportError", "ModuleNotFoundError")
               for n in names):
            return True
    return False


def _imports(node: ast.AST, guarded: bool = False
             ) -> Iterator[Tuple[str, int, bool]]:
    """``(top-level module, line, guarded)`` for every absolute import
    under *node*; *guarded* marks imports in the body of a ``try`` that
    catches ImportError."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name.split(".")[0], node.lineno, guarded
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0 and node.module:
            yield node.module.split(".")[0], node.lineno, guarded
    elif isinstance(node, ast.Try):
        inner = guarded or _guards_import_error(node)
        for statement in node.body:
            yield from _imports(statement, inner)
        for rest in (*node.handlers, *node.orelse, *node.finalbody):
            yield from _imports(rest, guarded)
    else:
        for child in ast.iter_child_nodes(node):
            yield from _imports(child, guarded)


def _third_party_imports() -> Dict[str, List[Tuple[str, bool]]]:
    found: Dict[str, List[Tuple[str, bool]]] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for module, line, guarded in _imports(tree):
            if module == "repro" or _is_stdlib(module):
                continue
            where = f"{path.relative_to(ROOT)}:{line}"
            found.setdefault(module, []).append((where, guarded))
    return found


def _declared() -> Tuple[Set[str], Set[str]]:
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    required = {_requirement_name(r) for r in project.get("dependencies", [])}
    extras = {_requirement_name(r)
              for group in project.get("optional-dependencies", {}).values()
              for r in group}
    return required, extras


def test_every_third_party_import_is_declared():
    required, extras = _declared()
    problems = []
    for module, sites in sorted(_third_party_imports().items()):
        if module.lower() in required:
            continue
        unguarded = [where for where, guarded in sites if not guarded]
        if module.lower() not in extras:
            problems.append(f"{module} is not declared in pyproject.toml "
                            f"(imported at {sites[0][0]})")
        elif unguarded:
            problems.append(f"optional {module} imported without a "
                            f"try/except ImportError at {unguarded[0]}")
    assert not problems, "\n".join(problems)


def test_scan_sees_the_known_imports():
    """The scan itself works: numpy is found as a required import and
    scipy as an optional one, guarded at every site."""
    found = _third_party_imports()
    assert "numpy" in found
    assert found["scipy"] and all(guarded for _, guarded in found["scipy"])


def test_scan_flags_undeclared_and_unguarded_imports():
    source = (
        "import os\n"
        "import networkx as nx\n"
        "try:\n"
        "    from scipy.sparse import coo_matrix\n"
        "except ImportError:\n"
        "    import numpy\n"
        "def lazy():\n"
        "    import yaml\n"
    )
    seen = [(m, g) for m, _, g in _imports(ast.parse(source))
            if not _is_stdlib(m)]
    assert seen == [("networkx", False), ("scipy", True),
                    ("numpy", False), ("yaml", False)]
