#!/usr/bin/env python
"""Gate: ``src/`` names that nothing outside ``tests/`` uses.

    python scripts/audit_reach.py

Collects every function and class defined at the top level of a module
under ``src/repro``, and every method and property of those classes
(dunders excluded).  It then walks the AST of every Python file under
``src``, ``scripts``, ``benchmarks``, ``examples`` and ``perf`` and
records each name that is *used*: read as a bare name or as an
attribute, or named in a string constant (``"fft:build_fft"`` is looked
up with ``getattr``).  Imports, definitions, docstrings and comments are
not uses.  A function under a decorator call (``@_register("add")``) is
reached through its registry and counts as used.  The inline Python of
``.github/workflows/ci.yml`` is matched by whole word.

A name that is defined but never used that way has no caller that the
flow, a CI script, a benchmark or an example can reach, so only
``tests/`` can call it.  Matching is by name alone, so a name shared
with any used name counts as used: the report can miss dead code but
never lists a live name.  It prints one ``path:line  qualname`` per
name and the count.  The test oracles in :data:`TEST_ORACLES` are kept
on purpose; it exits 1 when it lists any other name.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
CALLER_DIRS = ("src", "scripts", "benchmarks", "examples", "perf")
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
#: names only tests call, kept because the tests check the model with them
TEST_ORACLES = ("verify_checkpoint", "load_golden", "retire_pcs_from_blocks",
                "missing_semantics")


def definitions(path: Path) -> list[tuple[int, str, str]]:
    """``(line, qualname, name)`` for each definition the audit covers."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if any(isinstance(d, ast.Call) for d in node.decorator_list):
            continue
        found.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("__")):
                    found.append((member.lineno,
                                  f"{node.name}.{member.name}",
                                  member.name))
    return found


def used_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr):
                docstrings.add(id(first.value))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            used.update(IDENTIFIER.findall(node.value))
    return used


def main() -> int:
    used: set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            # this script names the oracles; that is not a use
            if path != Path(__file__).resolve():
                used |= used_names(path)
    workflow = WORKFLOW.read_text() if WORKFLOW.exists() else ""
    unused = []
    unexpected = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for line, qualname, name in definitions(path):
            if name in used or re.search(rf"\b{re.escape(name)}\b",
                                         workflow):
                continue
            unused.append(f"{path.relative_to(REPO_ROOT)}:{line}  "
                          f"{qualname}")
            if name not in TEST_ORACLES:
                unexpected.append(qualname)
    for entry in unused:
        print(entry)
    print(f"{len(unused)} src/ name(s) used by nothing outside tests/")
    if unexpected:
        print(f"not a kept test oracle: {', '.join(unexpected)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
