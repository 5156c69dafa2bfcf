"""No module-level import that its file never uses (pyflakes' F401).

CI's lint job runs ruff with pyflakes selected over ``src``, ``tests``,
``benchmarks`` and ``examples``; ruff is not part of the test toolchain,
so this stdlib scan holds the same line in tier-1.  A name counts as used
when the module loads it anywhere (a nested function or class too), when
``__all__`` lists it, or when a quoted annotation mentions it.  The one
exemption is pyproject's: ``src/repro/**/__init__.py`` files re-export
their public surface.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples")


def _module_level_imports(tree):
    """(bound name, line) of each import at module scope, including those
    under a module-level ``if`` / ``try``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody"):
                pending.extend(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


def _quoted_annotations(tree):
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            for inner in ast.walk(annotation) if annotation else ():
                if (isinstance(inner, ast.Constant)
                        and isinstance(inner.value, str)):
                    yield inner.value


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    for text in _quoted_annotations(tree):
        try:
            quoted = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    return sorted((line, name) for name, line in _module_level_imports(tree)
                  if name not in used)


def _exempt(path):
    rel = path.relative_to(ROOT).as_posix()
    return rel.startswith("src/repro/") and path.name == "__init__.py"


def _python_files():
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if "__pycache__" not in path.parts and not _exempt(path):
                yield path


def test_no_module_level_import_goes_unused():
    offenders = [f"{path.relative_to(ROOT)}:{line} {name}"
                 for path in _python_files()
                 for line, name in unused_imports(path)]
    assert offenders == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from typing import List\ndef f(x: 'List[int]'): pass\n", []),
    ("from typing import List\nx: 'List' = []\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
    ("try:\n    import json\nexcept ImportError:\n    json = None\nprint(json)\n", []),
    ("if True:\n    import json\n", ["json"]),
    ("def f():\n    import json\n", []),  # function scope: not module level
    ("import numpy as np\ndef f():\n    return np.zeros(1)\n", []),
])
def test_the_scan_itself(tmp_path, source, unused):
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert [name for _, name in unused_imports(path)] == unused
