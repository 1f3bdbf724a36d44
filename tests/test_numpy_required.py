"""numpy is a hard dependency: no guarded import, no second platform.

``src/`` used to carry a pure-Python fallback behind every numpy import
that nothing tested and that had stopped working.  This guard keeps it
from growing back: a missing numpy must be one ``ImportError`` at
``import repro``, never a silently different pipeline.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NONE_PROBE = re.compile(r"\b_?np is (not )?None\b|\b_?np = None\b")


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "numpy"
    return False


def _guarded_numpy_imports(tree: ast.AST) -> list[int]:
    """Lines of ``try:`` blocks that import numpy and catch the failure."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and node.handlers:
            if any(_imports_numpy(inner) for stmt in node.body for inner in ast.walk(stmt)):
                lines.append(node.lineno)
    return lines


def test_no_optional_numpy_in_src():
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        offences += [
            f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for number, line in enumerate(text.splitlines(), 1)
            if NONE_PROBE.search(line)
        ]
        offences += [
            f"{path.relative_to(SRC)}:{line}: numpy import inside try/except"
            for line in _guarded_numpy_imports(ast.parse(text))
        ]
    assert not offences, "\n".join(offences)


def test_import_fails_at_once_without_numpy():
    # ``None`` in sys.modules makes ``import numpy`` raise, as if absent.
    code = "import sys; sys.modules['numpy'] = None; import repro"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    verdict = result.stderr.strip().splitlines()[-1]
    assert "Error" in verdict and "numpy" in verdict, result.stderr
