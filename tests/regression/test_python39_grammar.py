"""Every Python file of the project parses with the Python 3.9 grammar.

The code must run on Python 3.9 and 3.12.  ``ast.parse`` with
``feature_version=(3, 9)`` rejects newer syntax (``match`` statements,
parenthesized context managers, ``except*``) on any interpreter.  It checks
grammar only: a call to a standard-library API that 3.9 lacks still parses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DIRS = ("src", "tests", "benchmarks", "examples", "perfbench")


def test_every_file_parses_with_python_39_grammar():
    files = sorted(path for name in DIRS for path in (ROOT / name).rglob("*.py"))
    assert ROOT / "src" / "repro" / "__init__.py" in files
    errors = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 9))
        except SyntaxError as exc:
            errors.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert errors == []
