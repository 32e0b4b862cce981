"""Every module-level import under src/ is used by its module.

Package ``__init__`` files are skipped: their imports are the package's
exports.  A name counts as used when the module reads it, or when it
appears as a word inside a string, such as a quoted forward reference.  An
import statement marked ``# noqa: F401`` is exempt, for names kept for
another module's sake.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, Tuple

SRC = Path(__file__).resolve().parents[2] / "src"


def _imported_names(tree: ast.Module, lines) -> Iterator[Tuple[str, int]]:
    """(bound name, line) of each module-level import not marked noqa."""
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        text = "".join(lines[stmt.lineno - 1:stmt.end_lineno])
        if "noqa: F401" in text:
            continue
        for alias in stmt.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, stmt.lineno


def _unused_imports(path: Path) -> Dict[str, int]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    unused = {}
    for name, line in _imported_names(tree, source.splitlines(True)):
        if name in read:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        if any(word.search(text) for text in strings):
            continue
        unused[name] = line
    return unused


def test_modules_under_src_import_only_what_they_use():
    modules = [path for path in sorted(SRC.rglob("*.py"))
               if path.name != "__init__.py"]
    assert modules, f"no modules under {SRC}"
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in modules
             for name, line in _unused_imports(path).items()]
    assert not found, "unused imports:\n  " + "\n  ".join(found)
