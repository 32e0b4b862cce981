"""Every attribute the simulation stack stores on ``self`` is read somewhere.

Each module under ``src/repro/`` outside ``campaign/`` is parsed, and every
``self.<name>`` it assigns (plain, augmented or annotated) must be read in
some Python file under ``src``, ``tests``, ``benchmarks``, ``examples`` or
``perfbench``.  A read is an attribute load of that name (``x.<name>``), or
a string constant equal to it, which is how ``getattr`` and ``__slots__``
name an attribute.  A value stored and never read is state nothing needs.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
#: Left out: the campaign layer, whose one unread attribute is
#: ``_Metric.help``, the help text each metric family is registered with,
#: which ``GET /stats`` does not serve.
SKIPPED = ("campaign",)
READERS = ("src", "tests", "benchmarks", "examples", "perfbench")


def _self_stores(tree: ast.Module) -> Iterator[Tuple[str, str, int]]:
    """(class, attribute, line) of each ``self.<name>`` assignment."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if (isinstance(leaf, ast.Attribute)
                            and isinstance(leaf.value, ast.Name)
                            and leaf.value.id == "self"):
                        yield cls.name, leaf.attr, node.lineno


def _reads(tree: ast.Module) -> Set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_simulation_stack_keeps_no_write_only_attributes():
    read: Set[str] = set()
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            read |= _reads(_parse(path))
    stores: Dict[Tuple[str, str], List[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        if relative.parts[0] in SKIPPED:
            continue
        for cls, name, line in _self_stores(_parse(path)):
            stores.setdefault((cls, name), []).append(f"{relative}:{line}")
    assert stores, f"no attribute assignments found under {PACKAGE}"
    unread = [f"{where[0]}: {cls}.{name}"
              for (cls, name), where in sorted(stores.items())
              if name not in read]
    assert not unread, "attributes stored but never read:\n  " + \
        "\n  ".join(unread)
