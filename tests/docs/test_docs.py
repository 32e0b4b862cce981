"""Documentation health checks.

The docs tree is part of the product: broken relative links and rotted
docstring examples are regressions like any other.  Two gates:

* every relative markdown link (and in-repo anchor) in ``README.md`` and
  ``docs/*.md`` must resolve to a real file/heading;
* the executable examples in campaign-layer docstrings must keep passing
  under ``doctest``, and each listed module must keep at least one.
"""

import doctest
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DOC_FILES = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _anchors(markdown: str):
    """GitHub-style anchor slugs for every heading in ``markdown``."""
    slugs = set()
    for heading in _HEADING.findall(markdown):
        text = heading.strip().lower().replace("`", "")
        slug = re.sub(r"[^\w\- ]", "", text).replace(" ", "-")
        slugs.add(slug)
    return slugs


def test_doc_tree_exists():
    for name in ("architecture.md", "distributed.md", "cookbook.md",
                 "observability.md", "robustness.md"):
        assert (REPO / "docs" / name).is_file(), f"docs/{name} missing"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        dest = doc if not path_part else (doc.parent / path_part).resolve()
        if not dest.exists():
            broken.append(f"{target}: no such file {path_part}")
            continue
        if anchor and dest.suffix == ".md":
            if anchor not in _anchors(dest.read_text(encoding="utf-8")):
                broken.append(f"{target}: no heading for #{anchor}")
    assert not broken, f"{doc.name}: broken links:\n  " + "\n  ".join(broken)


@pytest.mark.parametrize("module_name", [
    "repro.campaign.jsonio",
    "repro.campaign.cache",
    "repro.campaign.dist.transport",
    "repro.campaign.dist.chaos",
])
def test_docstring_examples_pass(module_name):
    module = __import__(module_name, fromlist=["_"])
    failures, tests = doctest.testmod(module, verbose=False)
    assert tests > 0, f"{module_name} lost its doctest examples"
    assert failures == 0
