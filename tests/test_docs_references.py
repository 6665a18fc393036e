"""Every dotted ``repro.*`` name the user docs mention still resolves.

Each reference imports its longest module prefix, then ``getattr``s
the rest, so a doc that names a deleted module, class or method fails
here.  ``DESIGN.md``, ``CHANGELOG.md``, ``CHANGES.md`` and
``ROADMAP.md`` keep historical names on purpose and are not read.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "CONTRIBUTING.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

_REFERENCE = re.compile(r"\brepro(?:\.\w+)+")


def references():
    """Sorted ``(dotted name, doc file name)`` pairs."""
    return sorted(
        {
            (name, path.name)
            for path in DOCS
            for name in _REFERENCE.findall(path.read_text())
        }
    )


def resolve(dotted):
    """Import the longest module prefix of *dotted*, then ``getattr``
    the remaining parts; raises if any step is missing."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            owner = getattr(owner, name)
        return owner
    raise ModuleNotFoundError(dotted)


@pytest.mark.parametrize("dotted, doc", references())
def test_doc_reference_resolves(dotted, doc):
    resolve(dotted)
