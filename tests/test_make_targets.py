"""The docs name only make targets that exist, and the Makefile only files
that exist.

Every ``make <target>`` in a code span or code block of ``README.md``,
``ARCHITECTURE.md`` or the verify skill must be a rule in the
``Makefile``, and every ``scripts/...`` / ``benchmarks/...`` path a
recipe names must be in the tree.  Stdlib only; no target is run.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md")

FENCED = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
#: an inline code span; it may wrap onto the next line.
INLINE = re.compile(r"`([^`]+)`")
MAKE = re.compile(r"(?:^|[\s;&|(])make\s+(?:-\S+\s+)*([A-Za-z][\w-]*)")
RULE = re.compile(r"^([A-Za-z][\w-]*)\s*:(?!=)", re.MULTILINE)
PATH = re.compile(r"\b((?:scripts|benchmarks)/[\w./-]*\w)")


def make_targets_in(text):
    """Targets of the ``make`` calls in ``text``'s code blocks and spans."""
    code = FENCED.findall(text) + INLINE.findall(FENCED.sub("", text))
    return {target for span in code for target in MAKE.findall(span)}


def test_docs_name_only_make_targets_that_exist():
    rules = set(RULE.findall((ROOT / "Makefile").read_text()))
    named = {doc: make_targets_in((ROOT / doc).read_text()) for doc in DOCS}
    assert "check" in named["README.md"]  # the scan sees the docs' code
    assert {doc: targets - rules for doc, targets in named.items()} == {
        doc: set() for doc in DOCS}


def test_recipes_name_only_paths_that_exist():
    makefile = (ROOT / "Makefile").read_text()
    paths = {path for line in makefile.splitlines() if line.startswith("\t")
             for path in PATH.findall(line)}
    assert paths, "no recipe names a scripts/ or benchmarks/ path"
    assert {path for path in paths if not (ROOT / path).exists()} == set()
