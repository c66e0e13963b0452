"""The docs name only make targets that exist, and the Makefile only files
that exist.

Every ``make <target>`` in a code span or code block of ``README.md``,
``ARCHITECTURE.md`` or the verify skill must be a rule in the
``Makefile``, and every ``scripts/...`` / ``benchmarks/...`` path a
recipe names must be in the tree, and ``make profile``'s cold-import
section reads ``-X importtime`` rows.  Stdlib only; no target is run.
"""

import importlib.util
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


def test_profile_reports_cold_imports_by_package():
    # ``make profile``'s cold-import section, on canned ``-X importtime``
    # rows: a submodule a package __init__ loads is listed twice, and
    # counts once.
    spec = importlib.util.spec_from_file_location(
        "profile_workload", ROOT / "scripts" / "profile_workload.py")
    profile = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(profile)
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       300 |        300 |   json",
        "import time:      6000 |       6000 |       repro.cluster.spec",
        "import time:        40 |       6040 |     repro.cluster.spec",
        "import time:      2000 |       8340 | repro",
    ])
    rows = profile.import_times(stderr)
    assert [module for module, _own, _cum in rows] == [
        "json", "repro.cluster.spec", "repro.cluster.spec", "repro"]
    text = profile.import_report(rows, top=2)
    assert text.splitlines()[0] == (
        "3 modules (2 repro), 8.3 ms self time; by package")
    assert "      2  repro.cluster" not in text  # one module, not two
    assert "      1  repro.cluster" in text
