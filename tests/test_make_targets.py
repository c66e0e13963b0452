"""The docs name only make targets that exist, and the Makefile only files
that exist.

Every ``make <target>`` in a code span or code block of ``README.md``,
``ARCHITECTURE.md`` or the verify skill must be a rule in the
``Makefile``, and every ``scripts/...`` / ``benchmarks/...`` path a
recipe names must be in the tree, and ``make profile``'s cold-import
section reads ``-X importtime`` rows and its peak-heap section a
``tracemalloc`` snapshot and a count of objects by type.  Stdlib only; no target is run.
"""

import importlib.util
import re
import tracemalloc
from collections import Counter
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


def profile_script():
    spec = importlib.util.spec_from_file_location(
        "profile_workload", ROOT / "scripts" / "profile_workload.py")
    profile = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(profile)
    return profile


def test_profile_reports_cold_imports_by_package():
    # ``make profile``'s cold-import section, on canned ``-X importtime``
    # rows: a submodule a package __init__ loads is listed twice, and
    # counts once.
    profile = profile_script()
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


def test_profile_reports_each_phase_of_a_repetition():
    # ``make profile``'s phase lines: the run's peak and what its result
    # retains, then ``to_json``'s peak above that, beside its text.
    profile = profile_script()
    mib = 1 << 20
    run = profile.Phase(start=0, peak=4 * mib)
    to_json = profile.Phase(start=3 * mib, peak=mib + mib // 2)
    assert profile.phase_report(run, 3 * mib, to_json, mib // 2).splitlines() == [
        "repro.run: traced peak 4.00 MiB; the result retains 3.00 MiB",
        ".to_json(): traced peak 1.50 MiB above the retained result, "
        "for 0.50 MiB of text",
    ]


def test_profile_reports_the_peak_heap_by_site():
    # ``make profile``'s peak-heap section, on a canned tracemalloc
    # snapshot: sites by size with their block counts, a path in the
    # tree relative to it and any other by its file name.
    mib = 1 << 20
    queues = str(ROOT / "src" / "repro" / "engine" / "queues.py")
    traces = [(0, 2 * mib, ((queues, 53),), 1)] * 3 + [
        (0, 2 * mib, (("/usr/lib/python3.11/random.py", 164),), 1)]
    snapshot = tracemalloc.Snapshot(tuple(traces), 1)
    assert profile_script().heap_report(9 * mib, snapshot, top=2).splitlines() == [
        "traced peak 9.0 MiB; highest sample 8.0 MiB in 4 blocks; top 2 sites",
        "  share      MiB   blocks  site",
        "  75.0%    6.000        3  src/repro/engine/queues.py:53",
        "  25.0%    2.000        1  random.py:164",
    ]


def test_profile_keeps_its_type_count_out_of_the_traced_peak(monkeypatch):
    # The type count walks a list of every gc-tracked object, built at
    # the highest sample; the reported peak must not include it.
    import heapq

    import repro

    profile = profile_script()

    class Result:
        def to_json(self):
            return ""

    def run(_spec):
        heap = [0]
        for _ in range(profile.SAMPLE_EVERY):
            heapq.heappop(heap)  # the script's sampling wrapper
            heap.append(0)
        return Result()

    monkeypatch.setattr(repro, "run", run)
    run_phase, _retained, _to_json, _text = profile.peak_heap(None)
    sampled = sum(stat.size for stat in run_phase.snapshot.statistics("filename"))
    census_list = 8 * sum(run_phase.types.values())
    assert census_list > 1 << 18  # the bound below can tell it apart
    assert run_phase.start + run_phase.peak - sampled < census_list / 4


def test_profile_snapshots_to_json_at_its_high(monkeypatch):
    # A transient that ``to_json`` frees before it returns: the phase's
    # peak counts it, and its snapshot is taken while it is held.
    import repro

    profile = profile_script()

    class Result:
        def __init__(self):
            self.kept = [object() for _ in range(1000)]  # what the run retains

        def to_json(self):
            tokens = [str(i) for i in range(50_000)]  # the transient
            return "".join(tokens)

    monkeypatch.setattr(repro, "run", lambda _spec: Result())
    _run, retained, to_json, text = profile.peak_heap(None)
    assert retained > 1000 * 16
    assert to_json.peak > 50_000 * 40 + text
    at_high = to_json.snapshot.statistics("lineno")
    assert at_high[0].traceback[0].filename == __file__
    assert at_high[0].size > 50_000 * 40


def test_profile_retains_only_what_the_result_holds(monkeypatch):
    # Cyclic garbage the run leaves for the collector is not part of
    # what the result retains: the reading follows a collection.
    import gc

    import repro

    profile = profile_script()

    class Result:
        def __init__(self):
            self.kept = bytes(100_000)

        def to_json(self):
            return ""

    def run(_spec):
        gc.disable()  # leave the cycles to a collection, not to chance
        for _ in range(2000):
            cycle = [bytes(500)]
            cycle.append(cycle)
        return Result()

    monkeypatch.setattr(repro, "run", run)
    try:
        _run, retained, _to_json, _text = profile.peak_heap(None)
    finally:
        gc.enable()
    assert 100_000 <= retained < 120_000


def test_profile_reports_the_peak_heap_by_type():
    # ``make profile``'s peak-heap section, on a canned census of the
    # highest sample: types by count, most first, at most ``top``.
    types = Counter({"DataActivation": 40, "OperatorQueueSet": 8704,
                     "deque": 12})
    assert profile_script().type_report(types, top=2).splitlines() == [
        "gc-tracked objects at the highest sample: 8756; top 2 types",
        "  objects  type",
        "     8704  OperatorQueueSet",
        "       40  DataActivation",
    ]
