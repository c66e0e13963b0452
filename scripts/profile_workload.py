#!/usr/bin/env python
"""cProfile attribution of one ledger workload: where a repetition's time goes.

    python scripts/profile_workload.py NAME [--top N] [--sort cumulative|tottime]

Loads ``benchmarks/ledger/workloads/NAME.json`` read-only through
``ScenarioSpec.from_json`` and prints two top-N sections, each row with
its share of the section's profiled total:

* the cold set-up: ``build_plans`` + ``build_plan_bank`` on the empty
  caches of this fresh process (the optimizer's part of ``setup_s``);
* one warm repetition: after one warm-up, one profiled
  ``repro.run(spec).to_json()`` (a ledger repetition on warm plan
  caches) — the attribution ROADMAP items 1–2 start from.

Profiler overhead inflates call-heavy rows, so read the shares as a
ranking, not as wall seconds; the ledger (``benchmarks/ledger/run.py``)
is what measures.

It then prints where the cold imports go: the same set-up plus one run
in a child ``python -X importtime``, as self time by package and the top
modules.  Import cost grows with the source compiled and the dataclasses
decorated, so this is the section to read when ``setup_s`` moves and the
plan build did not.

Then comes a cyclic-garbage census: one more warm repetition under
``gc.disable()`` and ``gc.DEBUG_SAVEALL``, then the object count by type
of what only the cyclic collector could free.  A finished query and a
single-query machine are freed by refcount, so anything engine- or
serving-shaped in it is a leak of teardown, and ``peak_rss_mb`` then
depends on when the collector happens to run.

The report ends with where the peak heap goes: one more warm repetition
under ``tracemalloc``.  Every 5 000 kernel events (heap pops, counted
by a wrapper this script installs around ``heapq.heappop`` for that
repetition) it reads the traced heap, and at each new high it takes a
snapshot.  It prints the traced peak and the top allocation sites of
the highest snapshot, by line, with their block counts: the section to
read when ``peak_rss_mb`` moves.
"""

import argparse
import cProfile
import gc
import heapq
import os
import pstats
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

WORKLOADS = REPO / "benchmarks" / "ledger" / "workloads"


def shown(filename: str) -> Path:
    """A path in the tree relative to it; any other by its file name."""
    path = Path(filename)
    return path.relative_to(REPO) if path.is_relative_to(REPO) else Path(path.name)


def load(name: str):
    from repro.api import ScenarioSpec

    return ScenarioSpec.from_json((WORKLOADS / f"{name}.json").read_text())


def profile_setup(spec) -> pstats.Stats:
    """Cold plan compilation; must run before anything fills the caches."""
    from repro.api import build_plan_bank, build_plans

    profiler = cProfile.Profile()
    profiler.enable()
    build_plans(spec)
    build_plan_bank(spec)
    profiler.disable()
    return pstats.Stats(profiler)


def profile(spec) -> pstats.Stats:
    import repro

    repro.run(spec).to_json()  # warm-up: plan caches, lazy imports
    profiler = cProfile.Profile()
    profiler.enable()
    repro.run(spec).to_json()
    profiler.disable()
    return pstats.Stats(profiler)


def census(spec, top: int = 10) -> str:
    """Cyclic garbage of one warm repetition, counted by type."""
    import repro

    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        repro.run(spec).to_json()
        gc.collect()
        counts = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    lines = [
        f"cyclic garbage of one warm repetition: "
        f"{sum(counts.values())} objects; top {top} types",
        f"{'objects':>9}  type",
    ]
    lines += [f"{count:>9}  {kind}" for kind, count in counts.most_common(top)]
    return "\n".join(lines)


#: kernel events between two reads of the traced heap.
SAMPLE_EVERY = 5_000


def peak_heap(spec):
    """``(traced peak bytes, snapshot at the highest sampled heap)`` of
    one warm repetition."""
    import repro

    pop = heapq.heappop
    countdown, high, snapshot = SAMPLE_EVERY, 0, None

    def sampling_pop(heap):
        nonlocal countdown, high, snapshot
        countdown -= 1
        if not countdown:
            countdown = SAMPLE_EVERY
            current = tracemalloc.get_traced_memory()[0]
            if current > high:
                high = current
                snapshot = tracemalloc.take_snapshot()
        return pop(heap)

    gc.collect()
    heapq.heappop = sampling_pop  # the kernel binds it when a run starts
    tracemalloc.start()
    try:
        repro.run(spec).to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        heapq.heappop = pop
    return peak, snapshot


def heap_report(peak: int, snapshot, top: int = 10) -> str:
    """The traced peak, then the snapshot's top sites by size."""
    mib = 1 << 20
    stats = snapshot.statistics("lineno")
    total = sum(stat.size for stat in stats)
    blocks = sum(stat.count for stat in stats)
    lines = [
        f"traced peak {peak / mib:.1f} MiB; highest sample "
        f"{total / mib:.1f} MiB in {blocks} blocks; top {top} sites",
        f"{'share':>7} {'MiB':>8} {'blocks':>8}  site",
    ]
    for stat in stats[:top]:
        frame = stat.traceback[0]
        lines.append(
            f"{stat.size / total:>7.1%} {stat.size / mib:>8.3f} "
            f"{stat.count:>8}  {shown(frame.filename)}:{frame.lineno}"
        )
    return "\n".join(lines)


#: a ledger worker's cold set-up plus one run, for ``-X importtime``.
COLD_RUN = """
import sys
import repro
from repro.api import ScenarioSpec, build_plan_bank, build_plans
spec = ScenarioSpec.from_json(open(sys.argv[1]).read())
build_plans(spec)
build_plan_bank(spec)
repro.run(spec).to_json()
"""


def import_times(text: str) -> list[tuple[str, int, int]]:
    """``(module, self us, cumulative us)`` rows of ``-X importtime``."""
    rows = []
    for line in text.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header row, or the run's own output
        rows.append((fields[2].strip(), int(fields[0]), int(fields[1])))
    return rows


def import_report(rows: list[tuple[str, int, int]], top: int) -> str:
    """Self time by package (``repro`` by subpackage), then top modules."""
    total = sum(own for _module, own, _cumulative in rows)
    by_package: Counter = Counter()
    modules: dict[str, set] = {}
    for module, own, _cumulative in rows:
        parts = module.split(".")
        package = ".".join(parts[:2]) if parts[0] == "repro" else parts[0]
        by_package[package] += own
        # A submodule loaded through its package's __init__ is listed
        # twice; count each name once.
        modules.setdefault(package, set()).add(module)
    names = set().union(*modules.values())
    ours = sum(1 for module in names if module.split(".")[0] == "repro")
    lines = [
        f"{len(names)} modules ({ours} repro), {total / 1000:.1f} ms self "
        f"time; by package",
        f"{'share':>7} {'ms':>8} {'modules':>8}  package",
    ]
    for package, own in by_package.most_common(top):
        count = len(modules[package])
        lines.append(f"{own / total:>7.1%} {own / 1000:>8.1f} {count:>8}  {package}")
    lines += ["", f"top {top} modules by self time"]
    lines.append(f"{'share':>7} {'ms':>8} {'cum ms':>8}  module")
    for module, own, cumulative in sorted(rows, key=lambda row: -row[1])[:top]:
        lines.append(
            f"{own / total:>7.1%} {own / 1000:>8.1f} "
            f"{cumulative / 1000:>8.1f}  {module}"
        )
    return "\n".join(lines)


def cold_imports(name: str, top: int) -> str:
    """The cold set-up plus one run, in a child under ``-X importtime``."""
    workload = str(WORKLOADS / f"{name}.json")
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", COLD_RUN, workload],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    return import_report(import_times(child.stderr), top)


def report(stats: pstats.Stats, top: int, sort: str) -> str:
    total = stats.total_tt
    column = {"tottime": 2, "cumulative": 3}[sort]
    rows = sorted(stats.stats.items(), key=lambda item: -item[1][column])
    lines = [
        f"profiled total {total:.3f} s, {stats.total_calls} calls; "
        f"top {top} by {sort}",
        f"{'share':>7} {'seconds':>9} {'calls':>9}  function",
    ]
    for (filename, line, function), row in rows[:top]:
        seconds = row[column]
        lines.append(
            f"{seconds / total:>7.1%} {seconds:>9.3f} {row[1]:>9}  "
            f"{shown(filename)}:{line}({function})"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    names = sorted(p.stem for p in WORKLOADS.glob("*.json") if p.stem != "manifest")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "workload", choices=names, metavar="NAME", help=f"one of: {', '.join(names)}"
    )
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument(
        "--sort", choices=("cumulative", "tottime"), default="cumulative"
    )
    args = parser.parse_args(argv)
    spec = load(args.workload)
    print("cold set-up: build_plans + build_plan_bank on empty caches")
    print(report(profile_setup(spec), args.top, args.sort))
    print()
    print("one warm repetition")
    print(report(profile(spec), args.top, args.sort))
    print()
    print("cold imports: set-up + one run in a child python -X importtime")
    print(cold_imports(args.workload, args.top))
    print()
    print(census(spec))
    print()
    print(
        f"peak heap: one more warm repetition under tracemalloc, sampled "
        f"every {SAMPLE_EVERY} kernel events"
    )
    print(heap_report(*peak_heap(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
