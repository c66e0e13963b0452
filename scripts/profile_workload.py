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
under ``tracemalloc``, phase by phase.  It first prints the traced peak
of ``repro.run``, what the finished result retains once the cyclic
collector has run, and the traced peak of ``.to_json()`` above that
(with the length of its text): a repetition's peak can be set in
either.  During the run, every 5 000
kernel events (heap pops, counted by a wrapper this script installs
around ``heapq.heappop`` for that repetition) it reads the traced heap,
and at each new high it takes a snapshot and counts the gc-tracked
objects by type; during ``.to_json()`` it reads the heap at every
function return (``sys.setprofile``) and snapshots at each high 2 %
above the last.  For each phase it prints the top allocation sites of
the highest snapshot, by line, with their block counts, and for the run
the top types of the same sample by count: the section to read when
``peak_rss_mb`` moves.  A site's line number shifts with every edit; a
type's name does not.  The list the type count walks is kept out of the
traced peak.
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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

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
#: while serialising, a snapshot is taken at a new high this much above
#: the last one: a snapshot costs a walk of every traced block.
TO_JSON_STEP = 1.02


@dataclass
class Phase:
    """One phase of a repetition under tracemalloc."""

    #: the traced heap the phase started from, in bytes.
    start: int = 0
    #: traced peak above ``start``, in bytes.
    peak: int = 0
    #: the snapshot at the phase's highest sample.
    snapshot: object = None
    #: the gc-tracked objects by type at that sample (run phase only).
    types: Optional[Counter] = None


class Sampler:
    """Reads the traced heap when called; snapshots at each new high."""

    def __init__(self, count_types: bool, step: float = 1.0):
        self.count_types, self.step = count_types, step
        self.start = tracemalloc.get_traced_memory()[0]
        self.high = self.start
        self.phase = Phase(start=self.start)

    def __call__(self) -> None:
        current, traced_peak = tracemalloc.get_traced_memory()
        phase = self.phase
        phase.peak = max(phase.peak, traced_peak - self.start)
        if current > self.high * self.step or phase.snapshot is None:
            self.high = current
            phase.snapshot = tracemalloc.take_snapshot()  # held untraced
            if self.count_types:
                phase.types = Counter(type(obj).__name__ for obj in gc.get_objects())
            # gc.get_objects()'s list is traced: keep it out of the peak.
            tracemalloc.reset_peak()

    def finish(self) -> Phase:
        self.phase.peak = max(
            self.phase.peak, tracemalloc.get_traced_memory()[1] - self.start
        )
        return self.phase


def peak_heap(spec) -> tuple[Phase, int, Phase, int]:
    """One warm repetition under tracemalloc, phase by phase:
    ``(run, bytes the result retains, to_json, length of its text)``.

    The run is sampled every :data:`SAMPLE_EVERY` kernel events (heap
    pops), with the gc-tracked types counted at its highest sample;
    ``.to_json()`` at every function return (``sys.setprofile``), which
    catches the join that builds its text."""
    import repro

    pop = heapq.heappop
    countdown = SAMPLE_EVERY

    def sampling_pop(heap):
        nonlocal countdown
        countdown -= 1
        if not countdown:
            countdown = SAMPLE_EVERY
            run_sampler()
        return pop(heap)

    def on_return(_frame, event, _arg):
        if event in ("return", "c_return"):
            json_sampler()

    gc.collect()
    heapq.heappop = sampling_pop  # the kernel binds it when a run starts
    tracemalloc.start()
    try:
        run_sampler = Sampler(count_types=True)
        result = repro.run(spec)
        run = run_sampler.finish()
        # What the result holds, not the cycles the run left for the
        # collector (they read as retained until it happens to run).
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - run_sampler.start
        json_sampler = Sampler(count_types=False, step=TO_JSON_STEP)
        sys.setprofile(on_return)
        try:
            text = result.to_json()
        finally:
            sys.setprofile(None)
        to_json = json_sampler.finish()
    finally:
        tracemalloc.stop()
        heapq.heappop = pop
    return run, retained, to_json, len(text)


def phase_report(run: Phase, retained: int, to_json: Phase, text: int) -> str:
    """The traced peak of each phase, above the heap it started from."""
    mib = 1 << 20
    return "\n".join([
        f"repro.run: traced peak {run.peak / mib:.2f} MiB; the result "
        f"retains {retained / mib:.2f} MiB",
        f".to_json(): traced peak {to_json.peak / mib:.2f} MiB above the "
        f"retained result, for {text / mib:.2f} MiB of text",
    ])


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


def type_report(types: Counter, top: int = 10) -> str:
    """The gc-tracked objects at the highest sample, top types by count."""
    lines = [
        f"gc-tracked objects at the highest sample: "
        f"{sum(types.values())}; top {top} types",
        f"{'objects':>9}  type",
    ]
    lines += [f"{count:>9}  {kind}" for kind, count in types.most_common(top)]
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
        "peak heap: one more warm repetition under tracemalloc; the run "
        f"sampled every {SAMPLE_EVERY} kernel events, .to_json() at every return"
    )
    run, retained, to_json, text = peak_heap(spec)
    print(phase_report(run, retained, to_json, text))
    print()
    print("the run's highest sample")
    print(heap_report(run.start + run.peak, run.snapshot))
    print(type_report(run.types))
    print()
    print(".to_json()'s highest sample (the retained result included)")
    print(heap_report(to_json.start + to_json.peak, to_json.snapshot))
    return 0


if __name__ == "__main__":
    sys.exit(main())
