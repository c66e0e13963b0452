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

The report ends with a cyclic-garbage census: one more warm repetition
under ``gc.disable()`` and ``gc.DEBUG_SAVEALL``, then the object count
by type of what only the cyclic collector could free.  A finished query
and a single-query machine are freed by refcount, so anything engine-
or serving-shaped in it is a leak of teardown, and ``peak_rss_mb``
then depends on when the collector happens to run.
"""

import argparse
import cProfile
import gc
import pstats
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

WORKLOADS = REPO / "benchmarks" / "ledger" / "workloads"


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
        path = Path(filename)
        if path.is_relative_to(REPO):
            path = path.relative_to(REPO)
        else:
            path = Path(path.name)
        lines.append(
            f"{seconds / total:>7.1%} {seconds:>9.3f} {row[1]:>9}  "
            f"{path}:{line}({function})"
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
    print(census(spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
