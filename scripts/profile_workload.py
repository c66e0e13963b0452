#!/usr/bin/env python
"""cProfile attribution of one ledger workload: where a repetition's time goes.

    python scripts/profile_workload.py NAME [--top N] [--sort cumulative|tottime]

Loads ``benchmarks/ledger/workloads/NAME.json`` read-only through
``ScenarioSpec.from_json``, runs one warm-up and then one profiled
``repro.run(spec).to_json()`` (a ledger repetition on warm plan caches),
and prints the top rows with their share of the profiled total — the
attribution ROADMAP items 1–2 start from.  Profiler overhead inflates
call-heavy rows, so read the shares as a ranking, not as wall seconds;
the ledger (``benchmarks/ledger/run.py``) is what measures.
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

WORKLOADS = REPO / "benchmarks" / "ledger" / "workloads"


def profile(name: str) -> pstats.Stats:
    import repro
    from repro.api import ScenarioSpec

    spec = ScenarioSpec.from_json((WORKLOADS / f"{name}.json").read_text())
    repro.run(spec).to_json()  # warm-up: plan caches, lazy imports
    profiler = cProfile.Profile()
    profiler.enable()
    repro.run(spec).to_json()
    profiler.disable()
    return pstats.Stats(profiler)


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
    print(report(profile(args.workload), args.top, args.sort))
    return 0


if __name__ == "__main__":
    sys.exit(main())
