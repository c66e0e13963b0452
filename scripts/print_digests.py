#!/usr/bin/env python
"""The byte-identity table of ledger result files: one row per workload.

    python scripts/print_digests.py RESULT.json [RESULT.json ...]

Prints ``workload  seed  sim_digest  sim.events`` for every workload of
every file ``benchmarks/ledger/run.py --out`` wrote (``sim.events`` needs
``--trace 1``; ``-`` without it).  ``make digests`` runs the ledger at
seeds 1996 and 2815 and pipes the two files through here: a
byte-identity PR pastes the table from the parent and from the change.
"""

import json
import sys


def rows(path: str):
    with open(path) as handle:
        ledger = json.load(handle)
    for name, record in ledger["workloads"].items():
        events = record.get("per_layer", {}).get("sim.events", {}).get("value")
        yield (name, str(ledger["seed"]), str(record["sim_digest"])[:16],
               "-" if events is None else str(events))


def main(paths) -> int:
    if not paths:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    table = [("workload", "seed", "sim_digest", "sim.events")]
    table += [row for path in paths for row in rows(path)]
    widths = [max(len(row[i]) for row in table) for i in range(4)]
    for row in table:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
