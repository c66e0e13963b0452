#!/usr/bin/env python
"""Alternating parent/change ledger pairs: is the change faster, and by how much?

    python scripts/ledger_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--pairs 10] [--seed S]

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts of this repository.
Each pair runs ``benchmarks/ledger/run.py --workload W --seconds 12
--trace 0`` once in each checkout, one process at a time — odd pairs the
parent first, even pairs the change first, so a slow spell of the host
hits both sides alike.  Prints, per side, the median and quartiles of
``activations_per_s``, ``setup_s`` and ``peak_rss_mb`` with every run,
the per-pair win count of the change, whether the medians lie further
apart than the parent's interquartile spread, failed repetitions, and
whether every run of both sides produced one and the same ``sim_digest``.

``peak_rss_mb`` depends on how many repetitions a run fitted into its
seconds, so it is reported a second time over only the pairs whose two
runs had equal repetition counts, with how many pairs that kept: read
that line for a memory claim.

Stdlib only; the ledger itself is invoked, never modified.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: metric -> True when higher is better.
METRICS = {"activations_per_s": True, "setup_s": False, "peak_rss_mb": False}


def run_ledger(checkout: Path, workload: str, seed: int, out: Path) -> dict:
    subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
         "--seconds", "12", "--trace", "0", "--seed", str(seed),
         "--out", str(out)],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads(out.read_text())["workloads"][workload]


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(metric: str, pairs: list) -> list:
    """The quartiles, ratio, wins and runs of one metric over ``pairs`` of
    (parent run, change run)."""
    higher = METRICS[metric]
    a = [p["metrics"][metric]["value"] for p, _c in pairs]
    b = [c["metrics"][metric]["value"] for _p, c in pairs]
    qa, qb = quartiles(a), quartiles(b)
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    apart = abs(qb[1] - qa[1]) > qa[2] - qa[0]
    return [
        f"  {metric:<18} parent {qa[0]:.4g}/{qa[1]:.4g}/{qa[2]:.4g}  "
        f"change {qb[0]:.4g}/{qb[1]:.4g}/{qb[2]:.4g}  "
        f"ratio {qb[1] / qa[1]:.3f}  change wins {wins}/{len(a)} "
        f"(ties {ties})  medians apart > parent IQR: "
        f"{'yes' if apart else 'no'}",
        "      parent runs: " + " ".join(f"{v:.4g}" for v in a),
        "      change runs: " + " ".join(f"{v:.4g}" for v in b),
    ]


def report(workload: str, seed: int, runs: dict) -> str:
    parent, change = runs["parent"], runs["change"]
    pairs = list(zip(parent, change))
    lines = [f"{workload} seed {seed}: {len(parent)} pairs "
             "(odd pairs parent first), --seconds 12 --trace 0"]
    for metric in METRICS:
        lines += compare(metric, pairs)
    equal = [(p, c) for p, c in pairs if p["repetitions"] == c["repetitions"]]
    lines.append(f"  peak_rss_mb over the {len(equal)} of {len(pairs)} pairs "
                 "whose runs had equal repetitions:")
    if equal:
        lines += compare("peak_rss_mb", equal)
    reps = [(p["repetitions"], c["repetitions"]) for p, c in pairs]
    lines.append("  repetitions parent/change per pair: "
                 + " ".join(f"{x}/{y}" for x, y in reps))
    lines.append(f"  failed repetitions parent/change: "
                 f"{sum(r['failed'] for r in parent)}/"
                 f"{sum(r['failed'] for r in change)}")
    digests = {side: {r["sim_digest"] for r in side_runs}
               for side, side_runs in runs.items()}
    same = len(digests["parent"] | digests["change"]) == 1
    lines.append(f"  sim_digest identical across all runs: "
                 f"{'yes' if same else 'NO'} "
                 f"({', '.join(sorted(d[:16] for d in digests['parent']))} / "
                 f"{', '.join(sorted(d[:16] for d in digests['change']))})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("change", type=Path, metavar="CHANGE_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1996)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                out = Path(tmp) / f"{side}-{pair}.json"
                runs[side].append(run_ledger(checkouts[side], args.workload,
                                             args.seed, out))
                value = runs[side][-1]["metrics"]["activations_per_s"]["value"]
                print(f"pair {pair} {side}: activations_per_s {value:.4g}",
                      file=sys.stderr, flush=True)
    print(report(args.workload, args.seed, runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
