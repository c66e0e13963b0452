#!/usr/bin/env python3
"""The layered performance ledger: one command, every metric by name.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed S]
        [--seconds T] [--trace [0|1]] [--smoke] [--compare A B] [--check]

Runs each workload in its own fresh interpreter, one at a time, single
threaded, prints every metric with unit, kind (host/sim), direction and
bound, verifies the outputs, and writes the run to
``benchmarks/ledger/out/``.  With ``--workload`` the last line of standard
output is the one-object JSON result the benchmark driver reads
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  See README.md beside this file for the tables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from catalog import (DEFAULT_SEED, DRIVER_END_TO_END, DRIVER_PER_LAYER,
                     END_TO_END, LEDGER_DIR, OUT_DIR, PER_LAYER, REPO_ROOT,
                     check_sparse, load_manifest, workload_text)
from compare import compare

#: fresh worker processes per untraced run.  Each sets up cold and measures
#: a third of the window: ``setup_s`` is the median of their set-ups, and a
#: slow spell of the host (they last ~15 s on this container) spoils one
#: process's repetitions, not the run's median.
PROCESSES = 3
DEFAULT_SECONDS = 12.0
WORKER_TIMEOUT_S = 170


def worker(name: str, seed: int, seconds: float, trace: bool,
           smoke: bool) -> dict:
    """Run ``worker.py`` in a fresh interpreter; returns its document."""
    command = [sys.executable, str(LEDGER_DIR / "worker.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """All the measurements of one workload, as one ledger record."""
    count = 1 if (smoke or trace) else PROCESSES
    documents = [worker(name, seed, seconds / count, trace, smoke)
                 for _ in range(count)]
    first = documents[0]
    logical = first["logical_queries"]
    errors = [e for d in documents for e in d["errors"]]
    if len({d["sim_digest"] for d in documents}) > 1:
        errors.append("worker processes disagree on sim_digest")
    walls = [w for d in documents for w in d["rep_wall_s"]]
    attempted = logical * sum(d["repetitions"] for d in documents)
    failed = logical * sum(d["failed_repetitions"] for d in documents)
    values = {}
    if walls and all("sim" in d for d in documents):
        wall = statistics.median(walls)
        values = {
            "queries_per_s": logical / wall,
            "activations_per_s": first["activations"] / wall,
            "setup_s": statistics.median(d["setup_s"] for d in documents),
            "peak_rss_mb":
                statistics.median(d["peak_rss_mb"] for d in documents),
            **first["sim"],
            "failed_share": failed / attempted,
        }
    record = {
        "logical_queries": logical,
        "activations": first.get("activations"),
        "repetitions": sum(d["repetitions"] for d in documents),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "notes": sorted({n for d in documents for n in d["notes"]}),
        "sim_digest": first["sim_digest"],
        "rep_wall_s": walls,
        "setup_samples_s": [d["setup_s"] for d in documents],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in END_TO_END if m.name in values},
    }
    if "per_layer" in first:
        record["span_coverage_share"] = first["span_coverage_share"]
        record["per_layer"] = {
            m.name: {"value": first["per_layer"][m.name], "unit": m.unit}
            for m in PER_LAYER
        }
    return record


def print_record(name: str, record: dict) -> None:
    print(f"\n== {name}: {record['logical_queries']} logical queries x "
          f"{record['repetitions']} repetitions, sim_digest "
          f"{(record['sim_digest'] or 'none')[:16]}")
    rows = [(m, record["metrics"].get(m.name)) for m in END_TO_END]
    rows += [(m, record.get("per_layer", {}).get(m.name)) for m in PER_LAYER]
    for metric, cell in rows:
        if cell is None:
            continue
        if metric.bound is None:
            bound = "exact" if metric in END_TO_END else "-"
        else:
            bound = f"{metric.bound:.0%}"
        value = "null" if cell["value"] is None else f"{cell['value']:.6g}"
        print(f"  {metric.name:<36}{value:>14} {metric.unit:<6} "
              f"{metric.kind:<5}{metric.better:<7} bound {bound}")
    if "span_coverage_share" in record:
        print(f"  call spans cover {record['span_coverage_share']:.2%} of the "
              "traced repetition's wall")
    for note in record["notes"]:
        print(f"  note: {note} at this seed")
    for error in record["errors"]:
        print(f"  VIOLATION: {error}")


def driver_line(record: dict, trace: bool) -> str:
    """The one-object result the benchmark driver reads."""
    if trace:
        cells = {**record["per_layer"], **record["metrics"]}
        wanted = DRIVER_PER_LAYER
    else:
        cells, wanted = record["metrics"], DRIVER_END_TO_END
    metrics = {}
    for metric in wanted:
        value = cells[metric.name]["value"]
        # 0 stands for "the kernel no longer exposes a count" (sim.events*).
        metrics[metric.name] = {"value": 0 if value is None else value,
                                "unit": metric.unit}
    return json.dumps({
        "correct": not record["errors"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    })


def self_check() -> int:
    """Workload specs load, stay sparse, and BENCHMARK.json matches."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.api import ScenarioSpec

    manifest = load_manifest()
    for name in manifest:
        text = workload_text(name)
        check_sparse(name, text)
        ScenarioSpec.from_json(text)
        print(f"ok workload {name}")
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in contract["workloads"]] != list(manifest):
        problems.append("workload names differ from workloads/manifest.json")
    for key, wanted in (("end_to_end", DRIVER_END_TO_END),
                        ("per_layer", DRIVER_PER_LAYER)):
        listed = {m["name"]: m for m in contract[key]}
        if list(listed) != [m.name for m in wanted]:
            problems.append(f"{key} names differ from catalog.py")
            continue
        for metric in wanted:
            entry = listed[metric.name]
            if (entry["unit"], entry["better"]) != (metric.unit, metric.better):
                problems.append(f"{metric.name}: unit/direction differ")
            if key == "end_to_end" and entry["bound"] != metric.bound:
                problems.append(f"{metric.name}: bound differs")
    for problem in problems:
        print(f"BENCHMARK.json: {problem}")
    print("ok BENCHMARK.json" if not problems else "self-check failed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(load_manifest()))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add traced repetitions + probes")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (< 2 s per workload), for CI")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--check", action="store_true",
                        help="self-check the workload specs and BENCHMARK.json")
    parser.add_argument("--out", help="result file (default: out/ledger-*.json)")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {REPO_ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    if args.check:
        return self_check()

    trace = bool(args.trace)
    seconds = 0.0 if args.smoke else args.seconds
    names = [args.workload] if args.workload else list(load_manifest())
    ledger = {"seed": args.seed, "smoke": args.smoke, "trace": trace,
              "seconds": seconds, "workloads": {}}
    for name in names:
        record = run_workload(name, args.seed, seconds, trace, args.smoke)
        ledger["workloads"][name] = record
        print_record(name, record)
    OUT_DIR.mkdir(exist_ok=True)
    stem = "-".join(["ledger", f"seed{args.seed}"]
                    + (["smoke"] if args.smoke else [])
                    + (["trace"] if trace else [])
                    + ([args.workload] if args.workload else []))
    out = args.out or str(OUT_DIR / f"{stem}.json")
    with open(out, "w") as handle:
        json.dump(ledger, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {out}", flush=True)
    if args.workload:
        record = ledger["workloads"][args.workload]
        # No result line for a run too broken to have produced its metrics.
        if record["metrics"] and (not trace or "per_layer" in record):
            print(driver_line(record, trace))
    return 1 if any(r["errors"] for r in ledger["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
