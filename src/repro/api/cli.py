"""``repro-run``: execute a scenario JSON file from the command line.

Usage::

    repro-run examples/scenarios/quickstart.json
    repro-run scenario.json --metrics        # full metrics digest (JSON)
    repro-run scenario.json --emit-spec      # normalized spec, round-tripped
    repro-run scenario.json --record run.jsonl.gz   # record the event stream
    repro-run scenario.json --replay run.jsonl.gz   # replay a recorded trace
    repro-run scenario.json --json out.json  # full RunResult as JSON
    repro-run scenario.json --json -         # ... to stdout (machine mode)

The scenario file is a serialized :class:`~repro.api.spec.ScenarioSpec`
(see ``ScenarioSpec.to_json``); unknown keys and invalid values fail
before anything runs.  Output is deterministic: the same file prints the
same bytes on every run.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional

from .facade import run
from .serde import SpecError, dumps
from .spec import ScenarioSpec, TraceSpec

__all__ = ["main", "load_scenario"]


def load_scenario(path: str) -> ScenarioSpec:
    """Parse and validate a scenario file, with a readable error surface."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read scenario file {path!r}: {exc}") from exc
    return ScenarioSpec.from_json(text)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Run one declarative scenario (a ScenarioSpec JSON file).",
    )
    parser.add_argument("scenario", help="path to a ScenarioSpec JSON file")
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="also print the full deterministic metrics digest as JSON",
    )
    parser.add_argument(
        "--emit-spec",
        action="store_true",
        help="print the normalized spec (defaults filled in) and exit",
    )
    parser.add_argument(
        "--record",
        metavar="PATH",
        help="write the run's structured event stream to PATH as JSON "
        "lines (gzip if it ends in .gz); replayable with --replay",
    )
    parser.add_argument(
        "--replay",
        metavar="PATH",
        help="replay the recorded trace at PATH instead of the "
        "scenario's arrival stream (overrides any 'trace' in the spec)",
    )
    parser.add_argument(
        "--json",
        metavar="OUT",
        dest="json_out",
        help="write the full RunResult (spec + metrics digest) as JSON "
        "to OUT ('-' for stdout, suppressing the human summary)",
    )
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
        if args.replay:
            scenario = dataclasses.replace(
                scenario, trace=TraceSpec(path=args.replay)
            )
    except (SpecError, ValueError) as exc:
        print(f"repro-run: invalid scenario: {exc}", file=sys.stderr)
        return 2

    if args.emit_spec:
        sys.stdout.write(scenario.to_json())
        return 0

    try:
        result = run(scenario, record=args.record)
    except (SpecError, ValueError, OSError) as exc:
        # Cross-field problems (a plan factory incompatible with the
        # cluster shape, an empty population) only surface at build/run
        # time; they deserve the same clean surface as parse errors.
        print(f"repro-run: scenario failed: {exc}", file=sys.stderr)
        return 2
    if args.json_out == "-":
        # Machine-readable mode: the JSON document *is* the output.
        sys.stdout.write(result.to_json())
        return 0
    if args.json_out:
        Path(args.json_out).write_text(result.to_json())
    label = scenario.label or Path(args.scenario).stem
    print(f"scenario {label} [{scenario.mode}]")
    print(result.summary())
    if result.workload is not None:
        per_class = result.metrics.per_class_summary()
        for name, stats in per_class.items():
            print(
                f"  class {name}: done {stats['completed']}, "
                f"shed {stats['shed']}, "
                f"p95 {stats['p95_latency']:.4f}s, "
                f"SLO {stats['slo_attainment']:.0%}"
            )
        clients = result.workload.clients
        if clients.retries or clients.gave_up:
            reasons = result.metrics.shed_reason_counts()
            reason_text = ", ".join(
                f"{name} {count}" for name, count in sorted(reasons.items())
            )
            print(
                f"  clients: served {clients.served}, "
                f"gave up {clients.gave_up}, retries {clients.retries} "
                f"(shed: {reason_text})"
            )
        placement = result.metrics.placement_summary()
        if placement is not None:
            policies = ", ".join(
                f"{name} x{count}" for name, count in placement["policies"].items()
            )
            print(
                f"  placement: {policies} — "
                f"{placement['plans_rewritten']} plans rewritten, "
                f"{placement['bytes_avoided']} B est. transfer avoided"
            )
        cluster = result.metrics.cluster_summary()
        if cluster is not None:
            print(
                f"  cluster: +{cluster['node_joins']}/-"
                f"{cluster['node_leaves']} nodes "
                f"(peak {cluster['peak_nodes']}, low {cluster['low_nodes']}), "
                f"{cluster['rebalance_bytes']} B moved for "
                f"{cluster['load_gained_processors']} processors gained"
            )
    if args.metrics:
        if result.workload is not None:
            digest = result.metrics.summary()
        else:
            digest = dataclasses.asdict(result.metrics)
        sys.stdout.write(dumps(digest))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
