#!/usr/bin/env python
"""The identity gate: every "nothing moved" claim, one committed baseline.

    python scripts/identity.py            # check against baselines/identity.txt
    python scripts/identity.py --update   # rewrite it (declared model changes)

``baselines/identity.txt`` holds one row per claim (``identity_rows``):
``== name ==``, then its fields, one a line.  ``--update`` computes every
row sequentially in this interpreter and prints each row it moves
(``MOVED``, then the check's message) before writing.  The check
computes them in fresh interpreters: spawned pool workers, and this
process for the experiment rows, which run at ``processes=2`` (pool
workers are daemonic and cannot start pools).  A pass proves run-to-run
*and* parallel == sequential identity; a failure names each differing
row and its first differing field.  Stdlib only: the 3.11 baseline must
hold on 3.12 and 3.13 too.
"""

import argparse
import hashlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import repro  # noqa: E402
from repro.api import ScenarioSpec, TraceSpec  # noqa: E402
from repro.api.cli import load_scenario, main as repro_run  # noqa: E402
from repro.catalog.skew import SkewSpec  # noqa: E402
from repro.engine import QueryExecutor  # noqa: E402
from repro.experiments import placement  # noqa: E402
from repro.experiments.config import (ExperimentOptions,  # noqa: E402
                                      scaled_execution_params)
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.serving import AdmissionPolicy, ArrivalSpec, WorkloadSpec  # noqa: E402
from repro.sim.machine import MachineConfig  # noqa: E402
from repro.workloads import scenarios as named  # noqa: E402

BASELINE = REPO / "baselines" / "identity.txt"
EXAMPLES = REPO / "examples" / "scenarios"
LEDGER = REPO / "benchmarks" / "ledger"
QUICK = ExperimentOptions.quick()
TINY = ExperimentOptions(plans=2, workload_queries=2)
SMALL = dict(nodes=2, processors_per_node=2)
#: experiment id -> a shape small enough for tier-1.
TIER1 = {
    "workload": dict(SMALL, mpl_levels=(1, 2), skew_levels=(0.8,),
                     queries_per_cell=4),
    "classes": dict(SMALL, mpl_levels=(2,), queries_per_cell=4,
                    base_tuples=700, io_sweep=False, net_sweep=False),
    "elastic": dict(processors_per_node=2),
    "overload": dict(multipliers=(2.0,), queries_per_cell=6),
    # The shape where no two placement policies tie (tests/test_placement.py).
    "placement": dict(regimes=(placement.REGIMES[2],), queries_per_cell=12),
    "fig6": dict(processor_counts=(4,)),
    "fig7": dict(processor_counts=(4,), error_rates=(0.0, 0.2),
                 distortions_per_plan=2),
    "fig8": dict(processor_counts=(1, 4)),
    "fig9": dict(skew_factors=(0.0, 0.8), processors=8),
    "fig10": dict(configs=((2, 2), (2, 4))),
    "sec53": dict(base_tuples=500),
}
#: identity row -> the experiment whose quick-shape table it pins.
TABLES = {"figure6": "fig6", "figure9": "fig9", "figure10": "fig10",
          "section53": "sec53"}


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def experiment(name: str, digest=False, processes=None, **shape) -> str:
    """A quick-shape experiment's table, or its determinism digest."""
    result = run_experiment(name, QUICK, processes, **shape)
    return result.digest() if digest else result.table()


def tier1(name: str, shape: dict, processes=None) -> str:
    """The whole result, hashed (what tier-1 compared with ``==``), then
    the table a re-baseline is reviewed by."""
    result = run_experiment(name, TINY, processes, **shape)
    return f"sha256: {sha16(repr(result))}\n{result.table()}"


def scenarios(seed: int = 7) -> str:
    """Two named plans, alone, under DP and FP."""
    params = scaled_execution_params(
        skew=SkewSpec(redistribution=0.8), seed=seed)
    lines = []
    for label, scenario in (("chain", named.pipeline_chain_scenario),
                            ("two-node", named.two_node_join_scenario)):
        plan, config = scenario()
        for strategy in ("DP", "FP"):
            result = QueryExecutor(plan, config, strategy=strategy,
                                   params=params).run()
            metrics = result.metrics
            lines.append(
                f"{label} {strategy}: response={result.response_time!r} "
                f"results={metrics.result_tuples} "
                f"activations={metrics.activations_processed} "
                f"bytes={metrics.bytes_sent} steals={metrics.steal_rounds}")
    return "\n".join(lines)


def example(stem: str) -> str:
    """A shipped scenario's whole ``RunResult``, hashed, and its counts."""
    text =repro.run(load_scenario(str(EXAMPLES / f"{stem}.json"))).to_json()
    workload = json.loads(text).get("workload") or {}
    metrics = workload.get("metrics", {})
    counts = {**(metrics.get("cluster") or {}), **workload.get("clients", {}),
              **(metrics.get("placement") or {})}
    return "\n".join([f"sha256: {sha16(text)}"] + [
        f"{name}: {counts[name]}" for name in
        ("rebalance_bytes", "served", "gave_up", "plans_rewritten")
        if name in counts])


def roundtrip(shape: str) -> str:
    """Record a serving run, replay its trace: both metrics summaries."""
    workload = WorkloadSpec(**{
        "open-loop": dict(
            queries=8, seed=11, arrival=ArrivalSpec(kind="poisson", rate=40.0)),
        "closed-loop": dict(
            queries=8, seed=5, arrival=ArrivalSpec(kind="closed", population=3),
            policy=AdmissionPolicy(max_multiprogramming=3)),
        "shed-heavy": dict(
            queries=12, seed=9,
            arrival=ArrivalSpec(kind="bursty", rate=200.0, burst_size=6.0),
            policy=AdmissionPolicy(max_multiprogramming=2, queue_timeout=0.05)),
    }[shape])
    scenario = ScenarioSpec(
        cluster=MachineConfig(nodes=2, processors_per_node=2),
        workload=workload, label=f"roundtrip-{shape.split('-')[0]}")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "run.jsonl.gz")
        runs = (repro.run(scenario, record=path),
                repro.run(replace(scenario, trace=TraceSpec(path=path))))
    return "recorded: {}\nreplayed: {}".format(*(
        sha16(json.dumps(run.metrics.summary(), sort_keys=True))
        for run in runs))


def cli_roundtrip(stem: str) -> str:
    """``repro-run --record`` then ``--replay``: both ``--metrics`` outputs."""
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        trace = str(Path(tmp) / "run.jsonl.gz")
        for flag in ("--record", "--replay"):
            with redirect_stdout(io.StringIO()) as out:
                if repro_run([str(EXAMPLES / f"{stem}.json"), flag, trace,
                              "--metrics"]):
                    raise RuntimeError(f"repro-run {flag} failed")
            outputs.append(sha16(out.getvalue()))
    return "recorded: {}\nreplayed: {}".format(*outputs)


def ledger(workload: str, seed: int) -> str:
    """One ledger repetition, read the way the ledger reads it."""
    sys.path.insert(0, str(LEDGER))
    from spans import SpanRecorder
    from worker import (Workload, captured_environments, digest_of,
                        kernel_events, repetition)

    off = SpanRecorder(enabled=False)
    work = Workload(workload, seed, False, off)
    environments = []
    with tempfile.TemporaryDirectory() as tmp:
        record = str(Path(tmp) / "rep.jsonl") if work.record else None
        with captured_environments(environments):
            _results, texts = repetition(work, off, 0, record)
    return (f"sim_digest: {digest_of(texts)[:16]}\n"
            f"sim.events: {kernel_events(environments)}")


class Row(NamedTuple):
    name: str
    compute: Callable[..., str]  # picklable unless the row fans out
    fans_out: bool = False  # the check runs it here at ``processes=2``


def identity_rows() -> list:
    """Every claim, in baseline order."""
    workloads = json.loads((LEDGER / "workloads/manifest.json").read_text())
    return [
        *(Row(row, partial(experiment, name), True)
          for row, name in TABLES.items()),
        Row("scenarios", scenarios),
        Row("elastic", partial(experiment, "elastic", True), True),
        Row("placement", partial(  # one regime, three policies
            experiment, "placement", True, regimes=(placement.REGIMES[2],),
            policies=("paper", "round_robin", "load_aware"), queries_per_cell=6), True),
        *(Row(f"example {path.stem}", partial(example, path.stem))
          for path in sorted(EXAMPLES.glob("*.json"))),
        *(Row(f"roundtrip {shape}", partial(roundtrip, shape))
          for shape in ("open-loop", "closed-loop", "shed-heavy")),
        Row("roundtrip quickstart cli", partial(cli_roundtrip, "quickstart")),
        *(Row(f"ledger {workload} {seed}", partial(ledger, workload, seed))
          for seed in (1996, 2815)  # the ledger's default and held-out seeds
          for workload in workloads),
        *(Row(f"tier1 {name}", partial(tier1, name, shape), True)
          for name, shape in TIER1.items()),
    ]


def compute(rows: list, fresh: bool) -> dict:
    """``{name: fields}``, sequentially here or ``fresh`` (module docstring)."""
    if not fresh:
        return {row.name: row.compute() for row in rows}
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        pending = {row.name: pool.apply_async(row.compute)
                   for row in rows if not row.fans_out}
        done = {row.name: row.compute(processes=2)
                for row in rows if row.fans_out}
        done.update((name, result.get()) for name, result in pending.items())
    return {row.name: done[row.name] for row in rows}


def render(rows: dict) -> str:
    return "\n".join(f"== {name} ==\n{fields}\n" for name, fields in rows.items())


def parse(text: str) -> dict:
    rows, lines = {}, None
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            lines = rows.setdefault(line[3:-3], [])
        else:
            lines.append(line)
    return {name: "\n".join(lines).rstrip("\n") for name, lines in rows.items()}


def compare(baseline: dict, fresh: dict) -> list:
    """One message per row that differs, naming its first differing field."""
    problems = []
    for name in dict.fromkeys([*baseline, *fresh]):
        if name not in fresh:
            problems.append(f"{name}: in the baseline, not computed")
        elif name not in baseline:
            problems.append(f"{name}: computed, not in the baseline")
        elif baseline[name] != fresh[name]:
            old, new = (rows[name].split("\n") + ["(absent)"]
                        for rows in (baseline, fresh))
            index = next(i for i, pair in enumerate(zip(old, new))
                         if pair[0] != pair[1])
            # A field is one line, named by what precedes its colon.
            named = old if index < len(old) - 1 else new
            key, colon, _value = named[index].partition(":")
            field = key if colon else f"line {index + 1}"
            problems.append(f"{name}: field {field!r}\n"
                            f"  baseline: {old[index]}\n"
                            f"  fresh:    {new[index]}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from a sequential run")
    args = parser.parse_args(argv)
    start, rows = time.perf_counter(), identity_rows()
    if args.update:
        fresh = compute(rows, fresh=False)
        # A declared change names the rows it moves from this list.
        old = parse(BASELINE.read_text()) if BASELINE.exists() else fresh
        for problem in compare(old, fresh):
            print(f"MOVED {problem}")
        BASELINE.write_text(render(fresh))
        print(f"{len(rows)} rows written to {BASELINE}")
        return 0
    problems = compare(parse(BASELINE.read_text()), compute(rows, fresh=True))
    if problems:
        # A failure on one interpreter only means a float ``sum()``
        # (compensated from 3.12 on) crept into the engine or the metrics.
        print(*(f"FAIL {problem}" for problem in problems), sep="\n",
              file=sys.stderr)
        print(f"identity FAILED: {len(problems)} row(s) differ on Python "
              f"{sys.version.split()[0]} (--update only for a declared "
              "change)", file=sys.stderr)
        return 1
    print(f"identity passed: {len(rows)} rows match {BASELINE.name} "
          f"({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
