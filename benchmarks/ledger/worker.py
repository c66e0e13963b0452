"""One workload in one fresh interpreter: set-up, repetitions, checks, trace.

``run.py`` starts this file as a subprocess, one at a time, and reads the
JSON document it prints as its last line.  Starting cold is the point:
``setup_s`` is what a user pays on every ``repro-run`` (``import repro``,
spec load, plan compilation on empty caches), and ``peak_rss_mb`` is this
process's high-water mark and nobody else's.

One *repetition* is ``repro.run(scenario)`` + ``result.to_json()`` on
warm plan caches (every plan under both strategies in single mode).
Repetitions repeat until ``--seconds`` of measuring have passed; host
metrics are medians over them, sim metrics must be identical in all.

The system is driven only through its public surface, and the workload
specs never name a knob ROADMAP item 2 retires, so deleting those later
changes the numbers, not the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from catalog import (DEFAULT_SEED, HELD_OUT_SEED, OUT_DIR, REPO_ROOT,
                     check_sparse, load_manifest, workload_text)
from spans import SpanRecorder

STRATEGIES = ("DP", "FP")
#: fewest untraced repetitions a traced run compares its traced ones to.
MIN_TRACED_RUN_UNTRACED = 2
#: activations each stand-alone strategy probe processes (serving modes).
PROBE_ACTIVATIONS = 10_000


class Workload:
    """A loaded workload: the seeded scenario plus its compiled plans."""

    def __init__(self, name: str, seed: int, smoke: bool,
                 recorder: SpanRecorder) -> None:
        entry = load_manifest()[name]
        text = workload_text(name)
        check_sparse(name, text)
        with recorder.span("setup", workload=name):
            with recorder.span("import_repro"):
                from repro.api import (ScenarioSpec, build_plan_bank,
                                       build_plans, replace_path)
            with recorder.span("api.spec_load"):
                spec = ScenarioSpec.from_json(text)
            spec = seeded(spec, seed)
            if smoke:
                for path, value in entry["smoke"].items():
                    spec = replace_path(spec, path, value)
            with recorder.span("optimizer.build_plans"):
                plans = build_plans(spec)
            with recorder.span("optimizer.plan_bank"):
                bank = build_plan_bank(spec)
        self.name = name
        self.spec = spec
        self.plans = plans
        self.plans_built = sum(len(population) for population in bank.values())
        self.single = spec.mode == "single"
        self.record = bool(entry.get("record"))
        # Smoke sizes are too small for every mechanism to fire.
        self.must_fire = () if smoke else tuple(entry.get("must_fire", ()))
        # The committed specs are tuned so that every claimed mechanism
        # fires at the seeds they were validated on; at another seed a
        # quiet mechanism is a property of that input: noted, not failed.
        self.strict = seed in (DEFAULT_SEED, HELD_OUT_SEED)
        if self.single:
            self.by_strategy = {
                s: replace_path(spec, "workload.strategy", s)
                for s in STRATEGIES
            }
            self.logical = len(plans) * len(STRATEGIES)
        elif spec.trace is not None:
            self.logical = spec.trace.generate.queries
        else:
            self.logical = spec.workload.queries


def seeded(spec, seed: int):
    """``--seed`` reaches every input stream; the plan population's own
    seed stays put so the optimizer's work is the same for every seed."""
    from repro.api import replace_path

    spec = replace_path(spec, "workload.seed", seed)
    spec = replace_path(spec, "params.seed", seed)
    if spec.trace is not None and spec.trace.generate is not None:
        spec = replace_path(spec, "trace.generate.seed", seed)
    return spec


# -- one repetition ---------------------------------------------------------


def repetition(work: Workload, recorder: SpanRecorder, rep: int,
               record_path: str | None):
    """Run the timed operation once; returns ``(results, json texts)``."""
    import repro

    results, texts = [], []
    with recorder.span("ledger.rep", workload=work.name, rep=rep):
        if work.single:
            for strategy in STRATEGIES:
                spec = work.by_strategy[strategy]
                for plan in work.plans:
                    with recorder.span("serving.run", rep=rep,
                                       strategy=strategy):
                        result = repro.run(spec, plans=(plan,))
                    with recorder.span("api.to_json", rep=rep):
                        texts.append(result.to_json())
                    results.append(result)
        else:
            with recorder.span("serving.run", rep=rep):
                if record_path is None:
                    result = repro.run(work.spec)
                else:
                    result = repro.run(work.spec, record=record_path)
            with recorder.span("api.to_json", rep=rep):
                texts.append(result.to_json())
            results.append(result)
    return results, texts


def digest_of(texts) -> str:
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode())
    return sha.hexdigest()


def violations(work: Workload, results) -> list[str]:
    """Conservation identities of one repetition, checked from outside."""
    problems = []
    if work.single:
        for result in results:
            execution = result.execution
            if not (execution.response_time > 0
                    and execution.metrics.result_tuples > 0):
                problems.append(f"{execution.plan_label}: produced nothing")
        if len(results) != work.logical:
            problems.append(f"{len(results)} executions, want {work.logical}")
        return problems
    (result,) = results
    metrics, clients = result.metrics, result.workload.clients
    submissions = work.logical + clients.retries
    if metrics.unfinished:
        problems.append(f"{metrics.unfinished} queries left unresolved")
    if metrics.completed + metrics.shed_count != submissions:
        problems.append(
            f"completed {metrics.completed} + shed {metrics.shed_count} "
            f"!= submissions {submissions}"
        )
    if clients.served + clients.gave_up != work.logical:
        problems.append(
            f"served {clients.served} + gave up {clients.gave_up} "
            f"!= queries {work.logical}"
        )
    return problems


def unfired(work: Workload, results) -> list[str]:
    """Mechanisms the workload claims to exercise that never fired."""
    if not work.must_fire:
        return []
    counts = layer_counts(work, results)
    return [name for name in work.must_fire if counts[name] < 1]


# -- reading a finished repetition -------------------------------------------


def sim_outcomes(work: Workload, results) -> dict:
    """The simulated end-to-end outcomes (virtual seconds; exact per seed)."""
    if work.single:
        times = [r.execution.response_time for r in results]
        return {
            "sim_makespan_s": sum(times),
            "sim_latency_p50_s": statistics.median(times),
            "sim_served_share": len(results) / work.logical,
        }
    (result,) = results
    metrics = result.metrics
    return {
        "sim_makespan_s": metrics.makespan,
        "sim_latency_p50_s": metrics.p50_latency,
        "sim_served_share": result.workload.clients.served / work.logical,
    }


def execution_metrics(work: Workload, results) -> list:
    if work.single:
        return [r.execution.metrics for r in results]
    return [c.result.metrics for c in results[0].metrics.completions]


def activations_by_strategy(work: Workload, results) -> dict:
    """``{strategy: activations processed}`` of the completed executions."""
    if work.single:
        executed = [(r.execution.strategy, r.execution.metrics) for r in results]
    else:
        executed = [(c.strategy, c.result.metrics)
                    for c in results[0].metrics.completions]
    totals = dict.fromkeys(STRATEGIES, 0)
    for strategy, metrics in executed:
        totals[strategy] += metrics.activations_processed
    return totals


def layer_counts(work: Workload, results) -> dict:
    """Per-layer counts and virtual-time totals read off the results."""
    executions = execution_metrics(work, results)

    def total(field):
        return sum(getattr(m, field) for m in executions)

    rounds, succeeded = total("steal_rounds"), total("steals_succeeded")
    counts = {
        "engine.activations": total("activations_processed"),
        "engine.suspensions": total("suspensions"),
        "engine.steal_rounds": rounds,
        "engine.steals_succeeded": succeeded,
        "engine.steal_success_share": succeeded / rounds if rounds else 0.0,
        "engine.loadbalance_bytes": total("loadbalance_bytes"),
        "engine.sim_thread_busy_s": total("thread_busy_time"),
        "engine.sim_cpu_contention_s": total("cpu_contention_time"),
        "engine.sim_disk_wait_s": total("disk_wait_time"),
        "engine.sim_net_wait_s": total("net_wait_time"),
    }
    serving = dict.fromkeys((
        "serving.admitted", "serving.deferrals", "serving.shed_queue_timeout",
        "serving.shed_retries_exhausted", "serving.shed_memory_preempted",
        "serving.retries", "serving.memory_preemptions", "serving.spill_bytes",
        "serving.cross_steal_rounds", "serving.broker_notifications",
        "cluster.node_joins", "cluster.node_leaves", "cluster.rebalance_moves",
        "cluster.rebalance_bytes", "placement.plans_rewritten",
        "placement.bytes_avoided", "serving.sim_latency_p99_s",
        "serving.sim_mean_queueing_s",
    ), 0)  # single mode has no serving layer: every count of it is a true 0
    if not work.single:
        (result,) = results
        metrics, run = result.metrics, result.workload
        reasons = metrics.shed_reason_counts()
        cluster = metrics.cluster_summary() or {}
        placement = metrics.placement_summary() or {}
        serving.update({
            "serving.admitted": run.admitted,
            "serving.deferrals": run.deferrals,
            "serving.shed_queue_timeout": reasons.get("queue_timeout", 0),
            "serving.shed_retries_exhausted":
                reasons.get("retries_exhausted", 0),
            "serving.shed_memory_preempted":
                reasons.get("memory_preempted", 0),
            "serving.retries": run.clients.retries,
            "serving.memory_preemptions": metrics.memory_preemptions,
            "serving.spill_bytes": metrics.spill_bytes,
            "serving.cross_steal_rounds": metrics.total_cross_steal_rounds(),
            "serving.broker_notifications": metrics.broker_notifications,
            "serving.sim_latency_p99_s": metrics.p99_latency,
            "serving.sim_mean_queueing_s": metrics.mean_queueing_delay(),
            "cluster.node_joins": cluster.get("node_joins", 0),
            "cluster.node_leaves": cluster.get("node_leaves", 0),
            "cluster.rebalance_moves": cluster.get("rebalance_moves", 0),
            "cluster.rebalance_bytes": cluster.get("rebalance_bytes", 0),
            "placement.plans_rewritten": placement.get("plans_rewritten", 0),
            "placement.bytes_avoided": placement.get("bytes_avoided", 0),
        })
    counts.update(serving)
    return counts


def attempts(work: Workload, results) -> int:
    """Submissions resolved (the legacy ``BENCH_overload`` numerator)."""
    if work.single:
        return len(results)
    metrics = results[0].metrics
    return metrics.completed + metrics.shed_count


@contextmanager
def captured_environments(found: list):
    """Collect every kernel ``Environment`` built inside the block.

    The event count is read off the environments afterwards, the way the
    legacy benches read it; patching the constructor from here keeps the
    program itself uninstrumented.
    """
    from repro.sim import Environment

    original = Environment.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        found.append(self)

    Environment.__init__ = recording_init
    try:
        yield
    finally:
        Environment.__init__ = original


def kernel_events(environments) -> int | None:
    """Events scheduled across ``environments``; None if not exposed."""
    try:
        return sum(next(env._counter) for env in environments)
    except (AttributeError, TypeError):
        return None


# -- the traced extras --------------------------------------------------------


def record_and_replay(work: Workload, recorder: SpanRecorder, tmp: Path,
                      last_wall: float, last_results: list) -> dict:
    """Recording cost, trace size, and the replay-identity check.

    The one extra repetition (with ``record=``, or without it where the
    timed ones record) is compared with the repetition that ran just
    before it, so a slow spell of the host hits both sides of the ratio.
    """
    import dataclasses

    import repro
    from repro.api import TraceSpec
    from repro.serving.trace import Trace

    off = SpanRecorder(enabled=False)
    layers = {
        "serving.record_overhead_share": 0.0, "serving.trace_bytes": 0,
        "serving.trace_events": 0, "serving.trace_load_s": 0.0,
    }
    if work.single:
        # No arrival stream to record; identity is a second execution.
        _results, first = repetition(work, off, -1, None)
        _results, second = repetition(work, off, -1, None)
        layers["serving.replay_identical"] = int(
            digest_of(first) == digest_of(second)
        )
        return layers
    gc.collect()
    start = time.perf_counter()
    if work.record:
        # The timed repetitions already record (the last one's file is
        # still there): measure one repetition without.
        path = str(tmp / "rep.jsonl")
        (recorded,) = last_results
        repetition(work, off, -1, None)
        without = time.perf_counter() - start
        with_record = last_wall
    else:
        path = str(tmp / "recorded.jsonl")
        (recorded,), _texts = repetition(work, off, -1, path)
        with_record = time.perf_counter() - start
        without = last_wall
    with recorder.span("serving.trace_load", workload=work.name):
        Trace.load(path)
    with open(path, "rb") as handle:
        events = sum(1 for _line in handle)
    replayed = repro.run(
        dataclasses.replace(work.spec, trace=TraceSpec(path=path))
    )
    identical = (
        json.dumps(recorded.metrics.summary(), sort_keys=True)
        == json.dumps(replayed.metrics.summary(), sort_keys=True)
    )
    layers.update({
        "serving.record_overhead_share": with_record / without - 1.0,
        "serving.trace_bytes": Path(path).stat().st_size,
        "serving.trace_events": events,
        "serving.trace_load_s": recorder.total("serving.trace_load"),
        "serving.replay_identical": int(identical),
    })
    return layers


def strategy_costs(work: Workload, recorder: SpanRecorder,
                   traced_results: list, smoke: bool) -> dict:
    """Host µs per activation of this workload's plans run alone.

    In single mode the traced repetitions already are stand-alone
    executions: their spans are divided by their activations.  In serving
    modes the population's first plan is probed under each strategy.
    """
    import probes

    costs = {}
    for strategy in STRATEGIES:
        if work.single:
            seconds = recorder.total("serving.run", strategy=strategy)
            activations = sum(
                activations_by_strategy(work, results)[strategy]
                for results in traced_results
            )
            cost = seconds / activations * 1e6
        else:
            cost = probes.us_per_activation(
                work.spec, strategy, work.plans[0],
                PROBE_ACTIVATIONS // 10 if smoke else PROBE_ACTIVATIONS,
            )
        costs[f"engine.{strategy.lower()}_us_per_activation"] = cost
    return costs


def traced_overhead(walls: list) -> float:
    """Median over the traced repetitions of wall / adjacent untraced - 1.

    ``walls`` is ``[(wall, traced?)]`` in running order.  Comparing each
    traced repetition with its untraced neighbours in time, not with the
    window's median, keeps a slow spell of the host out of the ratio.
    """
    ratios = [
        wall / statistics.fmean(
            w for w, other in walls[max(0, i - 1):i + 2] if not other
        )
        for i, (wall, tracing) in enumerate(walls) if tracing
    ]
    return statistics.median(ratios) - 1.0


def layer_metrics(work: Workload, setup: SpanRecorder, window: "Repetitions",
                  smoke: bool, tmp: Path) -> dict:
    """Every per-layer metric, from spans, probes and the last results."""
    import probes
    from repro.api import ScenarioSpec

    recorder = window.recorder
    traced_results = window.traced_results
    results = traced_results[-1]
    reps = len(traced_results)
    events = kernel_events(window.environments)
    untraced_median = statistics.median(window.untraced)
    run_s = recorder.total("serving.run") / reps
    layers = layer_counts(work, results)
    layers.update({
        "api.spec_load_s": setup.total("api.spec_load"),
        "api.to_json_s": recorder.total("api.to_json") / reps,
        "optimizer.build_plans_s": setup.total("optimizer.build_plans"),
        "optimizer.plan_bank_s": setup.total("optimizer.plan_bank"),
        "optimizer.plans_built": work.plans_built,
        "optimizer.s_per_plan": (
            setup.total("optimizer.build_plans")
            + setup.total("optimizer.plan_bank")
        ) / work.plans_built,
        "serving.run_s": run_s,
        "serving.attempts_per_s": attempts(work, results) / untraced_median,
        "ledger.trace_overhead_share": traced_overhead(window.walls),
    })
    layers["sim.events"] = None if events is None else events // reps
    if events is None:
        layers["sim.events_per_query"] = layers["sim.events_per_s"] = None
    else:
        layers["sim.events_per_query"] = events / reps / work.logical
        layers["sim.events_per_s"] = events / recorder.total("serving.run")

    with recorder.span("engine.metrics_summary", workload=work.name):
        for result in results:
            if result.workload is not None:
                result.metrics.summary()
    layers["engine.metrics_summary_s"] = recorder.total(
        "engine.metrics_summary"
    )
    layers.update(record_and_replay(
        work, recorder, tmp, window.walls[-1][0], window.last_results
    ))

    with recorder.span("ledger.probes", workload=work.name):
        tiny = seeded(
            ScenarioSpec.from_json(workload_text("replay_tiny")),
            work.spec.params.seed,
        )
        layers.update(probes.kernel_rates(smoke))
        layers["engine.tiny_query_us"] = probes.tiny_query_us(tiny, smoke)
        shed_us, _share = probes.shed_us_per_query(tiny, smoke)
        layers["serving.shed_us_per_query"] = shed_us
        seconds, queries = probes.tracegen_seconds(tiny)
        layers["workloads.tracegen_s"] = seconds
        layers["workloads.tracegen_queries_per_s"] = queries / seconds
        layers.update(strategy_costs(work, recorder, traced_results, smoke))
    # A bound, not a partition: the stand-alone cost of the activations
    # this run processed, against the wall of the run that processed them.
    alone = sum(
        layers[f"engine.{strategy.lower()}_us_per_activation"] * 1e-6 * count
        for strategy, count in activations_by_strategy(work, results).items()
    )
    layers["serving.replay_nonengine_share"] = 1.0 - alone / run_s
    return layers


# -- the run -------------------------------------------------------------------


class Repetitions:
    """The measuring window: repetitions, their checks, what they left."""

    def __init__(self, work: Workload, seconds: float, trace: bool,
                 tmp: Path) -> None:
        self.recorder = SpanRecorder()
        #: ``(wall, traced?)`` of every successful repetition, in order.
        self.walls: list[tuple[float, bool]] = []
        self.traced_results: list[list] = []
        self.digests: list[str] = []
        self.errors: list[str] = []
        self.notes: set[str] = set()
        self.count = self.failed = 0
        self.environments: list = []
        self.last_results = None
        off = SpanRecorder(enabled=False)
        record_path = str(tmp / "rep.jsonl") if work.record else None
        enough = MIN_TRACED_RUN_UNTRACED if trace else 1
        began = time.perf_counter()
        while (time.perf_counter() - began < seconds
               or len(self.untraced) < enough
               or (trace and not self.traced_results)):
            rep, tracing = self.count, trace and self.count % 2 == 1
            self.last_results = None  # one repetition's results at a time
            gc.collect()
            start = time.perf_counter()
            try:
                if tracing:
                    with captured_environments(self.environments):
                        results, texts = repetition(work, self.recorder, rep,
                                                    record_path)
                else:
                    results, texts = repetition(work, off, rep, record_path)
                wall = time.perf_counter() - start
                problems = violations(work, results)
                quiet = [f"mechanism {name} never fired"
                         for name in unfired(work, results)]
                if work.strict:
                    problems += quiet
                else:
                    self.notes.update(quiet)
            except Exception as error:  # a repetition that raised has failed
                problems = [f"raised {type(error).__name__}: {error}"]
            self.count += 1
            if problems:
                self.failed += 1
                self.errors.extend(f"rep {rep}: {p}" for p in problems)
                break  # a failing workload is not worth the rest of the window
            self.last_results = results
            self.digests.append(digest_of(texts))
            self.walls.append((wall, tracing))
            if tracing:
                self.traced_results.append(results)
        if len(set(self.digests)) > 1:
            self.errors.append(
                f"repetitions disagree: sim_digest {sorted(set(self.digests))}"
            )

    @property
    def untraced(self) -> list[float]:
        return [wall for wall, tracing in self.walls if not tracing]


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    setup = SpanRecorder()
    work = Workload(name, seed, smoke, setup)
    document = {
        "workload": name, "seed": seed, "smoke": smoke, "trace": trace,
        "setup_s": setup.total("setup"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp_name:
        tmp = Path(tmp_name)
        reps = Repetitions(work, seconds, trace, tmp)
        document.update({
            "logical_queries": work.logical,
            "repetitions": reps.count,
            "failed_repetitions": reps.failed,
            "rep_wall_s": reps.untraced,
            "errors": reps.errors,
            "notes": sorted(reps.notes),
            "sim_digest": reps.digests[0] if reps.digests else None,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        if reps.last_results is None or not reps.untraced:
            return document
        document["sim"] = sim_outcomes(work, reps.last_results)
        document["activations"] = sum(
            activations_by_strategy(work, reps.last_results).values()
        )
        if trace and not reps.errors:
            recorder = reps.recorder
            # Self time of a ledger.rep span is harness time no call span
            # covers; the call spans must account for (nearly) all of it.
            document["span_coverage_share"] = min(
                1.0 - s["self"] / s["duration"]
                for s in recorder.with_self_times() if s["name"] == "ledger.rep"
            )
            layers = layer_metrics(work, setup, reps, smoke, tmp)
            if layers["serving.replay_identical"] != 1:
                reps.errors.append(
                    "replay of the recorded trace is not identical"
                )
                document["failed_repetitions"] += 1
            document["per_layer"] = layers
            write_spans(name, seed, setup, recorder)
    return document


def write_spans(name: str, seed: int, setup: SpanRecorder,
                recorder: SpanRecorder) -> None:
    """``out/spans-<workload>.json``: set-up spans, then the traced ones."""
    shift = len(setup.spans)
    spans = setup.with_self_times() + [
        {**s, "id": s["id"] + shift,
         "parent": None if s["parent"] is None else s["parent"] + shift}
        for s in recorder.with_self_times()
    ]
    (OUT_DIR / f"spans-{name}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "spans": spans},
                   indent=1) + "\n"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(REPO_ROOT / "src"))
    document = measure(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
