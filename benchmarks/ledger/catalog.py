"""The ledger's fixed vocabulary: metrics, workloads, and the sparse-spec check.

Everything another file of the ledger needs to *name* lives here, so the
runner, the worker and ``--compare`` cannot drift apart:

* :data:`END_TO_END` — what a user of the simulator sees, per workload;
* :data:`PER_LAYER` — one row per layer measurement, with the end-to-end
  metric it is predicted to move;
* :func:`load_manifest` / :func:`workload_text` — the committed workload
  specs (``workloads/*.json``) and the reasons they exist;
* :func:`check_sparse` — the guard that keeps retired knobs out of them.

Every number is labelled *host* (wall-clock of the Python process, noisy)
or *sim* (virtual seconds and counts of the modelled machine; repeat
exactly for a fixed seed).  Stdlib only, imports nothing from ``repro``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
WORKLOAD_DIR = LEDGER_DIR / "workloads"
OUT_DIR = LEDGER_DIR / "out"

DEFAULT_SEED = 1996
HELD_OUT_SEED = 2815

#: knobs ROADMAP item 2 retires; a workload spec that names one would
#: stop loading the day the knob is deleted, so none may.
RETIRED_KNOBS = ("kernel", "event_queue", "charge_quantum", "clock_tick")

#: relative tolerance under which two sim values count as identical.
SIM_REL_TOL = 1e-9


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: "host" (wall-clock, noisy) or "sim" (virtual, exact per seed).
    kind: str
    better: str
    #: share of the baseline by which the metric may worsen (host), or
    #: None for sim metrics, which must match exactly at a fixed seed.
    bound: float | None = None
    #: absolute slack added to the bound (``setup_s`` on tiny set-ups).
    floor: float = 0.0
    note: str = ""
    #: listed under ``end_to_end`` in BENCHMARK.json (see README: the
    #: driver's bound is a share across seeds, which cannot express
    #: "exact at a fixed seed" nor a metric that is always 0).
    driver_end_to_end: bool = False


END_TO_END = (
    Metric("queries_per_s", "1/s", "host", "higher", 0.25,
           note="logical queries resolved / median repetition wall"),
    Metric("activations_per_s", "1/s", "host", "higher", 0.25,
           note="activations of the completed queries / median repetition "
                "wall: queries_per_s in the paper's unit of work, which "
                "tracks host cost across seeds",
           driver_end_to_end=True),
    Metric("setup_s", "s", "host", "lower", 0.25, floor=0.25,
           note="fresh process: import repro + spec load + plan build",
           driver_end_to_end=True),
    Metric("peak_rss_mb", "MiB", "host", "lower", 0.25,
           note="ru_maxrss after the last repetition",
           driver_end_to_end=True),
    Metric("sim_makespan_s", "sim_s", "sim", "lower",
           note="metrics.makespan; sum of response times in single mode"),
    Metric("sim_latency_p50_s", "sim_s", "sim", "lower",
           note="metrics.p50_latency; median response time in single mode"),
    Metric("sim_served_share", "ratio", "sim", "higher",
           note="served / logical queries"),
    Metric("failed_share", "ratio", "host", "lower", 0.0,
           note="logical queries in failed repetitions / attempted"),
)

#: (name, unit, kind, better, predicted end-to-end effect)
_PER_LAYER_ROWS = (
    ("api.spec_load_s", "s", "host", "lower", "setup_s, all (tiny)"),
    ("api.to_json_s", "s", "host", "lower",
     "queries_per_s on replay_tiny; flat elsewhere"),
    ("optimizer.build_plans_s", "s", "host", "lower",
     "setup_s on single_skew, mix_mpl8; flat on replay_tiny"),
    ("optimizer.plans_built", "count", "sim", "lower", "setup_s"),
    ("optimizer.s_per_plan", "s", "host", "lower", "setup_s"),
    ("optimizer.plan_bank_s", "s", "host", "lower",
     "setup_s on overload_elastic"),
    ("workloads.tracegen_s", "s", "host", "lower",
     "queries_per_s on replay_tiny"),
    ("workloads.tracegen_queries_per_s", "1/s", "host", "higher",
     "queries_per_s on replay_tiny"),
    ("sim.timer_events_per_s", "1/s", "host", "higher",
     "queries_per_s on mix_mpl8, single_skew"),
    ("sim.resource_fifo_events_per_s", "1/s", "host", "higher",
     "queries_per_s on mix_mpl8, single_skew"),
    ("sim.resource_fair_events_per_s", "1/s", "host", "higher", "none today"),
    ("sim.resource_priority_events_per_s", "1/s", "host", "higher",
     "queries_per_s on overload_elastic only"),
    ("sim.events", "count", "sim", "lower", "queries_per_s on mix_mpl8"),
    ("sim.events_per_query", "ratio", "sim", "lower",
     "queries_per_s on mix_mpl8"),
    ("sim.events_per_s", "1/s", "host", "higher",
     "not end to end: removing events lowers it while the run gets faster"),
    ("engine.dp_us_per_activation", "us", "host", "lower",
     "queries_per_s on single_skew, mix_mpl8"),
    ("engine.fp_us_per_activation", "us", "host", "lower",
     "queries_per_s on single_skew"),
    ("engine.tiny_query_us", "us", "host", "lower",
     "queries_per_s on replay_tiny; flat on mix_mpl8"),
    ("engine.activations", "count", "sim", "lower", "sim_makespan_s"),
    ("engine.suspensions", "count", "sim", "lower", "sim_makespan_s"),
    ("engine.steal_rounds", "count", "sim", "lower",
     "sim_makespan_s on single_skew, mix_mpl8"),
    ("engine.steals_succeeded", "count", "sim", "higher",
     "sim_makespan_s on single_skew, mix_mpl8"),
    ("engine.steal_success_share", "ratio", "sim", "higher",
     "useful steals / attempts"),
    ("engine.loadbalance_bytes", "bytes", "sim", "lower", "sim_makespan_s"),
    ("engine.sim_thread_busy_s", "sim_s", "sim", "lower", "sim_makespan_s"),
    ("engine.sim_cpu_contention_s", "sim_s", "sim", "lower",
     "sim_latency_p50_s on serving workloads"),
    ("engine.sim_disk_wait_s", "sim_s", "sim", "lower", "sim_latency_p50_s"),
    ("engine.sim_net_wait_s", "sim_s", "sim", "lower", "sim_latency_p50_s"),
    ("engine.metrics_summary_s", "s", "host", "lower",
     "queries_per_s on replay_tiny"),
    ("serving.run_s", "s", "host", "lower", "queries_per_s, all"),
    ("serving.shed_us_per_query", "us", "host", "lower",
     "queries_per_s on replay_tiny; flat on mix_mpl8, single_skew"),
    ("serving.replay_nonengine_share", "ratio", "host", "lower",
     "queries_per_s on replay_tiny (a bound, not a partition)"),
    ("serving.admitted", "count", "sim", "higher", "sim_served_share"),
    ("serving.deferrals", "count", "sim", "lower", "sim_latency_p50_s"),
    ("serving.shed_queue_timeout", "count", "sim", "lower",
     "sim_served_share on replay_tiny, overload_elastic"),
    ("serving.shed_retries_exhausted", "count", "sim", "lower",
     "sim_served_share on overload_elastic"),
    ("serving.shed_memory_preempted", "count", "sim", "lower",
     "sim_served_share on overload_elastic"),
    ("serving.retries", "count", "sim", "lower",
     "sim_served_share on overload_elastic"),
    ("serving.attempts_per_s", "1/s", "host", "higher",
     "the legacy BENCH_overload rate"),
    ("serving.memory_preemptions", "count", "sim", "lower",
     "sim_served_share on overload_elastic"),
    ("serving.spill_bytes", "bytes", "sim", "lower",
     "sim_makespan_s on overload_elastic"),
    ("serving.cross_steal_rounds", "count", "sim", "lower",
     "sim_makespan_s on mix_mpl8, overload_elastic"),
    ("serving.broker_notifications", "count", "sim", "lower",
     "queries_per_s on overload_elastic"),
    ("serving.sim_latency_p99_s", "sim_s", "sim", "lower",
     "tail of sim_latency_p50_s; meaningful on replay_tiny only"),
    ("serving.sim_mean_queueing_s", "sim_s", "sim", "lower",
     "sim_latency_p50_s on replay_tiny"),
    ("serving.record_overhead_share", "ratio", "host", "lower",
     "queries_per_s on overload_elastic only"),
    ("serving.trace_bytes", "bytes", "sim", "lower",
     "queries_per_s on overload_elastic only"),
    ("serving.trace_events", "count", "sim", "lower",
     "queries_per_s on overload_elastic only"),
    ("serving.trace_load_s", "s", "host", "lower", "none (replay set-up)"),
    ("serving.replay_identical", "0/1", "sim", "higher",
     "correctness check; must be 1"),
    ("cluster.node_joins", "count", "sim", "lower",
     "sim_makespan_s on overload_elastic"),
    ("cluster.node_leaves", "count", "sim", "lower",
     "sim_makespan_s on overload_elastic"),
    ("cluster.rebalance_moves", "count", "sim", "lower",
     "sim_makespan_s on overload_elastic"),
    ("cluster.rebalance_bytes", "bytes", "sim", "lower",
     "sim_makespan_s on overload_elastic"),
    ("placement.plans_rewritten", "count", "sim", "higher",
     "sim_latency_p50_s on overload_elastic"),
    ("placement.bytes_avoided", "bytes", "sim", "higher",
     "sim_latency_p50_s on overload_elastic"),
    ("ledger.trace_overhead_share", "ratio", "host", "lower",
     "none (instrument cost)"),
)

PER_LAYER = tuple(
    Metric(name, unit, kind, better, note=moves)
    for name, unit, kind, better, moves in _PER_LAYER_ROWS
)

#: what BENCHMARK.json lists: the driver-gated end-to-end metrics, and
#: everything else that is a measurement (``failed_share`` travels as the
#: result line's ``failed`` / ``attempted`` keys instead).
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m.driver_end_to_end)
DRIVER_PER_LAYER = PER_LAYER + tuple(
    m for m in END_TO_END
    if not m.driver_end_to_end and m.name != "failed_share"
)


def load_manifest() -> dict:
    """``{workload name: {"why", "loop", ...}}`` in committed order."""
    return json.loads((WORKLOAD_DIR / "manifest.json").read_text())


def workload_text(name: str) -> str:
    return (WORKLOAD_DIR / f"{name}.json").read_text()


def _keys(node) -> set:
    if isinstance(node, dict):
        found = set(node)
        for value in node.values():
            found |= _keys(value)
        return found
    if isinstance(node, list):
        return set().union(*(_keys(item) for item in node))
    return set()


def check_sparse(name: str, text: str) -> None:
    """Raise if a workload spec names a knob ROADMAP item 2 retires."""
    named = _keys(json.loads(text)) & set(RETIRED_KNOBS)
    if named:
        raise ValueError(
            f"workload {name!r} names retired knob(s) {sorted(named)}; "
            "ledger specs state only the fields they mean"
        )
