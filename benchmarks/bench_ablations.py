"""Ablation benches for the engine's design decisions (ARCHITECTURE.md,
"Choices the paper leaves open").

Each ablation sweeps one knob of the execution model on a fixed skewed
hierarchical scenario and prints the response-time impact:

* **granularity** — batch size of data activations (Section 3.1's
  fine-grain/coarse-grain trade-off);
* **fragmentation** — buckets per join (Section 3.1: high fragmentation
  eases load balancing under skew);
* **scheduling heuristics** — chains one-at-a-time vs concurrent
  (Section 3.2's concurrency/memory trade-off);
* **global load balancing** — stealing on vs off under skew.
"""

from conftest import run_once

from repro.catalog import SkewSpec
from repro.engine import QueryExecutor
from repro.experiments.config import scaled_execution_params
from repro.experiments.reporting import format_table
from repro.workloads import pipeline_chain_scenario


def _scenario():
    return pipeline_chain_scenario(nodes=2, processors_per_node=4,
                                   base_tuples=4000)


def _params(**overrides):
    base = dict(scale=0.01, skew=SkewSpec.uniform_redistribution(0.7))
    scale = base.pop("scale")
    skew = base.pop("skew")
    return scaled_execution_params(scale=scale, skew=skew, **overrides)


def test_ablation_batch_size(benchmark):
    plan, config = _scenario()

    def sweep():
        rows = []
        for batch in (16, 64, 256):
            params = _params(batch_size=batch)
            result = QueryExecutor(plan, config, strategy="DP",
                                   params=params).run()
            rows.append((batch, f"{result.response_time:.4f}s",
                         result.metrics.activations_processed))
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(format_table(["batch size", "response", "activations"], rows,
                       title="Ablation: data-activation granularity"))
    # Finer batches mean more activations (more overhead), coarser fewer.
    assert rows[0][2] > rows[-1][2]


def test_ablation_fragmentation(benchmark):
    plan, config = _scenario()

    def sweep():
        rows = []
        for factor in (1, 8, 32):
            params = _params(fragmentation_factor=factor)
            result = QueryExecutor(plan, config, strategy="DP",
                                   params=params).run()
            rows.append((factor, f"{result.response_time:.4f}s",
                         result.metrics.steals_succeeded))
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(format_table(["fragmentation factor", "response", "steals"], rows,
                       title="Ablation: degree of fragmentation under skew"))
    assert all(float(r[1].rstrip("s")) > 0 for r in rows)


def test_ablation_scheduling_heuristics(benchmark):
    from repro.optimizer import compile_plan

    plan, config = _scenario()
    graph, tree = plan.graph, plan.join_tree

    def sweep():
        rows = []
        for h2, label in ((True, "chains one-at-a-time (paper)"),
                          (False, "concurrent chains")):
            variant = compile_plan(graph, tree, config, heuristic2=h2,
                                   label=label)
            result = QueryExecutor(variant, config, strategy="DP",
                                   params=_params()).run()
            rows.append((label, f"{result.response_time:.4f}s",
                         f"{result.metrics.memory_high_watermark / 1e6:.2f}MB"))
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(format_table(["scheduling", "response", "peak memory"], rows,
                       title="Ablation: heuristic 2 (chain concurrency)"))


def test_ablation_global_lb(benchmark):
    plan, config = _scenario()

    def sweep():
        rows = []
        for enabled in (True, False):
            params = _params(enable_global_lb=enabled)
            result = QueryExecutor(plan, config, strategy="DP",
                                   params=params).run()
            rows.append(("on" if enabled else "off",
                         f"{result.response_time:.4f}s",
                         f"{result.metrics.idle_fraction():.1%}"))
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(format_table(["global LB", "response", "idle"], rows,
                       title="Ablation: work stealing under skew"))
