"""Tests for the experiment harness: methodology, config, reporting, figures.

Figure modules run at miniature size here (2 plans, few points) — the
assertions check mechanics and direction, not precision; the benchmark
suite and the full runner carry the real measurements.
"""

import random

import pytest

from repro.catalog import SkewSpec
from repro.engine import QueryExecutor
from repro.experiments import (
    ExperimentOptions,
    relative_performance,
    scaled_execution_params,
)
from repro.experiments import figure6, figure7, figure9, section53
from repro.experiments.methodology import PlanRun, Point, measure_points
from repro.experiments.reporting import format_table
from repro.experiments.runner import EXPERIMENTS, run_all
from repro.sim.machine import MachineConfig
from repro.sim.rng import derive_seed
from repro.workloads.plans import WorkloadConfig, build_workload


TINY = ExperimentOptions(plans=2, workload_queries=2)


# ---------------------------------------------------------------------------
# Methodology (Section 5.1.3)
# ---------------------------------------------------------------------------

class TestMethodology:
    def test_relative_performance_formula(self):
        # (1/n) * sum(rt_i / ref_i)
        assert relative_performance([2.0, 3.0], [1.0, 1.0]) == pytest.approx(2.5)
        assert relative_performance([1.0], [2.0]) == pytest.approx(0.5)

    def test_relative_performance_validates(self):
        with pytest.raises(ValueError):
            relative_performance([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            relative_performance([], [])
        with pytest.raises(ValueError):
            relative_performance([0.0], [1.0])

    def test_point_ratio_pairs_runs_with_the_reference_by_plan(self):
        def point(*runs):
            return Point(nodes=1, processors=8, strategy="FP", skew=0.0,
                         error_rate=0.0, runs=tuple(
                             PlanRun(plan, time, 0, 0, 0.0)
                             for plan, time in runs))

        reference = point((0, 1.0), (1, 2.0))
        # Two distorted draws of plan 1 both divide by plan 1's reference.
        drawn = point((0, 2.0), (1, 4.0), (1, 8.0))
        assert drawn.relative_to(reference) == pytest.approx((2 + 2 + 4) / 3)
        # Figure 8's speedup is the formula with the roles swapped:
        # rt(1 proc) / rt(p procs), averaged per plan.
        assert (point((0, 8.0), (1, 16.0)).relative_to(reference)
                == pytest.approx(8.0))


# ---------------------------------------------------------------------------
# Config / scaling
# ---------------------------------------------------------------------------

class TestConfig:
    def test_scale_one_is_paper_parameters(self):
        params = scaled_execution_params(scale=1.0)
        assert params.disk.latency == pytest.approx(17e-3)
        assert params.disk.seek_time == pytest.approx(5e-3)
        assert params.network.transmission_delay == pytest.approx(0.5e-3)

    def test_scaled_latencies(self):
        params = scaled_execution_params(scale=0.01)
        assert params.disk.latency == pytest.approx(17e-5)
        assert params.network.transmission_delay == pytest.approx(0.5e-5)
        # Per-byte CPU costs are untouched by scaling.
        assert params.network.send_instructions_per_8k == 10_000

    def test_skew_passthrough(self):
        params = scaled_execution_params(skew=SkewSpec.uniform_redistribution(0.7))
        assert params.skew.redistribution == 0.7

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            scaled_execution_params(scale=0)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            ExperimentOptions(plans=0)
        with pytest.raises(ValueError):
            ExperimentOptions(scale=0)

    def test_quick_options_are_small(self):
        quick = ExperimentOptions.quick()
        assert quick.plans < ExperimentOptions().plans


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5


# ---------------------------------------------------------------------------
# Figure modules (miniature runs)
# ---------------------------------------------------------------------------

class TestFigureModules:
    def test_figure6_miniature(self):
        result = figure6.run(TINY, processor_counts=(4,))
        assert result.distinct("strategy") == ("SP", "DP", "FP")
        sp = result.cell(processors=4, strategy="SP")
        assert sp.relative_to(sp) == 1.0
        fp = result.cell(processors=4, strategy="FP").relative_to(sp)
        dp = result.cell(processors=4, strategy="DP").relative_to(sp)
        assert fp >= dp * 0.95
        assert "Figure 6" in result.table()

    def test_a_measured_point_is_the_hand_wired_executor_loop(self):
        """Figure 7's points == the per-plan loop the figure used to
        spell out, distortion stream names included."""
        sp, fp = measure_points(figure7.points(
            TINY, processor_counts=(4,), error_rates=(0.2,),
            distortions_per_plan=2))
        config = MachineConfig(nodes=1, processors_per_node=4)
        params = scaled_execution_params(scale=TINY.scale)
        plans = build_workload(config, WorkloadConfig(
            queries=TINY.workload_queries, scale=TINY.scale, seed=TINY.seed,
        )).plans[: TINY.plans]

        def legacy(plan, strategy):
            return QueryExecutor(plan, config, strategy=strategy,
                                 params=params).run().response_time

        assert [run.response_time for run in sp.runs] == [
            legacy(plan, "SP") for plan in plans]
        assert [(run.plan, run.response_time) for run in fp.runs] == [
            (index, legacy(plan.distorted(0.2, random.Random(derive_seed(
                TINY.seed, f"fig7:4:0.2:{index}:{draw}"))), "FP"))
            for index, plan in enumerate(plans) for draw in range(2)]

    def test_figure9_miniature(self):
        result = figure9.run(TINY, skew_factors=(0.0, 0.8), processors=8)
        reference = result.cell(skew=0.0)
        assert reference.relative_to(reference) == pytest.approx(1.0)
        assert result.cell(skew=0.8).relative_to(reference) < 1.5
        assert "Figure 9" in result.table()

    def test_section53_runs(self):
        result = section53.run(TINY, base_tuples=500)
        for strategy in ("DP", "FP"):
            (run,) = result.cell(strategy=strategy).runs
            assert run.loadbalance_bytes >= 0
        assert "5-operator chain" in result.table()

    def test_overload_miniature(self):
        from repro.experiments import overload

        result = overload.run(TINY, multipliers=(1.0, 2.0),
                              queries_per_cell=8)
        assert {(r.regime, r.multiplier) for r in result.rows} == {
            ("naive", 1.0), ("naive", 2.0),
            ("graceful", 1.0), ("graceful", 2.0),
        }
        for row in result.rows:
            # every logical query resolves, served or abandoned
            assert row.completed + row.gave_up == result.queries
            assert 0 <= row.good <= row.completed
            assert row.goodput >= 0
            if row.regime == "naive":
                # unbounded retries never give up
                assert row.gave_up == 0
                assert row.completed == result.queries
        assert "Goodput under overload" in result.table()
        assert "graceful" in result.degradation_summary()

    def test_service_class_sweep_miniature(self):
        from repro.experiments import service_class_sweep

        result = service_class_sweep.run(
            TINY, mpl_levels=(8,), nodes=2, processors_per_node=2,
            base_tuples=1000, queries_per_cell=12,
        )
        # The acceptance ordering: priority preemption improves the
        # interactive class's p95 over FIFO at MPL 8, batch throughput
        # stays within 20%.
        def closed(discipline, name):
            return result.cell(column="closed", discipline=discipline,
                               mpl=8, service_class=name)

        fifo = closed("fifo", "interactive")
        prio = closed("priority", "interactive")
        assert prio.p95_latency < fifo.p95_latency
        assert (closed("priority", "batch").throughput
                >= 0.8 * closed("fifo", "batch").throughput)
        # Overload handling actually shed something, somewhere.
        assert any(c.shed > 0 for c in result.select(column="overload"))
        assert "Service classes at MPL 8" in result.table()
        # The I/O-heavy acceptance ordering: priority *disk* scheduling
        # improves the interactive p95 over FIFO disks at MPL 8, batch
        # throughput within 20%, and the gain shows up as interactive
        # disk-queueing time (the per-resource breakdown).
        def io(discipline, name):
            return result.cell(column="io", discipline=discipline,
                               mpl=8, service_class=name)

        io_fifo = io("fifo", "interactive")
        io_prio = io("priority", "interactive")
        assert io_prio.p95_latency < io_fifo.p95_latency
        assert (io("priority", "batch").throughput
                >= 0.8 * io("fifo", "batch").throughput)
        assert io_prio.disk_wait < io_fifo.disk_wait
        assert "I/O-heavy mix at MPL 8" in result.table()


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

class TestRunner:
    def test_registry_covers_all_paper_artifacts(self):
        assert set(EXPERIMENTS) == {
            "params", "fig6", "fig7", "fig8", "fig9", "fig10", "sec53",
            "workload", "classes", "traces", "elastic", "overload",
            "placement",
        }

    def test_params_experiment_is_static(self, tmp_path):
        report = run_all(TINY, only=["params"], echo=False,
                         output=str(tmp_path / "r.md"))
        assert "17 ms" in report
        assert "10000 instr." in report
        assert (tmp_path / "r.md").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_all(TINY, only=["nope"], echo=False)
