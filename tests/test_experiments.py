"""Tests for the experiment harness: methodology, config, reporting, figures.

Figure modules run at miniature size here (2 plans, few points) — the
assertions check mechanics and direction, not precision; the benchmark
suite and the full runner carry the real measurements.
"""

import pytest

from repro.catalog import SkewSpec
from repro.experiments import (
    ExperimentOptions,
    Series,
    average_speedup,
    relative_performance,
    scaled_execution_params,
)
from repro.experiments import figure6, figure9, section53
from repro.experiments.reporting import format_series_table, format_table
from repro.experiments.runner import EXPERIMENTS, run_all


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

    def test_average_speedup(self):
        # speedup = rt(1 proc) / rt(p procs), averaged per plan.
        assert average_speedup([8.0, 16.0], [1.0, 2.0]) == pytest.approx(8.0)

    def test_series_access(self):
        series = Series("s", ((1.0, 2.0), (2.0, 3.0)))
        assert series.xs() == [1.0, 2.0]
        assert series.ys() == [2.0, 3.0]
        assert series.y_at(2.0) == 3.0
        with pytest.raises(KeyError):
            series.y_at(9.0)


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

    def test_format_series_table_merges_x_axes(self):
        s1 = Series("one", ((1.0, 0.5),))
        s2 = Series("two", ((1.0, 0.6), (2.0, 0.7)))
        text = format_series_table([s1, s2], x_label="x")
        assert "-" in text.splitlines()[-2] or "-" in text  # missing cell marker


# ---------------------------------------------------------------------------
# Figure modules (miniature runs)
# ---------------------------------------------------------------------------

class TestFigureModules:
    def test_figure6_miniature(self):
        result = figure6.run(TINY, processor_counts=(4,))
        names = {s.name for s in result.series}
        assert names == {"SP", "DP", "FP"}
        sp = next(s for s in result.series if s.name == "SP")
        assert sp.ys() == [1.0]
        fp = next(s for s in result.series if s.name == "FP")
        dp = next(s for s in result.series if s.name == "DP")
        assert fp.y_at(4) >= dp.y_at(4) * 0.95
        assert "Figure 6" in result.table()

    def test_figure9_miniature(self):
        result = figure9.run(TINY, skew_factors=(0.0, 0.8), processors=8)
        assert result.series[0].y_at(0.0) == pytest.approx(1.0)
        assert result.max_degradation() < 1.5
        assert "Figure 9" in result.table()

    def test_section53_runs(self):
        result = section53.run(TINY, base_tuples=500)
        assert result.dp_bytes >= 0
        assert result.fp_bytes >= 0
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
