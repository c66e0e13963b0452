"""Sweep/registry/CLI tests: grids as data, spec-driven experiments.

Pins the redesign's equivalence criterion for sweeps: the ``SweepSpec``
grid produces exactly the measurements the bespoke pre-API cell plumbing
produced (same cells, same order, same numbers), and the experiment
registry drives the runner with validated CLI options.
"""

import dataclasses
import io
import json
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.api import (
    ScenarioSpec,
    SpecError,
    SweepSpec,
    apply_axis,
    run_sweep,
    sweep_table,
)
from repro.api.cli import main as cli_main
from repro.api.serde import from_json, to_json
from repro.catalog.skew import SkewSpec
from repro.experiments import placement, service_class_sweep, workload_sweep
from repro.experiments.config import ExperimentOptions
from repro.experiments.registry import REGISTRY, register_experiment
from repro.experiments.runner import (EXPERIMENTS, main as runner_main,
                                      run_all, run_experiment)
from repro.serving import AdmissionPolicy, ArrivalSpec, WorkloadSpec
from repro.serving.driver import WorkloadDriver
from repro.sim.machine import MachineConfig

TINY = ExperimentOptions(plans=2, workload_queries=2)
#: figure id -> (a tier-1 shape, every row's (nodes, processors per
#: node, strategy, skew, error rate, executions) at TINY's two plans,
#: the table title).  Each experiment's parallel == sequential identity
#: is a ``tier1 ID`` row of ``make identity``.
FIGURE_EXPERIMENTS = {
    "fig6": (dict(processor_counts=(4,)),
             [(1, 4, strategy, 0.0, 0.0, 2)
              for strategy in ("SP", "DP", "FP")],
             "Figure 6: relative performance (reference = SP)"),
    # Two distortion draws per plan at rate 0.2; rate zero is the
    # undistorted FP point, one run per plan.
    "fig7": (dict(processor_counts=(4,), error_rates=(0.0, 0.2),
                  distortions_per_plan=2),
             [(1, 4, "SP", 0.0, 0.0, 2), (1, 4, "FP", 0.0, 0.0, 2),
              (1, 4, "FP", 0.0, 0.2, 4)],
             "Figure 7: FP degradation vs cost-model error (ref = SP)"),
    "fig8": (dict(processor_counts=(1, 4)),
             [(1, procs, strategy, 0.0, 0.0, 2) for procs in (1, 4)
              for strategy in ("SP", "DP", "FP")],
             "Figure 8: average speedup"),
    "fig9": (dict(skew_factors=(0.0, 0.8), processors=8),
             [(1, 8, "DP", 0.0, 0.0, 2), (1, 8, "DP", 0.8, 0.0, 2)],
             "Figure 9: DP degradation vs skew (8 processors, "
             "ref = no skew)"),
    "fig10": (dict(configs=((2, 2), (2, 4))),
              [(2, procs, strategy, 0.6, 0.0, 2) for procs in (2, 4)
               for strategy in ("DP", "FP")],
              "Figure 10: relative performance, skew 0.6 (reference = FP)"),
    # The chain population is one plan.
    "sec53": (dict(base_tuples=500),
              [(4, 8, "DP", 0.8, 0.0, 1), (4, 8, "FP", 0.8, 0.0, 1)],
              "Section 5.3: 5-operator chain, skew 0.8, 4x8"),
}
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


class TestSweepSpec:
    def test_points_are_row_major(self):
        sweep = SweepSpec(axes=(("strategy", ("DP", "FP")), ("mpl", (1, 2))))
        assert sweep.points() == (
            {"strategy": "DP", "mpl": 1},
            {"strategy": "DP", "mpl": 2},
            {"strategy": "FP", "mpl": 1},
            {"strategy": "FP", "mpl": 2},
        )

    def test_dict_axes_normalize(self):
        sweep = SweepSpec(axes={"mpl": [1, 2]})
        assert sweep.axes == (("mpl", (1, 2)),)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepSpec(axes={"mpl": []})

    def test_mpl_macro_sets_population_and_admission_cap(self):
        cell = apply_axis(ScenarioSpec(), "mpl", 6)
        assert cell.workload.arrival.population == 6
        assert cell.workload.policy.max_multiprogramming == 6

    def test_skew_macro_sets_redistribution(self):
        cell = apply_axis(ScenarioSpec(), "skew", 0.8)
        assert cell.params.skew == SkewSpec(redistribution=0.8)

    def test_dotted_axis_reaches_nested_fields(self):
        cell = apply_axis(ScenarioSpec(), "params.network.bandwidth", 8e6)
        assert cell.params.network.bandwidth == 8e6

    def test_invalid_axis_value_fails_at_cell_construction(self):
        sweep = SweepSpec(axes={"params.cpu_discipline": ["fifo", "wrong"]})
        with pytest.raises(ValueError, match="cpu_discipline"):
            sweep.cells()

    def test_round_trip(self):
        sweep = SweepSpec(
            base=ScenarioSpec(label="base"),
            axes={"strategy": ["DP", "FP"], "mpl": [2, 8]},
            label="grid",
        )
        assert SweepSpec.from_json(sweep.to_json()) == sweep

    def test_non_scalar_axis_value_not_serializable(self):
        sweep = SweepSpec(axes=(("params.skew", (SkewSpec(),)),))
        with pytest.raises(SpecError, match="non-scalar"):
            sweep.to_dict()

    def test_unknown_sweep_key_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            SweepSpec.from_dict({"bases": {}})

    def test_axis_values_must_be_an_array(self):
        # A bare string would otherwise split into per-character cells.
        with pytest.raises(SpecError, match="array of values"):
            SweepSpec.from_dict({"axes": {"strategy": "DP"}})
        with pytest.raises(SpecError, match="array of values"):
            SweepSpec.from_dict({"axes": {"mpl": 8}})

    def test_sweep_table_zips_points_with_rows(self):
        sweep = SweepSpec(axes={"mpl": [1, 2]})
        table = sweep_table(sweep, ["a", "b"])
        assert table == [({"mpl": 1}, "a"), ({"mpl": 2}, "b")]
        with pytest.raises(ValueError, match="2 cells"):
            sweep_table(sweep, ["a"])


class TestWorkloadSweepEquivalence:
    def test_grid_matches_hand_wired_legacy_cells(self):
        """The SweepSpec grid == what the pre-API wiring produced."""
        result = run_experiment(
            "workload", TINY, mpl_levels=(1, 2), skew_levels=(0.8,),
            strategies=("DP",), nodes=2, processors_per_node=2,
            queries_per_cell=4,
        )
        assert len(result.rows) == 2
        sweep = workload_sweep.sweep_spec(
            TINY, mpl_levels=(1, 2), skew_levels=(0.8,), strategies=("DP",),
            nodes=2, processors_per_node=2, queries_per_cell=4,
        )
        for cell, scenario in zip(result.rows, sweep.cells()):
            # Rebuild the legacy wiring by hand for this cell.
            from repro.api import build_plans

            legacy = WorkloadDriver(
                list(build_plans(scenario)), scenario.cluster.machines,
                scenario.workload, scenario.params,
            ).run().metrics
            assert cell.throughput == legacy.throughput()
            assert cell.p95_latency == legacy.p95_latency
            assert cell.steal_bytes == legacy.total_steal_bytes()
            assert cell.mpl == scenario.workload.policy.max_multiprogramming
            assert cell.strategy == scenario.workload.strategy
            assert cell.skew == scenario.params.skew.redistribution


class TestServiceClassSweepSpecs:
    def test_columns_are_derivable_from_the_specs(self):
        sweeps = service_class_sweep.sweep_specs(
            TINY, mpl_levels=(2,), disciplines=("fifo",),
            nodes=2, processors_per_node=2, base_tuples=700,
            queries_per_cell=4,
        )
        # ``measure`` reads a cell's column back off its label.
        assert [{cell.label for cell in sweep.cells()} for sweep in sweeps] == [
            {"classes-closed"}, {"classes-io"}, {"classes-net"},
        ]

    def test_net_cells_carry_bandwidth_axis(self):
        sweeps = service_class_sweep.sweep_specs(
            TINY, mpl_levels=(2,), disciplines=("fifo", "priority"),
            nodes=2, processors_per_node=2, base_tuples=700,
            queries_per_cell=4, io_sweep=False,
            net_bandwidths=(8e6,),
        )
        net = sweeps[-1]
        cells = net.cells()
        assert len(cells) == 2
        assert {c.params.net_discipline for c in cells} == {"fifo", "priority"}
        assert all(c.params.network.bandwidth == 8e6 for c in cells)
        assert all(c.params.cpu_discipline == "fifo" for c in cells)


class TestRegistry:
    def test_registry_is_the_experiments_table(self):
        assert EXPERIMENTS is REGISTRY
        assert set(EXPERIMENTS) == {
            "params", "fig6", "fig7", "fig8", "fig9", "fig10", "sec53",
            "workload", "classes", "traces", "elastic", "overload",
            "placement",
        }

    def test_presentation_order_params_first(self):
        assert list(EXPERIMENTS)[0] == "params"

    def test_every_measure_is_module_level(self):
        # A cell's measure travels to the pool workers by reference.
        for name, experiment in EXPERIMENTS.items():
            measure = experiment.measure
            if measure is not None:
                module = sys.modules[measure.__module__]
                assert getattr(module, measure.__name__) is measure, name

    def test_expectations_registered(self):
        assert "DP" in EXPERIMENTS["workload"].expectation
        assert EXPERIMENTS["params"].expectation

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            register_experiment("params", "again", cells=lambda options: (),
                                measure=None, assemble=lambda *parts: None)

    def test_run_all_rejects_unknown_programmatically(self):
        with pytest.raises(ValueError, match="unknown experiments"):
            run_all(TINY, only=["nope"], echo=False)

    def test_runner_cli_validates_only_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["--only", "not-an-experiment"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_runner_cli_rejects_only_without_ids(self, capsys):
        # ``--only`` alone used to mean "everything".
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["--only"])
        assert excinfo.value.code == 2
        assert "expected at least one argument" in capsys.readouterr().err

    def test_run_all_params_report(self, tmp_path):
        report = run_all(TINY, only=["params"], echo=False,
                         output=str(tmp_path / "r.md"))
        assert "17 ms" in report
        assert (tmp_path / "r.md").exists()

    def test_runner_cli_runs_each_named_experiment_once(self, tmp_path,
                                                        capsys):
        output = tmp_path / "r.md"
        assert runner_main(["--only", "sec53", "params", "sec53",
                            "--quick", "--output", str(output)]) == 0
        report = output.read_text()
        sections = [line.split(":")[0] for line in report.splitlines()
                    if line.startswith("## ")]
        assert sections == ["## sec53", "## params"]
        assert capsys.readouterr().out.count("## params:") == 1

    @pytest.mark.parametrize("flag", ["--plans", "--scale"])
    def test_runner_cli_rejects_a_bad_option_by_its_flag(self, flag,
                                                         tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner_main([flag, "0", "--only", "params",
                         "--output", str(tmp_path / "r.md")])
        assert excinfo.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (tmp_path / "r.md").exists()


class TestScenarioCli:
    def test_quickstart_scenario_runs(self):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main([str(SCENARIO_DIR / "quickstart.json")])
        assert code == 0
        assert "scenario quickstart [serving]" in out.getvalue()
        assert "workload [" in out.getvalue()

    def test_emit_spec_is_canonical(self):
        path = SCENARIO_DIR / "quickstart.json"
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main([str(path), "--emit-spec"])
        assert code == 0
        assert out.getvalue() == path.read_text()

    def test_missing_file_is_a_clean_error(self, capsys):
        assert cli_main(["/nonexistent/scenario.json"]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    def test_invalid_scenario_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "nonsense"}')
        assert cli_main([str(bad)]) == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_run_time_scenario_error_is_a_clean_error(self, tmp_path, capsys):
        # Fields validate independently but clash at build time: a
        # two_node plan on a 4-node cluster must not dump a traceback.
        bad = tmp_path / "clash.json"
        bad.write_text(
            '{"cluster": {"machines": {"nodes": 4}}, '
            '"plans": {"kind": "two_node"}}'
        )
        assert cli_main([str(bad)]) == 2
        assert "2-node cluster" in capsys.readouterr().err

    def test_replaying_an_old_recording_is_a_clean_error(self, tmp_path,
                                                         capsys):
        # Recordings made while ServiceClass still had per-class gates
        # carry their keys: exit 2 naming the file and line, no traceback.
        old = tmp_path / "old.jsonl"
        old.write_text(json.dumps({
            "kind": "query_submitted", "time": 0.0, "query_id": 0,
            "plan_index": 0, "plan_label": "p", "strategy": "DP",
            "params_seed": 1, "attempt": 0, "final_attempt": False,
            "service_class": {"name": "batch", "max_multiprogramming": None},
        }) + "\n")
        code = cli_main([str(SCENARIO_DIR / "quickstart.json"),
                         "--replay", str(old)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{old}:1:" in err
        assert "'max_multiprogramming'" in err
        assert "Traceback" not in err

    def test_single_query_scenario_with_metrics(self):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(
                [str(SCENARIO_DIR / "single_query.json"), "--metrics"]
            )
        assert code == 0
        assert "result_tuples" in out.getvalue()


class TestQuickstartExample:
    def test_quickstart_example_runs_both_strategies(self, capsys):
        runpy.run_path(str(SCENARIO_DIR.parent / "quickstart.py"),
                       run_name="__main__")
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["strategy", "DP", "FP"]
        # Both strategies produce the join's full result.
        assert {line.split()[-1] for line in lines[1:]} == {"8000"}


class TestEveryExperimentIsData:
    """``cells`` -> ``measure`` -> ``assemble``, for every experiment."""

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_every_quick_cell_round_trips_through_json(self, name):
        cells = EXPERIMENTS[name].cells(ExperimentOptions.quick())
        assert bool(cells) == (name != "params")  # params: static tables
        for cell in cells:
            assert _through_json(cell) == cell
            # A figure's cell is (scenario, distortion), one query alone.
            assert name not in FIGURE_EXPERIMENTS or cell[0].mode == "single"

    @pytest.mark.parametrize("build", [
        lambda options: [workload_sweep.sweep_spec(options)],
        service_class_sweep.sweep_specs,
        placement.sweep_specs,
    ], ids=["workload", "classes", "placement"])
    def test_every_quick_sweep_spec_round_trips(self, build):
        # A non-JSON axis value would raise here (see
        # test_non_scalar_axis_value_not_serializable).
        sweeps = build(ExperimentOptions.quick())
        assert sweeps
        for sweep in sweeps:
            assert SweepSpec.from_json(sweep.to_json()) == sweep

    @pytest.mark.parametrize("name", sorted(FIGURE_EXPERIMENTS))
    def test_tiny_shape_runs_with_its_row_keys_and_title(self, name):
        small, keys, title = FIGURE_EXPERIMENTS[name]
        result = run_experiment(name, TINY, **small)
        assert [(row.nodes, row.processors, row.strategy, row.skew,
                 row.error_rate, len(row.runs))
                for row in result.rows] == keys
        assert result.table().splitlines()[0] == title


class TestParallelSweepStillIdentical:
    def test_run_sweep_collect_runs_in_worker(self):
        base = ScenarioSpec(
            cluster=MachineConfig(nodes=2, processors_per_node=2),
            workload=WorkloadSpec(
                queries=2,
                arrival=ArrivalSpec(kind="closed", population=1),
                policy=AdmissionPolicy(max_multiprogramming=1),
                seed=2,
            ),
            plans=dataclasses.replace(
                ScenarioSpec().plans, base_tuples=600
            ),
        )
        sweep = SweepSpec(base=base, axes={"mpl": [1, 2]})
        rows = run_sweep(sweep, collect=_throughput_of)
        assert len(rows) == 2
        assert all(isinstance(row, float) and row > 0 for row in rows)
        parallel_rows = run_sweep(sweep, processes=2, collect=_throughput_of)
        assert rows == parallel_rows


class TestParallelRunnerIdentity:
    def test_parallel_map_degenerate_cases(self):
        from repro.api.sweep import parallel_map, resolve_processes
        assert parallel_map(lambda x: x * x, [1, 2, 3]) == [1, 4, 9]
        assert parallel_map(lambda x: x * x, [], processes=0) == []
        assert resolve_processes(None) == 1
        assert resolve_processes(3) == 3
        assert resolve_processes(0) >= 1


def _throughput_of(result):
    """Module-level collector (must be picklable for the pool)."""
    return result.metrics.throughput()


def _through_json(value):
    """``value`` as JSON text and back: a spec through its codec, a
    tuple part by part."""
    if isinstance(value, tuple):
        return tuple(map(_through_json, value))
    if value is None or isinstance(value, (int, float, str)):
        return json.loads(json.dumps(value))
    return from_json(type(value), to_json(value))
