"""CPU service is conserved and attributed exactly under class scheduling.

On an interactive/batch mix sharing every processor:

* **conservation**: under fair/priority a charge may wait behind, or be
  split by, another class's charge; machine-wide processor busy time
  still equals the sum of every query's thread busy time;
* **exact per-class wait partitions**: per resource, the
  ``class_resource_waits`` class sums reconstruct the workload total.
"""

import dataclasses

import pytest

from repro.catalog.skew import SkewSpec
from repro.experiments.config import scaled_execution_params
from repro.serving import (AdmissionPolicy, ArrivalSpec, BATCH, INTERACTIVE,
                           WorkloadSpec)
from repro.serving.driver import WorkloadDriver
from repro.workloads.scenarios import pipeline_chain_scenario


def _class_workload(cpu_discipline: str, mpl: int = 4, queries: int = 8):
    plan, config = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                           base_tuples=1000)
    params = scaled_execution_params(
        skew=SkewSpec.uniform_redistribution(0.8), seed=11,
        cpu_discipline=cpu_discipline,
    )
    interactive = dataclasses.replace(INTERACTIVE, latency_slo=0.3)
    spec = WorkloadSpec(
        queries=queries,
        arrival=ArrivalSpec(kind="closed", population=mpl),
        policy=AdmissionPolicy(max_multiprogramming=mpl),
        classes=((interactive, 1.0), (BATCH, 2.0)),
        seed=11,
    )
    return WorkloadDriver(plan, config, spec, params)


class TestPreemptionConservation:
    @pytest.mark.parametrize("discipline", ["fair", "priority"])
    def test_machine_busy_equals_charged_thread_time(self, discipline):
        """Splitting charges at preemption/grant boundaries loses no
        service: processor busy time == sum of thread busy time."""
        driver = _class_workload(discipline)
        coordinator = driver.build_coordinator()
        metrics = coordinator.run()
        charged = sum(
            c.result.metrics.thread_busy_time for c in metrics.completions
        )
        machine_busy = sum(
            processor.busy_time
            for row in coordinator.substrate.processors for processor in row
        )
        assert machine_busy == pytest.approx(charged, rel=1e-9)
        # Preemption actually happened under the priority discipline —
        # the conservation above covered split charges.
        if discipline == "priority":
            assert any(
                processor.preemptions > 0
                for row in coordinator.substrate.processors
                for processor in row
            )


class TestClassWaitPartitions:
    def test_class_resource_waits_partition_totals_exactly(self):
        """Per resource, the per-class wait sums reconstruct the
        workload totals — queueing is never mis-attributed."""
        driver = _class_workload("priority", mpl=6, queries=10)
        metrics = driver.run().metrics
        totals = {
            "cpu": metrics.total_cpu_contention(),
            "disk": metrics.total_disk_wait(),
            "net": metrics.total_net_wait(),
        }
        for resource, total in totals.items():
            by_class = sum(
                metrics.class_resource_waits(name)[resource]
                * sum(1 for c in metrics.completions if c.service_class == name)
                for name in metrics.class_names()
            )
            assert by_class == pytest.approx(total, rel=1e-9, abs=1e-12)
        # The run actually queued somewhere, or the partition is vacuous.
        assert totals["cpu"] > 0.0
