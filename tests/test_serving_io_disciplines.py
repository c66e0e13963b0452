"""End-to-end I/O scheduling through the serving stack.

The serving-side contract of the completed (CPU + disk + network)
discipline layer:

* a workload whose bottleneck is the disks shows the interference in the
  *disk* column of the per-resource queueing breakdown — CPU contention
  stays zero when the CPU is idle (mixed-resource contention is
  attributed to the right resource, not smeared);
* the disk discipline differentiates service classes end to end: on an
  I/O-heavy mix at MPL 8, ``disk_discipline="priority"`` improves the
  interactive p95 over FIFO disks while batch throughput stays within
  20% (the acceptance ordering of the I/O-heavy sweep);
* discipline choices are machine-wide: per-query overrides of
  ``disk_discipline``/``net_discipline`` are rejected at submission,
  like ``cpu_discipline`` overrides;
* shed queries resolve their ``done`` event with an explicit
  :class:`~repro.engine.metrics.QueryShed` (not ``None``), and finished
  queries with their :class:`~repro.engine.metrics.QueryCompletion`;
* runs stay deterministic under every disk/net discipline: same seed,
  byte-identical ``WorkloadMetrics.summary()``.
"""

import dataclasses

import pytest

from repro.engine import ExecutionParams
from repro.engine.metrics import QueryCompletion, QueryShed
from repro.experiments.config import scaled_execution_params
from repro.experiments.service_class_sweep import io_heavy_params
from repro.optimizer.cost import CostParams
from repro.serving import (
    BATCH,
    INTERACTIVE,
    AdmissionPolicy,
    ArrivalSpec,
    MultiQueryCoordinator,
    ServiceClass,
    WorkloadDriver,
    WorkloadSpec,
)
from repro.sim import MachineConfig
from repro.sim.disk import DiskParams
from repro.sim.network import NetworkParams
from repro.workloads import pipeline_chain_scenario
from repro.workloads.scenarios import io_heavy_chain_population


# ---------------------------------------------------------------------------
# Mixed-resource contention: the breakdown points at the right resource
# ---------------------------------------------------------------------------

class TestMixedResourceContention:
    def test_saturated_disks_with_idle_cpu_show_only_disk_waits(self):
        """CPU idle + disks saturated => nonzero disk queueing delay and
        *zero* CPU contention in the workload metrics.

        Every instruction cost is zeroed, so the CPU is literally idle
        and all service is disk transfers; two concurrent queries'
        streams interleave on the shared arms, which is what makes a
        disk queue (a lone sequential stream is hidden by the prefetch
        cache, not queued).
        """
        plan, config = pipeline_chain_scenario(
            nodes=1, processors_per_node=2, base_tuples=3000
        )
        idle_cpu = CostParams(
            scan_instructions_per_tuple=0,
            build_instructions_per_tuple=0,
            probe_instructions_per_tuple=0,
            result_instructions_per_tuple=0,
            activation_overhead_instructions=0,
            foreign_queue_penalty_instructions=0,
        )
        params = ExecutionParams(
            cost=idle_cpu, signal_instructions=0,
            disk=DiskParams(async_init_instructions=0), seed=3,
        )
        spec = WorkloadSpec(
            queries=2, arrival=ArrivalSpec(kind="closed", population=2),
            policy=AdmissionPolicy(max_multiprogramming=2), seed=3,
        )
        metrics = WorkloadDriver(plan, config, spec, params).run().metrics
        assert metrics.total_disk_wait() > 0.0
        assert metrics.total_cpu_contention() == 0.0
        assert metrics.total_net_wait() == 0.0  # single node: no traffic
        waits = metrics.per_class_summary()["default"]["resource_waits"]
        assert waits["disk"] > 0.0
        assert waits["cpu"] == 0.0

    def test_per_query_disk_waits_sum_to_the_machine_total(self):
        """Attribution exactness: the per-query disk queueing delays (one
        ChargeTag key per query) partition the machine-wide disk wait —
        nothing is lost and nothing is double-counted."""
        plan, config = pipeline_chain_scenario(
            nodes=1, processors_per_node=2, base_tuples=3000
        )
        idle_cpu = CostParams(
            scan_instructions_per_tuple=0,
            build_instructions_per_tuple=0,
            probe_instructions_per_tuple=0,
            result_instructions_per_tuple=0,
            activation_overhead_instructions=0,
            foreign_queue_penalty_instructions=0,
        )
        params = ExecutionParams(
            cost=idle_cpu, signal_instructions=0,
            disk=DiskParams(async_init_instructions=0), seed=3,
        )
        spec = WorkloadSpec(
            queries=3, arrival=ArrivalSpec(kind="closed", population=2),
            policy=AdmissionPolicy(max_multiprogramming=2), seed=3,
        )
        driver = WorkloadDriver(plan, config, spec, params)
        coordinator = driver.build_coordinator()
        metrics = coordinator.run()
        assert metrics.completed == 3
        machine_wait = sum(
            disk.wait_time
            for row in coordinator.substrate.disks for disk in row
        )
        assert machine_wait > 0.0
        assert metrics.total_disk_wait() == pytest.approx(machine_wait)


# ---------------------------------------------------------------------------
# End-to-end disk-discipline differentiation (the I/O-heavy acceptance)
# ---------------------------------------------------------------------------

class TestDiskDisciplineDifferentiation:
    def run_io_mix(self, disk_discipline, mpl=8, queries=12, seed=1996):
        plans, config = io_heavy_chain_population(
            nodes=2, processors_per_node=2, base_tuples=1000
        )
        interactive = dataclasses.replace(INTERACTIVE, latency_slo=0.5)
        from repro.experiments.config import ExperimentOptions
        params = io_heavy_params(
            ExperimentOptions(seed=seed), disk_discipline=disk_discipline
        )
        spec = WorkloadSpec(
            queries=queries,
            arrival=ArrivalSpec(kind="closed", population=mpl),
            policy=AdmissionPolicy(max_multiprogramming=mpl),
            classes=((interactive, 1.0), (BATCH, 2.0)),
            seed=seed,
        )
        return WorkloadDriver(plans, config, spec, params).run().metrics

    def test_priority_disks_improve_interactive_p95_at_mpl8(self):
        fifo = self.run_io_mix("fifo")
        prio = self.run_io_mix("priority")
        assert prio.class_latency_percentile("interactive", 95.0) < \
            fifo.class_latency_percentile("interactive", 95.0)
        # Batch pays at most 20% throughput: reordering, not extra work.
        assert prio.class_throughput("batch") >= \
            0.8 * fifo.class_throughput("batch")
        # The saved latency came out of the interactive *disk* queue.
        assert prio.class_resource_waits("interactive")["disk"] < \
            fifo.class_resource_waits("interactive")["disk"]

    def test_fair_disks_also_help_the_weighted_class(self):
        fifo = self.run_io_mix("fifo")
        fair = self.run_io_mix("fair")
        assert fair.class_latency_percentile("interactive", 95.0) < \
            fifo.class_latency_percentile("interactive", 95.0)

    @pytest.mark.parametrize("discipline", ["fifo", "fair", "priority"])
    def test_every_disk_discipline_is_deterministic(self, discipline):
        a = self.run_io_mix(discipline, queries=8)
        b = self.run_io_mix(discipline, queries=8)
        assert repr(a.summary()) == repr(b.summary())

    @pytest.mark.parametrize("discipline", ["fair", "priority"])
    def test_scheduled_disks_conserve_queries(self, discipline):
        metrics = self.run_io_mix(discipline, queries=8)
        assert metrics.completed == 8
        assert metrics.shed_count == 0


# ---------------------------------------------------------------------------
# Network-link scheduling through the serving stack
# ---------------------------------------------------------------------------

class TestNetworkLinkServing:
    def test_finite_bandwidth_workload_reports_net_waits(self):
        plan, config = pipeline_chain_scenario(
            nodes=2, processors_per_node=2, base_tuples=1500
        )
        params = scaled_execution_params(seed=5, net_discipline="priority")
        params = dataclasses.replace(
            params,
            network=dataclasses.replace(params.network, bandwidth=5e6),
        )
        spec = WorkloadSpec(
            queries=4, arrival=ArrivalSpec(kind="closed", population=2),
            policy=AdmissionPolicy(max_multiprogramming=2), seed=5,
        )
        metrics = WorkloadDriver(plan, config, spec, params).run().metrics
        assert metrics.completed == 4
        assert metrics.total_net_wait() > 0.0

    def test_substrate_builds_the_configured_disciplines(self):
        params = ExecutionParams(
            disk_discipline="priority", net_discipline="fair",
            network=NetworkParams(bandwidth=1e6),
        )
        coordinator = MultiQueryCoordinator(
            MachineConfig(nodes=2, processors_per_node=2), params=params
        )
        substrate = coordinator.substrate
        assert substrate.disks[0][0].discipline_name == "priority"
        assert substrate.net_link is not None
        assert substrate.net_link.discipline_name == "fair"

    def test_infinite_bandwidth_builds_no_link(self):
        coordinator = MultiQueryCoordinator(
            MachineConfig(nodes=2, processors_per_node=2)
        )
        assert coordinator.substrate.net_link is None

    def test_per_query_io_discipline_overrides_are_rejected(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan, _ = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                          base_tuples=500)
        coordinator = MultiQueryCoordinator(config)
        for knob in ("disk_discipline", "net_discipline"):
            with pytest.raises(ValueError):
                coordinator.submit(
                    plan, params=ExecutionParams(**{knob: "priority"})
                )


# ---------------------------------------------------------------------------
# Explicit shed completions
# ---------------------------------------------------------------------------

class TestQueryShedCompletion:
    def test_shed_done_event_carries_a_query_shed(self):
        plan, config = pipeline_chain_scenario(
            nodes=2, processors_per_node=2, base_tuples=1500
        )
        impatient = ServiceClass("impatient", queue_timeout=0.02)
        spec = WorkloadSpec(
            queries=8,
            arrival=ArrivalSpec(kind="bursty", rate=400.0, burst_size=8),
            policy=AdmissionPolicy(max_multiprogramming=1),
            classes=((impatient, 1.0),),
            seed=11,
        )
        driver = WorkloadDriver(plan, config, spec)
        coordinator = driver.build_coordinator()
        requests = []
        original = coordinator.submit

        def spy(*args, **kwargs):
            request = original(*args, **kwargs)
            requests.append(request)
            return request

        coordinator.submit = spy
        metrics = coordinator.run()
        assert metrics.shed_count > 0
        assert metrics.completed + metrics.shed_count == 8
        for request in requests:
            assert request.done.triggered
            value = request.done.value
            if request.shed:
                assert isinstance(value, QueryShed)
                assert value.query_id == request.query_id
                assert value.reason == "queue_timeout"
                assert value.service_class == "impatient"
                assert value.record in metrics.shed
            else:
                assert isinstance(value, QueryCompletion)
                assert value.query_id == request.query_id
