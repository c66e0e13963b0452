"""Every execution runs on a substrate: one protocol, alone or co-resident.

``QueryExecutor.run()`` is ``launch`` → run the environment → ``collect``
on a private :class:`~repro.engine.substrate.Substrate`; the serving
layer drives the same three steps on a shared one.  Here: the protocol
driven by hand equals ``run()`` field for field for DP, FP and SP; a lone
SP run honours its disciplines (it used to build bare FIFO devices); and
a long-lived machine keeps no per-query key on its devices once the query
has finished.
"""

import dataclasses

import pytest

from repro.engine import (ExecutionParams, QueryExecutor, Substrate,
                          SynchronousPipeliningExecutor)
from repro.serving import (AdmissionPolicy, ArrivalSpec, SharedSubstrate,
                           WorkloadDriver, WorkloadSpec)
from repro.sim import MachineConfig, NetworkParams
from repro.workloads import pipeline_chain_scenario


def chain(config, base_tuples=2000, chain_joins=3):
    plan, _ = pipeline_chain_scenario(
        nodes=config.nodes, processors_per_node=config.processors_per_node,
        base_tuples=base_tuples, chain_joins=chain_joins,
    )
    return plan


def by_hand(plan, config, strategy, params, substrate):
    executor = QueryExecutor(plan, config, strategy=strategy, params=params)
    execution = executor.launch(substrate)
    assert not execution.done
    substrate.env.run()
    assert execution.done and execution.finished.triggered
    return executor.collect(execution)


FAIR = ExecutionParams(cpu_discipline="fair", disk_discipline="fair",
                       net_discipline="priority",
                       network=NetworkParams(bandwidth=20e6))


class TestOneProtocol:
    @pytest.mark.parametrize("params", [ExecutionParams(), FAIR],
                             ids=["paper", "fair-finite-bandwidth"])
    @pytest.mark.parametrize("strategy,nodes", [("DP", 2), ("FP", 2),
                                                ("SP", 1)])
    def test_run_is_the_protocol_on_a_private_substrate(
            self, strategy, nodes, params):
        config = MachineConfig(nodes=nodes, processors_per_node=4)
        plan = chain(config)
        alone = QueryExecutor(plan, config, strategy=strategy,
                              params=params).run()
        for substrate in (Substrate(config, params),
                          SharedSubstrate(config, params)):
            result = by_hand(plan, config, strategy, params, substrate)
            assert dataclasses.asdict(result) == dataclasses.asdict(alone)
            assert substrate.contexts == []

    def test_sp_executor_and_query_executor_agree(self):
        config = MachineConfig(nodes=1, processors_per_node=4)
        plan = chain(config)
        direct = SynchronousPipeliningExecutor(plan, config, FAIR).run()
        facade = QueryExecutor(plan, config, strategy="SP", params=FAIR).run()
        assert dataclasses.asdict(direct) == dataclasses.asdict(facade)

    def test_a_context_refuses_a_machine_of_another_shape(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = chain(config, base_tuples=200, chain_joins=1)
        other = Substrate(MachineConfig(nodes=2, processors_per_node=4))
        for strategy in ("DP", "FP"):
            with pytest.raises(ValueError, match="substrate was built as"):
                QueryExecutor(plan, config, strategy=strategy).launch(other)
        one = MachineConfig(nodes=1, processors_per_node=2)
        with pytest.raises(ValueError, match="substrate was built as"):
            QueryExecutor(chain(one, 200, 1), one, strategy="SP").launch(
                Substrate(MachineConfig(nodes=1, processors_per_node=4)))


class TestLoneSPHonoursItsDisciplines:
    """Regression: a lone SP run built ``Disk(env, params.disk)`` and
    ``make_processors(env, config)`` with no discipline, so ``fair`` and
    ``priority`` were silently FIFO."""

    CONFIG = MachineConfig(nodes=1, processors_per_node=4)

    def response(self, **knobs):
        plan = chain(self.CONFIG)
        return QueryExecutor(plan, self.CONFIG, strategy="SP",
                             params=ExecutionParams(**knobs)).run()

    @pytest.mark.parametrize("discipline", ["fair", "priority"])
    def test_the_disks_run_the_spec_discipline(self, discipline):
        fifo = self.response()
        scheduled = self.response(disk_discipline=discipline)
        # The scheduled arm has no overlapped-prefetch shortcut, so the
        # same reads take longer and queue behind each other.
        assert scheduled.response_time > fifo.response_time
        assert scheduled.metrics.disk_wait_time > 0.0
        assert fifo.metrics.disk_wait_time == 0.0
        params = ExecutionParams(disk_discipline=discipline)
        substrate = Substrate(self.CONFIG, params)
        assert {d.discipline_name for d in substrate.disks[0]} == {discipline}
        by_hand_result = by_hand(chain(self.CONFIG), self.CONFIG, "SP",
                                 params, substrate)
        assert (dataclasses.asdict(by_hand_result)
                == dataclasses.asdict(scheduled))

    def test_fifo_is_what_it_always_was(self):
        # figure 6/7/8 are pinned byte for byte by baselines/determinism.txt;
        # this is the same fact at unit size (the value is the parent's).
        result = self.response()
        assert result.response_time == pytest.approx(0.13982708333333332,
                                                     rel=1e-12)
        assert result.metrics.result_tuples == 2000


class TestDevicesForgetFinishedQueries:
    def run_replay(self, queries):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan, _ = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                          base_tuples=120, chain_joins=2)
        params = ExecutionParams(disk_discipline="fair",
                                 net_discipline="fair",
                                 network=NetworkParams(bandwidth=2e6))
        spec = WorkloadSpec(
            queries=queries,
            arrival=ArrivalSpec(kind="closed", population=6),
            policy=AdmissionPolicy(max_multiprogramming=6),
            seed=3,
        )
        coordinator = WorkloadDriver(plan, config, spec,
                                     params).build_coordinator()
        return coordinator, coordinator.run()

    def test_no_device_holds_a_key_of_a_finished_query(self):
        coordinator, metrics = self.run_replay(300)
        assert metrics.completed == 300
        substrate = coordinator.substrate
        disks = [disk for row in substrate.disks for disk in row]
        assert all(disk.wait_by_key == {} for disk in disks)
        assert substrate.net_link.wait_by_key == {}
        # Taking the totals lost nothing: what the queries carried away is
        # what the devices saw.
        results = [c.result.metrics for c in metrics.completions]
        disk_wait = sum(disk.wait_time for disk in disks)
        assert disk_wait > 0.0 and substrate.net_link.wait_time > 0.0
        assert sum(m.disk_wait_time for m in results) == pytest.approx(
            disk_wait, rel=1e-9)
        assert sum(m.net_wait_time for m in results) == pytest.approx(
            substrate.net_link.wait_time, rel=1e-9)

    def test_sp_queries_take_their_keys_too(self):
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan, _ = pipeline_chain_scenario(nodes=1, processors_per_node=2,
                                          base_tuples=200, chain_joins=1)
        spec = WorkloadSpec(
            queries=12, strategy="SP",
            arrival=ArrivalSpec(kind="closed", population=3),
            policy=AdmissionPolicy(max_multiprogramming=3),
        )
        coordinator = WorkloadDriver(
            plan, config, spec, ExecutionParams(disk_discipline="fair"),
        ).build_coordinator()
        metrics = coordinator.run()
        assert metrics.completed == 12
        disks = coordinator.substrate.disks[0]
        assert sum(disk.wait_time for disk in disks) > 0.0
        assert all(disk.wait_by_key == {} for disk in disks)
