"""Unit tests for the machine, disk, and network models."""

import pytest

from repro.sim import (
    Disk,
    DiskParams,
    Environment,
    Machine,
    MachineConfig,
    MemoryExhausted,
    Network,
    NetworkParams,
)
from repro.sim.machine import make_processors


# ---------------------------------------------------------------------------
# MachineConfig / SMNode
# ---------------------------------------------------------------------------

class TestMachineConfig:
    def test_paper_defaults(self):
        config = MachineConfig()
        assert config.mips == 40e6
        assert config.page_size == 8 * 1024

    def test_total_processors(self):
        rows = make_processors(Environment(),
                               MachineConfig(nodes=4, processors_per_node=8))
        assert [len(row) for row in rows] == [8] * 4

    def test_describe_label(self):
        assert MachineConfig(nodes=4, processors_per_node=12).describe() == "4x12"

    def test_instructions_time(self):
        config = MachineConfig(mips=40e6)
        assert config.instructions_time(40e6) == pytest.approx(1.0)
        assert config.instructions_time(10_000) == pytest.approx(0.25e-3)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(nodes=0)
        with pytest.raises(ValueError):
            MachineConfig(processors_per_node=0)
        with pytest.raises(ValueError):
            MachineConfig(mips=0)


class TestSMNodeMemory:
    def test_reserve_release_cycle(self):
        machine = Machine(MachineConfig(nodes=1, processors_per_node=2))
        node = machine.node(0)
        total = node.capacity
        node.reserve(1000)
        assert node.used == 1000
        assert node.available == total - 1000
        node.release(1000)
        assert node.used == 0

    def test_overcommit_raises(self):
        node = Machine(MachineConfig()).node(0)
        with pytest.raises(MemoryExhausted):
            node.reserve(node.capacity + 1)

    def test_release_more_than_reserved_raises(self):
        node = Machine(MachineConfig()).node(0)
        node.reserve(10)
        with pytest.raises(ValueError):
            node.release(11)

    def test_high_watermark_tracks_peak(self):
        node = Machine(MachineConfig()).node(0)
        node.reserve(500)
        node.reserve(500)
        node.release(800)
        node.reserve(100)
        assert node.high_watermark == 1000

    def test_machine_iteration(self):
        machine = Machine(MachineConfig(nodes=3))
        assert len(machine) == 3
        assert [n.node_id for n in machine] == [0, 1, 2]


# ---------------------------------------------------------------------------
# Disk
# ---------------------------------------------------------------------------

class TestDisk:
    def test_service_time_formula(self):
        params = DiskParams()
        # 17 ms latency + 5 ms seek + 1 page at 6 MB/s
        expected = 17e-3 + 5e-3 + 8 * 1024 / (6 * 1024 * 1024)
        assert params.service_time(1) == pytest.approx(expected)

    def test_zero_pages_rejected(self):
        with pytest.raises(ValueError):
            DiskParams().service_time(0)

    def test_async_read_completes_after_service_time(self):
        env = Environment()
        disk = Disk(env, DiskParams())
        times = []

        def reader():
            handle = disk.read_async(4)
            assert not handle.done
            yield handle.event
            times.append(env.now)

        env.process(reader())
        env.run()
        assert times == [pytest.approx(DiskParams().service_time(4))]

    def test_fifo_queueing_serializes_requests(self):
        env = Environment()
        params = DiskParams()
        disk = Disk(env, params)
        finish_times = []

        def reader():
            h1 = disk.read_async(1)
            h2 = disk.read_async(1)
            yield h1.event
            finish_times.append(env.now)
            yield h2.event
            finish_times.append(env.now)

        env.process(reader())
        env.run()
        one = params.service_time(1)
        assert finish_times[0] == pytest.approx(one)
        assert finish_times[1] == pytest.approx(2 * one)

    def test_statistics(self):
        env = Environment()
        disk = Disk(env, DiskParams())

        def reader():
            yield disk.read_async(3).event

        env.process(reader())
        env.run()
        assert disk.requests == 1
        assert disk.pages_read == 3


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

class TestNetworkParams:
    def test_send_cost_rounds_up_to_8k_units(self):
        params = NetworkParams()
        assert params.send_instructions(1) == 10_000
        assert params.send_instructions(8 * 1024) == 10_000
        assert params.send_instructions(8 * 1024 + 1) == 20_000
        assert params.receive_instructions(16 * 1024) == 20_000


class TestNetwork:
    def _wire(self, env):
        network = Network(env)
        inboxes = {0: [], 1: []}
        network.register(0, inboxes[0].append)
        network.register(1, inboxes[1].append)
        return network, inboxes

    def test_delivery_after_delay(self):
        env = Environment()
        network, inboxes = self._wire(env)
        arrivals = []

        def sender():
            network.send(0, 1, "hello", {"x": 1}, nbytes=100)
            yield env.timeout(0)

        def watcher():
            yield env.timeout(1)
            arrivals.extend(inboxes[1])

        env.process(sender())
        env.process(watcher())
        env.run()
        assert len(arrivals) == 1
        message = arrivals[0]
        assert message.kind == "hello"
        assert message.payload == {"x": 1}
        assert message.sent_at == 0.0

    def test_local_send_rejected(self):
        env = Environment()
        network, _ = self._wire(env)
        with pytest.raises(ValueError):
            network.send(0, 0, "kind", None, nbytes=0)

    def test_unknown_destination_rejected(self):
        env = Environment()
        network, _ = self._wire(env)
        with pytest.raises(KeyError):
            network.send(0, 9, "kind", None, nbytes=0)

    def test_double_registration_rejected(self):
        env = Environment()
        network, _ = self._wire(env)
        with pytest.raises(ValueError):
            network.register(0, lambda m: None)

    def test_traffic_accounting_by_purpose(self):
        env = Environment()
        network, _ = self._wire(env)

        def sender():
            network.send(0, 1, "a", None, nbytes=1000, purpose="control")
            network.send(0, 1, "b", None, nbytes=5000, purpose="loadbalance")
            network.send(1, 0, "c", None, nbytes=2000, purpose="loadbalance")
            yield env.timeout(0)

        env.process(sender())
        env.run()
        assert network.messages_sent == 3
        assert network.bytes_sent == 8000
        assert network.bytes_for("loadbalance") == 7000
        assert network.messages_for("control") == 1
        assert network.bytes_for("unknown") == 0
